import math

import numpy as np
import pytest

from coulombgas.boson import TimeGrid, commutator, kernel_table, time_derivation
from coulombgas.kernel import Potential
from coulombgas.svconstraints import (
    ConstraintOp,
    build_dynamical_constraint,
    constraint_functional,
    constraint_residual_mc,
    equilibrium_virasoro_op,
    hermite_cancellation_pairs,
    hermite_lin_quadr_bracket,
    hermite_pieces_total_operator,
    quadr_core,
    verify_sv_algebra_linear,
    verify_sv_algebra_quadratic,
)
from coulombgas.timefunc import TimePoly, bump, poly_t

HERMITE2 = Potential(2.0, {1: 1.0})


# ------------------------------------------------------- equilibrium sector


def test_equilibrium_op_structure():
    pot = Potential(2.0, {1: 0.7, 2: 0.1})
    op = equilibrium_virasoro_op(-1, pot, 8)
    # pure derivative part sum_l b_l d_l
    assert op.d[op.vid(1, 0)] == pytest.approx(0.7)
    assert op.d[op.vid(2, 0)] == pytest.approx(0.1)
    # oscillator part k tau_k d_{k-1}
    assert op.xd[op.vid(3, 0), op.vid(2, 0)] == pytest.approx(3.0)
    # no dd part for n = -1
    assert op.dd is None or not np.any(op.dd)


def test_equilibrium_op_beta_terms():
    pot = Potential(4.0, {1: 1.0})
    op2 = equilibrium_virasoro_op(2, pot, 8)
    # (beta/2) d_1 d_1 from the k = 1 term of the double-derivative sum
    assert op2.dd[op2.vid(1, 0), op2.vid(1, 0)] == pytest.approx(2.0)
    # (beta/2 - 1)(n + 1) d_n
    assert op2.d[op2.vid(2, 0)] == pytest.approx((4 / 2 - 1) * 3)


@pytest.mark.parametrize("m,n", [(-1, 0), (-1, 1), (0, 1)])
def test_equilibrium_virasoro_bracket(m, n):
    """[L_m, L_n] = (m - n) L_{m+n} on interior modes (free potential)."""
    pot = Potential(2.0, {})
    k_max = 10
    lm = equilibrium_virasoro_op(m, pot, k_max)
    ln = equilibrium_virasoro_op(n, pot, k_max)
    lmn = equilibrium_virasoro_op(m + n, pot, k_max)
    diff = commutator(lm, ln) - float(m - n) * lmn
    mask = diff.interior_mask(k_max - 2, 0, 0)
    assert diff.field_max_abs(mask) < 1e-12


def test_equilibrium_virasoro_bracket_beta4():
    pot = Potential(4.0, {})
    k_max = 12
    lm = equilibrium_virasoro_op(1, pot, k_max)
    ln = equilibrium_virasoro_op(-1, pot, k_max)
    diff = commutator(lm, ln) - 2.0 * equilibrium_virasoro_op(0, pot, k_max)
    mask = diff.interior_mask(k_max - 3, 0, 0)
    assert diff.field_max_abs(mask) < 1e-12


# -------------------------------------------- dynamical constraint assembly


def _grid(dt=0.05, steps=16):
    return TimeGrid(dt, steps)


def test_constraint_neg1_matches_gaussian_displays():
    """Gaussian-case term-by-term check of the n = -1 constraint parts."""
    sigma, n_part, k_max = 1.0, 5.0, 4
    grid = _grid()
    tmax = grid.dt * grid.steps
    a = bump(0.0, tmax, 4)
    cop = build_dynamical_constraint(-1, a, HERMITE2, n_part, grid, k_max)
    t = grid.times
    dt = grid.dt

    # linear part: coefficient (a'' - a/sigma^4) on the kernel-convolved mode 1
    want_lin = np.zeros(cop.lin.nvar)
    coeff = a.deriv(2)(t) - a(t)
    for s in range(grid.nslots):
        want_lin[cop.lin.vid(1, s)] = np.sum(coeff[s:] * np.exp(-(t[s:] - t[s])) * dt)
    assert np.max(np.abs(cop.lin.d - want_lin)) < 1e-12

    # quadratic part: -(a' + a) P - a Phi on the grid
    f1 = a.deriv(1)(t) + a(t)
    q = cop.quadr
    # tau_1 coefficient from the -N tau_1 inside P
    for j in range(grid.nslots):
        assert q.x[q.vid(1, j)] == pytest.approx(n_part * dt * f1[j])
    # convolved tau_k d_{k-1} and the local Phi part
    k = 3
    for j in (4, 9):
        for s in range(j + 1):
            want = -dt * f1[j] * k * math.exp(-(k - 1) * (t[j] - t[s]))
            if s == j:
                want += -dt * a(t[j]) * k / dt
            assert q.xd[q.vid(k, j), q.vid(k - 1, s)] == pytest.approx(want, rel=1e-12)
    assert cop.diff is None


def test_constraint_n0_parts():
    sigma, n_part, k_max = 1.0, 3.0, 4
    grid = _grid()
    tmax = grid.dt * grid.steps
    a = bump(0.0, tmax, 4)
    cop = build_dynamical_constraint(0, a, HERMITE2, n_part, grid, k_max)
    t, dt = grid.times, grid.dt
    # linear coefficient (a'''/4 - a'/sigma^4) on the convolved mode 2,
    # following the half-normalized family (the doubled form carries 2x)
    coeff = 0.5 * (0.5 * a.deriv(3)(t) - 2.0 * a.deriv(1)(t))
    want = np.zeros(cop.lin.nvar)
    for s in range(grid.nslots):
        want[cop.lin.vid(2, s)] = np.sum(coeff[s:] * np.exp(-2.0 * (t[s:] - t[s])) * dt)
    assert np.max(np.abs(cop.lin.d - want)) < 1e-12
    # differential part present with multiplier structure only
    assert cop.diff is not None and cop.diff.xd is not None
    assert cop.diff.d is None and cop.diff.x is None
    # zero test function gives the zero operator
    zero = build_dynamical_constraint(0, TimePoly([0.0]), HERMITE2, n_part, grid, k_max)
    assert zero.total().field_max_abs() == 0.0


def test_constraint_support_guard():
    grid = _grid()
    with pytest.raises(ValueError):
        build_dynamical_constraint(-1, poly_t(1), HERMITE2, 1.0, grid, 4)


# ----------------------------------------------------------- bracket suites


@pytest.mark.parametrize(
    "pot", [HERMITE2, Potential(2.0, {1: 0.5, 2: 0.3})], ids=["hermite", "generic"]
)
def test_sv_algebra_first_order_convergence(pot):
    n_part, k_max = 5.0, 8
    resid = {}
    for dt, steps in ((0.02, 50), (0.01, 100)):
        grid = TimeGrid(dt, steps)
        tmax = dt * steps
        f = bump(0.0, tmax, 4)
        g = bump(0.0, tmax, 4) * poly_t(1)
        tab = kernel_table(pot, grid, k_max)
        reps = verify_sv_algebra_quadratic(f, g, pot, n_part, grid, k_max, mode_int=6, ktable=tab)
        reps += verify_sv_algebra_linear(f, g, pot, n_part, grid, k_max, mode_int=6, ktable=tab)
        for r in reps:
            resid.setdefault(r["relation"], []).append(r["residual"])
    for name, (r1, r2) in resid.items():
        ratio = r1 / r2
        assert 1.6 <= ratio <= 2.4, f"{name}: ratio {ratio}"


def test_sv_algebra_f_equals_g_is_exact_zero():
    grid = TimeGrid(0.05, 20)
    tmax = 1.0
    f = bump(0.0, tmax, 4)
    tab = kernel_table(HERMITE2, grid, 6)
    reps = verify_sv_algebra_quadratic(f, f, HERMITE2, 5.0, grid, 6, mode_int=4, ktable=tab)
    assert reps[2]["residual"] < 1e-12  # [A_1[f], A_1[f]] = 0 exactly
    lin = verify_sv_algebra_linear(f, f, HERMITE2, 5.0, grid, 6, mode_int=4, ktable=tab)
    assert lin[0]["residual"] < 1e-12
    assert lin[2]["residual"] < 1e-12


def test_sv_algebra_truncation_independence():
    """Interior residuals unchanged when the mode window is raised by 2."""
    pot = HERMITE2
    grid = TimeGrid(0.02, 50)
    f = bump(0.0, 1.0, 4)
    g = bump(0.0, 1.0, 4) * poly_t(1)
    r8 = verify_sv_algebra_quadratic(f, g, pot, 5.0, grid, 8, mode_int=5)
    r10 = verify_sv_algebra_quadratic(f, g, pot, 5.0, grid, 10, mode_int=5)
    for a, b in zip(r8, r10):
        assert a["residual"] == pytest.approx(b["residual"], abs=1e-10)


# -------------------------------------------------- Gaussian-case specifics


def test_hermite_pieces_match_machinery():
    grid = TimeGrid(0.05, 16)
    tmax = 0.8
    f = bump(0.0, tmax, 4)
    g = bump(0.0, tmax, 4) * poly_t(1)
    tab = kernel_table(HERMITE2, grid, 5)
    br = commutator(
        quadr_core(0, f.deriv(2), f.deriv(1), HERMITE2, 5.0, grid, 5, tab),
        quadr_core(0, g.deriv(2), g.deriv(1), HERMITE2, 5.0, grid, 5, tab),
    )
    pieces = hermite_pieces_total_operator(f, g, 1.0, 5.0, grid, 5)
    assert (br - pieces).field_max_abs() < 1e-12


def test_hermite_cancellation_pairs_trend():
    rel = {}
    for dt in (0.01, 0.005):
        grid = TimeGrid(dt, int(round(3.0 / dt)))
        f = bump(0.0, 3.0, 3)
        g = bump(0.0, 3.0, 3) * poly_t(1)
        rep = hermite_cancellation_pairs(f, g, 1.0, 5.0, grid, 6)
        for k, v in rep.items():
            rel.setdefault(k, []).append(v["relative"])
    # display-level pairs cancel identically; the discrete-IBP pairs at O(dt)
    assert rel["C12+C3"][1] < 1e-14
    assert rel["C13+C2"][1] < 1e-14
    assert rel["C11+C4"][1] < 1e-3
    assert rel["C5+C6"][1] < 1e-3
    assert 1.5 <= rel["C11+C4"][0] / rel["C11+C4"][1] <= 2.5
    assert 1.5 <= rel["C5+C6"][0] / rel["C5+C6"][1] <= 4.5


def test_hermite_lin_quadr_total_derivative():
    vals = []
    for dt in (0.01, 0.005):
        grid = TimeGrid(dt, int(round(1.0 / dt)))
        f = bump(0.0, 1.0, 4)
        g = bump(0.0, 1.0, 4) * poly_t(1)
        rep = hermite_lin_quadr_bracket(f, g, HERMITE2, 5.0, grid, 6)
        # the exact total-derivative quadrature vanishes for polynomials
        assert abs(rep["analytic_total_derivative"]) < 1e-9
        vals.append(rep["const_minus_analytic"])
    assert 1.6 <= vals[0] / vals[1] <= 2.4


# ------------------------------------------------ MC residual plumbing


class _StubEnsemble:
    """Carries the constraint functional of cop under the name "c", formed
    from given action densities s[replica, mode - 1, slot]."""

    def __init__(self, cop, s):
        spec = constraint_functional(cop)
        self.functional_samples = {"c": sum(s[:, l - 1] @ w for l, w in spec["s"].items())}


def test_constraint_residual_mc_linear_combination():
    """Order-0 residual is exactly const - dt * sum(d * mean S)."""
    grid = TimeGrid(0.05, 16)
    tmax = grid.dt * grid.steps
    a = bump(0.0, tmax, 4)
    cop = build_dynamical_constraint(0, a, HERMITE2, 5.0, grid, 4)
    rng = np.random.default_rng(0)
    m_rep = 400
    modes = [1, 2, 3, 4]
    base = rng.standard_normal((len(modes), grid.nslots))
    samples = base[None] + 0.1 * rng.standard_normal((m_rep, len(modes), grid.nslots))
    ens = _StubEnsemble(cop, samples)
    mean, se = constraint_residual_mc(cop, ens, "c")
    op = cop.total()
    w = op.d.reshape(op.k_max, grid.nslots)
    sbar = samples.mean(axis=0)
    want = op.const - grid.dt * sum(sbar[i] @ w[l - 1] for i, l in enumerate(modes))
    assert mean == pytest.approx(want, rel=1e-12)
    assert se > 0.0


def test_affine_constraint_has_no_time_derivation():
    """parts="affine" builds the n = 0 operator without its time derivation
    (no dense x-d block), and the order-0 residual is the same as with it."""
    grid = TimeGrid(0.05, 16)
    a = bump(0.0, grid.dt * grid.steps, 4)
    cop = build_dynamical_constraint(0, a, HERMITE2, 5.0, grid, 4, parts="affine")
    assert cop.diff is None and cop.total().xd is None
    with_diff = ConstraintOp(0, a, cop.lin, cop.quadr, (-1.0) * time_derivation(a, grid, 4))
    rng = np.random.default_rng(1)
    s = rng.standard_normal((300, 4, grid.nslots))
    assert constraint_residual_mc(cop, _StubEnsemble(cop, s), "c") == constraint_residual_mc(with_diff, _StubEnsemble(with_diff, s), "c")


def test_constraint_residual_mc_exact_moment_profile():
    """With S-samples set to the exact Gaussian-case moment profiles the
    order-0 residual reduces to quadrature error O(dt)."""
    n_part = 5.0
    vals = []
    for dt in (0.02, 0.01):
        grid = TimeGrid(dt, int(round(1.0 / dt)))
        tmax = grid.dt * grid.steps
        a = bump(0.0, tmax, 4)
        cop = build_dynamical_constraint(0, a, HERMITE2, n_part, grid, 4)
        # exact expectations: E S_1 = 0; E S_2 = 2 N^2 (beta = 2, sigma = 1);
        # higher modes: stationary-start closed forms are not needed since
        # the operator only touches modes 1, 2
        s = np.zeros((1, 4, grid.nslots))
        s[0, 1, :] = 2.0 * n_part**2
        mean, _ = constraint_residual_mc(cop, _StubEnsemble(cop, s), "c")
        vals.append(abs(mean))
    # the n=0 constraint with exact moments: residual pure discretization
    scale = 2.0 * n_part**2
    assert vals[0] / scale < 0.05
    assert vals[1] <= vals[0]


def test_constraint_functional_rejects_second_derivative_block():
    """A quartic force gives the full n = 0 operator a d-d block, which the
    order-tau^0 functional cannot carry; the affine operator has none."""
    pot = Potential(2.0, {1: 1.0, 3: 0.2})
    grid = TimeGrid(0.05, 16)
    a = bump(0.0, grid.dt * grid.steps, 4)
    with pytest.raises(ValueError, match="second-derivative"):
        constraint_functional(build_dynamical_constraint(0, a, pot, 5.0, grid, 6))
    assert constraint_functional(build_dynamical_constraint(0, a, pot, 5.0, grid, 6, parts="affine"))["s"]
