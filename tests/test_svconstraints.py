import math

import numpy as np
import pytest

from coulombgas import boson, svconstraints
from coulombgas.boson import BosonOperator, SlotField, TimeGrid, commutator, kernel_table, time_derivation
from coulombgas.fseries import TruncSeries
from coulombgas.kernel import Potential
from coulombgas.svconstraints import (
    BRACKET_ORIENTATION,
    BracketFamily,
    ConstraintOp,
    build_dynamical_constraint,
    constraint_functional,
    constraint_residual_mc,
    equilibrium_virasoro_op,
    hermite_cancellation_pairs,
    hermite_lin_quadr_bracket,
    hermite_pieces_total_operator,
    integrated_psi_weight,
    lin_core,
    lin_family_op,
    quadr_core,
    quadr_family_op,
    verify_sv_algebra_linear,
    verify_sv_algebra_quadratic,
    weak_field_score,
    weak_probe_profiles,
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


def _psi_weight_slot_loop(weight, coeffs, pot, n_particles, grid, k_max, ktable):
    """integrated_psi_weight one slot at a time, each slot's kernel-convolved
    derivative K_{p,l}(t_j - t_j') on x[l, j'], j' <= j, added by np.add.at:
    the reference for the ordered-reduction assembly."""
    op = BosonOperator(grid, k_max)
    coeffs = np.asarray(coeffs, dtype=float)
    sb = np.sqrt(pot.beta)
    ns = grid.nslots
    for p, up in weight.items():
        if p == 0:
            op.add_const(-sb * n_particles * up * float(np.sum(coeffs)) * grid.dt)
            continue
        for j in range(grid.nslots):
            c = coeffs[j] * up * grid.dt
            if c != 0.0:
                vids = (np.arange(k_max)[:, None] * ns + np.arange(j + 1)).ravel()
                np.add.at(op._ensure("d"), vids, sb * c * ktable[j::-1, p, 1:].T.ravel())
    return op


@pytest.mark.parametrize(
    "steps, k_max, block_bytes",
    [
        pytest.param(7, 3, None, id="7-3"),
        pytest.param(50, 4, None, id="50-4"),
        pytest.param(1000, 8, None, id="1000-8"),
        # tiles of 7 columns and 6 slots: many tiles, the last column block 2 wide
        pytest.param(50, 4, 1600, id="50-4-small-blocks"),
    ],
)
def test_psi_weight_by_lag_equals_the_slot_loop(monkeypatch, steps, k_max, block_bytes):
    """integrated_psi_weight adds its terms by ordered reductions and keeps
    each entry's order of terms, so d and the constant equal the slot-by-slot
    loop byte for byte: three potentials, weights with several powers (the
    constant mode, zero coefficients between powers), coefficient profiles
    with zero slots, and all-zero coefficients, which leave d None; with a
    small block budget, across many tiles and a short last one."""
    if block_bytes is not None:
        monkeypatch.setattr(boson, "_REDUCE_BLOCK_BYTES", block_bytes)
    grid = TimeGrid(1.0 / steps, steps)
    t = grid.times
    weights = [
        TruncSeries.from_dict({0: 0.7, 1: -1.3, 3: 0.4}),
        TruncSeries(1, 3, [1.0, 0.0, -2.5]),
        TruncSeries.from_dict({2: 0.25}),
    ]
    hole = np.where((t > 0.3) & (t < 0.45), 0.0, 1.0 + t**2)  # zero slots inside the window
    profiles = [bump(0.0, t[-1], 4)(t), hole, 0.3 - t, np.zeros(grid.nslots)]
    for pot in (HERMITE2, Potential(1.0, {1: 0.5, 3: 0.2}), Potential(4.0, {1: 1.0, 2: 0.3})):
        ktable = kernel_table(pot, grid, k_max)
        for weight in weights:
            for coeffs in profiles:
                got = integrated_psi_weight(weight, coeffs, pot, 5, grid, k_max, ktable)
                want = _psi_weight_slot_loop(weight, coeffs, pot, 5, grid, k_max, ktable)
                assert np.float64(got.const).tobytes() == np.float64(want.const).tobytes()
                if want.d is None:
                    assert got.d is None
                else:
                    assert got.d.tobytes() == want.d.tobytes()
                assert (got.x, got.xd, got.dd) == (None, None, None)
        zero = integrated_psi_weight(weights[1], profiles[3], pot, 5, grid, k_max, ktable)
        assert zero.d is None and zero.const == 0.0


def test_psi_weight_peak_memory():
    """A (1000 steps, k_max 8) psi-weight call stays within 1 MB of traced
    allocations: its reduction stacks are blocked (one unblocked stack of
    all slots over d would take 64 MB)."""
    import tracemalloc

    grid, k_max, pot = TimeGrid(1e-3, 1000), 8, Potential(2.0, {1: 0.5, 2: 0.3})
    ktable = kernel_table(pot, grid, k_max)
    coeffs = bump(0.0, 1.0, 4)(grid.times)
    tracemalloc.start()
    try:
        op = integrated_psi_weight(TruncSeries.from_dict({1: 1.0, 3: -0.5}), coeffs, pot, 5, grid, k_max, ktable)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.d is not None and np.any(op.d)
    assert peak < 1 << 20, peak


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
        family = BracketFamily(f, g, pot, n_part, grid, k_max, mode_int=6)
        reps = verify_sv_algebra_quadratic(family) + verify_sv_algebra_linear(family)
        for r in reps:
            resid.setdefault(r["relation"], []).append(r["residual"])
    for name, (r1, r2) in resid.items():
        ratio = r1 / r2
        assert 1.6 <= ratio <= 2.4, f"{name}: ratio {ratio}"


def test_sv_algebra_f_equals_g_is_exact_zero():
    grid = TimeGrid(0.05, 20)
    tmax = 1.0
    f = bump(0.0, tmax, 4)
    family = BracketFamily(f, f, HERMITE2, 5.0, grid, 6, mode_int=4)
    reps = verify_sv_algebra_quadratic(family)
    assert reps[2]["residual"] < 1e-12  # [A_1[f], A_1[f]] = 0 exactly
    lin = verify_sv_algebra_linear(family)
    assert lin[0]["residual"] < 1e-12
    assert lin[2]["residual"] < 1e-12


def test_sv_algebra_shared_family_builds_each_member_once(monkeypatch):
    """One (potential, grid) pass of both checks on one family builds the
    four quadratic members and the quadratic target, and the four linear
    members, once each; the kept members are read-only, down to the
    coefficient arrays of their slot fields and the basis those share."""
    from coulombgas import boson, svconstraints

    calls = {"quadr": 0, "lin": 0}

    def counted(kind, build):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return build(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(svconstraints, "quadr_family_op", counted("quadr", svconstraints.quadr_family_op))
    monkeypatch.setattr(svconstraints, "lin_family_op", counted("lin", svconstraints.lin_family_op))
    grid = TimeGrid(0.05, 20)
    f = bump(0.0, 1.0, 4)
    g = bump(0.0, 1.0, 4) * poly_t(1)
    family = BracketFamily(f, g, HERMITE2, 5.0, grid, 6, mode_int=4)
    verify_sv_algebra_quadratic(family)
    verify_sv_algebra_linear(family)
    assert calls == {"quadr": 5, "lin": 4}
    members = family.members
    assert sorted(members) == [(kind, v, label) for kind in ("lin", "quadr") for v in (0, 1) for label in ("f", "g")]
    for op in members.values():
        for arr in (op.x, op.d, op.xd, op.dd):
            assert arr is None or not getattr(arr, "coef", arr).flags.writeable
    quadr = [op for key, op in members.items() if key[0] == "quadr"]
    assert all(isinstance(op.xd, SlotField) and op.xd.basis is family.basis for op in quadr)
    assert all(members[("lin", v, label)].xd is None for v in (0, 1) for label in ("f", "g"))
    assert not family.basis.flags.writeable


FAMILY_POTENTIALS = {
    "hermite": HERMITE2,
    "generic": Potential(2.0, {1: 0.5, 2: 0.3}),
    "cubic": Potential(2.0, {1: 0.5, 3: 0.2}),  # the only one whose A_z member has a d-d field
}


@pytest.mark.parametrize("name", sorted(FAMILY_POTENTIALS))
@pytest.mark.parametrize("v_power", [0, 1], ids=["v=1", "v=z"])
@pytest.mark.parametrize("kind", ["quadr", "lin"])
def test_family_member_slot_fields_match_dense(kind, v_power, name):
    """A kept family member has the dense build's const, x and d fields bit
    for bit, and its slot fields act through apply and apply_T (``@`` and
    ``.T @``) as the dense x-d and d-d fields do, within 1e-12 relative."""
    pot, grid, k_max = FAMILY_POTENTIALS[name], TimeGrid(0.05, 20), 6
    f = bump(0.0, 1.0, 4) * poly_t(1)
    family = BracketFamily(f, f, pot, 5.0, grid, k_max, mode_int=4)
    got = family.member(kind, v_power, "f")
    want = (quadr_family_op if kind == "quadr" else lin_family_op)(v_power, f, *family.args)
    assert got.const == want.const
    for field in ("x", "d"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None and b is None) or np.array_equal(a, b), field
    vecs = np.random.default_rng(11).standard_normal((want.nvar, 5))
    for field in ("xd", "dd"):
        slot, dense = getattr(got, field), getattr(want, field)
        assert (slot is None) == (dense is None), field
        if dense is None:
            continue
        assert isinstance(slot, SlotField) and slot.sym == (field == "dd")
        for product, ref in ((slot.apply(vecs), dense @ vecs), (slot.apply_T(vecs), dense.T @ vecs), (slot.T @ vecs, dense.T @ vecs)):
            assert np.max(np.abs(product - ref)) <= 1e-12 * np.max(np.abs(ref)), field
    assert (got.xd is not None) == (kind == "quadr")
    assert (got.dd is not None) == (kind == "quadr" and v_power == 1 and name == "cubic")


#: Every report of both checks at TimeGrid(0.05, 20), k_max 6, mode_int 4,
#: N = 5, as the checks compute them: quadratic members as slot fields, each
#: bracket read through its probe products, each probe pairing from one GEMM.
SV_ALGEBRA_PINNED = {
    "hermite": [
        {"relation": "quadr [0,0] -> 0-type", "residual": 1.290009068145382, "scale": 8.875976482936872, "relative": 0.14533714353854904},
        {"relation": "quadr [-1,0] -> -1-type", "residual": 13.194489258367689, "scale": 56.075790494393104, "relative": 0.23529742767847342},
        {"relation": "quadr [-1,-1] -> 0", "residual": 2.5945910152792484, "scale": 2.5945910152792484, "relative": 1.0},
        {"relation": "linear [0,0] -> 0-type", "residual": 7.325328302987982, "scale": 11.334157572654618, "relative": 0.6463054934635329},
        {
            "relation": "linear [-1,0] -> -1-type",
            "residual": 6.062216287757877,
            "scale": 7.704848760731641,
            "relative": 0.7868053580304434,
            "as_stated_residual": 4.184799693152154,
            "as_stated_relative": 0.351970010667992,
        },
        {"relation": "linear [-1,-1] -> 0", "residual": 201.93941013274082, "scale": 201.93941013274082, "relative": 1.0},
    ],
    "generic": [
        {"relation": "quadr [0,0] -> 0-type", "residual": 1.8414563525714511, "scale": 9.789105363728096, "relative": 0.18811283402819035},
        {"relation": "quadr [-1,0] -> -1-type", "residual": 13.248393230234214, "scale": 130.94107346027295, "relative": 0.10117828485844611},
        {"relation": "quadr [-1,-1] -> 0", "residual": 3.001058726452502, "scale": 3.001058726452502, "relative": 1.0},
        {"relation": "linear [0,0] -> 0-type", "residual": 8.550792172288883, "scale": 12.56227031815239, "relative": 0.6806725182416311},
        {
            "relation": "linear [-1,0] -> -1-type",
            "residual": 6.184632204533038,
            "scale": 9.260654146205905,
            "relative": 0.667839669519122,
            "as_stated_residual": 5.792865641508152,
            "as_stated_relative": 0.7533347855729667,
        },
        {"relation": "linear [-1,-1] -> 0", "residual": 198.6151385647637, "scale": 198.6151385647637, "relative": 1.0},
    ],
}


@pytest.mark.parametrize("name", sorted(SV_ALGEBRA_PINNED))
def test_sv_algebra_reports_pinned(name):
    """Exact residuals and scales of both checks on one family."""
    pot = {"hermite": HERMITE2, "generic": Potential(2.0, {1: 0.5, 2: 0.3})}[name]
    grid = TimeGrid(0.05, 20)
    f = bump(0.0, 1.0, 4)
    g = bump(0.0, 1.0, 4) * poly_t(1)
    family = BracketFamily(f, g, pot, 5.0, grid, 6, mode_int=4)
    reps = verify_sv_algebra_quadratic(family) + verify_sv_algebra_linear(family)
    assert reps == SV_ALGEBRA_PINNED[name]


def _dense_sv_reports(f, g, pot, n_particles, grid, k_max, mode_int):
    """Test-only oracle: the reports of both checks from dense brackets, as
    ``commutator``, ``lhs - rhs`` and ``weak_field_score`` on whole operators."""
    tab = kernel_table(pot, grid, k_max)
    probes = weak_probe_profiles(grid, mode_int)
    mkq = lambda v, fn: quadr_family_op(v, fn, pot, n_particles, grid, k_max, tab)
    mkl = lambda v, fn: lin_family_op(v, fn, pot, n_particles, grid, k_max, tab)

    def report(name, lhs, rhs_displayed):
        rhs = BRACKET_ORIENTATION * rhs_displayed
        resid = weak_field_score(lhs - rhs, probes)
        scale = max(weak_field_score(lhs, probes), weak_field_score(rhs, probes), 1e-30)
        return {"relation": name, "residual": resid, "scale": scale}

    h = f.deriv(1) * g - f * g.deriv(1)
    h2 = f.deriv(2) * g - 0.5 * (f.deriv(1) * g.deriv(1))
    zero = BosonOperator(grid, k_max)
    lin_target2 = 2.0 * lin_core(0, h2.deriv(2), h2, pot, n_particles, grid, k_max, tab)
    corr = lin_core(0, f.deriv(3) * g.deriv(1) - f.deriv(1) * g.deriv(3), TimePoly([0.0]), pot, n_particles, grid, k_max, tab)
    lhs2 = commutator(mkl(0, f), mkq(1, g)) - commutator(mkl(1, f), mkq(0, g))
    mixed = report("linear [-1,0] -> -1-type", lhs2, lin_target2 - corr)
    mixed["as_stated_residual"] = report("", lhs2, lin_target2)["residual"]
    return [
        report("quadr [0,0] -> 0-type", commutator(mkq(1, f), mkq(1, g)), 4.0 * quadr_family_op(1, 0.5 * h, pot, n_particles, grid, k_max, tab)),
        report("quadr [-1,0] -> -1-type", commutator(mkq(0, f), mkq(1, g)), 2.0 * quadr_core(0, h2.deriv(1), h2, pot, n_particles, grid, k_max, tab)),
        report("quadr [-1,-1] -> 0", commutator(mkq(0, f), mkq(0, g)), zero),
        report(
            "linear [0,0] -> 0-type",
            commutator(mkl(1, f), mkq(1, g)) - commutator(mkl(1, g), mkq(1, f)),
            lin_core(1, 2.0 * h.deriv(3), 2.0 * h.deriv(1), pot, n_particles, grid, k_max, tab),
        ),
        mixed,
        report("linear [-1,-1] -> 0", commutator(mkl(0, f), mkq(0, g)) - commutator(mkl(0, g), mkq(0, f)), zero),
    ]


@pytest.mark.parametrize("name", ["hermite", "generic"])
def test_sv_algebra_probe_form_matches_dense_reference(name):
    """The checks read each bracket through its probe products; the dense
    brackets give the same residuals and scales up to rounding."""
    pot = {"hermite": HERMITE2, "generic": Potential(2.0, {1: 0.5, 2: 0.3})}[name]
    grid = TimeGrid(0.04, 25)
    f = bump(0.0, 1.0, 4)
    g = bump(0.0, 1.0, 4) * poly_t(1)
    family = BracketFamily(f, g, pot, 5.0, grid, 7, mode_int=5)
    reps = verify_sv_algebra_quadratic(family) + verify_sv_algebra_linear(family)
    want = _dense_sv_reports(f, g, pot, 5.0, grid, 7, 5)
    assert [r["relation"] for r in reps] == [w["relation"] for w in want]
    for got, ref in zip(reps, want):
        for key, value in ref.items():
            if key != "relation":
                assert got[key] == pytest.approx(value, rel=1e-12, abs=0.0), (ref["relation"], key)


def test_sv_algebra_quadratic_peak_memory():
    """The check holds its family members and targets as slot fields over one
    shared kernel basis, the only nvar x nvar array: at the fine default grid
    (808 variables, 5.2 MB per such array) it peaks at about 7.2 MB, so the
    10 MB bound fails if a single dense nvar x nvar field comes back."""
    import tracemalloc

    grid = TimeGrid(0.01, 100)
    f = bump(0.0, 1.0, 4)
    g = f * poly_t(1)
    family = BracketFamily(f, g, HERMITE2, 5, grid, 8, mode_int=6)
    tracemalloc.start()
    try:
        verify_sv_algebra_quadratic(family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, peak


def test_sv_algebra_truncation_independence():
    """Interior residuals unchanged when the mode window is raised by 2."""
    pot = HERMITE2
    grid = TimeGrid(0.02, 50)
    f = bump(0.0, 1.0, 4)
    g = bump(0.0, 1.0, 4) * poly_t(1)
    r8 = verify_sv_algebra_quadratic(BracketFamily(f, g, pot, 5.0, grid, 8, mode_int=5))
    r10 = verify_sv_algebra_quadratic(BracketFamily(f, g, pot, 5.0, grid, 10, mode_int=5))
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


def test_hermite_cancellation_pairs_pinned():
    """Exact report values on a small grid, as the row-block build computes
    them: a change of any piece's operation order shows here."""
    grid = TimeGrid(0.05, 20)
    f = bump(0.0, 1.0, 3)
    g = bump(0.0, 1.0, 3) * poly_t(1)
    rep = hermite_cancellation_pairs(f, g, 0.8, 5.0, grid, 5)
    assert rep == {
        "C11+C4": {"residual": 2.0551995892582777, "magnitude": 46.56692936463744, "relative": 0.04413431629054288},
        "C12+C3": {"residual": 1e-30, "magnitude": 46.56692936463744, "relative": 2.1474467259148768e-32},
        "C13+C2": {"residual": 1e-30, "magnitude": 4.939742208915035, "relative": 2.0243971399868657e-31},
        "C5+C6": {"residual": 0.4428051570526117, "magnitude": 23.28346468231872, "relative": 0.019018009694617075},
    }


@pytest.mark.parametrize("steps", [600, 1200])
def test_hermite_cancellation_pairs_peak_memory(steps):
    """One row block of one mode's pieces is held at a time, and no ns x ns
    array is formed: at 601 and 1 201 slots (k_max 6) the call peaks at
    about 5 MB, where a single dense 1 201 x 1 201 array takes 11.5 MB."""
    import tracemalloc

    grid = TimeGrid(3.0 / steps, steps)
    f = bump(0.0, 3.0, 3)
    g = bump(0.0, 3.0, 3) * poly_t(1)
    tracemalloc.start()
    try:
        hermite_cancellation_pairs(f, g, 1.0, 5.0, grid, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6, peak


def _dense_mode_pieces(f, g, k, sigma, grid):
    """Dense oracle of the mode-k pieces (C1, C12, C13, C4) of the (f, g)
    direction: the double integrals as GEMMs of exp-built triangular kernels,
    dt^2 w ((F (x) h) o E_{k-1}) @ E_{k-2} with h = g'' and -g'/sigma^2."""
    t, dt = grid.times, grid.dt
    e1, e2 = (np.tril(np.exp(-c * (t[:, None] - t[None, :]) / sigma**2)) for c in (k - 1, k - 2))
    F, gd, gdd = f.deriv(1)(t) / sigma**2 + f.deriv(2)(t), g.deriv(1)(t), g.deriv(2)(t)
    w = float(k * (k - 1))
    c1 = dt * dt * w * (((F[:, None] * gdd[None, :]) * e1) @ e2)
    c13 = -dt * dt * w * (((F[:, None] * gd[None, :] / sigma**2) * e1) @ e2)
    return c1, -dt * w * (F[:, None] * gd[None, :]) * e1, c13, -dt * w * (F * gd)[:, None] * e2


@pytest.mark.parametrize("sigma", [0.1, 0.8, 1.0])
def test_hermite_mode_pieces_match_dense_oracle(monkeypatch, sigma):
    """The row-block pieces, stitched over blocks, equal the dense GEMM
    oracle within 1e-12 of its max, for both directions and every mode, on a
    grid of 4 row blocks whose last is short, so every block seam is read."""
    monkeypatch.setattr(svconstraints, "_ROW_BLOCK_BYTES", 8 * 41 * 12)
    grid, k_max = TimeGrid(0.025, 40), 6
    blocks = svconstraints._row_blocks(grid.nslots)
    assert [b.stop - b.start for b in blocks] == [12, 12, 12, 5]
    f = bump(0.0, 1.0, 3)
    g = f * poly_t(1)
    fs, gs, lags, _, _ = svconstraints._hermite_setup(f, g, sigma, 5.0, grid, k_max)
    for (a, b), (sa, sb) in (((f, g), (fs, gs)), ((g, f), (gs, fs))):
        for k in range(3, k_max + 1):
            stitched = np.zeros((4, grid.nslots, grid.nslots))
            for rows in blocks:
                stitched[:, rows, : rows.stop] = svconstraints._hermite_mode_pieces(sa, sb, k, rows, lags, grid.dt)
            for got, want in zip(stitched, _dense_mode_pieces(a, b, k, sigma, grid)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (k, sigma)


@pytest.mark.parametrize("steps", [100, 150])
def test_short_constraint_grids_build(steps):
    """Each derivative's end values are measured against its own grid max,
    so short windows, whose derivatives grow like 1/t_max^r, are accepted;
    a bump of order 3 (third derivative nonzero at the ends) is not."""
    grid = TimeGrid(1e-3, steps)
    tmax = grid.dt * grid.steps
    for n in (-1, 0):
        build_dynamical_constraint(n, bump(0.0, tmax, 4), HERMITE2, 5, grid, 4, parts="affine")
    with pytest.raises(ValueError, match="3 derivatives"):
        build_dynamical_constraint(-1, bump(0.0, tmax, 3), HERMITE2, 5, grid, 4, parts="affine")


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


@pytest.mark.parametrize("sigma", [1.0, 1.5])
@pytest.mark.parametrize("dt", [0.02, 0.01])
def test_hermite_lin_quadr_affine_equals_full_bracket(sigma, dt):
    """The bracket's scalar part from affine quadratic parts equals, bit for
    bit, the scalar of the full bracket: both commutators of operators with
    every field built, subtracted as operators."""
    pot = Potential(2.0, {1: 1.0 / sigma**2})
    grid = TimeGrid(dt, int(round(1.0 / dt)))
    f = bump(0.0, 1.0, 4)
    g = f * poly_t(1)
    ktable = kernel_table(pot, grid, 6)
    lin = lambda fn: lin_core(0, fn.deriv(2), fn, pot, 5, grid, 6, ktable)
    quadr = {fn: quadr_core(0, fn.deriv(1), fn, pot, 5, grid, 6, ktable, parts="full") for fn in (f, g)}
    assert all(q.xd is not None for q in quadr.values())
    full = commutator(lin(f), quadr[g]) - commutator(lin(g), quadr[f])
    rep = hermite_lin_quadr_bracket(f, g, pot, 5, grid, 6)
    assert rep["const_minus_analytic"] == abs(full.const - rep["analytic_total_derivative"])


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


def test_constraint_functional_without_derivative_part_is_zero():
    """On a 2-step grid the n = 0 label's derivatives vanish on every slot,
    so the affine constraint has no derivative part: its functional is the
    zero functional, and the residual is the constant alone."""
    grid = TimeGrid(1e-3, 2)
    cop = build_dynamical_constraint(0, bump(0.0, grid.dt * grid.steps, 4), HERMITE2, 5, grid, 4, parts="affine")
    assert cop.total().d is None
    assert constraint_functional(cop) == {"s": {}}


def test_constraint_functional_rejects_second_derivative_block():
    """A quartic force gives the full n = 0 operator a d-d block, which the
    order-tau^0 functional cannot carry; the affine operator has none."""
    pot = Potential(2.0, {1: 1.0, 3: 0.2})
    grid = TimeGrid(0.05, 16)
    a = bump(0.0, grid.dt * grid.steps, 4)
    with pytest.raises(ValueError, match="second-derivative"):
        constraint_functional(build_dynamical_constraint(0, a, pot, 5.0, grid, 6))
    assert constraint_functional(build_dynamical_constraint(0, a, pot, 5.0, grid, 6, parts="affine"))["s"]
