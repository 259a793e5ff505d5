import math

import numpy as np
import pytest

from coulombgas.boson import (
    BosonOperator,
    accumulate_quadratic,
    PolyFunctional,
    TimeGrid,
    apply,
    commutator,
    commutator_probed,
    dynamic_boson,
    kernel_table,
    kernel_toeplitz,
    normal_ordered_quadratic,
    static_boson,
    time_derivation,
)
from coulombgas.fseries import TruncSeries
from coulombgas.kernel import Potential, retarded_propagator_modes
from coulombgas.timefunc import TimePoly, bump, poly_t

GRID = TimeGrid(0.1, 6)
HERMITE2 = Potential(2.0, {1: 1.0})


# ------------------------------------------------------------ naive oracle


class NaiveOp:
    """Independent term-list operator engine: coeff * x-monomial * d-product."""

    def __init__(self, terms):
        self.terms = list(terms)  # (coeff, mult tuple, der tuple)

    def apply(self, poly):
        out = {}
        for c, mult, ders in self.terms:
            for mono, mc in poly.items():
                work = {mono: mc * c}
                for u in ders:
                    nxt = {}
                    for m, v in work.items():
                        cnt = m.count(u)
                        if cnt:
                            lst = list(m)
                            lst.remove(u)
                            key = tuple(lst)
                            nxt[key] = nxt.get(key, 0.0) + v * cnt
                    work = nxt
                for m, v in work.items():
                    key = tuple(sorted(m + mult))
                    out[key] = out.get(key, 0.0) + v
        return {k: v for k, v in out.items() if v != 0.0}


def op_from_naive(grid, k_max, naive):
    op = BosonOperator(grid, k_max)
    for c, mult, ders in naive.terms:
        if len(mult) == 0 and len(ders) == 0:
            op.add_const(c)
        elif len(mult) == 1 and len(ders) == 0:
            op.add_x(mult[0], c)
        elif len(mult) == 0 and len(ders) == 1:
            op.add_d(ders[0], c)
        elif len(mult) == 1 and len(ders) == 1:
            op.add_xd(mult[0], ders[0], c)
        elif len(mult) == 0 and len(ders) == 2:
            op.add_dd(ders[0], ders[1], c)
        else:
            raise ValueError("outside the canonical class")
    return op


def test_apply_matches_naive_oracle():
    rng = np.random.default_rng(11)
    grid, k_max = GRID, 3
    nvar = k_max * grid.nslots
    vids = rng.integers(0, nvar, size=12)
    naive = NaiveOp(
        [
            (1.7, (int(vids[0]),), (int(vids[1]),)),
            (-0.6, (), (int(vids[2]), int(vids[3]))),
            (0.9, (int(vids[4]),), ()),
            (2.2, (), (int(vids[5]),)),
            (0.4, (), ()),
        ]
    )
    op = op_from_naive(grid, k_max, naive)
    poly = {
        (int(vids[6]), int(vids[7])): 1.3,
        (int(vids[8]),): -0.7,
        (int(vids[2]), int(vids[2])): 0.5,
        (): 2.0,
    }
    f = PolyFunctional(grid, k_max, poly)
    got = apply(op, f)
    want = naive.apply(poly)
    assert got.max_abs_diff(PolyFunctional(grid, k_max, want)) < 1e-12


def test_apply_trivial_examples():
    grid, k_max = GRID, 3
    one = PolyFunctional.constant(grid, k_max)
    mult = BosonOperator(grid, k_max)
    mult.add_x(mult.vid(1, 0), 1.0)
    assert apply(mult, one).terms == {(mult.vid(1, 0),): 1.0}
    der = BosonOperator(grid, k_max)
    v23 = der.vid(2, 3)
    der.add_d(v23, 1.0)
    sq = PolyFunctional(grid, k_max, {(v23, v23): 1.0})
    assert apply(der, sq).terms == {(v23,): 2.0}


def test_apply_linearity():
    rng = np.random.default_rng(5)
    grid, k_max = GRID, 2
    op = BosonOperator(grid, k_max)
    op.add_xd(op.vid(1, 1), op.vid(2, 0), 1.4)
    op.add_d(op.vid(2, 2), -0.3)
    f = PolyFunctional(grid, k_max, {(op.vid(2, 0), op.vid(2, 2)): 1.0})
    g = PolyFunctional(grid, k_max, {(op.vid(2, 2),): 2.0, (): 1.0})
    a, b = 1.3, -0.8
    lhs = apply(op, a * f + b * g)
    rhs = a * apply(op, f) + b * apply(op, g)
    assert lhs.max_abs_diff(rhs) == 0.0


def test_commutator_canonical_rules():
    # [d/dx, x] = 1 and a random check against composition on functionals
    grid, k_max = GRID, 2
    v = 3
    a = BosonOperator(grid, k_max)
    a.add_d(v, 1.0)
    b = BosonOperator(grid, k_max)
    b.add_x(v, 1.0)
    c = commutator(a, b)
    assert c.const == 1.0 and c.x is None and c.d is None

    rng = np.random.default_rng(3)
    nvar = k_max * grid.nslots
    op1 = BosonOperator(grid, k_max)
    op2 = BosonOperator(grid, k_max)
    for _ in range(5):
        op1.add_xd(int(rng.integers(nvar)), int(rng.integers(nvar)), rng.standard_normal())
        op2.add_xd(int(rng.integers(nvar)), int(rng.integers(nvar)), rng.standard_normal())
        op1.add_d(int(rng.integers(nvar)), rng.standard_normal())
        op2.add_x(int(rng.integers(nvar)), rng.standard_normal())
        op2.add_dd(int(rng.integers(nvar)), int(rng.integers(nvar)), rng.standard_normal())
    f = PolyFunctional(grid, k_max, {(int(rng.integers(nvar)), int(rng.integers(nvar))): 1.1, (int(rng.integers(nvar)),): -2.0, (): 0.7})
    lhs = apply(commutator(op1, op2), f)
    rhs = apply(op1, apply(op2, f)) + (-1.0) * apply(op2, apply(op1, f))
    assert lhs.max_abs_diff(rhs) < 1e-12


CUBIC = TruncSeries.from_dict({0: 0.7, 1: -1.3, 2: 0.4, 3: 0.25})


@pytest.mark.parametrize("swap", [False, True], ids=["a-b", "b-a"])
def test_commutator_probed_matches_dense_products(swap):
    """commutator_probed keeps commutator's const, x and d bits, and its x-d
    and d-d fields equal the dense ones times the probe vectors up to
    rounding.  Both operands carry all five fields, so every product term of
    both fields is taken."""
    pot = Potential(1.0, {1: 0.5, 2: 0.3})
    tab = kernel_table(pot, GRID, 5)
    a = normal_ordered_quadratic("dynamic", CUBIC, 4, pot, 3.0, GRID, 5, tab)
    b = normal_ordered_quadratic("dynamic", 0.6 * CUBIC, 2, pot, 3.0, GRID, 5, tab) + 0.7 * time_derivation(bump(0.0, 0.6, 2), GRID, 5)
    a, b = (b, a) if swap else (a, b)
    for op in (a, b):
        assert op.const != 0.0 and all(np.any(getattr(op, f)) for f in ("x", "d", "xd", "dd"))
    vecs = np.random.default_rng(5).standard_normal((a.nvar, 4))
    dense = commutator(a, b)
    op, xd_v, dd_v = commutator_probed(a, b, vecs)
    assert op.const == dense.const and op.xd is None and op.dd is None
    assert np.array_equal(op.x, dense.x) and np.array_equal(op.d, dense.d)
    for got, field in ((xd_v, dense.xd), (dd_v, dense.dd)):
        want = field @ vecs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_commutator_probed_absent_fields():
    """Where commutator leaves x-d or d-d None, so do the probe products."""
    a, b = static_boson(2, 3, 2.0, GRID, 4), static_boson(-2, 3, 2.0, GRID, 4)
    op, xd_v, dd_v = commutator_probed(a, b, np.ones((a.nvar, 2)))
    assert op.const == commutator(a, b).const != 0.0
    assert xd_v is None and dd_v is None


def test_field_max_abs_empty_mask_reads_const():
    """A mask that selects no variable leaves |const|; a nan in a selected
    entry still propagates."""
    op = normal_ordered_quadratic("dynamic", CUBIC, 4, HERMITE2, 3.0, GRID, 4)
    empty = op.interior_mask(0, 0, GRID.steps)
    assert not empty.any() and op.const != 0.0
    assert op.field_max_abs(empty) == abs(op.const)
    op.d[op.vid(1, 2)] = np.nan
    assert op.field_max_abs(empty) == abs(op.const)
    assert math.isnan(op.field_max_abs())
    assert math.isnan(op.field_max_abs(op.interior_mask(1, 0, GRID.steps)))


# ------------------------------------------------------------- field modes


def test_static_boson_zero_mode_and_multiplier():
    op = static_boson(0, 2, 2.0, GRID, 4)
    assert op.field_max_abs() == 0.0
    op = static_boson(-2, 3, 2.0, GRID, 4)
    assert op.x[op.vid(2, 3)] == pytest.approx(2.0 / math.sqrt(2.0))


def test_static_pair_commutator_discrete_delta():
    beta = 2.0
    a = static_boson(1, 4, beta, GRID, 4)
    b = static_boson(-1, 4, beta, GRID, 4)
    c = commutator(a, b)
    assert c.const == pytest.approx(1.0 / GRID.dt)
    # different slots commute
    b2 = static_boson(-1, 3, beta, GRID, 4)
    assert commutator(a, b2).field_max_abs() == 0.0


def test_dynamic_boson_zero_mode():
    op = dynamic_boson(0, 1, HERMITE2, 5.0, GRID, 4)
    assert op.const == pytest.approx(-math.sqrt(2.0) * 5.0)


def test_dynamic_boson_hermite_diagonal_convolution():
    k_max = 4
    tab = kernel_table(HERMITE2, GRID, k_max)
    op = dynamic_boson(2, 5, HERMITE2, 5.0, GRID, k_max, tab)
    for jp in range(6):
        want = math.sqrt(2.0) * math.exp(-2 * (GRID.dt * (5 - jp)))
        assert op.d[op.vid(2, jp)] == pytest.approx(want, rel=1e-12)
    assert op.d[op.vid(1, 3)] == 0.0


def test_dynamic_boson_row_is_the_kernel_basis_row():
    """psi_k(t_j)'s d field is sqrt(beta) times row j of T_k, byte for byte,
    for both potentials of the default boson-commutators scenario."""
    from coulombgas.cli import default_scenario

    scn = default_scenario("boson-commutators")
    grid, k_max = TimeGrid(**scn["grid"]), scn["k_max"]
    for spec in scn["potentials"].values():
        pot = Potential(spec["beta"], {int(l): v for l, v in spec["b"].items()})
        tab = kernel_table(pot, grid, k_max)
        basis = kernel_toeplitz(tab, k_max)
        for k in range(1, k_max + 1):
            for j in range(grid.nslots):
                got = dynamic_boson(k, j, pot, 5.0, grid, k_max, tab).d
                assert got.tobytes() == (np.sqrt(pot.beta) * basis[k - 1, j]).tobytes(), (k, j)


def test_dynamic_pair_commutator_is_retarded_kernel():
    """[psi_k(t_j), psi_{-l}(t_j')] = l K_{kl}(t_j - t_j') for j > j'."""
    pot = Potential(1.0, {1: 0.5, 2: 0.3})
    k_max = 6
    tab = kernel_table(pot, GRID, k_max)
    j, jp = 5, 2
    g = retarded_propagator_modes(pot, GRID.dt * (j - jp), k_max)
    for k in range(1, k_max + 1):
        for l in range(1, k_max + 1):
            a = dynamic_boson(k, j, pot, 5.0, GRID, k_max, tab)
            b = dynamic_boson(-l, jp, pot, 5.0, GRID, k_max, tab)
            c = commutator(a, b)
            assert c.const == pytest.approx(g.entries[k, l], abs=1e-12)
    # reversed time ordering commutes
    a = dynamic_boson(2, 1, pot, 5.0, GRID, k_max, tab)
    b = dynamic_boson(-2, 4, pot, 5.0, GRID, k_max, tab)
    assert commutator(a, b).field_max_abs() == 0.0


def test_dynamic_static_cross_commutator():
    """[psi_k(t_j), phi_{-l}(t_j')] = l K_{kl} for j' <= j; reversed order has
    the equal-slot delta with the 1/dt factor."""
    pot = Potential(1.0, {1: 0.5, 2: 0.3})
    k_max = 5
    tab = kernel_table(pot, GRID, k_max)
    j, jp = 4, 4
    g0 = retarded_propagator_modes(pot, 0.0, k_max)
    for k in range(1, k_max + 1):
        for l in range(1, k_max + 1):
            c = commutator(
                dynamic_boson(k, j, pot, 5.0, GRID, k_max, tab),
                static_boson(-l, jp, pot.beta, GRID, k_max),
            )
            assert c.const == pytest.approx(g0.entries[k, l], abs=1e-13)
            # psi_{-k} against phi_l: equal-slot delta / dt
            c2 = commutator(
                dynamic_boson(-k, j, pot, 5.0, GRID, k_max, tab),
                static_boson(l, jp, pot.beta, GRID, k_max),
            )
            want = -k / GRID.dt if k == l else 0.0
            assert c2.const == pytest.approx(want)


def test_psi_plus_equals_phi_plus():
    pot = Potential(4.0, {1: 0.7})
    for k in (-1, -3):
        a = dynamic_boson(k, 2, pot, 3.0, GRID, 4)
        b = static_boson(k, 2, pot.beta, GRID, 4)
        assert (a - b).field_max_abs() == 0.0


# ------------------------------------------------- normal-ordered quadratics


def test_static_quadratic_matches_oscillator_display():
    """half contour of phi^2 = sum_{k>=2} k tau_k(t) delta/delta tau_{k-1}(t)."""
    beta, k_max, j = 2.0, 5, 3
    pot = Potential(beta, {1: 1.0})
    op = normal_ordered_quadratic("static", TruncSeries.monomial(0), j, pot, 5.0, GRID, k_max)
    half = 0.5 * op
    want = BosonOperator(GRID, k_max)
    for k in range(2, k_max + 1):
        want.add_xd(want.vid(k, j), want.vid(k - 1, j), k / GRID.dt)
    assert (half - want).field_max_abs() < 1e-12


def test_dynamic_quadratic_matches_hermite_display():
    """half contour of psi^2 = -N tau_1(t) + sum_{k>=2} k tau_k(t)
    int_0^t exp(-(k-1)(t-s)/sigma^2) delta/delta tau_{k-1}(s) ds."""
    k_max, j, n = 4, 5, 5.0
    tab = kernel_table(HERMITE2, GRID, k_max)
    op = 0.5 * normal_ordered_quadratic("dynamic", TruncSeries.monomial(0), j, HERMITE2, n, GRID, k_max, tab)
    want = BosonOperator(GRID, k_max)
    want.add_x(want.vid(1, j), -n)
    for k in range(2, k_max + 1):
        for jp in range(j + 1):
            want.add_xd(want.vid(k, j), want.vid(k - 1, jp), k * math.exp(-(k - 1) * GRID.dt * (j - jp)))
    assert (op - want).field_max_abs() < 1e-12


def test_quadratic_zero_mode_cross_terms():
    """Mode pairs obey m + n = p - 1: weight z hits psi_0^2 (a scalar), and
    weight z^2 pairs the scalar psi_0 with the derivative mode psi_1."""
    k_max, j, n = 4, 4, 3.0
    pot = HERMITE2
    tab = kernel_table(pot, GRID, k_max)
    op1 = normal_ordered_quadratic("dynamic", TruncSeries.monomial(1), j, pot, n, GRID, k_max, tab)
    assert op1.const == pytest.approx(pot.beta * n * n)
    op2 = normal_ordered_quadratic("dynamic", TruncSeries.monomial(2), j, pot, n, GRID, k_max, tab)
    psi1 = dynamic_boson(1, j, pot, n, GRID, k_max, tab)
    # pairs (0,1) + (1,0): 2 * psi_0 * psi_1 = -2 sqrt(b) N * psi_1
    want_d = -2.0 * math.sqrt(pot.beta) * n * psi1.d
    assert np.max(np.abs(op2.d - want_d)) < 1e-12


def test_quadratic_applied_to_constant_keeps_multiplier_part_only():
    one = PolyFunctional.constant(GRID, 4)
    pot = HERMITE2
    op = normal_ordered_quadratic("dynamic", TruncSeries.monomial(0), 3, pot, 2.0, GRID, 4)
    out = apply(op, one)
    # normal ordering kills pure-derivative residues; only multipliers (and
    # scalars) survive on the constant functional
    for mono in out.terms:
        assert len(mono) >= 1 or out.terms[mono] == op.const


def test_quadratic_dd_terms_for_cubic_weight():
    # weight z^3 pairs modes (1, 1): a genuine second-derivative term
    pot = Potential(2.0, {1: 1.0})
    op = normal_ordered_quadratic("static", TruncSeries.monomial(3), 2, pot, 1.0, GRID, 4)
    v = op.vid(1, 2)
    assert op.dd is not None and op.dd[v, v] == pytest.approx(pot.beta / GRID.dt**2)


def test_quadratic_weight_window_guard():
    with pytest.raises(ValueError):
        normal_ordered_quadratic("static", TruncSeries.monomial(-1), 0, HERMITE2, 1.0, GRID, 4)


# ----------------------------------------------------------- time derivation


def test_time_derivation_multiplier_rule():
    """f d/dt on sum_j g_j x_{k,j} dt gives -(d/ds)(f g), centered; exact in
    the interior once the profile vanishes at the ends (compact support)."""
    grid, k_max = TimeGrid(0.05, 10), 2
    tmax = grid.dt * grid.steps
    f = poly_t(1)
    g = bump(0.0, tmax, order=1) * TimePoly([1.0, 0.5])
    op = time_derivation(f, grid, k_max)
    lin = PolyFunctional(grid, k_max, {(op.vid(1, j),): g(grid.times[j]) * grid.dt for j in range(grid.nslots)})
    out = apply(op, lin)
    fg = f(grid.times) * g(grid.times)
    for j in range(1, grid.steps):
        want = -(fg[j + 1] - fg[j - 1]) / (2 * grid.dt) * grid.dt
        assert out.terms.get((op.vid(1, j),), 0.0) == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_time_derivation_product_rule_example():
    # f(t) = t on a compactly supported profile g: interior coefficient is
    # -(d/ds)(s g(s)) against the same centered stencil
    grid, k_max = TimeGrid(0.05, 10), 1
    tmax = grid.dt * grid.steps
    g = bump(0.0, tmax, order=1)
    op = time_derivation(poly_t(1), grid, k_max)
    lin = PolyFunctional(grid, k_max, {(op.vid(1, j),): g(grid.times[j]) * grid.dt for j in range(grid.nslots)})
    out = apply(op, lin)
    tg = grid.times * g(grid.times)
    for j in range(2, grid.steps - 1):
        want = -(tg[j + 1] - tg[j - 1]) / (2 * grid.dt) * grid.dt
        assert out.terms.get((op.vid(1, j),), 0.0) == pytest.approx(want, rel=1e-12)


def test_time_derivation_derivative_generator_rule():
    """[f dt, sum_j gamma_j d_j] = -sum_j f_j gammadot_j d_j (centered)."""
    grid, k_max = TimeGrid(0.05, 10), 2
    f = TimePoly([0.3, 1.0])
    gamma = TimePoly([0.2, -1.0, 0.7])
    op = time_derivation(f, grid, k_max)
    gen = BosonOperator(grid, k_max)
    for j in range(grid.nslots):
        gen.add_d(gen.vid(2, j), gamma(grid.times[j]))
    c = commutator(op, gen)
    t = grid.times
    gj = gamma(t)
    for j in range(1, grid.steps):
        gdot = (gj[j + 1] - gj[j - 1]) / (2 * grid.dt)
        assert c.d[gen.vid(2, j)] == pytest.approx(-f(t[j]) * gdot, rel=1e-12)
    assert c.x is None and c.xd is None


def test_time_derivation_on_dynamic_minus_half():
    """f d/dt acting on psi_k(t_j) matches the kernel-side formula: a local
    delta/delta tau_k(t) term plus f(s) dK/dt(t - s) under the convolution."""
    pot = HERMITE2
    grid, k_max = TimeGrid(0.02, 40), 3
    tab = kernel_table(pot, grid, k_max)
    j, k = 30, 2
    f = TimePoly([1.0])  # f == 1: the plain time-derivative formula
    psi = dynamic_boson(k, j, pot, 1.0, grid, k_max, tab)
    der = commutator(time_derivation(f, grid, k_max), psi)
    # kernel-side: sqrt(beta) { delta-term at s = t + dK/dt convolution }
    sb = math.sqrt(pot.beta)
    h = grid.dt
    want = np.zeros(der.nvar)
    for jp in range(1, j - 1):
        # centered dK/dt(t_j - t_jp) in the first argument of K(t - s)
        dkdt = (tab[j - jp + 1, k, k] - tab[j - jp - 1, k, k]) / (2 * h)
        want[psi.vid(k, jp)] = sb * f(grid.times[jp]) * dkdt
    got = der.d.copy()
    # the indicator jump smears the local delta term over slots j, j+1
    local = got[psi.vid(k, j)] + got[psi.vid(k, j + 1)]
    assert local == pytest.approx(sb * f(grid.times[j]) / grid.dt, rel=0.1)
    # interior convolution slots carry f(s) dK/dt(t - s) to machine precision
    mask = np.abs(want) > 0
    assert np.max(np.abs(got[mask] - want[mask])) < 1e-12
    # apart from the jump slots (j-1..j+1) and the one-sided slot 0, nothing else
    for jp in (0, j - 1, j, j + 1):
        got[psi.vid(k, jp)] = 0.0
    assert np.max(np.abs(got[~mask])) < 1e-12


def test_normal_ordering_enumeration_order_independent():
    """Assembling the quadratic from reversed weight enumeration gives the
    identical canonical fields (normal form is canonical)."""
    pot = Potential(1.0, {1: 0.5, 2: 0.3})
    w = TruncSeries.from_dict({0: 0.3, 1: -0.2, 2: 1.1})
    w_rev = TruncSeries.from_dict(dict(reversed(list(w.items()))))
    a = normal_ordered_quadratic("dynamic", w, 4, pot, 2.0, GRID, 5)
    b = normal_ordered_quadratic("dynamic", w_rev, 4, pot, 2.0, GRID, 5)
    assert (a - b).field_max_abs() < 1e-14


def test_accumulate_quadratic_slot_guards():
    """Slots are increasing grid slots with one scale each; no slot adds nothing."""
    op = BosonOperator(GRID, 4)
    w = TruncSeries.monomial(0)
    for slots, scales in (([2, 2], [1.0, 1.0]), ([3, 1], [1.0, 1.0]), ([GRID.steps + 1], [1.0]), ([1, 2], [1.0])):
        with pytest.raises(ValueError):
            accumulate_quadratic(op, "static", w, slots, scales, HERMITE2, 1.0)
    accumulate_quadratic(op, "dynamic", w, [], [], HERMITE2, 1.0)
    assert op.const == 0.0 and all(getattr(op, f) is None for f in ("x", "d", "xd", "dd"))


def _field_bytes(op):
    return [None if getattr(op, f) is None else np.asarray(getattr(op, f)).tobytes() for f in ("const", "x", "d", "xd", "dd")]


def test_iadd_matches_add_bit_for_bit():
    """a += b makes the additions of a + b in place: every field has the same
    bits, b is left as it was, and a read-only left operand refuses."""
    pot = Potential(1.0, {1: 0.5, 2: 0.3})
    quad = normal_ordered_quadratic("dynamic", TruncSeries.from_dict({0: 0.3, 1: -0.2, 2: 1.1}), 4, pot, 2.0, GRID, 5)
    # a field the left operand lacks is copied in; one it has is added to
    for a, b in ((dynamic_boson(2, 3, pot, 2.0, GRID, 5), quad), (quad.copy(), 0.7 * time_derivation(bump(0.0, 0.6, 2), GRID, 5))):
        b_bytes = _field_bytes(b)
        want = a + b
        a += b
        assert _field_bytes(a) == _field_bytes(want)
        assert _field_bytes(b) == b_bytes
    frozen = quad.copy()
    frozen.xd.flags.writeable = False
    with pytest.raises(ValueError):
        frozen += quad
