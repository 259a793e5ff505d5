import numpy as np
import pytest

from coulombgas.kernel import Potential
from coulombgas.nptransform import (
    IIWord,
    NPGenerator,
    SampledPath,
    apply_np_transform,
    elementary_bracket,
    evaluate_iterated,
    evaluate_iterated_exact,
    finite_sv_transform,
    force_change,
    numeric_commutator,
    numeric_commutator_richardson,
    shuffle_product,
    sv_bracket,
)
from coulombgas.timefunc import TimePoly, poly_t

ONE = TimePoly([1.0])


def smooth_path(num=2001, t1=1.0):
    return SampledPath.from_function(lambda t: 2.0 + np.sin(t), 0.0, t1, num)


# ---------------------------------------------------------------- words


def test_iterated_trivial_cases():
    path = smooth_path(501)
    w = IIWord(((0, ONE),))
    out = evaluate_iterated(w, path)
    assert np.max(np.abs(out - path.times)) < 1e-12  # int_0^t 1 ds = t
    # single letter k=1, adot=1 on lam(s) = s: t^2/2
    lin = SampledPath.from_function(lambda t: t, 0.0, 1.0, 2001)
    out = evaluate_iterated(IIWord(((1, ONE),)), lin)
    assert np.max(np.abs(out - lin.times**2 / 2)) < 1e-6


def test_iterated_refinement_richardson():
    """Two-letter word: halving the grid shrinks the quadrature error by ~4
    (trapezoid order)."""
    w = IIWord(((2, poly_t(1)), (1, ONE)))
    exact_poly = evaluate_iterated_exact(w, TimePoly([2.0, 1.0]))  # path 2 + t
    errs = []
    for num in (251, 501):
        p = SampledPath.from_function(lambda t: 2.0 + t, 0.0, 1.0, num)
        got = evaluate_iterated(w, p)
        errs.append(np.max(np.abs(got - exact_poly(p.times))))
    assert 3.0 < errs[0] / errs[1] < 5.0


def test_shuffle_counts():
    a = IIWord(((1, ONE),))
    b = IIWord(((2, poly_t(1)),))
    assert len(shuffle_product(a, b)) == 2
    c = IIWord(((1, ONE), (0, ONE)))
    assert len(shuffle_product(c, b)) == 3
    d = IIWord(((1, ONE), (2, ONE)))
    assert len(shuffle_product(d, d)) == 6  # C(4, 2)


def test_shuffle_identity_exact_polynomial_path():
    """Pointwise product of iterated integrals equals the shuffle sum; exact
    antiderivative evaluation makes the identity hold to rounding."""
    lam = TimePoly([2.0, 1.0, -1.0 / 3.0])
    w1 = IIWord(((1, ONE), (0, poly_t(1))))
    w2 = IIWord(((2, ONE),))
    t = np.linspace(0.0, 1.0, 101)
    lhs = evaluate_iterated_exact(w1, lam)(t) * evaluate_iterated_exact(w2, lam)(t)
    rhs = np.zeros_like(t)
    for c, w in shuffle_product(w1, w2):
        rhs += c * evaluate_iterated_exact(w, lam)(t)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_shuffle_identity_numeric_within_quadrature():
    path = smooth_path(2001)
    w1 = IIWord(((1, ONE),))
    w2 = IIWord(((0, poly_t(1)),))
    lhs = evaluate_iterated(w1, path) * evaluate_iterated(w2, path)
    rhs = sum(c * evaluate_iterated(w, path) for c, w in shuffle_product(w1, w2))
    assert np.max(np.abs(lhs - rhs)) < 5e-7  # trapezoid-order quadrature error


def test_shuffle_commutative():
    a = IIWord(((1, ONE), (0, ONE)))
    b = IIWord(((2, poly_t(1)),))
    sab = sorted((w.letters for _, w in shuffle_product(a, b)))
    sba = sorted((w.letters for _, w in shuffle_product(b, a)))
    assert sab == sba


# ---------------------------------------------------------------- generators


def test_noise_condition_structural():
    """Midpoint discrete identity: (1/2)(Psi_{j+1}-Psi_j)/dt equals (n+1)
    times the midpoint of lam^n Phi, exactly (structural, not stored)."""
    path = smooth_path(801)
    g = NPGenerator(2, poly_t(2).deriv(1), IIWord(((1, ONE),)))
    integrand = path.values**g.n * g.phi(path)
    mid = 0.5 * (integrand[1:] + integrand[:-1])
    lhs = 0.5 * np.diff(g.psi(path)) / path.dt
    # exact up to the cumulative-sum rounding floor of the 800-slot grid
    assert np.max(np.abs(lhs - (g.n + 1) * mid)) < 1e-11


def test_y_type_generator_is_pure_shift():
    path = smooth_path(501)
    g = NPGenerator(-1, poly_t(1).deriv(1))  # adot = 1
    var = g.variation(path)
    assert np.max(np.abs(var - 1.0)) < 1e-12
    assert np.all(g.psi(path) == 0.0)


def test_zero_phi_gives_identity():
    path = smooth_path(301)
    g = NPGenerator(1, TimePoly([0.0]))
    out = apply_np_transform(g, path, 0.3)
    assert np.array_equal(out.values, path.values)


def test_apply_transform_order_of_accuracy():
    """The transform is linear in eps by construction: the eps^2 term is
    absent, so (T(e) - id)/e is eps-independent."""
    path = smooth_path(501)
    g = NPGenerator(1, poly_t(2).deriv(1))
    v1 = (apply_np_transform(g, path, 1e-2).values - path.values) / 1e-2
    v2 = (apply_np_transform(g, path, 5e-3).values - path.values) / 5e-3
    assert np.max(np.abs(v1 - v2)) < 1e-12


def test_depth_reduction_identity():
    """L_{n,(0)}[adot,(b)] = L_n[adot*(b - b(0))]: identical variations."""
    path = smooth_path(801)
    b = TimePoly([0.7, 1.0, 0.3])
    g = NPGenerator(1, poly_t(1).deriv(1), IIWord(((0, b.deriv(1)),)))
    red = g.reduce()
    assert len(red.tail) == 0
    assert np.max(np.abs(g.variation(path) - red.variation(path))) < 1e-10


# ----------------------------------------------------------------- brackets


@pytest.mark.parametrize("pair", [(-1, 0), (-1, 1), (0, 1), (1, 2), (2, 2), (-1, 2), (0, 2), (1, 1)])
def test_elementary_bracket_vs_numeric(pair):
    n1, n2 = pair
    path = smooth_path(2001)
    a1, a2 = poly_t(2), TimePoly([0.0, 1.0, 0.5])
    g1 = NPGenerator(n1, a1.deriv(1))
    g2 = NPGenerator(n2, a2.deriv(1))
    num = numeric_commutator_richardson(g1, g2, path, 1e-2)
    sym = elementary_bracket(n1, a1, n2, a2).variation(path)
    sl = np.s_[10:-10]
    scale = max(np.max(np.abs(sym[sl])), np.max(np.abs(num[sl])))
    if scale < 1e-10:
        assert np.max(np.abs(num[sl])) < 1e-8
    else:
        assert np.max(np.abs(num[sl] - sym[sl])) / scale < 1e-4


def test_bracket_same_generator_zero():
    path = smooth_path(1001)
    g = NPGenerator(1, poly_t(2).deriv(1))
    num = numeric_commutator(g, g, path, 1e-2)
    assert np.max(np.abs(num)) < 1e-10


def test_bracket_antisymmetry():
    a1, a2 = poly_t(2), poly_t(3)
    b12 = elementary_bracket(0, a1, 1, a2)
    b21 = elementary_bracket(1, a2, 0, a1)
    path = smooth_path(801)
    assert np.max(np.abs(b12.variation(path) + b21.variation(path))) < 1e-10


def test_bracket_equal_exponents_kills_leading_term():
    out = elementary_bracket(1, poly_t(2), 1, poly_t(3))
    assert all(g.n == 1 and len(g.tail) == 1 for _, g in out.terms)


def test_sv_subfamily_closure_under_bracket():
    """Leading exponents stay in {-1, 0, 1} when the inputs do and depth
    reduction applies."""
    for n1 in (-1, 0, 1):
        for n2 in (-1, 0, 1):
            out = elementary_bracket(n1, poly_t(2), n2, poly_t(1) * poly_t(1))
            for _, g in out.terms:
                assert g.n in (-1, 0, 1, n1 + n2)


def test_jacobi_identity_numeric():
    path = smooth_path(1501)
    gens = [
        NPGenerator(-1, poly_t(2).deriv(1)),
        NPGenerator(0, TimePoly([0.0, 1.0, 0.4]).deriv(1)),
        NPGenerator(1, poly_t(3).deriv(1)),
    ]
    a_labels = [poly_t(2), TimePoly([0.0, 1.0, 0.4]), poly_t(3)]
    ns = [-1, 0, 1]
    total = np.zeros_like(path.values)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = elementary_bracket(ns[i], a_labels[i], ns[j], a_labels[j])
        total += numeric_commutator_richardson(inner, gens[k], path, 2e-2)
    scale = max(1.0, np.max(np.abs(total)))
    assert np.max(np.abs(total[10:-10])) < 1e-3 * max(1.0, scale if scale > 1 else 1.0)


# -------------------------------------------------------------- force change


def test_force_change_delay_vanishes_for_closed_family():
    pot = Potential(2.0, {1: 1.0})
    t = np.linspace(0, 1, 101)
    paths = np.sort(np.vstack([np.sin(t) - 1, 0.3 * t, 2 + 0.1 * np.cos(t)]).T, axis=1)
    state = paths[-1]
    for n in (-1, 0):
        out = force_change(n, poly_t(2), pot, state, hist_matrix=(t, paths))
        assert np.max(np.abs(out["delay"])) < 1e-12
    out2 = force_change(2, poly_t(2), pot, state, hist_matrix=(t, paths))
    assert np.max(np.abs(out2["delay"])) > 0.0


def test_force_change_single_particle_reduction():
    rng = np.random.default_rng(3)
    pot = Potential(1.5, {1: 0.6, 2: 0.2})
    for n in (1, 2, 3):
        lam = rng.normal(size=1) + 2.0
        out = force_change(n, TimePoly([0.3, 1.0, -0.2, 0.05]), pot, lam)
        assert out["simul"][0] == pytest.approx(out["n1"][0], rel=1e-12)


def test_force_change_beta_sum_matches_brute_force():
    pot = Potential(2.0, {1: 1.0})
    lam = np.array([-1.3, 0.2, 1.7])
    n = 2
    a = poly_t(2)
    out = force_change(n, a, pot, lam)
    # brute force of the displayed formula at t = 0
    adot, addot = a.deriv(1)(0.0), a.deriv(2)(0.0)
    want = lam ** (n + 1) * addot
    brace = pot.b[1] * (n + 2) * lam ** (n + 1)
    for q in range(0, n):
        brace = brace + pot.beta * (q + 1) * lam**q * np.sum(lam ** (n - 1 - q))
    brace = brace - (pot.beta / 2 - 1) * (n + 1) * n * lam ** (n - 1)
    want = want + brace * adot
    assert np.allclose(out["simul"], want)


def test_force_change_evaluates_at_the_end_of_the_history():
    """With a history, the simultaneous part is taken at the history's last
    time (here t = 1), where ``state`` lives, not at t = 0."""
    pot = Potential(2.0, {1: 1.0})
    t = np.linspace(0, 1, 101)
    paths = np.sort(np.vstack([np.sin(t) - 1, 0.3 * t, 2 + 0.1 * np.cos(t)]).T, axis=1)
    lam, n, a = paths[-1], 2, TimePoly([0.0, 0.5, 1.0, -0.4])
    out = force_change(n, a, pot, lam, hist_matrix=(t, paths))
    adot, addot = a.deriv(1)(1.0), a.deriv(2)(1.0)
    brace = pot.b[1] * (n + 2) * lam ** (n + 1)
    for q in range(0, n):
        brace = brace + pot.beta * (q + 1) * lam**q * np.sum(lam ** (n - 1 - q))
    brace = brace - (pot.beta / 2 - 1) * (n + 1) * n * lam ** (n - 1)
    assert np.allclose(out["simul"], lam ** (n + 1) * addot + brace * adot)


# ------------------------------------------------------------ closed family


def test_sv_bracket_relations():
    f, g = poly_t(1), TimePoly([1.0])
    kind, lbl = sv_bracket("Y", f, "Y", g)
    assert kind == "0"
    kind, lbl = sv_bracket("X", poly_t(1), "X", TimePoly([1.0]))
    assert kind == "X"
    # [X_t, X_1] = X_{d/dt(t)*1 - t*0} = X_1
    assert np.allclose(lbl.coeffs, [1.0])
    kind, lbl = sv_bracket("Y", TimePoly([1.0]), "X", poly_t(1))
    assert kind == "Y"
    # [Y_f, X_g] = Y_{f'g - f g'/2}: f = 1, g = t -> -1/2
    assert np.allclose(lbl.coeffs, [-0.5])


def test_sv_bracket_random_against_vector_fields():
    """[X_f, X_g] label f'g - fg' verified against the direct vector-field
    commutator expansion."""
    f = TimePoly([0.2, 1.0, -0.5])
    g = TimePoly([1.0, 0.3, 0.0, 0.1])
    kind, lbl = sv_bracket("X", f, "X", g)
    assert kind == "X"
    want = f.deriv(1) * g - f * g.deriv(1)
    assert np.allclose(lbl.coeffs, want.coeffs)


def test_finite_time_reparam_identity_and_parabolic():
    path = smooth_path(801)
    out, tm = finite_sv_transform("time-reparam", path, phi=poly_t(1))
    assert np.max(np.abs(out.values - path.values)) < 1e-12
    assert np.max(np.abs(tm - path.times)) < 1e-12
    # parabolic scaling phi = c^2 t: (t, lam) -> (c^2 t, c lam)
    c = 1.4
    phi = TimePoly([0.0, c * c])
    short = SampledPath.from_function(lambda t: 2.0 + t, 0.0, 1.0, 801)
    out, tm = finite_sv_transform("time-reparam", short, phi=phi)
    # the transformed world line evaluated at new-time u is c * lam(u / c^2)
    t = short.times
    inside = t <= c * c * 1.0
    want = c * (2.0 + t / (c * c))
    assert np.max(np.abs(out.values[inside] - want[inside])) < 1e-10
    assert np.max(np.abs(tm - c**2 * t)) < 1e-10  # proper time integrates |J|^2 = c^2


def test_finite_space_shift():
    path = smooth_path(401)
    b = TimePoly([0.5, 1.0])
    out, _ = finite_sv_transform("space-shift", path, b=b)
    want = path.values + b.antideriv()(path.times)
    assert np.max(np.abs(out.values - want)) < 1e-12


def test_finite_reparam_infinitesimal_limit():
    """(T_{phi = t + eps f} - id)/eps matches the affine field action
    f'(t) lam / 2 - f(t) lamdot."""
    path = smooth_path(3001)
    f = poly_t(2) * TimePoly([1.0, -0.5])
    eps = 1e-5
    phi = poly_t(1) + eps * f
    out, _ = finite_sv_transform("time-reparam", path, phi=phi)
    got = (out.values - path.values) / eps
    lamdot = np.gradient(path.values, path.dt)
    want = 0.5 * f.deriv(1)(path.times) * path.values - f(path.times) * lamdot
    sl = np.s_[20:-20]
    assert np.max(np.abs(got[sl] - want[sl])) < 5e-3 * max(1.0, np.max(np.abs(want)))


def test_non_monotone_reparam_rejected():
    path = smooth_path(101)
    with pytest.raises(ValueError):
        finite_sv_transform("time-reparam", path, phi=TimePoly([0.0, -1.0]))


def test_shuffle_associative_on_word_multisets():
    a = IIWord(((1, ONE),))
    b = IIWord(((2, poly_t(1)),))
    c = IIWord(((0, ONE),))

    def expand(combo, other):
        out = []
        for coeff, w in combo:
            out.extend((coeff * c2, w2) for c2, w2 in shuffle_product(w, other))
        return out

    left = sorted(w.letters for _, w in expand(shuffle_product(a, b), c))
    right = []
    for coeff, w in shuffle_product(b, c):
        right.extend(ww for _, ww in shuffle_product(a, w))
    right = sorted(w.letters for w in right)
    assert left == right


def test_tailed_generator_numeric_bracket_consistency():
    """Brackets with depth-1 tails: the stencil oracle is antisymmetric and
    eps-Richardson stable (the closed basis formula is not returned)."""
    path = smooth_path(1501)
    g1 = NPGenerator(1, poly_t(2).deriv(1), IIWord(((1, ONE),)))
    g2 = NPGenerator(0, poly_t(3).deriv(1))
    c12 = numeric_commutator_richardson(g1, g2, path, 1e-2)
    c21 = numeric_commutator_richardson(g2, g1, path, 1e-2)
    assert np.max(np.abs(c12 + c21)) < 1e-8
    c_fine = numeric_commutator_richardson(g1, g2, path, 5e-3)
    sl = np.s_[10:-10]
    scale = max(1e-12, float(np.max(np.abs(c12[sl]))))
    assert np.max(np.abs(c12[sl] - c_fine[sl])) / scale < 1e-5
