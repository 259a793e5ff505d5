import math

import numpy as np
import pytest

from coulombgas.fseries import TruncSeries
from coulombgas.kernel import (
    Potential,
    characteristics_flow,
    expm_tol,
    generator_matrix,
    heat_action,
    hermite_kernel,
    kernel_beta2_closed,
    propagator,
    propagator_table,
    retarded_propagator_modes,
    technical_lemma_residual,
    verify_kernel_identities,
)

HERMITE2 = Potential(2.0, {1: 1.0})


def rk4_kernel_oracle(pot, t, k_max, h=1e-4):
    """Integrate dK/dt = A K by fixed-step RK4, independent of expm."""
    a = generator_matrix(pot, k_max)
    k = np.eye(k_max + 1)
    n = max(1, int(round(t / h)))
    h = t / n
    for _ in range(n):
        k1 = a @ k
        k2 = a @ (k + 0.5 * h * k1)
        k3 = a @ (k + 0.5 * h * k2)
        k4 = a @ (k + h * k3)
        k = k + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return k


# ---------------------------------------------------------------- generator


def test_generator_hermite_diagonal():
    a = generator_matrix(Potential(2.0, {1: 1.0 / 0.7**2}), 8)
    want = np.diag([-k / 0.7**2 for k in range(9)])
    assert np.allclose(a, want)


def test_generator_beta2_no_subdiagonal():
    a = generator_matrix(Potential(2.0, {1: 0.5, 3: 0.2}), 10)
    assert np.all(np.tril(a, -1) == 0.0)


def test_generator_laplacian_band_entry():
    a = generator_matrix(Potential(4.0, {1: 1.0}), 6)
    assert a[2, 0] == pytest.approx(-2.0)  # -(4/2 - 1) * 2 * 1


def test_generator_cutoff_guard():
    with pytest.raises(ValueError):
        generator_matrix(Potential(2.0, {3: 1.0}), 2)


# ---------------------------------------------------------------- propagator


def test_propagator_identity_at_zero():
    k = propagator(Potential(1.0, {1: 0.5, 2: 0.3}), 0.0, 8)
    assert np.allclose(k.entries, np.eye(9))


def test_propagator_hermite_closed_form():
    for t in (0.1, 0.5, 1.0):
        k = propagator(HERMITE2, t, 12)
        want = np.diag([math.exp(-kk * t) for kk in range(13)])
        assert np.max(np.abs(k.entries - want)) < 1e-12


def test_propagator_vs_rk4_oracle():
    pot = Potential(1.0, {1: 0.7, 3: 0.2})
    k = propagator(pot, 0.3, 8)
    want = rk4_kernel_oracle(pot, 0.3, 8)
    assert np.max(np.abs(k.entries - want)) < 1e-9


def test_propagator_row0_conserved():
    k = propagator(Potential(4.0, {1: 0.5, 2: 0.3}), 0.4, 10)
    e0 = np.zeros(11)
    e0[0] = 1.0
    assert np.allclose(k.entries[0], e0)


def test_propagator_table_matches_direct():
    pot = Potential(2.0, {1: 0.5, 2: 0.3})
    tab = propagator_table(pot, 0.05, 6, 8)
    for j in (1, 3, 6):
        direct = propagator(pot, 0.05 * j, 8).entries
        assert np.max(np.abs(tab[j] - direct)) < 1e-12


# ---------------------------------------------------------- characteristics


def test_characteristics_linear_force():
    c = 0.8
    wt = characteristics_flow({1: c}, 5, 0.4)
    assert wt.coeff(1) == pytest.approx(math.exp(-c * 0.4), rel=1e-10)
    for m in (0, 2, 3, 4, 5):
        assert abs(wt.coeff(m)) < 1e-12


def test_characteristics_zero_force():
    wt = characteristics_flow({}, 4, 1.3)
    assert wt.coeff(1) == 1.0
    assert wt.max_abs() == 1.0


def test_characteristics_separable_closed_form():
    # b = {2: 1}: w(t) = w / (1 + t w) = sum_m (-t)^(m-1) w^m
    t = 0.37
    wt = characteristics_flow({2: 1.0}, 7, t)
    for m in range(1, 8):
        assert wt.coeff(m) == pytest.approx((-t) ** (m - 1), rel=1e-9, abs=1e-12)


def test_beta2_closed_reproduces_hermite():
    sig = 0.9
    k = kernel_beta2_closed({1: 1.0 / sig**2}, 0.6, 10)
    want = np.diag([math.exp(-kk * 0.6 / sig**2) for kk in range(11)])
    assert np.max(np.abs(k.entries - want)) < 1e-10


def test_beta2_closed_identity_at_zero():
    k = kernel_beta2_closed({2: 1.0}, 0.0, 8)
    assert np.allclose(k.entries, np.eye(9))


def test_beta2_closed_vs_matrix_exponential():
    k1 = kernel_beta2_closed({2: 1.0}, 0.1, 8)
    k2 = propagator(Potential(2.0, {2: 1.0}), 0.1, 8)
    assert np.max(np.abs(k1.entries - k2.entries)) < 1e-10


# ------------------------------------------------------------- hermite case


def test_hermite_kernel_beta2_diagonal():
    k = hermite_kernel(1.0, 2.0, 0.8, 10)
    want = np.diag([math.exp(-kk * 0.8) for kk in range(11)])
    assert np.max(np.abs(k.entries - want)) < 1e-13


def test_hermite_kernel_identity_at_zero():
    k = hermite_kernel(1.0, 4.0, 0.0, 8)
    assert np.allclose(k.entries, np.eye(9))


@pytest.mark.parametrize("beta", [1.0, 4.0])
def test_hermite_kernel_vs_matrix_exponential(beta):
    for t in (0.2, 0.5):
        k1 = hermite_kernel(1.0, beta, t, 8)
        k2 = propagator(Potential(beta, {1: 1.0}), t, 8)
        assert np.max(np.abs(k1.entries - k2.entries)) < 1e-10


def test_hermite_kernel_sigma_scaling():
    sig, beta, t = 0.8, 1.0, 0.4
    k1 = hermite_kernel(sig, beta, t, 10)
    k2 = propagator(Potential(beta, {1: 1.0 / sig**2}), t, 10)
    assert np.max(np.abs(k1.entries - k2.entries)) < 1e-10


# -------------------------------------------------------------- heat action


def test_heat_action_zero_time():
    pi0 = TruncSeries.from_dict({-1: 2.0, -3: 1.0})
    out = heat_action(pi0, 0.0)
    assert out.coeff(-1) == 2.0 and out.coeff(-3) == 1.0


def test_heat_action_first_corrections():
    t = 0.25
    out = heat_action(TruncSeries.monomial(-1), t)
    assert out.coeff(-1) == pytest.approx(1.0)
    assert out.coeff(-3) == pytest.approx(2 * t)          # d2/dz2 z^-1 = 2 z^-3
    assert out.coeff(-5) == pytest.approx(24 * t**2 / 2)  # (d2/dz2)^2 z^-1 = 24 z^-5
    out2 = heat_action(TruncSeries.monomial(-2), 0.1)
    assert out2.coeff(-4) == pytest.approx(0.6)           # d2/dz2 z^-2 = 6 z^-4


def test_heat_action_matches_pure_laplacian_propagator():
    # b = 0, beta != 2: kernel evolution is the heat semigroup in disguise
    beta, t = 1.0, 0.3
    pot = Potential(beta, {})
    k = propagator(pot, t, 10).entries
    pi_init = np.zeros(11)
    pi_init[1], pi_init[3] = 1.0, 0.5
    pi0 = TruncSeries.from_dict({-k_ - 1: pi_init[k_] for k_ in (1, 3)})
    out = heat_action(pi0, -(beta / 2 - 1) * t)
    got = np.array([out.coeff(-k_ - 1) for k_ in range(11)])
    assert np.max(np.abs(got - k @ pi_init)) < 1e-12


# ------------------------------------------------------ retarded propagator


def test_retarded_modes_at_zero_plus():
    g = retarded_propagator_modes(Potential(1.0, {1: 0.5, 2: 0.3}), 0.0, 8)
    want = np.diag(np.arange(9.0))
    assert np.allclose(g.entries, want)


def test_retarded_modes_hermite():
    t = 0.4
    g = retarded_propagator_modes(HERMITE2, t, 10)
    for k in range(11):
        assert g.entries[k, k] == pytest.approx(k * math.exp(-k * t), rel=1e-12)
    assert np.allclose(g.entries[:, 0], 0.0)


# ----------------------------------------------------------- identity suite


def test_identities_hermite_beta2():
    rep = verify_kernel_identities(HERMITE2, (0.3, 0.2, 0.1), 12)
    assert rep["semigroup"] < 1e-12
    assert rep["kolmogorov_forward"] < 1e-12
    assert rep["kolmogorov_backward"] < 1e-12
    assert rep["technical_lemma"]["u=1"]["as_stated_rel"] < 1e-7
    assert rep["technical_lemma"]["u=z"]["as_stated_rel"] < 1e-7


def test_identities_free_case_exact():
    rep = verify_kernel_identities(Potential(2.0, {}), (0.3, 0.2, 0.1), 8)
    assert rep["semigroup"] == 0.0
    assert rep["kolmogorov_forward"] == 0.0
    assert rep["kolmogorov_backward"] == 0.0


def test_identities_generic_beta1():
    rep = verify_kernel_identities(Potential(1.0, {1: 0.5, 2: 0.3}), (0.3, 0.2, 0.1), 12)
    assert rep["semigroup"] < 1e-10
    assert rep["kolmogorov_forward"] < 1e-10
    assert rep["kolmogorov_backward"] < 1e-10
    assert rep["technical_lemma"]["u=1"]["as_stated_rel"] < 1e-7
    assert rep["technical_lemma"]["u=z"]["corrected_rel"] < 1e-7


def test_lemma_beta_correction_needed_for_uz():
    # the transport-only statement fails once the Laplacian band is active
    res = technical_lemma_residual(Potential(4.0, {1: 0.5, 2: 0.3}), 0.3, 0.2, 0.1, 12, 1)
    assert res["as_stated_rel"] > 1e-3
    assert res["corrected_rel"] < 1e-7


def test_lemma_rows_of_the_default_suite_hold_at_rounding():
    """Every technical-lemma residual that the default kernel-identities rows
    report is at the rounding level: the derivative is exact and the mode
    margin leaves no window-edge truncation.  Off the transport line the
    as-stated u = z residual stays of order one."""
    from coulombgas.cli import default_scenario, run_suite

    rows = [c for c in run_suite(default_scenario("kernel-identities"))[0]["checks"] if c["name"].startswith("technical-lemma/")]
    assert len(rows) == 6
    for c in rows:
        assert c["value"] <= 1e-13, c
        assert c.get("corrected_rel", 0.0) <= 1e-13, c
        if c["name"] in ("technical-lemma/u=z/generic-beta1", "technical-lemma/u=z/generic-beta4"):
            assert c["as_stated_rel"] > 1.0, c
        else:
            assert c.get("as_stated_rel", 0.0) <= 1e-13, c


def test_empty_force_is_zero_shaped_like_x():
    x = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    for f in (Potential(2.0).v, Potential(2.0).vprime):
        got = f(x)
        assert isinstance(got, np.ndarray) and got.shape == x.shape and not np.any(got)


def test_semigroup_property_random_times():
    pot = Potential(4.0, {1: 0.5, 2: 0.3})
    a, b = 0.17, 0.23
    k1 = propagator(pot, a, 10).entries
    k2 = propagator(pot, b, 10).entries
    k12 = propagator(pot, a + b, 10).entries
    assert np.max(np.abs(k1 @ k2 - k12)) / max(1.0, np.max(np.abs(k12))) < 1e-13


def test_expm_against_numpy_eig_oracle():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6)) * 0.7
    w, v = np.linalg.eig(m)
    want = (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real
    assert np.max(np.abs(expm_tol(m) - want)) < 1e-11
