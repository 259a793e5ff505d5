import math

import numpy as np
import pytest

from coulombgas.boson import TimeGrid
from coulombgas.dyson import (
    InitSpec,
    action_terms,
    dump_paths,
    girsanov_functionals,
    girsanov_logweight,
    girsanov_quadratic_correction,
    linear_statistics,
    load_paths,
    loop_equation_residual,
    npoint_functionals,
    npoint_vs_kernel,
    perturbed_potential,
    sample_equilibrium,
    simulate_dbm,
    slin_increment,
)
from coulombgas.kernel import Potential
from coulombgas.svconstraints import build_dynamical_constraint, constraint_functional
from coulombgas.timefunc import bump

HERMITE2 = Potential(2.0, {1: 1.0})


def stationary_pi2(pot, n):
    """sigma^2 (beta N (N-1)/2 + N), forced by the k = 2 moment identity."""
    return pot.sigma**2 * (pot.beta * n * (n - 1) / 2.0 + n)


# ---------------------------------------------------------------- dynamics


def test_ou_single_particle_moments():
    """N = 1 linear force: mean lam0 e^{-t/s^2}, var s^2 (1 - e^{-2t/s^2})."""
    sig = 1.0
    grid = TimeGrid(1e-3, 800)
    ens = simulate_dbm(
        HERMITE2, 1, grid, 20000, InitSpec("explicit", values=(1.5,)), seed=7, k_track=4
    )
    t = 0.8
    mean = ens.pi_mean(1)[-1]
    se = ens.pi_se(1)[-1]
    want = 1.5 * math.exp(-t / sig**2)
    assert abs(mean - want) < 3 * se + 5e-3  # 3 SE plus the O(dt) bias budget
    var = ens.pi_mean(2)[-1] - mean**2
    want_var = sig**2 * (1 - math.exp(-2 * t / sig**2))
    assert abs(var - want_var) < 4 * want_var / math.sqrt(ens.m) + 5e-3


def test_free_particles_pi2_growth():
    """beta = 0, V = 0: independent Brownian motions, E pi_2 = pi_2(0) + 2 N t."""
    pot = Potential(0.0, {})
    grid = TimeGrid(1e-3, 500)
    init = InitSpec("explicit", values=(-1.0, 0.5, 2.0))
    ens = simulate_dbm(pot, 3, grid, 8000, init, seed=3, k_track=4)
    pi2_0 = 1.0 + 0.25 + 4.0
    t = 0.5
    want = pi2_0 + 2 * 3 * t
    assert abs(ens.pi_mean(2)[-1] - want) < 3 * ens.pi_se(2)[-1]


def test_hermite_pi1_decay():
    grid = TimeGrid(1e-3, 500)
    init = InitSpec("equispaced", shift=0.5)
    ens = simulate_dbm(HERMITE2, 5, grid, 4000, init, seed=11, k_track=4)
    pi1_0 = ens.pi_mean(1)[0]
    want = pi1_0 * math.exp(-0.5)
    assert abs(ens.pi_mean(1)[-1] - want) < 3 * ens.pi_se(1)[-1] + 1e-2


def test_noise_variance_convention():
    grid = TimeGrid(1e-3, 200)
    ens = simulate_dbm(HERMITE2, 5, grid, 2000, seed=1)
    var = ens.noise_sumsq / ens.noise_count - (ens.noise_sum / ens.noise_count) ** 2
    se = var * math.sqrt(2.0 / (ens.noise_count - 1))
    assert abs(var - 2 * grid.dt) < 4 * se


def test_ordering_preserved_and_reproducible():
    grid = TimeGrid(1e-3, 100)
    e1 = simulate_dbm(HERMITE2, 5, grid, 50, seed=5, keep_paths=True)
    e2 = simulate_dbm(HERMITE2, 5, grid, 50, seed=5, keep_paths=True)
    assert np.array_equal(e1.paths, e2.paths)  # bitwise reproducible
    assert np.all(np.diff(e1.paths, axis=2) > 0)
    # stored increments reproduce the accepted steps
    drift_ok = []
    for j in (0, 50, 99):
        lam = e1.paths[:, j]
        from coulombgas.dyson import _drift

        rhs = e1.incs[:, j] + _drift(HERMITE2, lam.T).T * grid.dt
        drift_ok.append(np.max(np.abs(e1.paths[:, j + 1] - lam - rhs)))
    assert max(drift_ok) < 1e-14


def test_noise_keys_never_alias():
    """Main draws, ordering retries and every sub-step draw below the cap get
    distinct Philox keys across steps; the first counter past the cap would
    reuse the main-draw key of step j + 16."""
    from coulombgas import dyson

    counters = np.concatenate(
        [np.arange(dyson._MAX_RETRIES + 1), np.arange(dyson._SUBSTEP_CTR0 + 1, dyson._SUBSTEP_CTR_END)]
    )
    keys = ((np.arange(40, dtype=np.int64)[:, None] << 16) + counters).ravel()
    assert np.unique(keys).size == keys.size
    assert (3 << 16) + dyson._SUBSTEP_CTR_END == ((3 + 16) << 16) + 0


def test_substep_counter_cap_raises(monkeypatch):
    """A sub-step sequence that would reach the aliasing counter raises
    instead of reusing another step's noise; the start counter is moved next
    to the cap, so no 48k draws are needed."""
    from coulombgas import dyson

    grid = TimeGrid(5e-3, 200)
    init = InitSpec("equispaced", halfwidth=1.0)
    assert simulate_dbm(HERMITE2, 5, grid, 200, init, seed=3, k_track=4).substepped > 0
    monkeypatch.setattr(dyson, "_SUBSTEP_CTR0", dyson._SUBSTEP_CTR_END - 3)
    with pytest.raises(dyson.RejectionRateError, match="alias"):
        simulate_dbm(HERMITE2, 5, grid, 200, init, seed=3, k_track=4)


def test_exchange_symmetry_of_linear_statistics():
    grid = TimeGrid(1e-3, 60)
    ens = simulate_dbm(HERMITE2, 4, grid, 30, seed=9, keep_paths=True)
    perm = ens.paths[:, :, ::-1]  # relabel particles
    pi3 = np.sum(ens.paths**3, axis=2)
    pi3_perm = np.sum(perm**3, axis=2)
    # identical up to summation order
    assert np.allclose(pi3, pi3_perm, rtol=0.0, atol=1e-12)


def test_linear_statistics_trivial_values():
    grid = TimeGrid(0.01, 4)
    ens = simulate_dbm(HERMITE2, 3, grid, 8, InitSpec("explicit", values=(1.0, 2.0, 3.0)), seed=0, keep_paths=True)
    assert np.all(linear_statistics(ens, 0) == 3.0)
    assert linear_statistics(ens, 1)[0, 0] == pytest.approx(6.0)
    assert linear_statistics(ens, 2)[0, 0] == pytest.approx(14.0)


def test_paths_binary_roundtrip(tmp_path):
    grid = TimeGrid(0.01, 5)
    ens = simulate_dbm(HERMITE2, 2, grid, 4, seed=2, keep_paths=True)
    f = tmp_path / "paths.bin"
    dump_paths(ens, f)
    n, steps, m, dt, paths = load_paths(f)
    assert (n, steps, m) == (2, 5, 4) and dt == grid.dt
    assert np.array_equal(paths, ens.paths)


# ------------------------------------------------------------- equilibrium


def test_equilibrium_single_particle_ks():
    """N = 1 samples match the quadrature CDF of exp(-V) at the 1% level."""
    pot = Potential(2.0, {1: 1.0, 3: 0.4})
    chains = 200
    eq = sample_equilibrium(pot, 1, 60000, seed=4, chains=chains)
    xs = np.linspace(-4, 4, 4001)
    dens = np.exp(-pot.v(xs))
    cdf = np.cumsum(dens)
    cdf /= cdf[-1]
    # rows are sweep-major over chains; thin by whole sweeps spaced by twice
    # the measured autocorrelation time so draws are effectively independent
    per_sweep = eq.samples.reshape(-1, chains)
    step = max(1, int(math.ceil(2 * eq.autocorr_pi1)))
    sample = np.sort(per_sweep[::step].ravel())
    emp = np.arange(1, sample.size + 1) / sample.size
    theo = np.interp(sample, xs, cdf)
    ks = np.max(np.abs(emp - theo))
    assert ks < 1.63 / math.sqrt(sample.size)
    assert 0.0 < eq.acceptance < 1.0


def test_equilibrium_pi2_gaussian_n2():
    eq = sample_equilibrium(HERMITE2, 2, 100000, seed=8, chains=200)
    mean, se = eq.pi_mean_se(2)
    assert abs(mean - 4.0) < 3 * se  # sigma^2 (beta N(N-1)/2 + N) = 4 = N^2


def test_equilibrium_beta_zero_factorizes():
    pot = Potential(0.0, {1: 1.0})
    eq = sample_equilibrium(pot, 3, 60000, seed=2, chains=150)
    mean, se = eq.pi_mean_se(2)
    # independent Gaussians with density exp(-x^2/2): single-particle second
    # moment 1, so <pi_2> = 3
    assert abs(mean - 3.0) < 3 * se


def test_equilibrium_requires_confinement():
    with pytest.raises(ValueError):
        sample_equilibrium(Potential(2.0, {2: 1.0}), 3, 1000)


def test_detailed_balance_discrete_state_space():
    """The N = 1 Metropolis kernel on a discretized line satisfies
    pi_i P_ij = pi_j P_ji."""
    pot = Potential(2.0, {1: 1.0})
    xs = np.linspace(-2, 2, 41)
    target = np.exp(-pot.v(xs))
    prop_sigma = 0.5
    pmat = np.zeros((41, 41))
    for i, xi in enumerate(xs):
        for j, xj in enumerate(xs):
            if i == j:
                continue
            q = math.exp(-((xj - xi) ** 2) / (2 * prop_sigma**2))
            pmat[i, j] = q * min(1.0, target[j] / target[i])
        pmat[i, i] = 1.0 - pmat[i].sum()
    lhs = target[:, None] * pmat
    assert np.max(np.abs(lhs - lhs.T)) < 1e-12


# ----------------------------------------------------------- loop equations


def test_loop_equation_n0_gaussian():
    eq = sample_equilibrium(HERMITE2, 5, 100000, seed=21, chains=200)
    res, se = loop_equation_residual(eq, 0, HERMITE2)
    assert abs(res) < 3 * se
    # rearranged: <pi_2> = sigma^2 (beta N(N-1)/2 + N) = 25
    mean, mse = eq.pi_mean_se(2)
    assert abs(mean - 25.0) < 3 * mse


def test_loop_equation_odd_symmetry():
    eq = sample_equilibrium(HERMITE2, 4, 60000, seed=5, chains=150)
    res, se = loop_equation_residual(eq, 1, HERMITE2)
    assert abs(res) < 3 * se  # both sides vanish by symmetry


def test_loop_equation_with_tau_tilt():
    tau = {2: 0.05}
    pot = HERMITE2
    eq = sample_equilibrium(pot, 3, 80000, seed=13, chains=200, tau=tau)
    res, se = loop_equation_residual(eq, 0, pot)
    assert abs(res) < 3 * se


# --------------------------------------------------------------- reweighting


def test_girsanov_zero_tau():
    grid = TimeGrid(1e-3, 50)
    ens = simulate_dbm(HERMITE2, 3, grid, 20, seed=1, keep_paths=True)
    assert np.all(girsanov_logweight(ens, {}) == 0.0)


def test_girsanov_constant_tau1_telescopes():
    grid = TimeGrid(1e-3, 120)
    ens = simulate_dbm(HERMITE2, 3, grid, 40, seed=6, keep_paths=True)
    tau1 = 0.07
    lw = girsanov_logweight(ens, {1: tau1})
    # nu_i = tau1; the weight telescopes over the stored increments
    direct = -tau1 * ens.incs.sum(axis=(1, 2))
    assert np.max(np.abs(lw - direct)) < 1e-12


def test_girsanov_full_weight_mean_one():
    grid = TimeGrid(1e-3, 400)
    ens = simulate_dbm(HERMITE2, 5, grid, 8000, seed=17, keep_paths=True, k_track=4)
    tau = {2: 0.05}
    w = np.exp(girsanov_logweight(ens, tau) + girsanov_quadratic_correction(ens, tau))
    mean = w.mean()
    se = w.std(ddof=1) / math.sqrt(w.size)
    assert abs(mean - 1.0) < 3 * se
    # the printed quarter-coefficient variant is not a martingale
    w_quarter = np.exp(girsanov_logweight(ens, tau) + 0.25 * girsanov_quadratic_correction(ens, tau))
    mq = w_quarter.mean()
    sq = w_quarter.std(ddof=1) / math.sqrt(w_quarter.size)
    assert mq - 1.0 > 3 * sq


def test_girsanov_reweighting_matches_perturbed_drift():
    """Reweighted pi_2(T) equals the direct simulation with the tilted
    potential the stored weight generates (V' + 2 sum k tau_k x^(k-1))."""
    grid = TimeGrid(1e-3, 400)
    tau = {2: 0.05}
    # identical explicit start for both simulations (the default equispaced
    # halfwidth would differ between the two potentials)
    init = InitSpec("explicit", values=tuple(np.linspace(-4.0, 4.0, 5)))
    base = simulate_dbm(HERMITE2, 5, grid, 12000, init, seed=23, keep_paths=True, k_track=4)
    w = np.exp(girsanov_logweight(base, tau) + girsanov_quadratic_correction(base, tau))
    pi2_T = linear_statistics(base, 2)[:, -1]
    rew = float(np.sum(w * pi2_T) / np.sum(w))
    se_rew = float(np.std(w * (pi2_T - rew), ddof=1) / (np.mean(w) * math.sqrt(base.m)))
    tilted = perturbed_potential(HERMITE2, tau)
    assert tilted.b[1] == pytest.approx(1.0 + 4 * 0.05)
    direct = simulate_dbm(tilted, 5, grid, 12000, init, seed=29, k_track=4)
    d_mean = direct.pi_mean(2)[-1]
    d_se = direct.pi_se(2)[-1]
    assert abs(rew - d_mean) < 3 * math.hypot(se_rew, d_se)


def test_action_terms_consistency():
    grid = TimeGrid(1e-3, 200)
    ens = simulate_dbm(HERMITE2, 3, grid, 2000, seed=2, keep_paths=True, k_track=4)
    tau = {1: 0.1}
    s_lin, s_quad = action_terms(ens, tau)
    assert np.all(s_quad == 0.0)  # k = 1 has an empty quadratic sum
    lw = girsanov_logweight(ens, tau)
    # Ito-rewritten action vs raw weight: O(dt) in mean, O(sqrt dt) per path
    diff = s_lin + lw  # exp(-S) ~ exp(lw)
    assert abs(diff.mean()) < 5e-3
    assert np.std(diff) < 0.1 * math.sqrt(grid.dt * grid.steps)
    tau2 = {2: 0.05}
    s_lin2, s_quad2 = action_terms(ens, tau2)
    assert np.any(s_quad2 != 0.0)
    assert abs(np.mean(s_lin2 + s_quad2 + girsanov_logweight(ens, tau2))) < 5e-3


def test_online_reweighting_functionals_match_stored_path_oracles():
    """The functionals of girsanov_functionals equal the stored-path
    post-processors: bit for bit where both sum in the same order (a single
    tau_k, pi_2 at the last slot), to rounding otherwise.  tau_6 reads
    lam^5 beyond the power stack of k_track = 4."""
    grid = TimeGrid(1e-3, 200)
    taus = {"single": {2: 0.05}, "beyond-stack": {6: 1e-5}, "mixed": {1: 0.02, 3: 0.01}}
    funcs = {f"{label}:{name}": spec for label, tau in taus.items() for name, spec in girsanov_functionals(tau, grid).items()}
    ens = simulate_dbm(
        HERMITE2, 5, grid, 300, InitSpec("equispaced", shift=0.4), seed=19, k_track=4, functionals=funcs, keep_paths=True
    )
    got = ens.functional_samples

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    for label in ("single", "beyond-stack"):
        assert np.array_equal(got[f"{label}:logweight"], girsanov_logweight(ens, taus[label]))
    assert rel(got["mixed:logweight"], girsanov_logweight(ens, taus["mixed"])) < 1e-13
    for label, tau in taus.items():
        assert np.array_equal(got[f"{label}:pi2_end"], linear_statistics(ens, 2)[:, -1])
        assert rel(got[f"{label}:quadratic"], girsanov_quadratic_correction(ens, tau)) < 1e-13


def test_constraint_functional_matches_stored_path_contraction():
    """The online constraint functional equals the contraction of the
    action densities computed from the stored paths with its weights; the
    generic potential's constraints weight modes 1..4."""
    pot = Potential(2.0, {1: 0.5, 2: 0.3})
    grid = TimeGrid(1e-3, 200)
    a = bump(0.0, grid.dt * grid.steps, 4)
    specs = {n: constraint_functional(build_dynamical_constraint(n, a, pot, 4, grid, 4, parts="affine")) for n in (-1, 0)}
    assert sorted(specs[0]["s"]) == [1, 2, 3, 4]
    ens = simulate_dbm(pot, 4, grid, 200, seed=7, k_track=4, functionals=specs, keep_paths=True)
    for n, spec in specs.items():
        want = np.zeros(ens.m)
        for l, w in spec["s"].items():
            for j in range(grid.steps):
                lam = ens.paths[:, j]
                want += w[j] * slin_increment(pot, lam, ens.paths[:, j + 1] - lam, grid.dt, l) / grid.dt
        got = ens.functional_samples[n]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n


def test_action_lin_mean_zero():
    """E S_k(t) = 0: the per-replica time-averaged martingale density."""
    grid = TimeGrid(1e-3, 300)
    ens = simulate_dbm(HERMITE2, 5, grid, 6000, seed=31, k_track=6, track_moment_residual=(1, 2, 3, 4))
    for k in (1, 2, 3, 4):
        s = ens.martingale_samples[k]
        assert abs(s.mean()) < 3 * s.std(ddof=1) / math.sqrt(s.size)


# --------------------------------------------------------- moment hierarchy


def test_moment_hierarchy_time_averaged():
    grid = TimeGrid(1e-3, 500)
    ens = simulate_dbm(
        HERMITE2, 5, grid, 8000, InitSpec("equispaced", shift=0.3), seed=43, k_track=6, track_moment_residual=(1, 2, 3, 4)
    )
    for k in (1, 2, 3, 4):
        r = ens.moment_residual_samples[k]
        se = r.std(ddof=1) / math.sqrt(r.size)
        bias = 200.0 * (1 + k * k) * grid.dt
        assert abs(r.mean()) < 3 * se + bias, f"k={k}: {r.mean()} vs 3*{se}+{bias}"


def test_moment_residual_bias_scales_linearly():
    """Halving dt roughly halves the deterministic part of the residual."""
    vals = tuple(np.array([-2.2, -1.1, 0.0, 1.1, 2.2]))  # near-equilibrium start
    means = []
    for dt, steps in ((8e-3, 125), (4e-3, 250)):
        grid = TimeGrid(dt, steps)
        ens = simulate_dbm(
            HERMITE2, 5, grid, 40000, InitSpec("explicit", values=vals), seed=47, k_track=6, track_moment_residual=(2,)
        )
        r = ens.moment_residual_samples[2]
        means.append((r.mean(), r.std(ddof=1) / math.sqrt(r.size)))
    assert abs(means[0][0]) > 5 * means[0][1]  # bias resolvable at the coarse step
    assert 1.3 < means[0][0] / means[1][0] < 3.0


# ------------------------------------------------------------ n-point check


def test_npoint_vs_kernel_hermite():
    from coulombgas.timefunc import bump

    grid = TimeGrid(1e-3, 800)
    tmax = 0.8
    f = bump(0.0, tmax, 2)
    funcs = {}
    for k in (1, 2):
        fl = npoint_functionals(HERMITE2, grid, f, k, k_max=4)
        funcs[f"npoint{k}:lhs"] = fl["lhs"]
        funcs[f"npoint{k}:rhs"] = fl["rhs"]
    ens = simulate_dbm(
        HERMITE2, 5, grid, 8000, InitSpec("equispaced", shift=0.4), seed=53, k_track=6, functionals=funcs
    )
    # k = 1: the discrete identity telescopes exactly (rounding floor);
    # k = 2: strict 3-sigma once the remainder counterterm is included
    lhs, rhs, disc, se = npoint_vs_kernel(ens, 1)
    assert abs(disc) < 1e-12 * abs(lhs)
    lhs, rhs, disc, se = npoint_vs_kernel(ens, 2)
    assert abs(disc) < 3 * se, (lhs, rhs, disc, se)


def test_npoint_zero_test_function():
    grid = TimeGrid(2e-3, 100)
    from coulombgas.timefunc import TimePoly

    f = TimePoly([0.0])
    fl = npoint_functionals(HERMITE2, grid, f, 1, k_max=3)
    ens = simulate_dbm(
        HERMITE2, 3, grid, 50, seed=3, functionals={"npoint1:lhs": fl["lhs"], "npoint1:rhs": fl["rhs"]}
    )
    lhs, rhs, disc, se = npoint_vs_kernel(ens, 1)
    assert lhs == rhs == disc == 0.0


def test_equilibrium_initial_condition():
    grid = TimeGrid(1e-3, 40)
    init = InitSpec("equilibrium", sweeps=20000, seed=5)
    ens = simulate_dbm(HERMITE2, 3, grid, 2000, init, seed=11, k_track=4)
    # starting in equilibrium, <pi_2> stays at the stationary value
    want = stationary_pi2(HERMITE2, 3)
    for j in (0, 20, 40):
        assert abs(ens.pi_mean(2)[j] - want) < 4 * ens.pi_se(2)[j] + 0.3
