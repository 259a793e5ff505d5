import contextlib
import math
import os
import signal

import numpy as np
import pytest

from coulombgas.boson import TimeGrid
from coulombgas.dyson import (
    InitSpec,
    action_terms,
    girsanov_functionals,
    girsanov_logweight,
    girsanov_quadratic_correction,
    linear_statistics,
    loop_equation_residual,
    moment_functionals,
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
        HERMITE2, 1, grid, 20000, InitSpec("explicit", values=(1.5,)), seed=7
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
    ens = simulate_dbm(pot, 3, grid, 8000, init, seed=3)
    pi2_0 = 1.0 + 0.25 + 4.0
    t = 0.5
    want = pi2_0 + 2 * 3 * t
    assert abs(ens.pi_mean(2)[-1] - want) < 3 * ens.pi_se(2)[-1]


def test_hermite_pi1_decay():
    grid = TimeGrid(1e-3, 500)
    init = InitSpec("equispaced", shift=0.5)
    ens = simulate_dbm(HERMITE2, 5, grid, 4000, init, seed=11)
    pi1_0 = ens.pi_mean(1)[0]
    want = pi1_0 * math.exp(-0.5)
    assert abs(ens.pi_mean(1)[-1] - want) < 3 * ens.pi_se(1)[-1] + 1e-2


def test_noise_variance_convention():
    grid = TimeGrid(1e-3, 200)
    ens = simulate_dbm(HERMITE2, 5, grid, 2000, seed=1)
    var = ens.noise_m2 / ens.noise_count
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
    """Main, retry and sub-step draws take distinct (key, counter) pairs across
    blocks, rows, draws and steps; a main draw of the widest block leaves the
    words that tell the draws apart alone; and the engine draws from these
    pairs: every stored increment is its row's main draw, or one of its retry
    draws, but for the sub-stepped rows."""
    from coulombgas import dyson

    blocks, rows, steps = range(3), range(dyson._BLOCK), range(4)
    draws = range(1, dyson._MAX_RETRIES + 4)  # retries, then the first sub-step draws
    pairs = [(b, 0, 0, j) for b in blocks for j in steps]  # (block, counter words 1..3) of the main draws
    pairs += [(b, 1 + i, d, j) for b in blocks for i in rows for d in draws for j in steps]
    assert len(set(pairs)) == len(pairs)
    gen = dyson._stream(2**63 - 1, 7, (0, 0, 0, 5))
    gen.standard_normal((dyson._BLOCK, 64))
    assert gen.bit_generator.state["state"]["counter"][1:].tolist() == [0, 0, 5]

    grid, seed, sqrt2dt = TimeGrid(5e-3, 200), 3, math.sqrt(2 * 5e-3)
    ens = simulate_dbm(HERMITE2, 5, grid, 600, InitSpec("equispaced", halfwidth=1.0), seed=seed, keep_paths=True)
    main = np.concatenate(  # (600, steps, 5): the main draws of block 0 (500 rows) and block 1 (100 rows)
        [
            np.stack([sqrt2dt * dyson._stream(seed, b, (0, 0, 0, j)).standard_normal((size, 5)) for j in range(grid.steps)], axis=1)
            for b, size in ((0, 500), (1, 100))
        ]
    )
    retried = unmatched = 0
    for r, j in zip(*np.nonzero(np.any(ens.incs != main, axis=2))):
        b, i = divmod(r, dyson._BLOCK)
        retry = [sqrt2dt * dyson._stream(seed, b, (0, 1 + i, d, j)).standard_normal(5) for d in range(1, dyson._MAX_RETRIES + 1)]
        if any(np.array_equal(ens.incs[r, j], x) for x in retry):
            retried += 1
        else:
            unmatched += 1
    assert retried > 0 and ens.rejected >= retried
    assert unmatched == ens.substepped > 0


def test_substep_cap_raises(monkeypatch):
    """A row that needs more than _MAX_SUBSTEPS sub-steps in one step raises
    RejectionRateError; the cap is lowered to 1 here, and every sub-stepped
    row needs 8 or more."""
    from coulombgas import dyson

    grid = TimeGrid(5e-3, 200)
    init = InitSpec("equispaced", halfwidth=1.0)
    assert simulate_dbm(HERMITE2, 5, grid, 200, init, seed=3).substepped > 0
    monkeypatch.setattr(dyson, "_MAX_SUBSTEPS", 1)
    with pytest.raises(dyson.RejectionRateError, match="unresolved after 2 sub-steps"):
        simulate_dbm(HERMITE2, 5, grid, 200, init, seed=3)


def test_first_block_does_not_depend_on_m():
    """The first 500 replicas form block 0 whatever m is: their paths and
    increments are the same at m = 600 and at m = 1 100."""
    grid = TimeGrid(1e-3, 100)
    init = InitSpec("equispaced", shift=0.3)
    short, long = (simulate_dbm(HERMITE2, 5, grid, m, init, seed=8, keep_paths=True) for m in (600, 1100))
    assert np.array_equal(short.paths[:500], long.paths[:500])
    assert np.array_equal(short.incs[:500], long.incs[:500])


@pytest.mark.parametrize("workers", [1, 2])
def test_merged_moments_match_two_pass_oracle(workers):
    """The block-merged mean and standard error of pi_0..pi_2 per slot, and
    the merged noise mean and M2, agree with two passes over the stored
    paths and increments to 1e-12 of their scale; 1 200 replicas make three
    blocks, the last one short."""
    grid = TimeGrid(1e-3, 100)
    ens = simulate_dbm(HERMITE2, 5, grid, 1200, InitSpec("equispaced", shift=0.3), seed=9, keep_paths=True, workers=workers)
    for k in range(3):
        x = linear_statistics(ens, k)
        mean = x.mean(axis=0)
        se = np.sqrt(np.mean((x - mean) ** 2, axis=0) / (ens.m - 1))
        assert np.max(np.abs(ens.pi_mean(k) - mean)) <= 1e-12 * np.max(np.abs(mean))
        assert np.max(np.abs(ens.pi_se(k) - se)) <= 1e-12 * np.max(se)
    db = ens.incs.ravel()
    assert ens.noise_count == db.size
    assert abs(ens.noise_mean - db.mean()) <= 1e-12 * db.std()
    assert abs(ens.noise_m2 - np.sum((db - db.mean()) ** 2)) <= 1e-12 * ens.noise_m2


def test_block_moments_of_stacked_rows_equal_single_row_calls():
    """_block_moments of k rows stacked as one (k, cols) array gives each row
    the bits of its own single-row call, the short last run included, as
    the step loop needs to reduce a window of steps at once."""
    from coulombgas.dyson import _block_moments

    rng = np.random.default_rng(5)
    for k, cols, width in ((6, 2500, 2500), (4, 5500, 2500), (7, 1100, 500), (3, 300, 500)):
        x = 3.0 + rng.standard_normal((k, cols)) * 1e-2
        runs = -(-cols // width)
        stacked = np.empty((2, k, runs))
        _block_moments(x.copy(), width, *stacked)
        single = np.empty((2, k, runs))
        for r in range(k):
            _block_moments(x[r : r + 1].copy(), width, *single[:, r : r + 1])
        assert stacked.tobytes() == single.tobytes()


def _drift_pair_loop(pot, lam):
    """The pair force as a double loop over pairs i < i' (the reference for
    the order of terms that the packed drift keeps)."""
    out = -pot.vprime(lam)
    if pot.beta != 0.0:
        for i in range(lam.shape[0]):
            for ix in range(i + 1, lam.shape[0]):
                inv = pot.beta / (lam[i] - lam[ix])
                out[i] += inv
                out[ix] -= inv
    return out


def test_packed_drift_equals_the_pair_loop_bit_for_bit():
    """_drift packs the pair differences by offset and keeps each particle's
    order of terms, so it equals the double loop byte for byte: N = 1..9,
    beta 0, 1, 2, a one- and a three-term force, 1, 7 and 500 replicas,
    with fresh buffers, with caller buffers used twice, and for a transposed
    (non-contiguous) input."""
    from coulombgas.dyson import _drift

    rng = np.random.default_rng(8)
    for n in range(1, 10):
        for m in (1, 7, 500):
            lam_rm = np.sort(rng.standard_normal((m, n)) * 2.0, axis=1)  # replica-major, as the tests pass it
            for beta in (0.0, 1.0, 2.0):
                for b in ({1: 1.0}, {1: 0.5, 2: 0.3, 3: -0.2}):
                    pot = Potential(beta, b)
                    ref = _drift_pair_loop(pot, lam_rm.T).tobytes()
                    assert _drift(pot, lam_rm.T).tobytes() == ref
                    lam = np.ascontiguousarray(lam_rm.T)
                    out, pairs = np.full((n, m), np.nan), np.full((n * (n - 1) // 2, m), np.nan)
                    for _ in range(2):
                        assert _drift(pot, lam, out, pairs) is out
                        assert out.tobytes() == ref


def _outputs(ens) -> dict:
    """Every array, accumulator and counter of an Ensemble, as bytes."""
    out = {name: np.ascontiguousarray(getattr(ens, name)).tobytes() for name in ("paths", "incs", "pi_avg", "pi_m2")}
    out.update({f"functional:{name}": v.tobytes() for name, v in ens.functional_samples.items()})
    out["scalars"] = (ens.noise_count, ens.noise_mean, ens.noise_m2, ens.rejected, ens.substepped)
    return out


def test_window_of_block_statistics_keeps_every_bit(monkeypatch):
    """The block statistics of a window of steps are reduced together; a
    window of one step, one that divides the 150 steps (3) and one that
    leaves a short last window (4) give the same Ensemble, bit for bit, on
    three blocks of which the last is short (1 100 replicas, N = 4)."""
    from coulombgas import dyson

    grid, m, n = TimeGrid(2e-3, 150), 1100, 4
    funcs = moment_functionals(HERMITE2, grid, (1, 2))
    runs = {}
    for window in (1, 3, 4):
        monkeypatch.setattr(dyson, "_WINDOW_BYTES", window * m * n * 8)
        ens = simulate_dbm(HERMITE2, n, grid, m, InitSpec("equispaced", shift=0.3), seed=15, functionals=funcs, keep_paths=True)
        runs[window] = _outputs(ens)
    assert grid.steps % 3 == 0 and grid.steps % 4 != 0
    assert runs[3] == runs[1] and runs[4] == runs[1]


def _assert_no_child():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once it has run for ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("workers", [1, 2])
def test_noise_helpers_leave_no_process(monkeypatch, workers):
    """With the noise helper forced on, in this process or in each of two
    pool workers, no child process is left after a run, nor after a run that
    raises at step 50 of 200 while its helper draws ahead."""
    from coulombgas import dyson

    monkeypatch.setattr(dyson, "_spare_core", lambda workers: True)
    grid, init = TimeGrid(1e-3, 200), InitSpec("equispaced", shift=0.3)
    _assert_no_child()
    with _deadline(60):
        simulate_dbm(HERMITE2, 5, grid, 1000, init, seed=4, workers=workers)
    _assert_no_child()
    step = dyson._FeatureTable.step

    def failing_step(self, j, *args):
        if j == 50:
            raise RuntimeError("stopped at step 50")
        step(self, j, *args)

    monkeypatch.setattr(dyson._FeatureTable, "step", failing_step)
    with _deadline(60), pytest.raises(RuntimeError, match="stopped at step 50"):
        simulate_dbm(HERMITE2, 5, grid, 1000, init, seed=4, workers=workers)
    _assert_no_child()


def test_a_noise_helper_that_ends_early_raises(monkeypatch):
    """A helper that fails at step 100 of 300 makes the run raise
    NoiseHelperError at that step, without a hang, and leaves no process."""
    from coulombgas import dyson

    monkeypatch.setattr(dyson, "_spare_core", lambda workers: True)
    draw = dyson._main_draw

    def failing_draw(gen, state, j, out):
        if j == 100:
            raise RuntimeError("the helper fails")
        draw(gen, state, j, out)

    monkeypatch.setattr(dyson, "_main_draw", failing_draw)
    with _deadline(60), pytest.raises(dyson.NoiseHelperError, match="ended before step 100 of 300, exit code 1$"):
        simulate_dbm(HERMITE2, 5, TimeGrid(1e-3, 300), 200, seed=4)
    _assert_no_child()


@pytest.mark.parametrize("workers", [1, 2])
def test_non_finite_positions_name_the_first_step(workers):
    """With beta = 0 the ordering guard is off, and the force +lam^2 blows
    every row up in finite time: the run stops with FloatingPointError at
    the first step that leaves a non-finite position, and a run that ends
    just before it stays finite.  Block 1 (replicas 500..999) overflows
    before block 0, so with two workers the second worker's error is the
    one raised."""
    pot, init = Potential(0.0, {2: -1.0}), InitSpec("explicit", values=(1.0,))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"non-finite positions at step \d+$") as first:
            simulate_dbm(pot, 1, TimeGrid(0.01, 400), 1000, init, seed=0, workers=workers)
        with pytest.raises(FloatingPointError) as block0:
            simulate_dbm(pot, 1, TimeGrid(0.01, 400), 500, init, seed=0)
        step = int(str(first.value).rsplit(" ", 1)[1])
        assert int(str(block0.value).rsplit(" ", 1)[1]) > step
        ens = simulate_dbm(pot, 1, TimeGrid(0.01, step), 1000, init, seed=0, keep_paths=True, workers=workers)
    assert np.all(np.isfinite(ens.paths))


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
    ens = simulate_dbm(HERMITE2, 5, grid, 8000, seed=17, keep_paths=True)
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
    base = simulate_dbm(HERMITE2, 5, grid, 12000, init, seed=23, keep_paths=True)
    w = np.exp(girsanov_logweight(base, tau) + girsanov_quadratic_correction(base, tau))
    pi2_T = linear_statistics(base, 2)[:, -1]
    rew = float(np.sum(w * pi2_T) / np.sum(w))
    se_rew = float(np.std(w * (pi2_T - rew), ddof=1) / (np.mean(w) * math.sqrt(base.m)))
    tilted = perturbed_potential(HERMITE2, tau)
    assert tilted.b[1] == pytest.approx(1.0 + 4 * 0.05)
    direct = simulate_dbm(tilted, 5, grid, 12000, init, seed=29)
    d_mean = direct.pi_mean(2)[-1]
    d_se = direct.pi_se(2)[-1]
    assert abs(rew - d_mean) < 3 * math.hypot(se_rew, d_se)


def test_action_terms_consistency():
    grid = TimeGrid(1e-3, 200)
    ens = simulate_dbm(HERMITE2, 3, grid, 2000, seed=2, keep_paths=True)
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
    post-processors: bit for bit where both sum in the same order (pi_2 at
    the last slot), to rounding otherwise.  The engine multiplies each
    weight onto the particle sum where the oracle weights each term, and
    tau_6 reads lam^5 from a power stack built by repeated products, where
    the oracle takes libm powers."""
    grid = TimeGrid(1e-3, 200)
    taus = {"single": {2: 0.05}, "beyond-stack": {6: 1e-5}, "mixed": {1: 0.02, 3: 0.01}}
    funcs = {f"{label}:{name}": spec for label, tau in taus.items() for name, spec in girsanov_functionals(tau, grid).items()}
    ens = simulate_dbm(
        HERMITE2, 5, grid, 300, InitSpec("equispaced", shift=0.4), seed=19, functionals=funcs, keep_paths=True
    )
    got = ens.functional_samples

    def rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    for label in taus:
        assert rel(got[f"{label}:logweight"], girsanov_logweight(ens, taus[label])) < 1e-13
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
    ens = simulate_dbm(pot, 4, grid, 200, seed=7, functionals=specs, keep_paths=True)
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
    ens = simulate_dbm(HERMITE2, 5, grid, 6000, seed=31, functionals=moment_functionals(HERMITE2, grid, (1, 2, 3, 4)))
    for k in (1, 2, 3, 4):
        s = ens.functional_samples[f"martingale{k}"] / (grid.steps * grid.dt)
        assert abs(s.mean()) < 3 * s.std(ddof=1) / math.sqrt(s.size)


# --------------------------------------------------------- moment hierarchy


@pytest.mark.parametrize("pot", [HERMITE2, Potential(1.0, {1: 0.5, 2: 0.3})], ids=["hermite", "generic-beta1"])
def test_moment_functionals_match_stored_path_oracle(pot):
    """The residual and martingale functionals equal the time-averaged
    evolution-identity residual and martingale density recomputed from the
    stored paths; the generic potential exercises the (beta/2 - 1) and b_2
    terms."""
    grid = TimeGrid(1e-3, 200)
    ks = (1, 2, 3, 4)
    init = InitSpec("explicit", values=(-2.0, -0.5, 0.5, 2.0))
    ens = simulate_dbm(pot, 4, grid, 100, init, seed=5, functionals=moment_functionals(pot, grid, ks), keep_paths=True)
    steps, dt = grid.steps, grid.dt
    pi = {q: linear_statistics(ens, q) for q in range(0, 4 + pot.l_max)}
    inner = slice(1, steps)
    for k in ks:
        term = sum(k * bl * pi[l + k - 1][:, inner] for l, bl in pot.b.items())
        if k >= 2:
            term = term + (pot.beta / 2.0 - 1.0) * k * (k - 1) * pi[k - 2][:, inner]
        for q in range(k - 1):
            term = term - (pot.beta / 2.0) * k * pi[q][:, inner] * pi[k - 2 - q][:, inner]
        tele = (pi[k][:, steps] + pi[k][:, steps - 1] - pi[k][:, 1] - pi[k][:, 0]) / (2 * dt)
        want = (tele + term.sum(axis=1)) / (steps - 1)
        got = ens.functional_samples[f"residual{k}"]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), k
        want = np.sum(k * ens.paths[:, :-1] ** (k - 1) * ens.incs, axis=(1, 2)) / (steps * dt)
        got = ens.functional_samples[f"martingale{k}"] / (steps * dt)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), k


def test_moment_residual_has_no_rounding_bias():
    """Against the residual recomputed in extended precision from the stored
    paths, the per-replica rounding errors of residual2 average out: a sum
    that adds the same rounded product on every slot would leave a mean
    error of order 1e-14 max|residual| here."""
    grid = TimeGrid(1e-3, 2000)
    ens = simulate_dbm(
        HERMITE2, 5, grid, 100, InitSpec("equispaced", shift=0.5), seed=2024,
        functionals=moment_functionals(HERMITE2, grid, (2,)), keep_paths=True,
    )
    paths, steps = ens.paths.astype(np.longdouble), grid.steps
    pi2 = np.sum(paths**2, axis=2)
    inner = 2.0 * pi2[:, 1:steps].sum(axis=1) - 2.0 * 25.0 * (steps - 1)  # k b_1 pi_2 - (beta/2) k pi_0^2
    tele = (pi2[:, steps] + pi2[:, steps - 1] - pi2[:, 1] - pi2[:, 0]) / (2 * np.longdouble(grid.dt))
    want = (tele + inner) / (steps - 1)
    err = ens.functional_samples["residual2"] - want
    assert abs(float(err.mean())) < 2e-15 * float(np.max(np.abs(want)))


def test_pi_functional_beyond_the_moments():
    """A "pi" key of 9 deepens the power stack: the functional equals
    linear_statistics(e, 9) summed with its weights."""
    grid = TimeGrid(1e-3, 100)
    w = np.linspace(0.0, 1.0, grid.nslots)
    ens = simulate_dbm(HERMITE2, 5, grid, 50, seed=4, functionals={"pi9": {"pi": {9: w}}}, keep_paths=True)
    want = linear_statistics(ens, 9) @ w
    assert np.max(np.abs(ens.functional_samples["pi9"] - want)) <= 1e-13 * np.max(np.abs(want))
    assert ens.pi_avg.shape == (grid.nslots, 3)


@pytest.mark.parametrize(
    "pot, dt, halfwidth", [(HERMITE2, 5e-3, 1.0), (Potential(1.0, {1: 0.5, 2: 0.3}), 2e-3, 2.0)], ids=["hermite", "generic-beta1"]
)
def test_every_functional_kind_matches_stored_path_oracle(pot, dt, halfwidth):
    """Each of the five kinds equals its definition recomputed from the
    stored paths and increments, on a run whose sub-stepped rows make the
    accepted displacement differ from dB + drift dt.  The generic run takes
    a smaller step and a wider start: at the Hermite settings more than 1%
    of its steps are rejected, and at dt = 5e-3 its cubic force lets
    replicas from a wider start escape."""
    from coulombgas.dyson import _drift

    grid = TimeGrid(dt, 200)
    steps = grid.steps
    w = 1.0 + 0.5 * np.sin(np.linspace(0.0, 7.0, grid.nslots))
    specs = {
        "pi": {"pi": {0: w, 3: w, 5: w}},
        "pp": {"pp": {(0, 2): w, (1, 3): w, (2, 2): w}},
        "db": {"db": {1: w, 3: w}},
        "s": {"s": {1: w, 2: w, 4: w}},
        "q": {"q": {2: w, 3: w, 5: w}},
    }
    init = InitSpec("equispaced", halfwidth=halfwidth)
    ens = simulate_dbm(pot, 5, grid, 200, init, seed=3, functionals=specs, keep_paths=True)
    assert ens.substepped > 0
    pi = {k: linear_statistics(ens, k) for k in range(6)}
    want = {
        "pi": sum(pi[k] @ w for k in specs["pi"]["pi"]),
        "pp": sum((pi[a] * pi[b]) @ w for a, b in specs["pp"]["pp"]),
        "db": 0.0,
        "s": 0.0,
        "q": 0.0,
    }
    for j in range(steps):
        lam = ens.paths[:, j]
        drift = _drift(pot, lam.T).T
        for k in specs["db"]["db"]:
            want["db"] = want["db"] + w[j] * np.sum(k * lam ** (k - 1) * ens.incs[:, j], axis=1)
        for l in specs["s"]["s"]:
            want["s"] = want["s"] + w[j] * slin_increment(pot, lam, ens.paths[:, j + 1] - lam, dt, l) / dt
        for l in specs["q"]["q"]:
            q = 0.5 * l * (l - 1) * np.sum(lam ** (l - 2) * drift**2, axis=1)
            if l >= 3:
                q += l * (l - 1) * (l - 2) * np.sum(lam ** (l - 3) * drift, axis=1)
            if l >= 4:
                q += 0.5 * l * (l - 1) * (l - 2) * (l - 3) * np.sum(lam ** (l - 4), axis=1)
            want["q"] = want["q"] + w[j] * q * dt
    for name, ref in want.items():
        got = ens.functional_samples[name]
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"ss": {1: "w"}}, "unknown kind 'ss'"),
        ({"pi": {2: "long"}}, "'pi'"),
        ({"s": {2: "short"}}, "'s'"),
        ({"db": {1: 0.5}}, "'db'"),
        ({"pp": {(2, 1): "w"}}, "'pp'"),
        ({"pi": {-1: "w"}}, "'pi'"),
        ({"q": {0: "w"}}, "'q'"),
    ],
    ids=["unknown-kind", "long-weights", "short-weights", "scalar-weight", "pp-unordered", "negative-power", "q-zero-mode"],
)
def test_malformed_functional_specs_raise_before_the_first_step(spec, message):
    """A spec that the engine cannot evaluate raises ValueError naming the
    functional and the kind, before any step is taken."""
    grid = TimeGrid(1e-3, 20)
    weights = {"w": np.ones(grid.nslots), "long": np.ones(grid.nslots + 1), "short": np.ones(grid.nslots - 1)}
    spec = {kind: {key: weights.get(w, w) for key, w in entries.items()} for kind, entries in spec.items()}
    with pytest.raises(ValueError, match=message) as info:
        simulate_dbm(HERMITE2, 3, grid, 4, seed=1, functionals={"bad-functional": spec})
    assert "bad-functional" in str(info.value)


def test_feature_rows_do_not_depend_on_feature_order():
    """The row layout of the feature table, and with it the order of every
    sum over features, does not follow the iteration order of the feature
    set, which string hashing changes from process to process."""
    from coulombgas.dyson import _feature_rows

    feats = [("db", 1), ("dl", 0), ("d2", 2), ("d1", 0), ("pp", (1, 2)), ("pi", 5), ("dl", 3), ("db", 3)]
    assert _feature_rows(feats) == _feature_rows(feats[::-1])


def test_moment_hierarchy_time_averaged():
    grid = TimeGrid(1e-3, 500)
    ens = simulate_dbm(
        HERMITE2, 5, grid, 8000, InitSpec("equispaced", shift=0.3), seed=43,
        functionals=moment_functionals(HERMITE2, grid, (1, 2, 3, 4)),
    )
    for k in (1, 2, 3, 4):
        r = ens.functional_samples[f"residual{k}"]
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
            HERMITE2, 5, grid, 40000, InitSpec("explicit", values=vals), seed=47, functionals=moment_functionals(HERMITE2, grid, (2,))
        )
        r = ens.functional_samples["residual2"]
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
        HERMITE2, 5, grid, 8000, InitSpec("equispaced", shift=0.4), seed=53, functionals=funcs
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


@pytest.mark.parametrize("m", [1000, 8000])
def test_equilibrium_init_draws_the_stationary_pi2(m):
    """An equilibrium init draws <pi_2> = 25 (HERMITE2, N = 5) at the default
    sweeps and seed, also when m sets many chains."""
    lam = InitSpec("equilibrium").positions(HERMITE2, 5, m)
    pi2 = np.sum(lam**2, axis=1)
    se = pi2.std(ddof=1) / math.sqrt(m)
    assert abs(pi2.mean() - stationary_pi2(HERMITE2, 5)) < 4 * se, (pi2.mean(), se)


def test_init_sweeps_below_one_raise():
    """InitSpec.sweeps counts sweeps per chain; fewer than one is an error."""
    with pytest.raises(ValueError, match="sweeps must be >= 1"):
        InitSpec("equilibrium", sweeps=0)


def test_equilibrium_initial_condition():
    grid = TimeGrid(1e-3, 40)
    init = InitSpec("equilibrium", sweeps=200, seed=5)
    ens = simulate_dbm(HERMITE2, 3, grid, 2000, init, seed=11)
    # starting in equilibrium, <pi_2> stays at the stationary value
    want = stationary_pi2(HERMITE2, 3)
    for j in (0, 20, 40):
        assert abs(ens.pi_mean(2)[j] - want) < 4 * ens.pi_se(2)[j] + 0.3
