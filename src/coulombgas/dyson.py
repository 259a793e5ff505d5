"""Stochastic engine: interacting Langevin dynamics and Gibbs sampling.

Simulates the coupled eigenvalue-type dynamics

    d lam_i = dB_i + [ beta * sum_{j != i} 1/(lam_i - lam_j) - V'(lam_i) ] dt,

with the noise convention Var(dB) = 2 dt, by Euler-Maruyama with step
rejection on ordering violations (beta >= 1).  Provides Metropolis sampling
of the stationary Gibbs measure, the per-replica path functionals (reweighting
log weights, linearized action densities, pi_k at chosen slots) that the
reweighting, constraint and n-point checks average, and the loop-equation
residual.  The stored-path post-processors (linear statistics, reweighting
weights, action terms) are the reference the online functionals are tested
against.

Reproducibility: every batch of Gaussian increments comes from a
counter-based generator keyed by (seed, step, retry), so results are bitwise
identical regardless of how the replica loop is scheduled.  The Langevin
state is particle-major, (n, m); public arrays stay replica-major, (m, ...).

Reweighting conventions (fixed by the 2 dt noise variance):

* the log weight is  -sum_i int nu_i (d lam_i + dW/dlam_i dt)  with
  nu_i = d/dlam_i sum_k tau_k lam_i^k  (left-point Ito sums);
* exp(logweight) * exp(-int sum_i nu_i^2 dt) is an exact martingale
  (mean 1), and tilting by it moves the drift by -2 nu_i, i.e. onto the
  potential W + 2 sum_k tau_k pi_k.  A perturbation written as
  W + (1/2) sum tau_k pi_k corresponds to one quarter of this
  exponent; the factor is pinned here by the mean-one and two-simulation
  consistency tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boson import TimeGrid
from .kernel import Potential, generator_matrix, step_powers
from .timefunc import TimePoly

__all__ = [
    "Ensemble",
    "EqSamples",
    "InitSpec",
    "RejectionRateError",
    "simulate_dbm",
    "sample_equilibrium",
    "linear_statistics",
    "girsanov_logweight",
    "girsanov_quadratic_correction",
    "perturbed_potential",
    "action_terms",
    "slin_increment",
    "girsanov_functionals",
    "loop_equation_residual",
    "npoint_vs_kernel",
    "npoint_functionals",
    "dump_paths",
    "load_paths",
]

GAP_MIN = 1e-8


class RejectionRateError(RuntimeError):
    """Step-rejection rate exceeded the weak-order-preserving budget."""


@dataclass(frozen=True)
class InitSpec:
    """Initial condition: equispaced grid, explicit values, or Gibbs draw."""

    kind: str = "equispaced"
    shift: float = 0.0
    halfwidth: float | None = None
    values: tuple = ()
    sweeps: int = 2000
    seed: int = 0

    def positions(self, pot: Potential, n: int, m: int) -> np.ndarray:
        if self.kind == "explicit":
            v = np.sort(np.asarray(self.values, dtype=float))
            if v.shape != (n,):
                raise ValueError("explicit initial values must have length N")
            return np.tile(v, (m, 1))
        if self.kind == "equispaced":
            hw = self.halfwidth
            if hw is None:
                sig = pot.sigma if pot.is_hermite else 1.0
                hw = 2.0 * math.sqrt(n) * sig
            base = np.linspace(-hw, hw, n) if n > 1 else np.zeros(1)
            return np.tile(base + self.shift, (m, 1))
        if self.kind == "equilibrium":
            eq = sample_equilibrium(pot, n, self.sweeps, self.seed, chains=max(64, m // 8))
            rng = np.random.default_rng(self.seed + 1)
            idx = rng.integers(0, eq.samples.shape[0], size=m)
            return np.sort(eq.samples[idx], axis=1)
        raise ValueError(f"unknown init kind {self.kind!r}")


@dataclass
class Ensemble:
    """Batch of trajectories plus the accumulated statistics of the run."""

    pot: Potential
    n: int
    grid: TimeGrid
    m: int
    seed: int
    init: InitSpec
    k_track: int
    paths: np.ndarray | None = None       # (m, steps+1, n)
    incs: np.ndarray | None = None        # stored Brownian increments (m, steps, n)
    pi_sum: np.ndarray | None = None      # (steps+1, k_track+1)
    pi_sumsq: np.ndarray | None = None
    noise_sum: float = 0.0
    noise_sumsq: float = 0.0
    noise_count: int = 0
    rejected: int = 0
    substepped: int = 0
    # always None; kept because the benchmark tracer sums the stored bytes
    # of paths, incs and slin_samples
    slin_samples: np.ndarray | None = None
    functional_samples: dict = field(default_factory=dict)  # name -> (m,) per-replica values
    moment_residual_samples: dict = field(default_factory=dict)  # k -> (m,) time-averaged residual
    martingale_samples: dict = field(default_factory=dict)       # k -> (m,) time-averaged S_k

    @property
    def rejection_rate(self) -> float:
        total = self.m * self.grid.steps
        return self.rejected / max(total, 1)

    def pi_mean(self, k: int) -> np.ndarray:
        return self.pi_sum[:, k] / self.m

    def pi_se(self, k: int) -> np.ndarray:
        var = self.pi_sumsq[:, k] / self.m - (self.pi_sum[:, k] / self.m) ** 2
        return np.sqrt(np.maximum(var, 0.0) / max(self.m - 1, 1))


def _drift(pot: Potential, lam: np.ndarray) -> np.ndarray:
    """beta sum_{j!=i} 1/(lam_i-lam_j) - V'(lam_i) for particle-major lam (n, m)."""
    out = -pot.vprime(lam)
    if pot.beta != 0.0:
        # contiguous row updates per pair: faster than (n, n, m) broadcasts or gathers
        for i in range(lam.shape[0]):
            for jx in range(i + 1, lam.shape[0]):
                inv = pot.beta / (lam[i] - lam[jx])
                out[i] += inv
                out[jx] -= inv
    return out


# Noise keys are (step << 16) + counter: retries use counters 1.._MAX_RETRIES,
# sub-step draws count up from _SUBSTEP_CTR0 and must stay below 16 << 16,
# where the key of step j would equal a main-loop key of step j + 16.
_MAX_RETRIES = 12
_SUBSTEP_CTR0 = 1_000_000
_SUBSTEP_CTR_END = 1 << 20


def _gauss(seed: int, step: int, retry: int, shape) -> np.ndarray:
    key = np.array([np.uint64(seed), np.uint64((step << 16) + retry)], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.standard_normal(shape)


def slin_increment(pot: Potential, lam: np.ndarray, dlam: np.ndarray, dt: float, mode: int) -> np.ndarray:
    """Per-replica sample of S^lin_mode(t) dt from one accepted step.

    The time derivative of pi_mode is realized exactly through the discrete
    Ito identity, so the sample equals sum_i l lam^(l-1) dB_i plus the
    quadratic source term (mean-zero martingale plus (beta/2) l sum_q
    pi_q pi_{l-2-q} dt).
    """
    l = mode
    out = np.sum(l * lam ** (l - 1) * dlam, axis=1)
    if l >= 2:
        out += l * (l - 1) * np.sum(lam ** (l - 2), axis=1) * dt * (pot.beta / 2.0)
    for q, bq in pot.b.items():
        out += l * bq * np.sum(lam ** (q + l - 1), axis=1) * dt
    return out


def simulate_dbm(
    pot: Potential,
    n: int,
    grid: TimeGrid,
    m: int,
    init: InitSpec | None = None,
    seed: int = 0,
    k_track: int = 6,
    track_moment_residual: tuple = (),
    functionals: dict | None = None,
    keep_paths: bool = False,
) -> Ensemble:
    """Euler-Maruyama simulation of the interacting Langevin dynamics.

    Steps violating the strict particle ordering (or closing a pair gap
    below GAP_MIN) are rejected and redrawn with fresh counter-keyed noise;
    a terminal rejection rate >= 1% raises RejectionRateError.

    ``functionals`` maps names to dicts of per-slot weights, {kind: {k:
    weights}} with weights of length steps+1; each name accumulates the
    per-replica path functional sum_j w_j X_k(j) summed over its entries.
    The four kinds of X_k(j) are
      "pi": pi_k(t_j), on every slot j = 0..steps;
      "s":  the linearized action density S_k(t_j) of step j (see
            :func:`slin_increment`), j < steps;
      "q":  the leading mean of the higher Ito remainder of the pi_k
            update of step j, times dt, j < steps;
      "db": sum_i k lam_i(t_j)^(k-1) dB_i(j), the Ito integrand of the
            reweighting log weight (see :func:`girsanov_functionals`), j < steps.
    ``track_moment_residual`` lists modes k for which the time-averaged
    evolution-identity residual (centered time derivative telescoped over the
    interior window) and the time-averaged martingale density S_k are
    accumulated per replica, giving exact replica-scatter error bars.
    ``keep_paths`` stores every trajectory and Brownian increment in
    ``paths`` and ``incs``.  It serves the stored-path post-processors, the
    reference the online functionals are tested against; without it both
    stay None and only the online accumulators are kept.

    The state is particle-major, (n, m): a sum over particles is n - 1
    contiguous row adds, and one power stack lam^0..lam^k_track per slot
    feeds every moment, functional and martingale accumulator.  Noise is drawn,
    retried and summed as (m, n) blocks; ``paths`` (m, steps+1, n) and
    ``incs`` (m, steps, n) stay replica-major.  For n <= 7 these row adds
    equal numpy's replica-major sum over axis 1 bit for bit; for n >= 8 that
    sum is pairwise and the last bits of the outputs may differ from it.
    """
    init = init or InitSpec()
    dt = grid.dt
    steps = grid.steps
    lam = np.ascontiguousarray(np.sort(init.positions(pot, n, m), axis=1).T)

    ens = Ensemble(pot, n, grid, m, seed, init, k_track)
    if keep_paths:
        ens.paths = np.empty((m, steps + 1, n))
        ens.paths[:, 0] = lam.T
        ens.incs = np.empty((m, steps, n))
    ens.pi_sum = np.zeros((steps + 1, k_track + 1))
    ens.pi_sumsq = np.zeros((steps + 1, k_track + 1))
    mres_ks = tuple(track_moment_residual)
    for k in mres_ks:
        if k + pot.l_max - 1 > k_track or k > k_track:
            raise ValueError("k_track too small for the requested moment residuals")
    macc = {k: np.zeros(m) for k in mres_ks}
    sfull = {k: np.zeros(m) for k in mres_ks}
    pi_boundary = {}
    functionals = functionals or {}
    facc = {name: np.zeros(m) for name in functionals}
    pows = np.empty((k_track + 1, n, m))  # lam^k of the current slot, k = 0..k_track
    pows[0] = 1.0

    def record_pi(j, lam_now):
        for k in range(1, k_track + 1):
            np.multiply(pows[k - 1], lam_now, out=pows[k])
        pis = pows.sum(axis=1)  # (k_track+1, m): pi_k per replica
        ens.pi_sum[j] += pis.sum(axis=1)
        ens.pi_sumsq[j] += (pis**2).sum(axis=1)
        for name, spec in functionals.items():
            for k, w in spec.get("pi", {}).items():
                if w[j] != 0.0:
                    facc[name] += w[j] * (pis[k] if k <= k_track else np.sum(lam_now**k, axis=0))
        if mres_ks and j in (0, 1, steps - 1, steps):
            pi_boundary[j] = pis
        for k in mres_ks if 1 <= j <= steps - 1 else ():
            term = np.zeros(m)
            if k >= 2:
                term += (pot.beta / 2.0 - 1.0) * k * (k - 1) * pis[k - 2]
            for l, bl in pot.b.items():
                term += k * bl * pis[l + k - 1]
            for q in range(0, k - 1):
                term -= (pot.beta / 2.0) * k * pis[q] * pis[k - 2 - q]
            macc[k] += term

    record_pi(0, lam)
    order_guard = pot.beta >= 1.0 and n > 1
    sqrt2dt = math.sqrt(2.0 * dt)

    def substep(lam_bad, j):
        """Resolve near-collision replicas by adaptive refined sub-steps.

        A deterministic drift overshoot cannot be fixed by redrawing the
        noise (the pair force beta/d exceeds d for gaps below ~sqrt(beta dt)),
        so the stuck rows advance through sub-steps whose size shrinks with
        the current minimum gap; this preserves the weak order and keeps the
        noise counter-keyed (seed, step, running counter).  Works on
        replica-major rows (m_bad, n), the layout the noise is drawn in."""
        lam_s = lam_bad.copy()
        db_tot = np.zeros_like(lam_bad)
        t_left = np.full(lam_bad.shape[0], dt)
        ctr = _SUBSTEP_CTR0
        guard = 0
        while np.any(t_left > 0):
            guard += 1
            if guard > 500_000:
                raise RejectionRateError(f"step {j}: collision unresolved after {guard} sub-steps")
            act = t_left > 0
            dr = _drift(pot, lam_s[act].T).T
            gap = np.min(np.diff(lam_s[act], axis=1), axis=1)
            h = np.minimum.reduce(
                [t_left[act], np.full(gap.shape, dt / 8.0), np.maximum(gap**2 / (8.0 * max(pot.beta, 1e-12)), dt * 1e-9)]
            )
            for _ in range(40):
                ctr += 1
                if ctr >= _SUBSTEP_CTR_END:
                    raise RejectionRateError(f"step {j}: sub-step noise keys exhausted (would alias step {j + 16})")
                dbs = np.sqrt(2.0 * h)[:, None] * _gauss(seed, j, ctr, lam_s[act].shape)
                prop_s = lam_s[act] + dbs + dr * h[:, None]
                bad_s = np.any(np.diff(prop_s, axis=1) < GAP_MIN, axis=1)
                if not np.any(bad_s):
                    break
                ens.rejected += int(bad_s.sum())
                h = np.where(bad_s, h / 2.0, h)
            else:
                raise RejectionRateError(f"step {j}: sub-step rejection did not terminate")
            idx = np.where(act)[0]
            lam_s[idx] = prop_s
            db_tot[idx] += dbs
            t_left[idx] -= h
        return lam_s, db_tot

    for j in range(steps):
        drift = _drift(pot, lam)
        db = sqrt2dt * _gauss(seed, j, 0, (m, n))
        prop = lam + db.T + drift * dt
        if order_guard:
            bad = np.any(np.diff(prop, axis=0) < GAP_MIN, axis=0)
            retry = 0
            while np.any(bad) and retry < _MAX_RETRIES:
                retry += 1
                ens.rejected += int(bad.sum())
                fresh = sqrt2dt * _gauss(seed, j, retry, (m, n))
                db[bad] = fresh[bad]
                prop[:, bad] = lam[:, bad] + db[bad].T + drift[:, bad] * dt
                bad = np.any(np.diff(prop, axis=0) < GAP_MIN, axis=0)
            if np.any(bad):
                ens.substepped += int(bad.sum())
                lam_s, db[bad] = substep(lam[:, bad].T, j)
                prop[:, bad] = lam_s.T
        if not np.all(np.isfinite(prop)):
            raise FloatingPointError(f"non-finite positions at step {j}")

        ens.noise_sum += db.sum()
        ens.noise_sumsq += (db**2).sum()
        ens.noise_count += db.size
        if keep_paths:
            ens.incs[:, j] = db
            ens.paths[:, j + 1] = prop.T
        db = np.ascontiguousarray(db.T)
        dlam = prop - lam
        for name, spec in functionals.items():
            for l, w in spec.get("s", {}).items():
                if w[j] != 0.0:
                    facc[name] += w[j] * slin_increment(pot, lam.T, dlam.T, dt, l) / dt
            for l, w in spec.get("q", {}).items():
                # leading mean of the higher Ito remainder of the discrete
                # pi_l update, evaluated from the drift law (no increments)
                if w[j] != 0.0:
                    q = 0.5 * l * (l - 1) * np.sum(lam ** (l - 2) * drift**2, axis=0)
                    if l >= 3:
                        q += l * (l - 1) * (l - 2) * np.sum(lam ** (l - 3) * drift, axis=0)
                    if l >= 4:
                        q += 0.5 * l * (l - 1) * (l - 2) * (l - 3) * np.sum(lam ** (l - 4), axis=0)
                    facc[name] += w[j] * q * dt
            for k, w in spec.get("db", {}).items():
                if w[j] != 0.0:
                    lam_k = pows[k - 1] if k <= k_track + 1 else lam ** (k - 1)
                    facc[name] += np.sum((k * w[j]) * lam_k * db, axis=0)
        for k in mres_ks:
            sfull[k] += np.sum(k * pows[k - 1] * db, axis=0)  # S_k dt = sum k lam^(k-1) dB
        lam = prop
        record_pi(j + 1, lam)

    ens.functional_samples = facc
    if mres_ks:
        width = max(steps - 1, 1)
        end, end1, start1, start = (pi_boundary[i] for i in (steps, steps - 1, 1, 0))
        for k in mres_ks:
            tele = (end[k] + end1[k] - start1[k] - start[k]) / (2 * dt)
            ens.moment_residual_samples[k] = (tele + macc[k]) / width
            ens.martingale_samples[k] = sfull[k] / (steps * dt)
    if ens.rejection_rate >= 0.01:
        raise RejectionRateError(f"rejection rate {ens.rejection_rate:.3%} >= 1%")
    return ens


# ----------------------------------------------------------------------
# equilibrium sampling


@dataclass
class EqSamples:
    """Gibbs-measure samples with sampler diagnostics."""

    samples: np.ndarray          # (n_kept, n)
    acceptance: float
    autocorr_pi1: float
    chain_means: dict            # k -> (n_chains,) per-chain means of pi_k
    pair_chain_means: dict       # (a, b) -> (n_chains,)
    tau: dict = field(default_factory=dict)

    def pi_mean_se(self, k: int):
        cm = self.chain_means[k]
        return float(np.mean(cm)), float(np.std(cm, ddof=1) / np.sqrt(cm.size))


def _log_gibbs_delta(pot, tau, pair, others):
    """Log target ratio of the single-site moves pair[1] -> pair[0], each
    (chains,), with others (chains, n - 1) the other particles."""
    v = pot.v(pair)
    dv = v[0] - v[1]
    for k, tk in (tau or {}).items():
        pk = pair**k
        dv += tk * (pk[0] - pk[1])
    out = -dv
    if pot.beta != 0.0 and others.shape[1] > 0:
        logs = np.log(np.abs(pair[:, :, None] - others) + 1e-300)
        out += pot.beta * (logs[0] - logs[1]).sum(axis=1)
    return out


def sample_equilibrium(
    pot: Potential,
    n: int,
    sweeps: int,
    seed: int = 0,
    chains: int = 100,
    tau: dict | None = None,
) -> EqSamples:
    """Metropolis sampler for the Gibbs measure with single-site Gaussian
    proposals, adapted to ~30% acceptance during the 20% burn-in.

    Each chain runs max(10, sweeps // chains) sweeps, so ``sweeps`` is not a
    hard budget.  ``samples`` is sweep-major: row s * chains + c is chain c,
    sorted, after kept sweep s.  The per-chain means of pi_k (k <= 8) and of
    pi_a pi_b (a <= b <= 6) use powers built by repeated products, which for
    k >= 3 differ from libm ``pow`` (``x**k``) by rounding.
    """
    if not pot.is_confining() and not (tau and max(tau) % 2 == 0 and tau[max(tau)] > 0):
        raise ValueError("potential is not confining; the Gibbs measure does not exist")
    rng = np.random.default_rng(seed)
    per_chain = max(10, sweeps // chains)
    burn = max(1, per_chain // 5)
    kept = per_chain - burn
    sig = pot.sigma if pot.is_hermite else 1.0
    lam = np.sort(rng.normal(0.0, sig * max(1.0, math.sqrt(n)), size=(chains, n)), axis=1)
    step = np.full(chains, 0.5 * sig)
    partners = [np.delete(np.arange(n), i) for i in range(n)]
    k_track = 8
    pair_keys = [(a, b) for a in range(k_track - 1) for b in range(a, k_track - 1)]
    pair_a, pair_b = np.array(pair_keys, dtype=int).reshape(-1, 2).T
    samples, pi1 = np.empty((kept, chains, n)), np.empty((kept, chains))
    chain_acc, pair_acc = np.zeros((k_track + 1, chains)), np.zeros((len(pair_keys), chains))
    pows = np.empty((k_track + 1, chains, n))  # lam^k of the current sweep, k = 0..k_track
    pows[0] = 1.0
    pair = np.empty((2, chains))  # proposal and current value of one site
    acc_count = 0

    for sweep in range(per_chain):
        # random-scan site order: a fixed order breaks the reflection
        # equivariance of the finite-time kernel and leaves a transient
        # asymmetry in the odd moments
        for i in rng.permutation(n):
            pair[1] = lam[:, i]
            pair[0] = pair[1] + step * rng.standard_normal(chains)
            logr = _log_gibbs_delta(pot, tau, pair, lam[:, partners[i]])
            accept = np.log(rng.random(chains)) < logr
            np.copyto(lam[:, i], pair[0], where=accept)
            if sweep >= burn:
                acc_count += int(np.count_nonzero(accept))
            else:
                # stochastic-approximation tuning toward the target rate
                step *= np.exp(0.2 * (accept.astype(float) - 0.3))
        lam.sort(axis=1)
        s = sweep - burn
        if s >= 0:
            samples[s] = lam
            for k in range(1, k_track + 1):
                np.multiply(pows[k - 1], lam, out=pows[k])
            pis = pows.sum(axis=2)  # (k_track+1, chains): pi_k per chain, summed as np.sum(lam**k, axis=1)
            chain_acc += pis
            pair_acc += pis[pair_a] * pis[pair_b]
            pi1[s] = pis[1]

    acceptance = acc_count / max(kept * n * chains, 1)
    autocorr = _integrated_autocorr(pi1 - pi1.mean(axis=0, keepdims=True))
    chain_means = dict(enumerate(chain_acc / kept))
    pair_chain_means = dict(zip(pair_keys, pair_acc / kept))
    return EqSamples(samples.reshape(kept * chains, n), acceptance, autocorr, chain_means, pair_chain_means, dict(tau or {}))


def _integrated_autocorr(x: np.ndarray) -> float:
    """Initial-positive-sequence estimate of the integrated autocorrelation
    time of x[(sweep, chain)], averaged over chains, up to lag T/4."""
    t, c = x.shape
    if t < 4:
        return 1.0
    var = np.mean(x**2, axis=0)
    var[var == 0.0] = 1.0
    tau = 1.0
    for lag in range(1, t // 4):
        rho = np.mean(x[:-lag] * x[lag:], axis=0) / var
        r = float(np.mean(rho))
        if r <= 0:
            break
        tau += 2.0 * r
    return tau


# ----------------------------------------------------------------------
# linear statistics and reweighting


def linear_statistics(e: Ensemble, k: int):
    """pi_k per replica and slot, (m, steps+1), from an Ensemble with stored paths."""
    if e.paths is None:
        raise ValueError("ensemble was simulated without stored paths")
    if k == 0:
        return np.full((e.m, e.grid.steps + 1), float(e.n))
    return np.sum(e.paths**k, axis=2)


def _tau_profile(tau, grid: TimeGrid):
    """Constant tau map {k: tau_k} -> {k: tau_k at every slot, (steps+1,)}."""
    return {int(k): np.full(grid.nslots, float(v)) for k, v in tau.items()}


def _nu(tau_prof, lam, j):
    """nu_i(t_j) = sum_k k tau_k(t_j) lam_i^(k-1), per replica/particle."""
    out = np.zeros_like(lam)
    for k, arr in tau_prof.items():
        if arr[j] != 0.0:
            out += k * arr[j] * lam ** (k - 1)
    return out


def girsanov_logweight(e: Ensemble, tau) -> np.ndarray:
    """Log weight from stored paths, left-point Ito sums, per replica.

    Equals -sum_{i,j} nu_i(t_j) [dlam_i + dW/dlam_i dt]; on accepted steps
    the bracket is exactly the stored Brownian increment.
    """
    if e.paths is None:
        raise ValueError("girsanov_logweight needs stored paths")
    prof = _tau_profile(tau, e.grid)
    out = np.zeros(e.m)
    for j in range(e.grid.steps):
        lam = e.paths[:, j]
        out -= np.sum(_nu(prof, lam, j) * e.incs[:, j], axis=1)
    return out


def girsanov_quadratic_correction(e: Ensemble, tau) -> np.ndarray:
    """-int sum_i nu_i^2 dt per replica; exp(logweight + correction) has
    mean one (exact change of measure for the 2 dt noise)."""
    if e.paths is None:
        raise ValueError("needs stored paths")
    prof = _tau_profile(tau, e.grid)
    out = np.zeros(e.m)
    for j in range(e.grid.steps):
        out -= np.sum(_nu(prof, e.paths[:, j], j) ** 2, axis=1) * e.grid.dt
    return out


def girsanov_functionals(tau, grid: TimeGrid) -> dict:
    """The reweighting quantities as :func:`simulate_dbm` functionals.

    "logweight" is :func:`girsanov_logweight` (weights -tau_k on the Ito
    integrand "db"), "quadratic" is :func:`girsanov_quadratic_correction`
    expanded as -sum_{k,k'} k k' tau_k tau_k' pi_{k+k'-2} dt, and "pi2_end"
    is pi_2 at the last slot.  The Ito sums run over slots 0..steps-1.
    """
    live = np.ones(grid.nslots)
    live[-1] = 0.0
    quad = {}
    for k, tk in tau.items():
        for k2, tk2 in tau.items():
            quad[k + k2 - 2] = quad.get(k + k2 - 2, 0.0) - (k * k2 * tk * tk2 * grid.dt) * live
    return {
        "logweight": {"db": {k: -tk * live for k, tk in tau.items()}},
        "quadratic": {"pi": quad},
        "pi2_end": {"pi": {2: 1.0 - live}},
    }


def perturbed_potential(pot: Potential, tau: dict) -> Potential:
    """Potential whose dynamics the weight exp(logweight + quadr)
    reweights onto: V' -> V' + 2 sum_k k tau_k x^(k-1)."""
    b = dict(pot.b)
    for k, tk in tau.items():
        if k >= 2:
            b[k - 1] = b.get(k - 1, 0.0) + 2.0 * k * tk
        elif k == 1:
            raise ValueError("a tau_1 tilt shifts the force by a constant; not representable in b")
    return Potential(pot.beta, b)


def action_terms(e: Ensemble, tau) -> tuple[np.ndarray, np.ndarray]:
    """(S_lin, S_quadr) per replica for the tau-weighted action.

    S_lin uses the exact discrete Ito rewriting of the pi-derivatives;
    exp(-S_lin - S_quadr) agrees with exp(girsanov_logweight) pathwise up to
    the higher-order Ito remainder (O(sqrt(dt)) per path, O(dt) in mean).
    """
    if e.paths is None:
        raise ValueError("needs stored paths")
    prof = _tau_profile(tau, e.grid)
    dt = e.grid.dt
    s_lin = np.zeros(e.m)
    s_quad = np.zeros(e.m)
    for j in range(e.grid.steps):
        lam = e.paths[:, j]
        dlam = e.paths[:, j + 1] - lam
        for k, arr in prof.items():
            if arr[j] == 0.0:
                continue
            s_lin += arr[j] * slin_increment(e.pot, lam, dlam, dt, k)
            if k >= 2:
                quad = np.zeros(e.m)
                for q in range(0, k - 1):
                    pq = np.sum(lam**q, axis=1) if q else float(e.n)
                    pr = np.sum(lam ** (k - 2 - q), axis=1) if k - 2 - q else float(e.n)
                    quad += pq * pr
                s_quad -= arr[j] * (e.pot.beta / 2.0) * k * quad * dt
    return s_lin, s_quad


# ----------------------------------------------------------------------
# residual diagnostics


def loop_equation_residual(s: EqSamples, n: int, pot: Potential):
    """Loop-equation residual at order n from equilibrium samples:

        (n+1) <pi_n> - sum_k b_k <pi_{k+n+1}> - sum_k k tau_k <pi_{k+n}>
        + (beta/2) sum_{q=0}^n ( <pi_q pi_{n-q}> - <pi_n> ),

    with tau the tilt the samples were drawn with (``s.tau``) and the
    standard error from the independent-chain scatter."""

    def chain_pi(k):
        if k in s.chain_means:
            return s.chain_means[k]
        raise ValueError(f"moment pi_{k} not tracked by the sampler")

    def chain_pair(a, b):
        key = (min(a, b), max(a, b))
        return s.pair_chain_means[key]

    per_chain = (n + 1) * chain_pi(n)
    for k, bk in pot.b.items():
        per_chain = per_chain - bk * chain_pi(k + n + 1)
    for k, tk in s.tau.items():
        per_chain = per_chain - k * tk * chain_pi(k + n)
    for q in range(0, n + 1):
        per_chain = per_chain + (pot.beta / 2.0) * (chain_pair(q, n - q) - chain_pi(n))
    mean = float(np.mean(per_chain))
    se = float(np.std(per_chain, ddof=1) / np.sqrt(per_chain.size))
    return mean, se


# ----------------------------------------------------------------------
# n-point vs kernel


def npoint_functionals(pot: Potential, grid: TimeGrid, f: TimePoly, k: int, k_max: int):
    """Per-slot weights for the two sides of the one-point kernel identity.

    lhs weight: f(t_j) dt on pi_k.
    rhs weights: w_l(s) = sum_{t > s} f(t) K_{kl}(t - dt - s) dt on the
    action-density samples S_l(s), plus the homogeneous initial term
    sum_t f(t) K_{kl}(t) dt on pi_l(0) (both sides start from the same
    initial law).

    The propagator powers are the step-dt semigroup (I + dt A)^j of the
    kernel generator A, not the continuum exponential: for them the unrolled
    per-replica mode recursion telescopes exactly, so the two sides agree up
    to the mean of the higher Ito remainders (identically zero for k = 1)
    and the comparison is a sharp 3-sigma test.
    """
    t = grid.times
    dt = grid.dt
    ktab = step_powers(np.eye(k_max + 1) + dt * generator_matrix(pot, k_max), grid.steps)
    fj = f(t)
    lhs = {"pi": {k: fj * dt}, "s": {}}
    rhs_s = {}
    for l in range(1, k_max + 1):
        col = ktab[:, k, l]  # propagator power (j dt) entries
        if not np.any(col):
            continue
        # strict retardation: pi(j) sums D^{j-1-s} S(s) dt over s < j
        w = np.zeros(grid.nslots)
        for s_ in range(grid.nslots - 1):
            w[s_] = np.sum(fj[s_ + 1 :] * col[: grid.nslots - 1 - s_]) * dt * dt
        rhs_s[l] = w
    init_pi = {}
    for l in range(0, k_max + 1):
        wl = float(np.sum(fj * ktab[:, k, l]) * dt)
        if wl != 0.0:
            init_pi[l] = wl
        # realized through the pi-weight at slot 0 only
    rhs = {
        "pi": {l: np.concatenate(([w0], np.zeros(grid.steps))) for l, w0 in init_pi.items()},
        "s": rhs_s,
        # the discrete update of pi_l carries a higher Ito remainder whose
        # leading mean is an explicit drift-law counterterm; include it with
        # the same retarded weights so the estimator is unbiased to O(dt^2)
        "q": {l: w for l, w in rhs_s.items() if l >= 2},
    }
    return {"lhs": lhs, "rhs": rhs}


def npoint_vs_kernel(e: Ensemble, k: int):
    """One-point check of the kernel representation of moment evolution.

    Requires the ensemble to carry the per-replica functionals registered by
    :func:`npoint_functionals` under names 'npoint<k>:lhs' / 'npoint<k>:rhs'.
    Returns (lhs, rhs, discrepancy, se)."""
    try:
        lhs_r = e.functional_samples[f"npoint{k}:lhs"]
        rhs_r = e.functional_samples[f"npoint{k}:rhs"]
    except KeyError as exc:
        raise ValueError("ensemble lacks the n-point functionals; register npoint_functionals at simulate time") from exc
    diff = lhs_r - rhs_r
    return (
        float(np.mean(lhs_r)),
        float(np.mean(rhs_r)),
        float(np.mean(diff)),
        float(np.std(diff, ddof=1) / np.sqrt(e.m)),
    )


# ----------------------------------------------------------------------
# raw-path binary record


def dump_paths(e: Ensemble, path):
    """Flat little-endian binary record: int64 N, T, M, float64 dt, then the
    paths as float64 in C order (M, T+1, N)."""
    if e.paths is None:
        raise ValueError("no stored paths to dump")
    with open(path, "wb") as fh:
        np.array([e.n, e.grid.steps, e.m], dtype="<i8").tofile(fh)
        np.array([e.grid.dt], dtype="<f8").tofile(fh)
        e.paths.astype("<f8").tofile(fh)


def load_paths(path):
    """Inverse of :func:`dump_paths`: returns (n, steps, m, dt, paths)."""
    with open(path, "rb") as fh:
        n, steps, m = np.fromfile(fh, dtype="<i8", count=3)
        dt = float(np.fromfile(fh, dtype="<f8", count=1)[0])
        paths = np.fromfile(fh, dtype="<f8").reshape(int(m), int(steps) + 1, int(n))
    return int(n), int(steps), int(m), dt, paths
