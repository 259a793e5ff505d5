"""Stochastic engine: interacting Langevin dynamics and Gibbs sampling.

Simulates the coupled eigenvalue-type dynamics

    d lam_i = dB_i + [ beta * sum_{j != i} 1/(lam_i - lam_j) - V'(lam_i) ] dt,

with the noise convention Var(dB) = 2 dt, by Euler-Maruyama with step
rejection on ordering violations (beta >= 1).  Provides Metropolis sampling
of the stationary Gibbs measure, the per-replica path functionals (reweighting
log weights, moment residuals, action densities, pi_k at chosen slots) that the
reweighting, moment, constraint and n-point checks average, and the
loop-equation residual.  The stored-path post-processors (linear statistics, reweighting
weights, action terms) are the reference the online functionals are tested
against.

Reproducibility: the replicas fall into fixed blocks of 500, and every
Gaussian increment comes from a Philox stream keyed by (seed, block) at a
counter fixed by (step, draw, row), so a row's noise does not depend on the
other rows, and results do not depend on how many worker processes step the
blocks.  The Langevin state is particle-major, (n, m); public arrays stay
replica-major, (m, ...).

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

import contextlib
import math
import mmap
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .kernel import Potential, generator_matrix, step_powers
from .timefunc import TimeGrid, TimePoly

__all__ = [
    "Ensemble",
    "EqSamples",
    "InitSpec",
    "NoiseHelperError",
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
    "moment_functionals",
    "mean_se",
    "loop_equation_residual",
    "npoint_vs_kernel",
    "npoint_functionals",
]

GAP_MIN = 1e-8


class RejectionRateError(FloatingPointError):
    """Step-rejection rate exceeded the weak-order-preserving budget."""


class NoiseHelperError(RuntimeError):
    """The forked helper that draws a worker's main noise ended early."""


@dataclass(frozen=True)
class InitSpec:
    """Initial condition: equispaced grid, explicit values, or Gibbs draw.

    An equilibrium init runs ``sweeps`` Metropolis sweeps per chain (at least
    10, see :func:`sample_equilibrium`); fewer than 200 leave it short of
    equilibrium."""

    kind: str = "equispaced"
    shift: float = 0.0
    halfwidth: float | None = None
    values: tuple = ()
    sweeps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError(f"InitSpec.sweeps must be >= 1, got {self.sweeps}")

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
            chains = max(64, m // 8)
            eq = sample_equilibrium(pot, n, self.sweeps * chains, self.seed, chains=chains, keep_samples=True)
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
    paths: np.ndarray | None = None       # (m, steps+1, n)
    incs: np.ndarray | None = None        # stored Brownian increments (m, steps, n)
    pi_avg: np.ndarray | None = None      # (steps+1, 3): replica mean of pi_0..pi_2
    pi_m2: np.ndarray | None = None       # (steps+1, 3): sum of squared deviations from pi_avg
    noise_count: int = 0                  # the noise dB: m * steps * n samples
    noise_mean: float = 0.0
    noise_m2: float = 0.0
    rejected: int = 0
    substepped: int = 0
    # always None; kept because the benchmark tracer sums the stored bytes
    # of paths, incs and slin_samples
    slin_samples: np.ndarray | None = None
    functional_samples: dict = field(default_factory=dict)  # name -> (m,) per-replica values

    @property
    def rejection_rate(self) -> float:
        total = self.m * self.grid.steps
        return self.rejected / max(total, 1)

    def pi_mean(self, k: int) -> np.ndarray:
        return self.pi_avg[:, k]

    def pi_se(self, k: int) -> np.ndarray:
        return np.sqrt(self.pi_m2[:, k] / self.m / max(self.m - 1, 1))


def _drift(pot: Potential, lam: np.ndarray, out: np.ndarray | None = None, pairs: np.ndarray | None = None) -> np.ndarray:
    """beta sum_{j!=i} 1/(lam_i-lam_j) - V'(lam_i) for particle-major lam (n, m),
    into out (n, m) if given; pairs (n(n-1)/2, m), if given, holds the pair terms.

    -V' is 0 + b_l lam^l summed over l in the order of pot.b, then negated.
    The differences lam_i - lam_{i+k} are packed one block per offset k and
    inverted in one call; particle i then takes its lower partners i' < i in
    ascending i' (subtracting beta/(lam_i' - lam_i)), then its upper ones in
    ascending order (adding beta/(lam_i - lam_i')): the order of terms of the
    double loop over pairs (i < i'), so the bits are that loop's."""
    n, m = lam.shape
    if out is None:
        out = np.empty((n, m))
    out[...] = 0.0
    for l, bl in pot.b.items():
        out += bl * lam**l
    np.negative(out, out=out)
    if pot.beta == 0.0:
        return out
    if pairs is None:
        pairs = np.empty((n * (n - 1) // 2, m))
    blocks, lo = [], 0
    for k in range(1, n):
        blocks.append(pairs[lo : lo + n - k])  # rows i = 0..n-k-1: lam_i - lam_{i+k}
        np.subtract(lam[:-k], lam[k:], out=blocks[-1])
        lo += n - k
    np.divide(pot.beta, pairs, out=pairs)
    for k in range(n - 1, 0, -1):
        out[k:] -= blocks[k - 1]
    for k in range(1, n):
        out[:-k] += blocks[k - 1]
    return out


# Noise: Philox keyed by (seed, block), with a 4-word counter.  Step j's main
# draw of a block is one standard_normal((rows, n)) from counter (0, 0, 0, j).
# Row i of the block draws standard_normal(n) from (0, 1 + i, d, j): ordering
# retry r has draw number d = r, and its s-th sub-step draw d = _MAX_RETRIES
# + s.  The generator advances word 0 only, by one per 4 outputs, so at these
# sizes it never carries into the words that tell the draws apart.
_BLOCK = 500  # replicas per block; every value defines another noise stream
_MAX_RETRIES = 12
_MAX_SUBSTEPS = 500_000  # sub-steps of one row in one step
# A worker keeps the noise of this many bytes' worth of steps (at least one),
# with their pi_1 and pi_2 rows, and reduces their block statistics once per
# window; small, so that the window stays in cache and the peak memory barely moves.
_WINDOW_BYTES = 1 << 17
# A worker with a core to spare has the main draws made ahead by a forked
# helper, into a shared ring of this many bytes' worth of steps (at least one
# step).  The worker reads every slot, so the ring adds its size to the peak
# memory; at 2 500 replicas of 5 particles it still holds 2 steps of slack.
_RING_BYTES = 1 << 18
# A worker steps its blocks in groups of at most this many bytes of state,
# (n, rows) floats, split evenly into whole blocks (at least one per group),
# and holds the statistics of one group at a time: 8 blocks, 4 000 replicas,
# at N = 5.  perfbench gives each worker at most 2 500 replicas of 5
# particles, so every benchmark run steps its blocks as one group.
_GROUP_BYTES = 8 * _BLOCK * 5 * 8


def _cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _spare_core(workers: int) -> bool:
    """Whether each of ``workers`` workers can have a second core for a noise helper."""
    return 2 * workers <= _cores()


def _fork_map(fn, jobs: list) -> list:
    """[fn(*job) for job in jobs], job 0 run in this process and each other in
    a process forked for it, which pickles back its result or the Exception
    it raised and ends with ``os._exit``; all are waited for.  Of the errors,
    the least by ``where`` is raised (untagged first, then in job order): the
    one a process running the jobs in turn would meet first.  A forked
    process that sends no outcome makes this raise EOFError.

    Jobs that are mostly BLAS calls do not belong here: forked after this
    process has started its OpenBLAS threads, every process runs a full set
    of BLAS threads and the cores are oversubscribed.  On a 2-core host a
    split of sv-algebra's two potentials took 4.5 s in place of 0.75 s in 4
    of 6 trial runs (about 6x), and in repeat runs it never beat the two
    potentials run in turn (0.78 s serial, 0.92-1.21 s split), so sv-algebra
    runs in one process."""

    def outcome(job):
        try:
            return True, fn(*job)
        except Exception as exc:
            return False, exc

    pids, pipes = [], []
    try:
        for job in jobs[1:]:
            r, w = os.pipe()
            pids.append(os.fork())
            if not pids[-1]:
                try:
                    with open(w, "wb") as fh:
                        pickle.dump(outcome(job), fh)
                finally:
                    os._exit(0)
            os.close(w)
            pipes.append(open(r, "rb"))
        outcomes = [outcome(jobs[0])] + [pickle.load(fh) for fh in pipes]
    finally:
        for fh in pipes:
            fh.close()
        for pid in pids:
            os.waitpid(pid, 0)
    failed = [value for ok, value in outcomes if not ok]
    if failed:
        raise _first_error(failed)
    return [value for _, value in outcomes]


def _first_error(errors: list) -> Exception:
    """The least of errors by ``where`` (see :func:`_at_step`), untagged
    first and ties in list order: the one a single pass would meet first."""
    return min(errors, key=lambda exc: getattr(exc, "where", ()))


def _stream(seed: int, block: int, counter) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=np.array(counter, dtype=np.uint64)))


def _main_draw(gen: np.random.Generator, state: dict, j: int, out: np.ndarray):
    """Fill out with step j's main draw of a block's stream gen.  state is
    the state of gen at counter (0, 0, 0, 0), with an empty buffer; its
    counter moves to (0, 0, 0, j) and is written back in one assignment, so
    the draw equals that of ``_stream(seed, block, (0, 0, 0, j))``."""
    state["state"]["counter"][3] = j
    gen.bit_generator.state = state
    gen.standard_normal(out=out)


class _NoiseFeed:
    """The main noise of a worker's steps: ``take(j, out)``, called for j =
    0, 1, ..., steps - 1 in turn, writes step j's main draws of every block,
    from the blocks' generators ``gens`` at counter (0, 0, 0, 0) (see
    :func:`_main_draw`), times ``scale`` into out (rows, n).

    With ``ahead``, entering the feed forks a helper process that makes the
    same draws in the same way into a ring of ``_RING_BYTES`` (one slot per
    step, at least one slot) in memory shared with the worker, and take copies
    step j out of its slot.  Two pipes carry one byte per filled and per freed
    slot.  The helper calls no BLAS and ends with ``os._exit``: after its last
    step, or when the worker closes its pipe ends.  Leaving the feed closes
    them and waits for the helper, so no process outlives the feed.  A helper
    that ends before it has drawn every step makes take raise
    :class:`NoiseHelperError`.  Without ``ahead``, take draws in this process."""

    def __init__(self, gens: list, rows: int, n: int, steps: int, scale: float, ahead: bool):
        self.seeks = [(gen, gen.bit_generator.state, slice(lo, lo + _BLOCK)) for gen, lo in zip(gens, range(0, rows, _BLOCK))]
        self.steps, self.scale = steps, scale
        self.pid = self.filled = self.freed = None
        self.ring = self.mem = None
        if ahead:
            self.slots = max(1, min(steps, _RING_BYTES // (rows * n * 8)))
            self.mem = mmap.mmap(-1, self.slots * rows * n * 8)  # anonymous and shared
            self.ring = np.frombuffer(self.mem).reshape(self.slots, rows, n)
            self.ready = 0  # filled slots announced and not yet taken

    def _draw(self, j: int, out: np.ndarray):
        for gen, state, block in self.seeks:
            _main_draw(gen, state, j, out[block])
        np.multiply(out, self.scale, out=out)

    def __enter__(self):
        if self.ring is None:
            return self
        filled_r, filled_w = os.pipe()
        freed_r, freed_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(filled_r)
                os.close(freed_w)
                self._draw_ahead(filled_w, freed_r)
                status = 0
            finally:
                os._exit(status)
        os.close(filled_w)
        os.close(freed_r)
        self.pid, self.filled, self.freed = pid, filled_r, freed_w
        return self

    def _draw_ahead(self, filled: int, freed: int):
        """The helper: fill slot j % slots with step j once the slot is free."""
        free = self.slots
        for j in range(self.steps):
            if not free:
                free = len(os.read(freed, self.slots))
                if not free:  # the worker closed its end: it stopped early
                    return
            self._draw(j, self.ring[j % self.slots])
            os.write(filled, b"\0")
            free -= 1

    def take(self, j: int, out: np.ndarray):
        if self.ring is None:
            self._draw(j, out)
            return
        if not self.ready:
            self.ready = len(os.read(self.filled, self.slots))
            if not self.ready:  # end of file: the helper has ended
                status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
                self.pid = None
                raise NoiseHelperError(f"the noise helper ended before step {j} of {self.steps}, exit code {status}")
        np.copyto(out, self.ring[j % self.slots])
        self.ready -= 1
        if j + self.slots < self.steps:  # the helper reuses the slot for step j + slots
            with contextlib.suppress(BrokenPipeError):  # a helper that has ended shows at the next read
                os.write(self.freed, b"\0")

    def __exit__(self, *exc):
        for fd in (self.filled, self.freed):
            if fd is not None:
                os.close(fd)
        if self.pid is not None:
            os.waitpid(self.pid, 0)
        if self.mem is not None:
            self.ring = None
            self.mem.close()


def _block_moments(x: np.ndarray, width: int, mean: np.ndarray, m2: np.ndarray):
    """Two-pass mean and M2 of each run of ``width`` columns in every row of x
    (rows, cols), the last run possibly shorter, into mean and m2 (rows,
    runs); x is left holding the deviations from its run means.  Each run is
    reduced as one contiguous row, so its values depend neither on the other
    runs nor on the other rows of x: a window of steps stacked as rows gives
    every step the values of its own call."""
    cut = x.shape[1] - x.shape[1] % width
    for v, runs in ((x[:, :cut], slice(0, cut // width)), (x[:, cut:], slice(cut // width, None))):
        if v.size:
            v = v.reshape(len(x), -1, min(width, v.shape[1]))
            mu = mean[:, runs]
            np.divide(np.add.reduce(v, axis=2, out=mu), v.shape[2], out=mu)
            np.subtract(v, mu[:, :, None], out=v)
            np.einsum("ijk,ijk->ij", v, v, out=m2[:, runs])


def _chan_merge(counts, means, m2s) -> tuple:
    """Merge per-block (count, mean, M2), in block order (Chan, Golub and
    LeVeque 1983): returns the (mean, M2) of all the blocks.  The merge is a
    left fold, so a first entry that is itself the merge of the leading
    blocks, with their summed count, gives the bits of one merge of all."""
    n_a, mean, m2 = counts[0], means[0], m2s[0]
    for n_b, mean_b, m2_b in zip(counts[1:], means[1:], m2s[1:]):
        n_ab = n_a + n_b
        delta = mean_b - mean
        mean = mean + delta * (n_b / n_ab)
        m2 = m2 + m2_b + delta * delta * (n_a * n_b / n_ab)
        n_a = n_ab
    return mean, m2


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


_KINDS = ("pi", "pp", "db", "s", "q")
_STEP_KINDS = ("db", "s", "q")  # read the step from slot j, so they live on j < steps
_CONTRACTED = ("db", "dl", "d1", "d2")  # sum_i lam_i^p x_i with x = dB, displacement, drift, drift^2
_KEY_RULES = {
    "pi": "an integer power k >= 0",
    "pp": "a pair (a, b) of integer powers, 0 <= a <= b",
    "db": "an integer mode k >= 1",
    "s": "an integer mode l >= 1",
    "q": "an integer mode l >= 1",
}


def _is_power(x, least) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= least


def _key_ok(kind: str, key) -> bool:
    if kind == "pp":
        return isinstance(key, tuple) and len(key) == 2 and _is_power(key[0], 0) and _is_power(key[1], key[0])
    return _is_power(key, 0 if kind == "pi" else 1)


def _feature_terms(pot: Potential, dt: float, n: int, kind: str, key) -> list:
    """The (feature, coefficient) pairs whose sum is X_key(j) of ``kind``.

    A feature is ("pi", k) = pi_k, ("pp", (a, b)) = pi_a pi_b, or (tag, p) =
    sum_i lam_i^p x_i with x = dB for "db", the accepted displacement for
    "dl", the drift for "d1" and the squared drift for "d2".  pi_0 pi_b is
    n pi_b, exactly, since pi_0 sums n ones."""
    if kind == "pi":
        return [(("pi", key), 1.0)]
    if kind == "pp":
        return [(("pi", key[1]), float(n))] if key[0] == 0 else [(("pp", key), 1.0)]
    if kind == "db":
        return [(("db", key - 1), float(key))]
    l = key
    if kind == "s":
        terms = [(("dl", l - 1), l / dt), *((("pi", q + l - 1), l * bq) for q, bq in pot.b.items())]
        if l >= 2:
            terms.append((("pi", l - 2), l * (l - 1) * pot.beta / 2.0))
        return terms
    c = l * (l - 1) * dt  # "q": three drift-law terms of the pi_l update, each times dt
    terms = ((("d2", l - 2), 0.5 * c), (("d1", l - 3), c * (l - 2)), (("pi", l - 4), 0.5 * c * (l - 2) * (l - 3)))
    return [(feat, coef) for feat, coef in terms if coef != 0.0]


def _weight_store(functionals: dict, pot: Potential, n: int, grid: TimeGrid) -> tuple:
    """Check the specs and fold them into the (name index, feature) pairs
    that carry a nonzero weight: returns (names, pairs, weights (slots, pairs))."""
    step_slots = np.arange(grid.nslots) < grid.steps
    store = {}
    for i, (name, spec) in enumerate(functionals.items()):
        for kind, entries in spec.items():
            if kind not in _KINDS:
                raise ValueError(f"functional {name!r}: unknown kind {kind!r}; the kinds are {', '.join(_KINDS)}")
            for key, w in entries.items():
                where = f"functional {name!r}, kind {kind!r}, key {key!r}"
                if not _key_ok(kind, key):
                    raise ValueError(f"{where}: the key must be {_KEY_RULES[kind]}")
                w = np.asarray(w, dtype=float)
                if w.shape != (grid.nslots,):
                    raise ValueError(f"{where}: weights of shape {w.shape}, expected one per slot, ({grid.nslots},)")
                if kind in _STEP_KINDS:
                    w = w * step_slots
                for feat, coef in _feature_terms(pot, grid.dt, n, kind, key):
                    store[i, feat] = store.get((i, feat), 0.0) + coef * w
    pairs = [pair for pair, w in store.items() if np.any(w)]
    wts = np.empty((grid.nslots, len(pairs)))  # slot-major: row j holds the entries of W_j
    for c, pair in enumerate(pairs):
        wts[:, c] = store[pair]
    return list(functionals), pairs, wts


def _feature_rows(features) -> tuple:
    """Row layout of the feature table F_j for a set of features.

    Rows 0..depth hold pi_0..pi_depth and the next ones the pi_a pi_b pairs:
    the state of the slot.  Then each contracted tag gets one block of rows
    for its powers lo..hi, filled from the power stack rows lo..hi.  Returns
    (depth, pp pairs, blocks of (tag, stack rows, table rows), {feature: row})."""
    pp = sorted({p for tag, p in features if tag == "pp"})
    spans = {}  # in a fixed tag order: the row order sets the order of the sums over features
    for tag in _CONTRACTED:
        powers = [p for t, p in features if t == tag]
        if powers:
            spans[tag] = (min(powers), max(powers))
    depth = max([2, *(p for tag, p in features if tag == "pi"), *(b for _, b in pp), *(hi for _, hi in spans.values())])
    row = {("pi", k): k for k in range(depth + 1)}
    row.update({("pp", ab): depth + 1 + r for r, ab in enumerate(pp)})
    blocks = []
    for tag, (lo, hi) in spans.items():
        start = len(row)
        row.update({(tag, p): start + p - lo for p in range(lo, hi + 1)})
        blocks.append((tag, slice(lo, hi + 1), slice(start, len(row))))
    return depth, pp, blocks, row


class _FeatureTable:
    """The functionals of m replicas of one :func:`simulate_dbm` run: the
    weight store of :func:`_weight_store`, the per-slot feature table F_j
    built from one power stack, and the per-replica accumulators, to which
    each slot adds W_j @ F_j."""

    def __init__(self, store: tuple, n: int, m: int):
        self.names, pairs, self.wts = store
        self.depth, self.pp, self.blocks, row = _feature_rows({feat for _, feat in pairs})
        self.who = np.array([i for i, _ in pairs], dtype=int)
        self.col = np.array([row[feat] for _, feat in pairs], dtype=int)
        self.live = self.wts.any(axis=1)
        self.same = np.zeros(len(self.wts), dtype=bool)  # W_j equals W_{j-1}: F_j joins the run of slot j-1
        self.same[1:] = self.live[1:] & (self.wts[1:] == self.wts[:-1]).all(axis=1)
        self.w_j = np.zeros((len(self.names), len(row)))  # W_j, or the weights of the current run
        self.table = np.zeros((len(row), m))  # F_j
        self.run = np.empty_like(self.table) if self.same.any() else None  # F summed over the current run
        self.pending = False  # run holds features not yet weighted into facc
        self.facc, self.contrib = np.zeros((2, len(self.names), m))
        self.xbuf = np.empty((n, m))  # the noise, the displacement or the squared drift of the step
        self.pows = np.empty((self.depth + 1, n, m))  # lam^k of the current slot, k = 0..depth
        self.pows[0] = 1.0

    def slot(self, j: int, lam: np.ndarray) -> np.ndarray:
        """Build the stack and the state rows of slot j from the particle-major
        lam (n, m); returns pi_0..pi_depth, (depth+1, m)."""
        pows, depth = self.pows, self.depth
        for k in range(1, depth + 1):
            np.multiply(pows[k - 1], lam, out=pows[k])
        pis = pows.sum(axis=1, out=self.table[: depth + 1])
        if self.live[j]:
            for r, (a, b) in enumerate(self.pp, start=depth + 1):
                np.multiply(pis[a], pis[b], out=self.table[r])
        return pis

    def step(self, j: int, db: np.ndarray, lam: np.ndarray, prop: np.ndarray, drift: np.ndarray):
        """Fill the step rows of slot j and accumulate its features: db is the
        accepted noise (m, n), lam, prop and drift are particle-major (n, m)."""
        if not self.live[j]:
            return
        x = self.xbuf
        for tag, powers, rows in self.blocks:
            if tag == "db":
                np.copyto(x, db.T)  # einsum is slow on the strided view
            elif tag == "dl":
                np.subtract(prop, lam, out=x)
            elif tag == "d2":
                np.multiply(drift, drift, out=x)
            np.einsum("pim,im->pm", self.pows[powers], drift if tag == "d1" else x, out=self.table[rows])
        self._accumulate(j)

    def finish(self, steps: int) -> dict:
        """Accumulate the last slot, which has no step, and return the
        per-replica samples, name -> (m,)."""
        if self.live[steps]:
            self.table[self.depth + 1 + len(self.pp) :] = 0.0  # stale step rows: 0 weight times inf would be nan
            self._accumulate(steps)
        self._flush()
        return dict(zip(self.names, self.facc))

    def _accumulate(self, j: int):
        """Add W_j F_j to facc.  Over a run of slots with equal weights the
        features are summed first and weighted once, when the run ends."""
        if self.same[j]:
            if self.pending:
                np.add(self.run, self.table, out=self.run)
            else:
                np.copyto(self.run, self.table)
            self.pending = True
            return
        self._flush()
        self.w_j[self.who, self.col] = self.wts[j]
        np.add(self.facc, np.matmul(self.w_j, self.table, out=self.contrib), out=self.facc)

    def _flush(self):
        if self.pending:
            np.add(self.facc, np.matmul(self.w_j, self.run, out=self.contrib), out=self.facc)
            self.pending = False


def _at_step(exc: Exception, j: int, stage: int) -> Exception:
    """exc, marked with where it stops the step loop: step j, at stage 0 (the
    sub-steps) or 1 (the finiteness check), which :func:`_fork_map` reads
    to raise the error that one process stepping every block meets first."""
    exc.where = (j, stage)
    return exc


def _substep(pot: Potential, lam: np.ndarray, dt: float, j: int, draw) -> tuple:
    """Advance one row lam (n,) that no retry could order through step j by
    adaptive sub-steps; ``draw(s)`` gives the row's s-th sub-step normals.

    A deterministic drift overshoot cannot be fixed by redrawing the noise
    (the pair force beta/d exceeds d for gaps below ~sqrt(beta dt)), so the
    row advances through sub-steps whose size shrinks with its minimum gap;
    this preserves the weak order.  Returns (positions, summed noise,
    rejected sub-steps)."""
    lam, db_tot, t_left = lam.copy(), np.zeros_like(lam), float(dt)  # an int dt would make t_left an int
    s = rejected = substeps = 0
    while t_left > 0:
        substeps += 1
        if substeps > _MAX_SUBSTEPS:
            raise _at_step(RejectionRateError(f"step {j}: collision unresolved after {substeps} sub-steps"), j, 0)
        dr = _drift(pot, lam[:, None])[:, 0]
        gap = float(np.min(np.diff(lam)))
        h = min(t_left, dt / 8.0, max(gap**2 / (8.0 * max(pot.beta, 1e-12)), dt * 1e-9))
        for _ in range(40):
            s += 1
            dbs = math.sqrt(2.0 * h) * draw(s)
            prop = lam + dbs + dr * h
            if not np.any(np.diff(prop) < GAP_MIN):
                break
            rejected += 1
            h /= 2.0
        else:
            raise _at_step(RejectionRateError(f"step {j}: sub-step rejection did not terminate"), j, 0)
        lam = prop
        db_tot += dbs
        t_left -= h
    return lam, db_tot, rejected


def _run_blocks(pot: Potential, n: int, grid: TimeGrid, seed: int, block0: int, lam0: np.ndarray, store: tuple, keep_paths: bool, ahead: bool) -> dict:
    """Step one group of replica blocks, block0, block0 + 1, ..., from the
    sorted initial positions lam0 (rows, n) as one particle-major array, with
    the main noise drawn ahead by a helper process of the group's own if
    ``ahead`` (see :class:`_NoiseFeed`).  Returns their partials: per block
    the two-pass (mean, M2) of pi_1, pi_2 per slot and of the noise, and over
    the rows the functional samples, the stored paths and the counters."""
    dt, steps = grid.dt, grid.steps
    rows = lam0.shape[0]
    sizes = [min(_BLOCK, rows - lo) for lo in range(0, rows, _BLOCK)]
    gens = [_stream(seed, block0 + b, (0, 0, 0, 0)) for b in range(len(sizes))]
    row_states = [gen.bit_generator.state for gen in gens]  # a second copy, whose counter the row draws move
    features = _FeatureTable(store, n, rows)
    # the step's buffers: the state and the proposal, swapped after each step,
    # the drift with its packed pair terms, drift * dt and the finiteness mask
    lam, prop = np.array(lam0.T, order="C"), np.empty((n, rows))
    drift, pairs, drift_dt = np.empty((n, rows)), np.empty((n * (n - 1) // 2, rows)), np.empty((n, rows))
    finite = np.empty((n, rows), dtype=bool)
    paths = incs = None
    if keep_paths:
        paths = np.empty((rows, steps + 1, n))
        paths[:, 0] = lam0
        incs = np.empty((rows, steps, n))
    # rings of the last `window` steps: the noise (one row of rows * n per
    # step, viewed as the step's (rows, n) noise) and pi_1, pi_2 per slot
    window = max(1, min(steps, _WINDOW_BYTES // (rows * n * 8)))
    noise_ring, pi_ring = np.empty((window, rows * n)), np.empty((window, 2, rows))
    pi_stats = np.empty((2, 2 * (steps + 1), len(sizes)))  # rows 2j, 2j+1: mean and M2 of pi_1, pi_2 of slot j in each block
    noise_stats = np.empty((2, steps, len(sizes)))  # per step: mean and M2 of the noise in each block
    gaps, low = np.empty((n - 1, rows)), np.empty((n - 1, rows), dtype=bool)
    sqrt2dt = math.sqrt(2.0 * dt)
    order_guard = pot.beta >= 1.0 and n > 1
    rejected = substepped = 0

    def row_draw(r, d, j):
        """Normals of row r of this range for draw number d of step j."""
        b, i = divmod(int(r), _BLOCK)
        state = row_states[b]
        state["state"]["counter"][1:] = (1 + i, d, j)
        gens[b].bit_generator.state = state
        return gens[b].standard_normal(n)

    def reduce_window(j0, pi_slots, noise_steps):
        """Block statistics of the first pi_slots slots and noise_steps steps
        of the rings, which hold slots and steps j0, j0 + 1, ..."""
        _block_moments(pi_ring[:pi_slots].reshape(-1, rows), _BLOCK, *pi_stats[:, 2 * j0 : 2 * (j0 + pi_slots)])
        _block_moments(noise_ring[:noise_steps], _BLOCK * n, *noise_stats[:, j0 : j0 + noise_steps])

    with _NoiseFeed(gens, rows, n, steps, sqrt2dt, ahead) as feed:
        for j in range(steps):
            w = j % window
            db = noise_ring[w].reshape(rows, n)
            _drift(pot, lam, drift, pairs)
            feed.take(j, db)
            np.add(np.add(lam, db.T, out=prop), np.multiply(drift, dt, out=drift_dt), out=prop)
            if order_guard and np.less(np.subtract(prop[1:], prop[:-1], out=gaps), GAP_MIN, out=low).any():
                bad = np.flatnonzero(low.any(axis=0))
                for retry in range(1, _MAX_RETRIES + 1):
                    if not bad.size:
                        break
                    rejected += bad.size
                    for r in bad:
                        db[r] = sqrt2dt * row_draw(r, retry, j)
                    prop[:, bad] = lam[:, bad] + db[bad].T + drift[:, bad] * dt
                    bad = bad[np.any(np.diff(prop[:, bad], axis=0) < GAP_MIN, axis=0)]
                for r in bad:
                    prop[:, r], db[r], rej = _substep(pot, lam[:, r], dt, j, lambda s: row_draw(r, _MAX_RETRIES + s, j))
                    rejected += rej
                substepped += bad.size
            if not np.isfinite(prop, out=finite).all():
                raise _at_step(FloatingPointError(f"non-finite positions at step {j}"), j, 1)

            if keep_paths:
                incs[:, j] = db
                paths[:, j + 1] = prop.T
            # after the step's own work, so the stack is still in cache for its features
            np.copyto(pi_ring[w], features.slot(j, lam)[1:3])
            features.step(j, db, lam, prop, drift)
            lam, prop = prop, lam
            if w == window - 1:
                reduce_window(j + 1 - window, window, window)

    last = steps % window  # steps of the short last window, if any, then the last slot
    np.copyto(pi_ring[last], features.slot(steps, lam)[1:3])
    reduce_window(steps - last, last + 1, last)
    # equal counts per step: the block's M2 is the steps' M2s plus the scatter of their means
    step_mean, step_m2 = np.ascontiguousarray(noise_stats.transpose(0, 2, 1))  # (blocks, steps) each
    noise_mean = step_mean.mean(axis=1)
    noise_m2 = step_m2.sum(axis=1) + np.multiply(sizes, n) * np.square(step_mean - noise_mean[:, None]).sum(axis=1)
    return {
        "sizes": sizes,
        "pi": pi_stats.reshape(2, steps + 1, 2, len(sizes)).transpose(3, 0, 1, 2),  # (blocks, 2, slots, 2)
        "noise": np.stack([noise_mean, noise_m2], axis=1),  # (blocks, 2)
        "functional_samples": features.finish(steps),
        "paths": paths,
        "incs": incs,
        "rejected": rejected,
        "substepped": substepped,
    }


def _joined(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _stats(parts: list) -> dict:
    """The block statistics of consecutive partials, joined in block order:
    replicas per entry, pi (entries, 2, slots, 2) and noise (entries, 2)."""
    return {"sizes": [size for part in parts for size in part["sizes"]], **{key: _joined([part[key] for part in parts]) for key in ("pi", "noise")}}


def _fold(parts: list, steps: int, n: int) -> dict:
    """The block statistics of consecutive partials merged by
    :func:`_chan_merge`, in block order, into one entry of the same form."""
    stats = _stats(parts)
    sizes, pi, noise = stats["sizes"], stats["pi"], stats["noise"]
    pi_mean, pi_m2 = _chan_merge(sizes, pi[:, 0], pi[:, 1])
    noise_mean, noise_m2 = _chan_merge([size * steps * n for size in sizes], noise[:, 0], noise[:, 1])
    return {"sizes": [sum(sizes)], "pi": np.stack([pi_mean, pi_m2])[None], "noise": np.array([[noise_mean, noise_m2]])}


def _join(parts: list) -> dict:
    """The per-replica outputs of consecutive partials, joined in block
    order, and their counters, summed: the Ensemble fields they fill."""
    first = parts[0]
    return {
        "functional_samples": {name: _joined([part["functional_samples"][name] for part in parts]) for name in first["functional_samples"]},
        **{key: None if first[key] is None else _joined([part[key] for part in parts]) for key in ("paths", "incs")},
        **{key: sum(part[key] for part in parts) for key in ("rejected", "substepped")},
    }


def _run_range(pot: Potential, n: int, grid: TimeGrid, seed: int, block0: int, lam0: np.ndarray, store: tuple, keep_paths: bool, ahead: bool, fold: bool) -> dict:
    """Step one worker's blocks, block0, block0 + 1, ..., in groups of at
    most ``_GROUP_BYTES`` of state, split evenly into whole blocks, one
    :func:`_run_blocks` call each, in block order.  Returns the partials of
    :func:`_run_blocks` for the whole range: with ``fold`` the block
    statistics are folded into one entry as each group ends (:func:`_fold`),
    so the range holds those of one group; without it they stay per block.
    A step error (FloatingPointError, tagged by :func:`_at_step`) lets the
    later groups run, and the error raised is the least by ``where``
    (:func:`_first_error`): the one a single pass over every block meets
    first.  Any other error ends the range at once."""
    per_group = max(1, _GROUP_BYTES // (_BLOCK * n * 8))
    blocks = -(-lam0.shape[0] // _BLOCK)
    groups = -(-blocks // per_group)
    edges = [blocks * g // groups * _BLOCK for g in range(groups + 1)]
    stats, parts, errors = [], [], []
    for lo, hi in zip(edges, edges[1:]):
        try:
            part = _run_blocks(pot, n, grid, seed, block0 + lo // _BLOCK, lam0[lo:hi], store, keep_paths, ahead)
        except FloatingPointError as exc:  # tagged by _at_step: a later group may fail at an earlier step
            errors.append(exc)
            continue
        stats.append({key: part.pop(key) for key in ("sizes", "pi", "noise")})
        if fold:
            stats = [_fold(stats, grid.steps, n)]
        parts.append(part)
    if errors:
        raise _first_error(errors)
    return {**_stats(stats), **_join(parts)}


def simulate_dbm(
    pot: Potential,
    n: int,
    grid: TimeGrid,
    m: int,
    init: InitSpec | None = None,
    seed: int = 0,
    functionals: dict | None = None,
    keep_paths: bool = False,
    workers: int = 1,
) -> Ensemble:
    """Euler-Maruyama simulation of the interacting Langevin dynamics.

    Steps violating the strict particle ordering (or closing a pair gap
    below GAP_MIN) are rejected: the rejected rows, and only they, are
    redrawn with fresh counter-keyed noise, up to 12 times, and a row still
    out of order then advances by adaptive sub-steps.  A terminal rejection
    rate >= 1% raises RejectionRateError.

    ``functionals`` maps names to dicts of per-slot weights, {kind: {key:
    weights}} with weights of length steps+1; each name accumulates the
    per-replica path functional sum_j w_j X_key(j) summed over its entries.
    The five kinds of X_key(j) are
      "pi": pi_k(t_j), on every slot j = 0..steps;
      "pp": pi_a(t_j) pi_b(t_j) for a key (a, b), a <= b, on every slot;
      "s":  the linearized action density S_l(t_j) of step j (see
            :func:`slin_increment`), l >= 1, j < steps;
      "q":  the leading mean of the higher Ito remainder of the pi_l update
            of step j, times dt, l >= 1, j < steps;
      "db": sum_i k lam_i(t_j)^(k-1) dB_i(j), k >= 1, the Ito integrand of
            the reweighting log weight (see :func:`girsanov_functionals`),
            j < steps.
    An unknown kind, a key outside these ranges or weights of another shape
    raise ValueError before the first step.  ``keep_paths`` stores every
    trajectory and Brownian increment in ``paths`` and ``incs``.  It serves
    the stored-path post-processors, the reference the online functionals
    are tested against; without it both stay None and only the online
    accumulators are kept.

    Every kind is a weighted sum of per-slot features of one power stack
    lam^0..lam^K: pi_k, pi_a pi_b (pi_0 pi_b is n pi_b), and sum_i lam_i^p
    x_i with x the noise dB, the accepted displacement D = lam(t_{j+1}) -
    lam(t_j), the drift and its square.  S_l = (l/dt) sum_i lam_i^(l-1) D_i
    + l (l-1) (beta/2) pi_{l-2} + l sum_q b_q pi_{q+l-1} holds on sub-stepped
    rows too, and q_l = dt [l(l-1)/2 sum_i lam_i^(l-2) drift_i^2 +
    l(l-1)(l-2) sum_i lam_i^(l-3) drift_i + l(l-1)(l-2)(l-3)/2 pi_{l-4}].
    The stack depth K is the largest power a feature reads, and at least 2.
    At set-up the specs fold into one weight store that holds only the
    (name, feature) pairs with a nonzero weight, 8 bytes per pair and slot;
    beside it the engine keeps the table F_j and a run sum, (features, m) each,
    and the accumulators, (names, m) twice.  Each slot with a nonzero W_j
    adds W_j @ F_j to the accumulators; over a run of slots with equal W_j,
    as in the moment residuals and the reweighting weights, the F_j are
    summed first and weighted once.  So each weight multiplies a particle
    sum or a sum over slots, where :func:`slin_increment` and the
    stored-path post-processors weight each term and take libm powers: the
    functionals agree with them to rounding, not bit for bit.  The
    trajectories, the pi and noise statistics and the counters do not
    depend on the functionals.

    Blocks and noise: the replicas fall into blocks of 500, the last one
    possibly shorter, and block b draws from Philox keyed by (seed, b).
    Step j's main draw of a block is one standard_normal((rows, n)) from
    counter (0, 0, 0, j); retry r of the block's row i draws
    standard_normal(n) from (0, 1 + i, r, j), and its s-th sub-step draw
    comes from (0, 1 + i, 12 + s, j).  So a row's noise does not depend on
    which other rows were rejected, and with a start that does not depend
    on m (equispaced or explicit) the first rows of a run are those of every
    longer run with the same seed.  Each block keeps one generator: a draw
    writes its counter into a kept copy of the generator's state and sets
    that state in one assignment, so no draw seeds a generator of its own.
    The main draws do not depend on the state, so a helper process may make
    them ahead of the steps (see Workers); retries and sub-steps draw in the
    worker.

    Workers: ``workers`` processes step contiguous ranges of blocks, this
    one the first and a forked one each other (see :func:`_fork_map`), so a
    run that fails raises the error that one worker would meet first.  When
    this process may run on at least 2 * workers cores, each worker has a
    forked helper make its main draws, times sqrt(2 dt), ahead of its steps
    (see :class:`_NoiseFeed`): a run then uses 2 * workers processes.  With
    fewer cores a worker makes the same draws itself, so the bits do not
    depend on the cores.  A worker steps its blocks in groups of at most
    ``_GROUP_BYTES`` of state (8 blocks at N = 5), one group after another
    in block order, each as one array with a noise helper of its own (see
    :func:`_run_range`), reducing the block statistics once per window of
    steps (``_WINDOW_BYTES`` of noise, at least one step) with the values
    of a reduction per (block, step).  The means and M2s are merged by
    Chan's formula, a left fold in block order: this process folds each of
    its groups in as the group ends, so with one worker a run holds the
    statistics of one group, and a forked worker returns per-block partials
    that the fold here carries on.  The rest is joined in block order.  So
    every output depends on (seed, m) and not on ``workers`` or the groups;
    pi_0 is n with M2 0, as that merge would give.  ``pi_mean``/``pi_se``
    and the noise statistics read the merged values.

    The state is particle-major, (n, m): a sum over particles is n - 1
    contiguous row adds, and the stack feeds the pi statistics (pi_1, pi_2)
    and the features.  The step reuses its buffers, allocated once per
    group: the drift with its packed pair terms (see :func:`_drift`),
    drift * dt, the finiteness mask and the proposal, which is swapped with
    the state after each step and still formed as (lam + dB) + drift * dt.
    Noise is drawn and retried as (m, n) rows;
    ``paths`` (m, steps+1, n) and ``incs`` (m, steps, n) stay
    replica-major.  For n <= 7 these row adds equal numpy's replica-major
    sum over axis 1 bit for bit; for n >= 8 that sum is pairwise and the
    last bits of the outputs may differ from it.
    """
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    init = init or InitSpec()
    store = _weight_store(functionals or {}, pot, n, grid)
    lam0 = np.sort(init.positions(pot, n, m), axis=1)
    blocks = -(-m // _BLOCK)
    workers = min(int(workers), blocks)
    edges = [blocks * w // workers * _BLOCK for w in range(workers + 1)]
    ahead = _spare_core(workers)
    jobs = [(pot, n, grid, seed, lo // _BLOCK, lam0[lo:hi], store, keep_paths, ahead, not w) for w, (lo, hi) in enumerate(zip(edges, edges[1:]))]
    parts = _fork_map(_run_range, jobs)  # part 0, from this process, carries its statistics folded

    ens = Ensemble(pot, n, grid, m, seed, init, **_join(parts))
    stats = _fold(parts, grid.steps, n)
    ens.pi_avg, ens.pi_m2 = np.empty((2, grid.nslots, 3))
    ens.pi_avg[:, 0], ens.pi_m2[:, 0] = n, 0.0  # pi_0 is n in every replica: what merging n's and zeros gives
    ens.pi_avg[:, 1:], ens.pi_m2[:, 1:] = stats["pi"][0]
    ens.noise_count = m * grid.steps * n
    ens.noise_mean, ens.noise_m2 = map(float, stats["noise"][0])
    if ens.rejection_rate >= 0.01:
        raise RejectionRateError(f"rejection rate {ens.rejection_rate:.3%} >= 1%")
    return ens


# ----------------------------------------------------------------------
# equilibrium sampling


@dataclass
class EqSamples:
    """Gibbs-measure samples with sampler diagnostics."""

    samples: np.ndarray          # (n_kept, n) with keep_samples, else (n_kept, 0)
    acceptance: float
    autocorr_pi1: float
    chain_means: dict            # k -> (n_chains,) per-chain means of pi_k
    pair_chain_means: dict       # (a, b) -> (n_chains,)
    tau: dict = field(default_factory=dict)

    def pi_mean_se(self, k: int):
        return mean_se(self.chain_means[k])


def _row_sum(rows):
    """rows summed over axis 0 as np.sum sums a contiguous axis: in sequence below 8 terms, else pairwise."""
    if len(rows) < 8:
        return np.add.reduce(rows)
    return np.moveaxis(rows, 0, -1).copy().sum(axis=-1)


def _log_gibbs_delta(pot, tau, pair, others):
    """Log target ratio of the single-site moves pair[1] -> pair[0], each
    (chains,), with others (n - 1, chains) the other particles."""
    v = pot.v(pair)
    dv = v[0] - v[1]
    for k, tk in (tau or {}).items():
        pk = pair**k
        dv += tk * (pk[0] - pk[1])
    out = -dv
    if pot.beta != 0.0 and len(others):
        logs = np.log(np.abs(pair[:, None] - others) + 1e-300)
        out += pot.beta * _row_sum(logs[0] - logs[1])
    return out


def sample_equilibrium(pot: Potential, n: int, sweeps: int, seed: int = 0, chains: int = 100, tau: dict | None = None, keep_samples: bool = False) -> EqSamples:
    """Metropolis sampler for the Gibbs measure with single-site Gaussian
    proposals, adapted to ~30% acceptance during the 20% burn-in.

    Each chain runs max(10, sweeps // chains) sweeps, so ``sweeps`` is not a
    hard budget.  With ``keep_samples`` every kept chain state is stored in
    ``samples``, sweep-major: row s * chains + c is chain c, sorted, after
    kept sweep s.  Without it ``samples`` is the empty (kept * chains, 0)
    array, kept * chains * n floats fewer, and the chains, ``acceptance``,
    ``autocorr_pi1`` and the means keep their bits.  The per-chain means of
    pi_k (k <= 8) and of pi_a pi_b (a <= b <= 6) use powers built by
    repeated products, which for k >= 3 differ from libm ``pow``
    (``x**k``) by rounding.  The chain state is particle-major, (n,
    chains), and the sums over partners and particles keep numpy's
    replica-major order, pairwise from 8 terms (:func:`_row_sum`).
    """
    if not pot.is_confining() and not (tau and max(tau) % 2 == 0 and tau[max(tau)] > 0):
        raise ValueError("potential is not confining; the Gibbs measure does not exist")
    rng = np.random.default_rng(seed)
    per_chain = max(10, sweeps // chains)
    burn = max(1, per_chain // 5)
    kept = per_chain - burn
    sig = pot.sigma if pot.is_hermite else 1.0
    lam = np.sort(rng.normal(0.0, sig * max(1.0, math.sqrt(n)), size=(chains, n)), axis=1).T.copy()
    step = np.full(chains, 0.5 * sig)
    partners = [np.delete(np.arange(n), i) for i in range(n)]
    k_track = 8
    pair_keys = [(a, b) for a in range(k_track - 1) for b in range(a, k_track - 1)]
    pair_a, pair_b = np.array(pair_keys, dtype=int).reshape(-1, 2).T
    samples, pi1 = np.empty((kept, chains, n if keep_samples else 0)), np.empty((kept, chains))
    chain_acc, pair_acc = np.zeros((k_track + 1, chains)), np.zeros((len(pair_keys), chains))
    pows = np.ones((k_track + 1, n, chains))  # lam^k of the current sweep, k = 0..k_track
    pair = np.empty((2, chains))  # proposal and current value of one site
    acc_count = 0

    for sweep in range(per_chain):
        # random-scan site order: a fixed order breaks the reflection
        # equivariance of the finite-time kernel and leaves a transient
        # asymmetry in the odd moments
        for i in rng.permutation(n).tolist():
            pair[1] = lam[i]
            np.add(pair[1], step * rng.standard_normal(chains), out=pair[0])
            logr = _log_gibbs_delta(pot, tau, pair, lam[partners[i]])
            accept = np.log(rng.random(chains)) < logr
            np.copyto(lam[i], pair[0], where=accept)
            if sweep >= burn:
                acc_count += int(np.count_nonzero(accept))
            else:
                # stochastic-approximation tuning toward the target rate
                step *= np.exp(0.2 * (accept.astype(float) - 0.3))
        lam.sort(axis=0)
        s = sweep - burn
        if s >= 0:
            if keep_samples:
                samples[s] = lam.T
            for k in range(1, k_track + 1):
                np.multiply(pows[k - 1], lam, out=pows[k])
            pis = _row_sum(pows.swapaxes(0, 1))  # (k_track+1, chains): pi_k per chain, summed as np.sum(lam.T**k, axis=1)
            chain_acc += pis
            pair_acc += pis[pair_a] * pis[pair_b]
            pi1[s] = pis[1]

    acceptance = acc_count / max(kept * n * chains, 1)
    autocorr = _integrated_autocorr(pi1 - pi1.mean(axis=0, keepdims=True))
    means, pair_means = dict(enumerate(chain_acc / kept)), dict(zip(pair_keys, pair_acc / kept))
    return EqSamples(samples.reshape(kept * chains, samples.shape[2]), acceptance, autocorr, means, pair_means, dict(tau or {}))


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


def moment_functionals(pot: Potential, grid: TimeGrid, ks) -> dict:
    """The moment-hierarchy checks of the modes ``ks`` as :func:`simulate_dbm` functionals.

    "residual<k>" is the evolution-identity residual d pi_k/dt + (beta/2 - 1)
    k (k-1) pi_{k-2} + k sum_l b_l pi_{l+k-1} - (beta/2) k sum_{q=0}^{k-2}
    pi_q pi_{k-2-q} averaged over slots 1..steps-1, with the centred
    derivative telescoped onto slots 0, 1, steps-1 and steps; its mean is
    O(dt).  "martingale<k>" sums S_k dt = sum_i k lam_i^(k-1) dB_i over slots
    0..steps-1; over steps * dt it is the time-averaged S_k, of mean zero.
    """
    steps, width, slots = grid.steps, max(grid.steps - 1, 1), np.arange(grid.nslots)
    ends = np.isin(slots, (steps - 1, steps)) - np.isin(slots, (0, 1)).astype(float)  # telescoped centred derivative
    interior = ((slots >= 1) & (slots < steps)) / width
    live = (slots < steps).astype(float)
    out = {}
    for k in ks:
        terms = [(l + k - 1, k * bl) for l, bl in pot.b.items()]
        if k >= 2:
            terms.append((k - 2, (pot.beta / 2.0 - 1.0) * k * (k - 1)))
        pi, pp = {k: ends / (2 * grid.dt * width)}, {}
        for key, c in terms:
            pi[key] = pi.get(key, 0.0) + c * interior
        for q in range(k - 1):
            key = (min(q, k - 2 - q), max(q, k - 2 - q))
            pp[key] = pp.get(key, 0.0) - (pot.beta / 2.0) * k * interior
        out[f"residual{k}"] = {"pi": pi, "pp": pp}
        out[f"martingale{k}"] = {"db": {k: live}}
    return out


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
                    quad += np.sum(lam**q, axis=1) * np.sum(lam ** (k - 2 - q), axis=1)
                s_quad -= arr[j] * (e.pot.beta / 2.0) * k * quad * dt
    return s_lin, s_quad


# ----------------------------------------------------------------------
# residual diagnostics


def mean_se(samples):
    """(mean, standard error) of independent samples, the error std(ddof=1) / sqrt(n)."""
    return float(np.mean(samples)), float(np.std(samples, ddof=1) / np.sqrt(samples.size))


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
    return mean_se(per_chain)


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
    return (float(np.mean(lhs_r)), float(np.mean(rhs_r)), *mean_se(lhs_r - rhs_r))

