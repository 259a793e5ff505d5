"""Propagator of the linearized power-sum dynamics, by three routes.

The homogeneous linearized evolution of the power-sum modes pi_k is
pi_dot_k = -(beta/2 - 1) k (k-1) pi_{k-2} - k * sum_l b_l pi_{l+k-1},
assembled here as a mode matrix A ("generator").  Its exponential K(t) is the
propagator; the module builds K by matrix exponential, by beta = 2
characteristics, and by an explicit Gaussian-potential (Hermite) closed form,
and cross-checks semigroup, Kolmogorov, and contour-lemma identities.

Conventions
-----------
* K(0) = identity; row k = 0 is (1, 0, ..., 0) for all t (pi_0 is conserved).
* For beta = 2 the generator has no entries below the diagonal, so K(t) is
  upper triangular; for beta != 2 the (k, k-2) band makes entries appear two
  below the diagonal.
* The generator includes the (beta/2 - 1) k (k-1) second-derivative band.
  The organizing texts also contain a transport-only form of dK/dt that drops
  this band; only the full form is consistent with the equation of motion and
  with the Gaussian-potential closed form, so the full form is used
  everywhere and ``verify_kernel_identities`` reports the mismatch terms
  explicitly (see ``technical_lemma_residual``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fseries import TruncSeries, mul

__all__ = [
    "Potential",
    "KernelMatrix",
    "generator_matrix",
    "propagator",
    "propagator_table",
    "step_powers",
    "characteristics_flow",
    "kernel_beta2_closed",
    "hermite_kernel",
    "heat_action",
    "retarded_propagator_modes",
    "verify_kernel_identities",
    "technical_lemma_residual",
    "expm_tol",
    "kernel_to_csv_rows",
]


@dataclass(frozen=True)
class Potential:
    """Confining potential through its force coefficients V'(x) = sum b_l x^l.

    beta is the inverse-temperature (pair-repulsion strength); beta >= 0.
    The Gaussian ("Hermite") case is b = {1: 1/sigma**2}.
    """

    beta: float
    b: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        clean = {}
        for l, v in self.b.items():
            if int(l) < 1:
                raise ValueError("force coefficients start at l = 1")
            if v != 0.0:
                clean[int(l)] = float(v)
        object.__setattr__(self, "b", clean)

    @property
    def l_max(self) -> int:
        return max(self.b) if self.b else 0

    @property
    def is_hermite(self) -> bool:
        return set(self.b) == {1}

    @property
    def sigma(self) -> float:
        if not self.is_hermite:
            raise ValueError("sigma is defined only for the Gaussian case")
        return 1.0 / math.sqrt(self.b[1])

    def b_series(self) -> TruncSeries:
        """b(z) = sum_{l>=1} b_l z^l as an exact series."""
        if not self.b:
            return TruncSeries(1, 1, [0.0])
        return TruncSeries.from_dict(self.b)

    def vprime(self, x):
        """V'(x) of a float array x; zeros shaped like x for no force."""
        if not self.b:
            return np.zeros(np.shape(x))
        return sum(bl * x**l for l, bl in self.b.items())

    def v(self, x):
        """V(x) with V(0) = 0, of a float array x; zeros shaped like x for no force."""
        if not self.b:
            return np.zeros(np.shape(x))
        return sum(bl * x ** (l + 1) / (l + 1) for l, bl in self.b.items())

    def is_confining(self) -> bool:
        if not self.b:
            return False
        lm = self.l_max
        return lm % 2 == 1 and self.b[lm] > 0


@dataclass(frozen=True)
class KernelMatrix:
    """Mode matrix K_{kl}(t) for 0 <= k, l <= K_max."""

    t: float
    k_max: int
    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        n = self.k_max + 1
        if e.shape != (n, n):
            raise ValueError("entries must be (K_max+1) x (K_max+1)")
        object.__setattr__(self, "entries", e)

    def __getitem__(self, kl):
        return self.entries[kl]


# ----------------------------------------------------------------------
# generator and matrix exponential


def generator_matrix(pot: Potential, k_max: int) -> np.ndarray:
    """Mode-space generator A of the homogeneous linearized dynamics.

    A[k, k-2] = -(beta/2 - 1) k (k-1), A[k, l+k-1] += -k b_l; row 0 is zero.
    """
    if k_max < pot.l_max:
        raise ValueError(f"K_max={k_max} smaller than the force support L_max={pot.l_max}")
    n = k_max + 1
    a = np.zeros((n, n))
    lap = pot.beta / 2.0 - 1.0
    for k in range(1, n):
        if k >= 2:
            a[k, k - 2] -= lap * k * (k - 1)
        for l, bl in pot.b.items():
            col = l + k - 1
            if col <= k_max:
                a[k, col] -= k * bl
    return a


def expm_tol(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling-and-squaring with a Taylor series summed until a
    term's entries fall below 1e-13."""
    a = np.asarray(a, dtype=float)
    norm = np.max(np.abs(a)) * a.shape[0]
    s = 0
    while norm > 0.25:
        norm /= 2.0
        s += 1
    m = a / (2.0**s)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for j in range(1, 60):
        term = term @ m / j
        out = out + term
        if np.max(np.abs(term)) < 1e-13:
            break
    for _ in range(s):
        out = out @ out
    return out


def propagator(pot: Potential, t: float, k_max: int) -> KernelMatrix:
    """K(t) = exp(t A)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    a = generator_matrix(pot, k_max)
    return KernelMatrix(t, k_max, expm_tol(t * a))


def step_powers(step: np.ndarray, steps: int) -> np.ndarray:
    """step^j for j = 0..steps, stacked; each power is the previous one times step."""
    out = np.empty((steps + 1,) + step.shape)
    out[0] = np.eye(step.shape[0])
    for j in range(1, steps + 1):
        out[j] = out[j - 1] @ step
    return out


def propagator_table(pot: Potential, dt: float, steps: int, k_max: int) -> np.ndarray:
    """K(j*dt) for j = 0..steps, stacked; built by repeated semigroup steps."""
    return step_powers(propagator(pot, dt, k_max).entries, steps)


# ----------------------------------------------------------------------
# beta = 2 characteristics route


def characteristics_flow(b: dict, w_order: int, t: float) -> TruncSeries:
    """Truncated power-series solution of dw/dt = -b(w), w(0) = w.

    Returns w(t) as a series in the indeterminate w (degrees 1..w_order,
    truncated above), integrating the closed coefficient ODE system with
    4th-order Runge-Kutta at steps of at most 1e-3.
    """
    if w_order < 1:
        raise ValueError("w_order must be >= 1")
    b = {int(l): float(v) for l, v in b.items() if v != 0.0}

    def compose_b(c):
        # coefficients of b(w(t)) as a series in w, truncated at w_order
        out = np.zeros(w_order + 1)
        if not b:
            return out
        power = c  # w(t)^1: convolving c with the unit series would return it unchanged
        for l in range(1, max(b) + 1):
            if l > 1:
                power = np.convolve(power, c)[: w_order + 1]
            if l in b:
                out += b[l] * power
        return out

    c = np.zeros(w_order + 1)  # c[m] = coefficient of w^m, m = 0..w_order
    c[1] = 1.0
    if t > 0:
        nsteps = max(1, int(math.ceil(t / 1e-3)))
        h = t / nsteps
        rhs = lambda y: -compose_b(y)
        for _ in range(nsteps):
            k1 = rhs(c)
            k2 = rhs(c + 0.5 * h * k1)
            k3 = rhs(c + 0.5 * h * k2)
            k4 = rhs(c + h * k3)
            c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return TruncSeries(0, w_order, c, lo_exact=True, hi_exact=False)


def kernel_beta2_closed(b: dict, t: float, k_max: int) -> KernelMatrix:
    """beta = 2 kernel from the characteristics: K_{kl}(t) = [w^l] w(t)^k."""
    wt = characteristics_flow(b, k_max, t)
    n = k_max + 1
    entries = np.zeros((n, n))
    entries[0, 0] = 1.0
    power = TruncSeries(0, k_max, np.eye(k_max + 1)[0], hi_exact=False)  # w^0
    for k in range(1, n):
        power = mul(power, wt, window=(0, k_max))
        for l in range(n):
            entries[k, l] = power.coeff(l) if l >= power.lo else 0.0
    return KernelMatrix(t, k_max, entries)


# ----------------------------------------------------------------------
# Gaussian-potential (Hermite) closed form, beta arbitrary


def hermite_kernel(sigma: float, beta: float, t: float, k_max: int) -> KernelMatrix:
    """Closed-form kernel for V'(x) = x / sigma**2 at any beta.

    Derived by expanding exp(f(t) zeta**2) rho(exp(-t/sigma**2) zeta), where
    matching the transformed flow gives df/dt = -(beta/2 - 1) - 2 f/sigma**2,
    f(0) = 0, i.e. f(t) = -(beta/2 - 1)(sigma**2/2)(1 - exp(-2t/sigma**2)):

        K[k, k-2m] = k! / (m! (k-2m)!) * f(t)**m * exp(-(k-2m) t / sigma**2).

    Both the binomial/power shorthand and the printed decay rate of f in the
    source construction disagree with the construction itself (they agree
    only at beta = 4); the coefficients here are re-derived and must match
    ``propagator`` to 1e-10 (tested).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    s2 = sigma * sigma
    f = -(beta / 2.0 - 1.0) * (s2 / 2.0) * (1.0 - math.exp(-2.0 * t / s2))
    n = k_max + 1
    entries = np.zeros((n, n))
    entries[0, 0] = 1.0
    for k in range(1, n):
        for m in range(0, k // 2 + 1):
            l = k - 2 * m
            coeff = math.factorial(k) / (math.factorial(m) * math.factorial(l))
            entries[k, l] = coeff * f**m * math.exp(-l * t / s2)
    return KernelMatrix(t, k_max, entries)


def heat_action(pi0: TruncSeries, t: float) -> TruncSeries:
    """exp(t d^2/dz^2) applied to a series supported on degrees <= -1.

    Direct term-by-term application sum_m t^m/m! (d/dz)^2m, truncated when
    increments fall below 1e-15 of the running scale or leave the window,
    which reaches 80 degrees below the input's lowest.
    """
    if pi0.hi > -1:
        raise ValueError("heat_action expects a series supported on degrees <= -1")
    lo_floor = pi0.lo - 80
    out = pi0.restrict(lo_floor, -1)
    term = out
    scale = max(out.max_abs(), 1.0)
    for m in range(1, 200):
        d = term
        for _ in range(2):
            dd = np.arange(d.lo, d.hi + 1, dtype=float) * d.coeffs
            d = TruncSeries(d.lo - 1, d.hi - 1, dd, d.lo_exact, d.hi_exact)
        term = (t / m) * d
        if term.hi < lo_floor:
            break
        term = term.restrict(lo_floor, -1)
        out = out + term
        inc = term.max_abs()
        scale = max(scale, out.max_abs())
        if inc < 1e-15 * scale:
            break
    return out


def retarded_propagator_modes(pot: Potential, t: float, k_max: int) -> KernelMatrix:
    """Mode form of the retarded propagator: entry (k, l) = l * K_{kl}(t)."""
    k = propagator(pot, t, k_max)
    l_weights = np.arange(k_max + 1, dtype=float)
    return KernelMatrix(t, k_max, k.entries * l_weights[None, :])


# ----------------------------------------------------------------------
# identity suite


def _kolmogorov_forward_sum(pot: Potential, kmat: np.ndarray, k_max: int) -> np.ndarray:
    """Forward mode sum for dK/dt, spelled directly from b (not via A)."""
    n = k_max + 1
    out = np.zeros_like(kmat)
    lap = pot.beta / 2.0 - 1.0
    for k in range(1, n):
        if k >= 2:
            out[k] -= lap * k * (k - 1) * kmat[k - 2]
        for l, bl in pot.b.items():
            row = l + k - 1
            if row <= k_max:
                out[k] -= k * bl * kmat[row]
    return out


def _kolmogorov_backward_sum(pot: Potential, kmat: np.ndarray, k_max: int) -> np.ndarray:
    """Backward mode sum for dK/dt (generator acting on the second slot)."""
    n = k_max + 1
    out = np.zeros_like(kmat)
    lap = pot.beta / 2.0 - 1.0
    for l in range(1, n):
        if l >= 2:
            out[:, l - 2] -= lap * l * (l - 1) * kmat[:, l]
        for q, bq in pot.b.items():
            col = q + l - 1
            if col <= k_max:
                out[:, col] -= l * bq * kmat[:, l]
    return out


def _lemma_pair_sum(kmat_a: np.ndarray, kmat_b: np.ndarray, p: int, k_max: int, deriv_weight=None):
    """M[k, n] = sum_l w(l) K_a[k, l] K_b[l + p - 1, n] over valid l."""
    n = k_max + 1
    out = np.zeros((n, n))
    for l in range(1, n):
        row = l + p - 1
        if 0 <= row <= k_max:
            w = float(l) if deriv_weight is None else deriv_weight(l)
            out += w * np.outer(kmat_a[:, l], kmat_b[row, :])
    return out


def technical_lemma_residual(pot: Potential, t: float, tp: float, s: float, k_max: int, p: int):
    """Residuals of the contour lemma d/dt' of sum_l l K(t-t') K(t'-s)-type.

    For the weight u(w) = w^p the lemma reads

        d/dt' M_p(t') = sum_q b_q (q - p) * [pair sum with shift q + p - 1]

    plus, when the generator's (beta/2 - 1) band is active, the correction

        -(beta/2 - 1) * p * sum_l l (2l + p - 3) K(t-t')[., l] K(t'-s)[l+p-3, .]

    which vanishes identically for p = 0 or beta = 2.  Returns a dict with
    absolute and relative (by the scale of the derivative block) max-abs
    residuals over modes (k, n) up to k_max; internally everything is
    assembled 20 modes higher so the reported block is free of window-edge
    truncation.  The derivative is exact, from the generator A:
    d/dt' K(t-t') = -K(t-t') A and d/dt' K(t'-s) = A K(t'-s), so a residual
    that holds reads at the rounding level of the block scale.
    """
    kw = k_max + 20
    a = generator_matrix(pot, kw)
    sl = np.s_[: k_max + 1, : k_max + 1]
    ka = expm_tol((t - tp) * a)
    kb = expm_tol((tp - s) * a)
    dmdt = _lemma_pair_sum(-(ka @ a), kb, p, kw) + _lemma_pair_sum(ka, a @ kb, p, kw)
    rhs = np.zeros_like(dmdt)
    for q, bq in pot.b.items():
        if q != p:
            rhs += bq * (q - p) * _lemma_pair_sum(ka, kb, q + p - 1, kw)
    lap = pot.beta / 2.0 - 1.0
    corr = np.zeros_like(dmdt)
    if p != 0 and lap != 0.0:
        corr = -lap * p * _lemma_pair_sum(ka, kb, p - 2, kw, deriv_weight=lambda l: l * (2 * l + p - 3))
    scale = max(1.0, float(np.max(np.abs(dmdt[sl]))))
    res_stated = float(np.max(np.abs((dmdt - rhs)[sl])))
    res_corrected = float(np.max(np.abs((dmdt - rhs - corr)[sl])))
    return {
        "as_stated": res_stated,
        "corrected": res_corrected,
        "as_stated_rel": res_stated / scale,
        "corrected_rel": res_corrected / scale,
        "scale": scale,
    }


def verify_kernel_identities(pot: Potential, times, k_max: int) -> dict:
    """Residuals of semigroup, Kolmogorov, and contour-lemma identities.

    ``times`` is a strictly decreasing triple (t, t', t'').  Returns the
    max-abs residuals ``semigroup``, ``kolmogorov_forward`` and
    ``kolmogorov_backward``, each over the kernel scale max(1, max|K(t-t'')|)
    as ``<name>_rel``, and ``technical_lemma``, the
    :func:`technical_lemma_residual` reports for u = 1 and u = z.  The
    Kolmogorov rows compare A K(t - t'') with the sums spelled out from b.
    Callers decide pass/fail against their tolerances.
    """
    t, tp, ts = times
    if not (t > tp > ts >= 0):
        raise ValueError("times must satisfy t > t' > t'' >= 0")
    a = generator_matrix(pot, k_max)

    k_t_tp = expm_tol((t - tp) * a)
    k_tp_ts = expm_tol((tp - ts) * a)
    k_t_ts = expm_tol((t - ts) * a)
    # kernel magnitudes grow quickly with beta and the cutoff; the relative
    # residuals measure the identities against the rounding floor
    kscale = max(1.0, float(np.max(np.abs(k_t_ts))))
    semigroup = float(np.max(np.abs(k_t_tp @ k_tp_ts - k_t_ts)))

    kd = a @ k_t_ts  # exact d/dt of exp((t - t'') A)
    fwd = _kolmogorov_forward_sum(pot, k_t_ts, k_max)
    bwd = _kolmogorov_backward_sum(pot, k_t_ts, k_max)
    kolmogorov_forward = float(np.max(np.abs(kd - fwd)))
    kolmogorov_backward = float(np.max(np.abs(kd - bwd)))

    lemma = {}
    for p, name in ((0, "u=1"), (1, "u=z")):
        lemma[name] = technical_lemma_residual(pot, t, tp, ts, k_max, p)

    return {
        "semigroup": semigroup,
        "kolmogorov_forward": kolmogorov_forward,
        "kolmogorov_backward": kolmogorov_backward,
        "semigroup_rel": semigroup / kscale,
        "kolmogorov_forward_rel": kolmogorov_forward / kscale,
        "kolmogorov_backward_rel": kolmogorov_backward / kscale,
        "technical_lemma": lemma,
    }


def kernel_to_csv_rows(k: KernelMatrix):
    """Rows (k, l, t, value) for the CSV report writer."""
    rows = []
    for i in range(k.k_max + 1):
        for j in range(k.k_max + 1):
            rows.append((i, j, k.t, k.entries[i, j]))
    return rows
