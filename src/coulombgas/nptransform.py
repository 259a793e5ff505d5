"""Noise-preserving trajectory transformations.

An infinitesimal transformation acts on a trajectory as

    lam -> lam + eps * [ lam^(n+1) Phi(t, lam) - lamdot(t) Psi(t, lam) ],

where Phi is an iterated time integral of powers of the path and

    Psi(t, lam) = 2 (n + 1) * int_0^t lam(s)^n Phi(s, lam) ds

is the induced time shift: the factor-two relation between the space
dilation and the time reparametrization is exactly what keeps the strength
of a white noise with the z = 2 parabolic scaling unchanged.  The module
provides the iterated-integral words, their shuffle algebra, the closed
elementary bracket on the basis generators, finite transformations and the
proper-time clock, force-change formulas, and finite-difference commutator
oracles on sampled paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timefunc import TimePoly

__all__ = [
    "IIWord",
    "NPGenerator",
    "GeneratorSum",
    "SampledPath",
    "evaluate_iterated",
    "evaluate_iterated_exact",
    "shuffle_product",
    "elementary_bracket",
    "apply_np_transform",
    "numeric_commutator",
    "force_change",
    "sv_bracket",
    "SVVectorField",
    "finite_sv_transform",
    "proper_time",
]

MAX_POLY_DEGREE = 6


def _check_poly(p: TimePoly):
    if p.degree() > MAX_POLY_DEGREE:
        raise ValueError(f"time-function basis is polynomials of degree <= {MAX_POLY_DEGREE}")
    return p


@dataclass(frozen=True)
class IIWord:
    """Iterated-integral word: letters (k_i, adot_i) with powers k_i >= 0.

    Evaluates to int_0^t ds1 adot_1 lam^k1 int_0^s1 ... ; the empty word is
    the constant 1.
    """

    letters: tuple = ()

    def __post_init__(self):
        for k, a in self.letters:
            if k < 0:
                raise ValueError("letter powers must be >= 0")
            _check_poly(a)

    def __len__(self):
        return len(self.letters)


@dataclass(frozen=True)
class SampledPath:
    """Trajectory samples lam(t_j) on a uniform grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("times and values must be matching 1-d arrays")
        if not np.all(np.isfinite(v)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @classmethod
    def from_function(cls, fn, t0, t1, num):
        t = np.linspace(t0, t1, num)
        return cls(t, fn(t))


def _cumtrapz(f: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative trapezoid integral vanishing at the first sample."""
    return np.concatenate(([0.0], np.cumsum(0.5 * (f[1:] + f[:-1])))) * dt


def evaluate_iterated(word: IIWord, path: SampledPath) -> np.ndarray:
    """Nested cumulative quadrature of the word on the sampled path.

    Trapezoid weights (rather than left-closed sums) keep the quadrature
    error at O(dt^2): the commutator oracle must resolve 1e-4 relative
    differences on a 2000-point grid, which a first-order rule cannot.
    The midpoint form of the noise-condition identity
    (Psi_{j+1} - Psi_j)/dt = (n+1) (lam^n Phi)_{j+1/2} stays exact.
    """
    t, lam, dt = path.times, path.values, path.dt
    inner = np.ones_like(lam)
    for k, adot in reversed(word.letters):
        integrand = adot(t) * lam**k * inner
        inner = _cumtrapz(integrand, dt)
    return inner


def evaluate_iterated_exact(word: IIWord, path_poly: TimePoly) -> TimePoly:
    """Exact evaluation for a polynomial path: nested antiderivatives."""
    inner = TimePoly([1.0])
    for k, adot in reversed(word.letters):
        integrand = adot * inner
        for _ in range(k):
            integrand = integrand * path_poly
        inner = integrand.antideriv()
    return inner


def shuffle_product(w1: IIWord, w2: IIWord):
    """All order-preserving interleavings; C(p+q, p) words with unit weight."""
    out = []

    def rec(prefix, a, b):
        if not a and not b:
            out.append(IIWord(tuple(prefix)))
            return
        if a:
            rec(prefix + [a[0]], a[1:], b)
        if b:
            rec(prefix + [b[0]], a, b[1:])

    rec([], list(w1.letters), list(w2.letters))
    return [(1.0, w) for w in out]


# ----------------------------------------------------------------------
# generators


@dataclass(frozen=True)
class NPGenerator:
    """Basis generator: leading exponent n >= -1, prefactor time function
    adot, and an iterated-integral tail word.

    The trajectory variation is lam^(n+1) Phi - lamdot Psi with
    Phi(t) = adot(t) * tail(t) and Psi = 2(n+1) int_0^t lam^n Phi; the noise
    condition is structural, never stored.
    """

    n: int
    adot: TimePoly
    tail: IIWord = IIWord()

    def __post_init__(self):
        if self.n < -1:
            raise ValueError("leading exponent must be >= -1")
        _check_poly(self.adot)

    def phi(self, path: SampledPath) -> np.ndarray:
        return self.adot(path.times) * evaluate_iterated(self.tail, path)

    def psi(self, path: SampledPath) -> np.ndarray:
        if self.n == -1:
            return np.zeros_like(path.values)
        integrand = path.values**self.n * self.phi(path)
        return 2.0 * (self.n + 1) * _cumtrapz(integrand, path.dt)

    def variation(self, path: SampledPath) -> np.ndarray:
        """delta lam = lam^(n+1) Phi - lamdot Psi (centered lamdot)."""
        lam = path.values
        lamdot = np.gradient(lam, path.dt)
        return lam ** (self.n + 1) * self.phi(path) - lamdot * self.psi(path)

    def reduce(self):
        """Depth reduction: a k = 0 head letter folds into the prefactor.

        L_{n,(0, rest)}^{adot,(b, ...)} = L_{n,(rest)}^{adot*(b - b(0)), ...};
        applied repeatedly from the head of the tail."""
        gen = self
        while gen.tail.letters and gen.tail.letters[0][0] == 0:
            (k0, bdot), rest = gen.tail.letters[0], gen.tail.letters[1:]
            b = bdot.antideriv()  # vanishes at zero, i.e. b - b(0)
            gen = NPGenerator(gen.n, gen.adot * b, IIWord(rest))
        return gen


class GeneratorSum:
    """Formal linear combination of basis generators."""

    def __init__(self, terms=None):
        self.terms = [(float(c), g) for c, g in (terms or []) if c != 0.0]

    def variation(self, path: SampledPath) -> np.ndarray:
        out = np.zeros_like(path.values)
        for c, g in self.terms:
            out += c * g.variation(path)
        return out

    def __add__(self, other):
        return GeneratorSum(self.terms + other.terms)


def elementary_bracket(n1: int, a1: TimePoly, n2: int, a2: TimePoly) -> GeneratorSum:
    """Closed bracket of two elementary generators (empty tails):

        [L_{n1}[a1'], L_{n2}[a2']] = (n2 - n1) L_{n1+n2}[a1' a2']
            - 2 { (n2+1) L_{n1,(n2)}[a1'', a2] - (n1+1) L_{n2,(n1)}[a2'', a1] },

    with the depth-reduction rule applied when a tail letter has power zero.
    """
    a1d, a2d = a1.deriv(1), a2.deriv(1)
    terms = []
    if n2 != n1:
        terms.append((float(n2 - n1), NPGenerator(n1 + n2, a1d * a2d)))
    if n2 + 1 != 0 and not a1.deriv(2).is_zero():
        g = NPGenerator(n1, a1.deriv(2), IIWord(((n2, a2d),))).reduce()
        terms.append((-2.0 * (n2 + 1), g))
    if n1 + 1 != 0 and not a2.deriv(2).is_zero():
        g = NPGenerator(n2, a2.deriv(2), IIWord(((n1, a1d),))).reduce()
        terms.append((2.0 * (n1 + 1), g))
    return GeneratorSum(terms)


def apply_np_transform(gen, path: SampledPath, eps: float) -> SampledPath:
    """lam -> lam + eps * variation(lam)."""
    var = gen.variation(path)
    return SampledPath(path.times, path.values + eps * var)


def numeric_commutator(g1, g2, path: SampledPath, eps: float) -> np.ndarray:
    """Mixed second difference of the composed transformations.

    ([d1, d2] lam)(t) ~ [F(e,e) - F(e,-e) - F(-e,e) + F(-e,-e)] / (4 e^2)
    with F(e1, e2) = T2(e2) T1(e1) lam - T1(e1) T2(e2) lam.
    """

    def compose(ea, eb):
        p1 = apply_np_transform(g2, apply_np_transform(g1, path, ea), eb)
        p2 = apply_np_transform(g1, apply_np_transform(g2, path, eb), ea)
        return p1.values - p2.values

    val = (
        compose(eps, eps) - compose(eps, -eps) - compose(-eps, eps) + compose(-eps, -eps)
    ) / (4.0 * eps * eps)
    return val


def numeric_commutator_richardson(g1, g2, path: SampledPath, eps: float) -> np.ndarray:
    """One Richardson step in eps on the 4-point stencil (removes the O(eps^2)
    error of the mixed difference)."""
    c1 = numeric_commutator(g1, g2, path, eps)
    c2 = numeric_commutator(g1, g2, path, eps / 2.0)
    return (4.0 * c2 - c1) / 3.0


# ----------------------------------------------------------------------
# force changes


def force_change(n: int, a: TimePoly, pot, state, hist_matrix=None):
    """Force-change formulas for the transformation with exponent n, label a.

    state: configuration (n_particles,) at the evaluation time.
    hist_matrix: per-particle history (times (T+1,), paths (T+1, N)) ending
    at the evaluation time, with state its last row; it sets that time and
    feeds the delayed part (the time shifts integrate the past).  Without it
    the evaluation time is t = 0 and there is no delayed part.

    Returns dict with 'simul' (per particle), 'delay' (per particle; zero for
    n in {-1, 0}), and 'n1' (the one-particle reduction evaluated on state).
    """
    lam = np.asarray(state, dtype=float)
    n_part = lam.size
    t_eval = hist_matrix[0][-1] if hist_matrix is not None else 0.0
    adot = a.deriv(1)(t_eval)
    addot = a.deriv(2)(t_eval)

    simul = lam ** (n + 1) * addot
    brace = np.zeros_like(lam)
    for l, bl in pot.b.items():
        brace += bl * (n + l + 1) * lam ** (n + l)
    for q in range(0, n):  # empty for n <= 0
        pi_q = np.sum(lam ** (n - 1 - q))
        brace += pot.beta * (q + 1) * lam**q * pi_q
    if n >= 1:
        brace -= (pot.beta / 2.0 - 1.0) * (n + 1) * n * lam ** (n - 1)
    simul = simul + brace * adot

    # delayed part needs the particle-resolved history
    delay = np.zeros_like(lam)
    if n + 1 != 0 and hist_matrix is not None:
        times, paths = hist_matrix  # (T+1,), (T+1, N)
        dt = times[1] - times[0]
        adots = a.deriv(1)(times)
        dts = 2.0 * (n + 1) * np.concatenate(
            (np.zeros((1, n_part)), np.cumsum(adots[:-1, None] * paths[:-1] ** n, axis=0) * dt)
        )
        shift = dts[-1]  # delta t_i at the evaluation time
        dw = pot.vprime(lam) - _pair_force(pot, lam)
        for i in range(n_part):
            for jx in range(n_part):
                if jx == i:
                    continue
                gap = lam[i] - lam[jx]
                if abs(gap) < 1e-8:
                    raise FloatingPointError("coincident particles in the delayed force change")
                delay[i] -= pot.beta * dw[jx] * (shift[jx] - shift[i]) / gap**2

    n1 = lam ** (n + 1) * addot
    n1_brace = np.zeros_like(lam)
    for l, bl in pot.b.items():
        n1_brace += bl * (n + 1 + l) * lam ** (n + l)
    if n >= 1:
        n1_brace += (n + 1) * n * lam ** (n - 1)
    n1 = n1 + n1_brace * adot
    return {"simul": simul, "delay": delay, "n1": n1}


def _pair_force(pot, lam):
    n = lam.size
    out = np.zeros_like(lam)
    if pot.beta == 0.0 or n == 1:
        return out
    for i in range(n):
        for jx in range(n):
            if jx != i:
                out[i] += pot.beta / (lam[i] - lam[jx])
    return out


# ----------------------------------------------------------------------
# closed-family vector fields


@dataclass(frozen=True)
class SVVectorField:
    """p(t) d/dt + q(t) lam d/dlam + r(t) d/dlam with polynomial coefficients."""

    p: TimePoly
    q: TimePoly
    r: TimePoly

    @classmethod
    def x_field(cls, f: TimePoly):
        return cls(-1.0 * f, -0.5 * f.deriv(1), TimePoly([0.0]))

    @classmethod
    def y_field(cls, g: TimePoly):
        return cls(TimePoly([0.0]), TimePoly([0.0]), -1.0 * g)

    def bracket(self, other: "SVVectorField") -> "SVVectorField":
        """Lie bracket of the two fields (stays in the affine-in-lam class)."""
        p = self.p * other.p.deriv(1) - other.p * self.p.deriv(1)
        q = self.p * other.q.deriv(1) - other.p * self.q.deriv(1)
        # [q lam d, r d] = -q r d: the dilation eats the translation
        r = (
            self.p * other.r.deriv(1)
            - other.p * self.r.deriv(1)
            - self.q * other.r
            + other.q * self.r
        )
        return SVVectorField(p, q, r)

    def as_xy(self):
        """Decompose back into (f, g) with X_f + Y_g; asserts closure."""
        f = -1.0 * self.p
        q_expected = -0.5 * f.deriv(1)
        if not (self.q - q_expected).is_zero(1e-12):
            raise AssertionError("bracket left the closed family span")
        g = -1.0 * self.r
        return f, g


def sv_bracket(kind1: str, f1: TimePoly, kind2: str, f2: TimePoly):
    """Exact symbolic bracket in the X/Y basis.

    Returns ("X"|"Y"|"0", label).  The closed relations are
    [X_f, X_g] = X_{f'g - fg'}, [Y_f, X_g] = Y_{f'g - fg'/2}, [Y, Y] = 0.
    """
    mk = {"X": SVVectorField.x_field, "Y": SVVectorField.y_field}
    v1, v2 = mk[kind1](f1), mk[kind2](f2)
    br = v1.bracket(v2)
    f, g = br.as_xy()
    if f.is_zero(1e-14) and g.is_zero(1e-14):
        return "0", TimePoly([0.0])
    if f.is_zero(1e-14):
        return "Y", g
    if g.is_zero(1e-14):
        return "X", f
    return "XY", (f, g)


def proper_time(phidot_abs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """T(t) = int_0^t |J|^2 ds by the trapezoid rule; the exponent 2 is
    forced by the noise-invariance condition."""
    dt = times[1] - times[0]
    return _cumtrapz(phidot_abs**2, dt)


def finite_sv_transform(kind: str, path: SampledPath, phi: TimePoly | None = None, b: TimePoly | None = None):
    """Finite closed-family transformations of a sampled path.

    kind = "time-reparam": (x, t) -> (sqrt(phi'(t)) x, phi(t)), resampled to
    the original grid by linear interpolation; phi must be an increasing
    grid diffeomorphism with phi(0) = 0.  kind = "space-shift":
    x -> x + int_0^t b(s) ds.  Returns (SampledPath, proper_time array).
    """
    t = path.times
    if kind == "space-shift":
        if b is None:
            raise ValueError("space-shift needs b")
        shift = b.antideriv()(t)
        return SampledPath(t, path.values + shift), proper_time(np.ones_like(t), t)
    if kind != "time-reparam":
        raise ValueError("kind must be 'time-reparam' or 'space-shift'")
    if phi is None:
        raise ValueError("time-reparam needs phi")
    phit = phi(t)
    phidot = phi.deriv(1)(t)
    if abs(phit[0]) > 1e-12 or np.any(np.diff(phit) <= 0):
        raise ValueError("phi must be increasing with phi(0) = 0")
    scaled = np.sqrt(phidot) * path.values
    # world line (phi(t), sqrt(phi'(t)) x(t)) resampled onto the original grid
    resampled = np.interp(t, phit, scaled, left=scaled[0], right=scaled[-1])
    return SampledPath(t, resampled), proper_time(np.sqrt(np.abs(phidot)), t)
