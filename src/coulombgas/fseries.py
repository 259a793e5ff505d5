"""Truncated formal Laurent series over C[[z, 1/z]].

A :class:`TruncSeries` stores coefficients on a contiguous degree window
[lo_deg, hi_deg].  Outside the window a side is either *exact* (known to be
zero, e.g. a polynomial) or *truncated* (unknown: the series was cut there).
Every operation tracks which output degrees can be computed without touching
unknown coefficients and refuses, rather than silently returning garbage,
when a requested degree depends on them.  Downstream identity tests rely on
this to distinguish truncation error from logic error.

The splitting of the algebra into non-negative powers (the "plus" half) and
strictly negative powers (the "minus" half), together with the residue
pairing <u, v> = [z^-1] (u*v), is the arena in which all z-space identities
of the kernel and constraint modules are checked.  Contour integrals are
always coefficient extraction here; no numerical quadrature on circles.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TruncSeries",
    "WindowOverflowError",
    "mul",
    "differentiate",
    "split",
    "residue_pair",
]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class WindowOverflowError(Exception):
    """A requested degree depends on truncated (unknown) coefficients."""


class TruncSeries:
    """Laurent series with a retained degree window.

    Parameters
    ----------
    lo_deg, hi_deg : int
        Lowest and highest retained power of z; hi_deg >= lo_deg.
    coeffs : array-like
        coeffs[i] is the coefficient of z**(lo_deg + i).
    lo_exact, hi_exact : bool
        True if the series is known to vanish below lo_deg / above hi_deg.
    """

    __slots__ = ("lo", "hi", "coeffs", "lo_exact", "hi_exact")

    def __init__(self, lo_deg, hi_deg, coeffs, lo_exact=True, hi_exact=True):
        if hi_deg < lo_deg:
            raise ValueError("hi_deg must be >= lo_deg")
        c = np.asarray(coeffs, dtype=float)
        if c.shape != (hi_deg - lo_deg + 1,):
            raise ValueError("coeffs length must be hi_deg - lo_deg + 1")
        self.lo = int(lo_deg)
        self.hi = int(hi_deg)
        self.coeffs = c.copy()
        self.lo_exact = bool(lo_exact)
        self.hi_exact = bool(hi_exact)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(0, 0, np.zeros(1))

    @classmethod
    def monomial(cls, deg, coeff=1.0):
        return cls(deg, deg, [coeff])

    @classmethod
    def from_dict(cls, d):
        """Series from {degree: coefficient}; exact on both sides."""
        if not d:
            return cls.zero()
        lo, hi = min(d), max(d)
        c = np.zeros(hi - lo + 1)
        for k, v in d.items():
            c[k - lo] = v
        return cls(lo, hi, c)

    # -- basic access -------------------------------------------------

    def coeff(self, deg: int) -> float:
        """Coefficient of z**deg; 0 outside the window on exact sides."""
        if deg < self.lo:
            if self.lo_exact:
                return 0.0
            raise WindowOverflowError(f"degree {deg} below truncated window")
        if deg > self.hi:
            if self.hi_exact:
                return 0.0
            raise WindowOverflowError(f"degree {deg} above truncated window")
        return float(self.coeffs[deg - self.lo])

    def items(self):
        for i, v in enumerate(self.coeffs):
            if v != 0.0:
                yield self.lo + i, float(v)

    def restrict(self, lo, hi) -> "TruncSeries":
        """Restrict (or zero-extend on exact sides) to [lo, hi]."""
        c = np.zeros(hi - lo + 1)
        a, b = max(lo, self.lo), min(hi, self.hi)
        if a <= b:
            c[a - lo : b - lo + 1] = self.coeffs[a - self.lo : b - self.lo + 1]
        if lo < self.lo and not self.lo_exact:
            raise WindowOverflowError("extending below a truncated edge")
        if hi > self.hi and not self.hi_exact:
            raise WindowOverflowError("extending above a truncated edge")
        return TruncSeries(lo, hi, c, self.lo_exact, self.hi_exact)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs))) if self.coeffs.size else 0.0

    def __repr__(self):
        terms = [f"{v:g}*z^{k}" for k, v in self.items()]
        body = " + ".join(terms) if terms else "0"
        flags = f"[{self.lo},{self.hi}]" + ("" if self.lo_exact else "<") + ("" if self.hi_exact else ">")
        return f"TruncSeries({body} on {flags})"

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        # unknown regions contaminate the union window
        lo_ex = self.lo_exact and other.lo_exact
        hi_ex = self.hi_exact and other.hi_exact
        if not self.lo_exact:
            lo = max(lo, self.lo)
        if not other.lo_exact:
            lo = max(lo, other.lo)
        if not self.hi_exact:
            hi = min(hi, self.hi)
        if not other.hi_exact:
            hi = min(hi, other.hi)
        if hi < lo:
            raise WindowOverflowError("sum has empty reliable window")
        c = np.zeros(hi - lo + 1)
        for s in (self, other):
            a, b = max(lo, s.lo), min(hi, s.hi)
            if a <= b:
                c[a - lo : b - lo + 1] += s.coeffs[a - s.lo : b - s.lo + 1]
        return TruncSeries(lo, hi, c, lo_ex, hi_ex)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        if isinstance(scalar, TruncSeries):
            return mul(self, scalar)
        out = TruncSeries(self.lo, self.hi, self.coeffs * float(scalar), self.lo_exact, self.hi_exact)
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return (-1.0) * self


def _reliable_product_window(a: TruncSeries, b: TruncSeries):
    """Degree bounds of a*b computable without unknown coefficients.

    Returns (rlo, rhi, slo, shi): degrees outside [rlo, rhi] are contaminated
    by truncated edges; [slo, shi] is the support window.  With exact
    zero-extension on both sides of both factors, rlo/rhi are infinite and
    every degree is reliable (zero outside the support).  A truncated edge of
    one factor contaminates every degree it can reach through the other
    factor's known support.
    """
    slo = a.lo + b.lo
    shi = a.hi + b.hi
    rlo, rhi = _NEG_INF, _POS_INF
    if not a.lo_exact:
        rlo = max(rlo, a.lo + b.hi) if b.hi_exact else _POS_INF
    if not b.lo_exact:
        rlo = max(rlo, b.lo + a.hi) if a.hi_exact else _POS_INF
    if not a.hi_exact:
        rhi = min(rhi, a.hi + b.lo) if b.lo_exact else _NEG_INF
    if not b.hi_exact:
        rhi = min(rhi, b.hi + a.lo) if a.lo_exact else _NEG_INF
    return rlo, rhi, slo, shi


def mul(a: TruncSeries, b: TruncSeries, window=None) -> TruncSeries:
    """Cauchy product restricted to ``window`` (default: full reliable window).

    Raises :class:`WindowOverflowError` when a requested degree would need
    coefficients dropped by truncation of either factor.
    """
    rlo, rhi, slo, shi = _reliable_product_window(a, b)
    if window is None:
        lo, hi = max(rlo, slo), min(rhi, shi)
        if lo == _NEG_INF or hi == _POS_INF or hi < lo:
            raise WindowOverflowError("product has no reliable window; pass one explicitly")
    else:
        lo, hi = window
        if lo < rlo or hi > rhi:
            raise WindowOverflowError(
                f"requested window [{lo},{hi}] exceeds reliable window [{rlo},{rhi}]"
            )
    lo, hi = int(lo), int(hi)
    full = np.convolve(a.coeffs, b.coeffs)  # degrees slo .. shi
    c = np.zeros(hi - lo + 1)
    x, y = max(lo, slo), min(hi, shi)
    if x <= y:
        c[x - lo : y - lo + 1] = full[x - slo : y - slo + 1]
    lo_ex = (a.lo_exact and b.lo_exact) and lo <= slo
    hi_ex = (a.hi_exact and b.hi_exact) and hi >= shi
    return TruncSeries(lo, hi, c, lo_ex, hi_ex)


def differentiate(a: TruncSeries) -> TruncSeries:
    """d/dz; the retained window shifts down by one degree."""
    degs = np.arange(a.lo, a.hi + 1, dtype=float)
    return TruncSeries(a.lo - 1, a.hi - 1, degs * a.coeffs, a.lo_exact, a.hi_exact)


def split(a: TruncSeries):
    """Canonical splitting (plus, minus): degrees >= 0 and <= -1."""
    plo = max(a.lo, 0)
    if a.hi < 0:
        plus = TruncSeries(0, 0, [0.0], True, True)
    else:
        plus = TruncSeries(plo, a.hi, a.coeffs[plo - a.lo :], True, a.hi_exact)
    mhi = min(a.hi, -1)
    if a.lo > -1:
        minus = TruncSeries(-1, -1, [0.0], True, True)
    else:
        minus = TruncSeries(a.lo, mhi, a.coeffs[: mhi - a.lo + 1], a.lo_exact, True)
    return plus, minus


def residue_pair(u: TruncSeries, v: TruncSeries) -> float:
    """<u, v> = coefficient of z^-1 in u*v (contour integral, normalized)."""
    rlo, rhi, _, _ = _reliable_product_window(u, v)
    if rlo > -1 or rhi < -1:
        raise WindowOverflowError("degree -1 of the product is not reliable")
    total = 0.0
    for k, cu in u.items():
        j = -1 - k
        if v.lo <= j <= v.hi:
            total += cu * v.coeffs[j - v.lo]
    return total
