"""Polynomial time functions with exact derivatives, and the uniform time grid.

Test functions multiplying the grid operators must vanish, together with a
few derivatives, at both ends of the time window.  Keeping them polynomial
means products and derivatives stay in the same class, so every coefficient
function (a, da/dt, d2a/dt2, ...) is evaluated analytically and the only
O(dt) errors in the identity suites come from genuinely discretized sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TimeGrid", "TimePoly", "bump", "poly_t"]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_j = j * dt, j = 0..steps."""

    dt: float
    steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.steps < 2:
            raise ValueError("need at least 2 steps")

    @property
    def nslots(self) -> int:
        return self.steps + 1

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.nslots)


class TimePoly:
    """Polynomial in t, stored by ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        # strip trailing zeros but keep at least the constant term
        nz = np.nonzero(c)[0]
        self.coeffs = c[: nz[-1] + 1].copy() if nz.size else np.zeros(1)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c in self.coeffs[::-1]:
            out = out * t + c
        return out if out.ndim else float(out)

    def deriv(self, order: int = 1) -> "TimePoly":
        c = self.coeffs
        for _ in range(order):
            if c.size <= 1:
                return TimePoly([0.0])
            c = c[1:] * np.arange(1, c.size)
        return TimePoly(c)

    def antideriv(self) -> "TimePoly":
        """Antiderivative vanishing at t = 0."""
        c = self.coeffs
        return TimePoly(np.concatenate(([0.0], c / np.arange(1, c.size + 1))))

    def degree(self) -> int:
        return self.coeffs.size - 1

    def __mul__(self, other):
        if isinstance(other, TimePoly):
            return TimePoly(np.convolve(self.coeffs, other.coeffs))
        return TimePoly(self.coeffs * float(other))

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, TimePoly):
            other = TimePoly([float(other)])
        n = max(self.coeffs.size, other.coeffs.size)
        c = np.zeros(n)
        c[: self.coeffs.size] += self.coeffs
        c[: other.coeffs.size] += other.coeffs
        return TimePoly(c)

    def __sub__(self, other):
        if not isinstance(other, TimePoly):
            other = TimePoly([float(other)])
        return self + (-1.0) * other

    def __neg__(self):
        return TimePoly(-self.coeffs)

    def __repr__(self):
        return f"TimePoly({list(self.coeffs)})"

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))


def poly_t(power: int) -> TimePoly:
    """The monomial t**power."""
    c = np.zeros(power + 1)
    c[power] = 1.0
    return TimePoly(c)


def bump(t0: float, t1: float, order: int = 4) -> TimePoly:
    """Polynomial bump ((t-t0)(t1-t))**order, normalized to peak value 1.

    Vanishes together with its first order-1 derivatives at t0 and t1, a
    polynomial stand-in for a smooth compactly supported test function.
    """
    if not t1 > t0:
        raise ValueError("need t1 > t0")
    base = TimePoly([-t0, 1.0]) * TimePoly([t1, -1.0])
    out = TimePoly([1.0])
    for _ in range(order):
        out = out * base
    peak = ((t1 - t0) / 2.0) ** (2 * order)
    return out * (1.0 / peak)
