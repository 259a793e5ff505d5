"""Discretized free-boson operator calculus.

Functionals of the mode paths tau_k(t_j) are sparse polynomials in variables
x[k, j] (mode k = 1..K_max, grid slot j = 0..T).  The operators acting on
them -- multiplication by tau-modes, functional derivatives, kernel-convolved
derivatives, normal-ordered quadratics, and the time derivation f(t) d/dt --
are all at most quadratic with at most one multiplier per term, so every
operator decomposes exactly into five canonical fields

    const + x . xvec + d . dvec + sum_{a,u} XD[a,u] x_a d_u
          + sum_{u,v} DD[u,v] d_u d_v        (DD symmetric),

with multipliers to the left of derivatives (normal form).  Commutators are
then finite matrix algebra, exact up to floating-point rounding.

Dictionary of discretization conventions (all exact on the grid):
    delta(t - t')     ->  delta_{j j'} / dt
    integral dt       ->  sum_j dt
    delta/delta tau_k(t_j) -> (1/dt) d/dx[k, j]
    (K * delta/delta tau)_k(t_j) -> sum_{j' <= j} sum_l K_{kl}(t_j - t_{j'}) d/dx[l, j']
(the dt of the time integral cancels the 1/dt of the functional derivative in
the left-closed convolution, which includes the equal-time term K(0) = id).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fseries import TruncSeries
from .kernel import Potential, propagator_table
from .timefunc import TimePoly

__all__ = [
    "TimeGrid",
    "PolyFunctional",
    "BosonOperator",
    "apply",
    "static_boson",
    "dynamic_boson",
    "commutator",
    "commutator_probed",
    "normal_ordered_quadratic",
    "accumulate_quadratic",
    "time_derivation",
    "kernel_table",
]


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


def kernel_table(pot: Potential, grid: TimeGrid, k_max: int) -> np.ndarray:
    """K(j*dt) for j = 0..steps, shape (steps+1, k_max+1, k_max+1)."""
    return propagator_table(pot, grid.dt, grid.steps, k_max)


class PolyFunctional:
    """Sparse polynomial in the x[k, j]; monomials keyed by sorted vid tuples."""

    __slots__ = ("grid", "k_max", "terms")

    def __init__(self, grid: TimeGrid, k_max: int, terms=None):
        self.grid = grid
        self.k_max = k_max
        self.terms = dict(terms or {})
        for m in list(self.terms):
            if self.terms[m] == 0.0:
                del self.terms[m]

    def vid(self, k: int, j: int) -> int:
        if not (1 <= k <= self.k_max and 0 <= j <= self.grid.steps):
            raise ValueError(f"variable x[{k},{j}] outside mode/grid window")
        return (k - 1) * self.grid.nslots + j

    @classmethod
    def constant(cls, grid, k_max, value=1.0):
        return cls(grid, k_max, {(): value})

    def copy(self):
        return PolyFunctional(self.grid, self.k_max, self.terms)

    def add_term(self, monomial, coeff):
        if coeff == 0.0:
            return
        key = tuple(sorted(monomial))
        new = self.terms.get(key, 0.0) + coeff
        if new == 0.0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def __add__(self, other):
        out = self.copy()
        for m, c in other.terms.items():
            out.add_term(m, c)
        return out

    def __mul__(self, scalar):
        return PolyFunctional(self.grid, self.k_max, {m: c * scalar for m, c in self.terms.items()})

    __rmul__ = __mul__

    def max_abs_diff(self, other) -> float:
        keys = set(self.terms) | set(other.terms)
        return float(np.max([abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys], initial=0.0))


class BosonOperator:
    """Canonical-form operator on :class:`PolyFunctional`.

    Fields are allocated lazily; nvar = k_max * (steps + 1).  Variable ids
    follow vid(k, j) = (k-1) * nslots + j.
    """

    __slots__ = ("grid", "k_max", "const", "x", "d", "xd", "dd")

    def __init__(self, grid: TimeGrid, k_max: int):
        self.grid = grid
        self.k_max = k_max
        self.const = 0.0
        self.x = None
        self.d = None
        self.xd = None
        self.dd = None

    # -- layout helpers -------------------------------------------------

    @property
    def nvar(self) -> int:
        return self.k_max * self.grid.nslots

    def vid(self, k: int, j: int) -> int:
        if not (1 <= k <= self.k_max and 0 <= j <= self.grid.steps):
            raise ValueError(f"variable x[{k},{j}] outside mode/grid window")
        return (k - 1) * self.grid.nslots + j

    def vid_block(self, j_lo: int, j_hi: int) -> np.ndarray:
        """vids of x[k, j] for k = 1..k_max, j = j_lo..j_hi; shape (k_max, nj)."""
        ns = self.grid.nslots
        ks = np.arange(self.k_max)[:, None] * ns
        return ks + np.arange(j_lo, j_hi + 1)[None, :]

    def convolved_derivative(self, ktable, m: int, j: int):
        """(vids, values) of the kernel-convolved derivative of mode m at slot j,
        sum_{j' <= j} sum_l K_{ml}(t_j - t_j') d/dx[l, j'], without sqrt(beta)."""
        vids = self.vid_block(0, j).ravel()
        # ktable[j - j', m, l] for j' = 0..j -> (j+1, k_max) -> (k_max, j+1)
        vals = ktable[j::-1, m, 1:].T.ravel()
        return vids, vals

    def _ensure(self, name):
        if getattr(self, name) is None:
            n = self.nvar
            setattr(self, name, np.zeros(n) if name in ("x", "d") else np.zeros((n, n)))
        return getattr(self, name)

    # -- term builders ---------------------------------------------------

    def add_const(self, c):
        self.const += c

    def add_x(self, vid, c):
        self._ensure("x")[vid] += c

    def add_d(self, vid, c):
        self._ensure("d")[vid] += c

    def add_d_vec(self, vids, vals):
        np.add.at(self._ensure("d"), vids, vals)

    def add_x_vec(self, vids, vals):
        np.add.at(self._ensure("x"), vids, vals)

    def add_xd(self, a, u, c):
        self._ensure("xd")[a, u] += c

    def add_xd_row(self, a, u_vids, vals):
        np.add.at(self._ensure("xd")[a], u_vids, vals)

    def add_xd_block(self, rows, cols, vals):
        """xd[rows, cols] += vals for an index pair that names no entry twice."""
        self._ensure("xd")[rows, cols] += vals

    def add_dd(self, u, v, c):
        dd = self._ensure("dd")
        dd[u, v] += c / 2.0
        dd[v, u] += c / 2.0

    def add_dd_block(self, u_vids, v_vids, block):
        dd = self._ensure("dd")
        dd[np.ix_(u_vids, v_vids)] += block / 2.0
        dd[np.ix_(v_vids, u_vids)] += block.T / 2.0

    # -- algebra ----------------------------------------------------------

    def copy(self):
        out = BosonOperator(self.grid, self.k_max)
        out.const = self.const
        for f in ("x", "d", "xd", "dd"):
            v = getattr(self, f)
            if v is not None:
                setattr(out, f, v.copy())
        return out

    def _compatible(self, other):
        if self.grid != other.grid or self.k_max != other.k_max:
            raise ValueError("operators live on different grids or mode windows")

    def __iadd__(self, other):
        """Add other in place: the additions of ``self + other``, in its order."""
        self._compatible(other)
        self.const += other.const
        for f in ("x", "d", "xd", "dd"):
            v = getattr(other, f)
            if v is not None:
                cur = getattr(self, f)
                if cur is None:
                    setattr(self, f, v.copy())
                else:
                    cur += v
        return self

    def __add__(self, other):
        out = self.copy()
        out += other
        return out

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        out = BosonOperator(self.grid, self.k_max)
        out.const = self.const * scalar
        for f in ("x", "d", "xd", "dd"):
            v = getattr(self, f)
            if v is not None:
                setattr(out, f, v * scalar)
        return out

    __rmul__ = __mul__

    def field_max_abs(self, mask=None) -> float:
        """Max-abs over all canonical fields, optionally restricted to a
        variable mask (bool array over vids)."""
        vals = [abs(self.const)]
        for f in ("x", "d"):
            v = getattr(self, f)
            if v is not None:
                vals.append(np.max(np.abs(v if mask is None else v[mask]), initial=0.0))
        for f in ("xd", "dd"):
            v = getattr(self, f)
            if v is not None:
                vals.append(np.max(np.abs(v if mask is None else v[np.ix_(mask, mask)]), initial=0.0))
        return float(np.max(vals))

    def interior_mask(self, mode_max: int, j_lo: int, j_hi: int) -> np.ndarray:
        mask = np.zeros(self.nvar, dtype=bool)
        ns = self.grid.nslots
        for k in range(1, mode_max + 1):
            mask[(k - 1) * ns + j_lo : (k - 1) * ns + j_hi + 1] = True
        return mask


def _commutator_affine(a: BosonOperator, b: BosonOperator) -> BosonOperator:
    """The const, x and d fields of [a, b], in a new operator without x-d or d-d field."""
    a._compatible(b)
    out = BosonOperator(a.grid, a.k_max)
    ax, ad, axd, add_ = a.x, a.d, a.xd, a.dd
    bx, bd, bxd, bdd = b.x, b.d, b.xd, b.dd

    if ad is not None and bx is not None:
        out.const += float(ad @ bx)
    if bd is not None and ax is not None:
        out.const -= float(bd @ ax)

    if axd is not None and bx is not None:
        out.x = (out.x if out.x is not None else 0) + axd @ bx
    if bxd is not None and ax is not None:
        out.x = (out.x if out.x is not None else 0) - bxd @ ax
    if out.x is not None:
        out.x = np.asarray(out.x, dtype=float)

    dpart = None
    if bxd is not None and ad is not None:
        dpart = bxd.T @ ad
    if axd is not None and bd is not None:
        dpart = (dpart if dpart is not None else 0) - axd.T @ bd
    if add_ is not None and bx is not None:
        dpart = (dpart if dpart is not None else 0) + 2.0 * (add_ @ bx)
    if bdd is not None and ax is not None:
        dpart = (dpart if dpart is not None else 0) - 2.0 * (bdd @ ax)
    if dpart is not None:
        out.d = np.asarray(dpart, dtype=float)
    return out


def commutator(a: BosonOperator, b: BosonOperator) -> BosonOperator:
    """[a, b] = ab - ba, exactly, in canonical normal form."""
    out = _commutator_affine(a, b)
    axd, add_, bxd, bdd = a.xd, a.dd, b.xd, b.dd

    if axd is not None and bxd is not None:
        out.xd = axd @ bxd - bxd @ axd

    ddpart = None
    if add_ is not None and bxd is not None:
        m = add_ @ bxd
        ddpart = m + m.T
    if bdd is not None and axd is not None:
        m = bdd @ axd
        ddpart = (ddpart if ddpart is not None else 0) - (m + m.T)
    if ddpart is not None:
        out.dd = np.asarray(ddpart, dtype=float)
    return out


def commutator_probed(a: BosonOperator, b: BosonOperator, vecs: np.ndarray):
    """[a, b] with its x-d and d-d fields read only through probe vectors.

    Returns (op, xd_v, dd_v): op holds the const, x and d fields of
    :func:`commutator` (same formulas, same bits), and xd_v, dd_v are that
    commutator's x-d and d-d fields times vecs, shape (nvar, n), or None
    where it has no such field.  Each field is applied to vecs one factor at
    a time, e.g. xd_v = A (B vecs) - B (A vecs) for the x-d fields A, B of
    a, b, so no nvar x nvar product is formed.
    """
    out = _commutator_affine(a, b)
    axd, add_, bxd, bdd = a.xd, a.dd, b.xd, b.dd

    xd_v = None
    if axd is not None and bxd is not None:
        xd_v = axd @ (bxd @ vecs) - bxd @ (axd @ vecs)

    # (m + m.T) vecs with m = add_ bxd, and m = bdd axd
    dd_v = None
    if add_ is not None and bxd is not None:
        dd_v = add_ @ (bxd @ vecs) + bxd.T @ (add_.T @ vecs)
    if bdd is not None and axd is not None:
        part = bdd @ (axd @ vecs) + axd.T @ (bdd.T @ vecs)
        dd_v = -part if dd_v is None else dd_v - part
    return out, xd_v, dd_v


def apply(op: BosonOperator, f: PolyFunctional) -> PolyFunctional:
    """Exact symbolic application of op to a sparse polynomial functional."""
    if op.grid != f.grid or op.k_max != f.k_max:
        raise ValueError("grid/cutoff mismatch between operator and functional")
    out = PolyFunctional(f.grid, f.k_max)

    def derive(monomial, u):
        """(multiplicity, monomial with one u removed) or (0, None)."""
        cnt = monomial.count(u)
        if cnt == 0:
            return 0, None
        lst = list(monomial)
        lst.remove(u)
        return cnt, tuple(lst)

    for mono, coeff in f.terms.items():
        if op.const != 0.0:
            out.add_term(mono, op.const * coeff)
        if op.x is not None:
            for a in np.nonzero(op.x)[0]:
                out.add_term(mono + (int(a),), op.x[a] * coeff)
        distinct = sorted(set(mono))
        if op.d is not None:
            for u in distinct:
                cnt, rest = derive(mono, u)
                if op.d[u] != 0.0:
                    out.add_term(rest, op.d[u] * cnt * coeff)
        if op.xd is not None:
            for u in distinct:
                cnt, rest = derive(mono, u)
                col = op.xd[:, u]
                for a in np.nonzero(col)[0]:
                    out.add_term(rest + (int(a),), col[a] * cnt * coeff)
        if op.dd is not None:
            for u in distinct:
                cnt_u, rest_u = derive(mono, u)
                for v in sorted(set(rest_u)):
                    cnt_v, rest_uv = derive(rest_u, v)
                    q = op.dd[u, v] + op.dd[v, u]
                    if q != 0.0 and u < v:
                        # each unordered pair (u, v), u != v, appears once here
                        out.add_term(rest_uv, q * cnt_u * cnt_v * coeff)
                if cnt_u >= 2:
                    cnt2, rest2 = derive(rest_u, u)
                    out.add_term(rest2, op.dd[u, u] * cnt_u * cnt2 * coeff)
    return out


# ----------------------------------------------------------------------
# field mode operators


def static_boson(k: int, j: int, beta: float, grid: TimeGrid, k_max: int) -> BosonOperator:
    """Static free-boson mode: derivative for k >= 1, multiplier for k <= -1.

    phi_k(t_j) = sqrt(beta) (1/dt) d/dx[k, j] for k >= 1;
    phi_{-k}(t_j) = k tau_k(t_j) / sqrt(beta); phi_0 = 0.
    """
    op = BosonOperator(grid, k_max)
    if k == 0:
        return op
    if abs(k) > k_max:
        raise ValueError("mode outside window")
    if k >= 1:
        op.add_d(op.vid(k, j), np.sqrt(beta) / grid.dt)
    else:
        op.add_x(op.vid(-k, j), abs(k) / np.sqrt(beta))
    return op


def dynamic_boson(
    k: int, j: int, pot: Potential, n_particles: float, grid: TimeGrid, k_max: int, ktable=None
) -> BosonOperator:
    """Dynamic free-boson mode.

    psi_{-k} coincides with the static multiplier; psi_0 = -sqrt(beta) N;
    psi_k(t_j) = sqrt(beta) sum_{j'<=j} sum_l K_{kl}(t_j - t_{j'}) d/dx[l, j']
    for k >= 1 (kernel-convolved derivative).
    """
    op = BosonOperator(grid, k_max)
    if abs(k) > k_max:
        raise ValueError("mode outside window")
    if k == 0:
        op.add_const(-np.sqrt(pot.beta) * n_particles)
        return op
    if k <= -1:
        return static_boson(k, j, pot.beta, grid, k_max)
    if ktable is None:
        ktable = kernel_table(pot, grid, k_max)
    vids, vals = op.convolved_derivative(ktable, k, j)
    op.add_d_vec(vids, np.sqrt(pot.beta) * vals)
    return op


def accumulate_quadratic(
    op: BosonOperator,
    field: str,
    weight: TruncSeries,
    slots,
    scales,
    pot: Potential,
    n_particles: float,
    ktable=None,
    parts: str = "full",
) -> None:
    """Add sum_i scales[i] * contour{ weight(z) :field(z, t_j)**2: dz } with
    j = slots[i] onto op, over all listed slots in one call; ``slots`` is
    increasing.

    ``field`` is "static" or "dynamic".  The residue selects ordered mode
    pairs (m, n) with m + n = p - 1 per weight power z^p, each unordered pair
    appearing twice (so the usual displays carry a 1/2).  Normal ordering
    puts tau-multipliers left of derivatives; the zero mode enters as the
    scalar -sqrt(beta) N for the dynamic field and drops for the static one.
    With parts="affine" only the scalar / x-linear / d-linear pieces are
    accumulated (enough for order-tau^0 residuals on long grids).

    The multiplier-derivative rows are written as one block per mode pair
    over all slots: the multiplier at slot j owns its x-d row, so no sum
    crosses slots there.  Each derivative mode's Toeplitz view of the kernel
    is taken once per call, and each dynamic block is added in place into
    the row slice of the slots from the first to the last live one.  The
    scalar, d-linear and d-d pieces do sum across slots and are added slot
    by slot, in slot order.  Every entry receives the same additions in the
    same order as a slot-by-slot build.
    """
    if field not in ("static", "dynamic"):
        raise ValueError("field must be 'static' or 'dynamic'")
    if parts not in ("full", "affine"):
        raise ValueError("parts must be 'full' or 'affine'")
    slots = np.asarray(slots, dtype=int)
    scales = np.asarray(scales, dtype=float)
    if slots.ndim != 1 or slots.shape != scales.shape:
        raise ValueError("slots and scales must be 1-d arrays of one length")
    if slots.size == 0:
        return
    grid, k_max = op.grid, op.k_max
    if slots[0] < 0 or slots[-1] > grid.steps or np.any(np.diff(slots) <= 0):
        raise ValueError("slots must be increasing slots of the grid")
    ns = grid.nslots
    beta = pot.beta
    sb = np.sqrt(beta)
    s0 = -sb * n_particles

    def deriv_vec(m, j):
        """(vids, values) of the derivative part of mode m >= 1 at slot j, without sqrt(beta)."""
        if field == "static":
            return np.array([op.vid(m, j)]), np.array([1.0 / grid.dt])
        return op.convolved_derivative(ktable, m, j)

    # per weight power: the x-d pairs (multiplier mode, derivative mode) and
    # the pairs whose sums cross slots, both in the order m = -k_max..k_max
    powers = []
    for p, up in weight.items():
        if p < 0:
            raise ValueError("quadratic weights must lie in the non-negative half")
        if p - 1 > 2 * k_max:
            raise ValueError("weight power shifts every mode pair outside the window")
        xd_pairs, slot_pairs = [], []
        for m in range(-k_max, k_max + 1):
            n = p - 1 - m
            if not -k_max <= n <= k_max:
                continue
            if m <= -1 and n <= -1:
                raise AssertionError("multiplier-multiplier pair cannot occur for p >= 0")
            if m == 0 or n == 0:
                if field == "dynamic":  # phi_0 = 0
                    slot_pairs.append((m, n))
            elif parts == "affine":
                continue
            elif m >= 1 and n >= 1:
                slot_pairs.append((m, n))
            else:
                xd_pairs.append((-min(m, n), max(m, n)))
        powers.append((up, xd_pairs, slot_pairs))

    # the dynamic x-d rows of slots lo..hi-1 are written as one row slice; a
    # slot between live ones takes scale 0 and so adds only zeros to its row
    lo, hi = int(slots[0]), int(slots[-1]) + 1
    row_scales = scales
    if field == "dynamic":
        row_scales = np.zeros(hi - lo)
        row_scales[slots - lo] = scales
    toeps, buf = {}, None
    for up, xd_pairs, _ in powers:
        ups = up * row_scales
        for mult, der in xd_pairs:
            base = (mult - 1) * ns
            c = ups * mult
            if field == "static":
                op.add_xd_block(base + slots, (der - 1) * ns + slots, c * (1.0 / grid.dt))
                continue
            if der not in toeps:
                # toep[j, l-1, j'] = K_{der,l}(t_j - t_j') for j' <= j and 0 above: a
                # lower-triangular Toeplitz view of each kernel column, taken per l
                padded = np.concatenate((ktable[::-1, der, 1:].T, np.zeros((k_max, ns - 1))), axis=1)
                toeps[der] = sliding_window_view(padded, ns, axis=1)[:, ::-1].transpose(1, 0, 2)
            buf = np.empty((hi - lo, k_max, ns)) if buf is None else buf
            np.multiply(toeps[der][lo:hi], c[:, None, None], out=buf)
            op._ensure("xd")[base + lo : base + hi] += buf.reshape(hi - lo, op.nvar)

    for j, scale in zip(slots.tolist(), scales):
        for up, _, slot_pairs in powers:
            up = up * scale
            for m, n in slot_pairs:
                if m == 0 or n == 0:
                    other = n if m == 0 else m
                    if other == 0:
                        op.add_const(up * s0 * s0)
                    elif other >= 1:
                        vids, vals = deriv_vec(other, j)
                        op.add_d_vec(vids, up * s0 * sb * vals)
                    else:
                        op.add_x(op.vid(-other, j), up * s0 * abs(other) / sb)
                else:
                    vu, au = deriv_vec(m, j)
                    vv, av = deriv_vec(n, j)
                    op.add_dd_block(vu, vv, up * beta * np.outer(au, av))


def normal_ordered_quadratic(
    field: str,
    weight: TruncSeries,
    j: int,
    pot: Potential,
    n_particles: float,
    grid: TimeGrid,
    k_max: int,
    ktable=None,
) -> BosonOperator:
    """Contour integral of weight(z) :field(z, t_j)**2: dz; see
    :func:`accumulate_quadratic` for conventions."""
    op = BosonOperator(grid, k_max)
    if field == "dynamic" and ktable is None:
        ktable = kernel_table(pot, grid, k_max)
    accumulate_quadratic(op, field, weight, [j], [1.0], pot, n_particles, ktable)
    return op


def time_derivation(f: TimePoly, grid: TimeGrid, k_max: int) -> BosonOperator:
    """Grid realization of the time derivation f(t) d/dt on functionals.

    Acts as sum_{k,j} f(t_j) (D x)[k, j] d/dx[k, j] with D the centered
    difference (one-sided at the ends).  Its commutator action reproduces
    both duality rules: on multiplier profiles it yields minus the discrete
    derivative of (f g), on derivative profiles minus f times the profile's
    discrete derivative.
    """
    op = BosonOperator(grid, k_max)
    t = grid.times
    fj = f(t)
    ns = grid.nslots
    dmat = np.zeros((ns, ns))
    for jj in range(1, ns - 1):
        dmat[jj, jj + 1] = 0.5 / grid.dt
        dmat[jj, jj - 1] = -0.5 / grid.dt
    dmat[0, 1], dmat[0, 0] = 1.0 / grid.dt, -1.0 / grid.dt
    dmat[ns - 1, ns - 1], dmat[ns - 1, ns - 2] = 1.0 / grid.dt, -1.0 / grid.dt
    xd = op._ensure("xd")
    block = (fj[None, :] * dmat.T)  # [j'', j] = f_j D[j, j'']
    for k in range(1, k_max + 1):
        sl = np.s_[(k - 1) * ns : k * ns]
        xd[sl, sl] += block
    return op
