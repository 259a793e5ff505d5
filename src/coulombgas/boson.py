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

import math

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .fseries import TruncSeries
from .kernel import Potential, propagator_table
from .timefunc import TimeGrid, TimePoly

__all__ = [
    "PolyFunctional",
    "BosonOperator",
    "SlotField",
    "apply",
    "static_boson",
    "dynamic_boson",
    "commutator",
    "commutator_probed",
    "normal_ordered_quadratic",
    "accumulate_quadratic",
    "time_derivation",
    "kernel_table",
    "kernel_toeplitz",
]


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
    def constant(cls, grid, k_max):
        return cls(grid, k_max, {(): 1.0})

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


def _lags(ktable: np.ndarray, modes, k: int, ns: int) -> np.ndarray:
    """lags[j, c, l - 1, j'] = K_{modes[c], l}(t_j - t_j') for slots j, j' < ns and
    l = 1..k, 0 for j' > j: a read-only strided view of
    padded[c, l - 1, ns - 1 + m] = K_{modes[c], l}(-m dt), 0 for m > 0."""
    padded = np.zeros((len(modes), k, 2 * ns - 1))
    padded[:, :, :ns] = ktable[ns - 1 :: -1, modes, 1 : k + 1].transpose(1, 2, 0)
    sc, sl, sj = padded.strides
    return as_strided(padded[:, :, ns - 1 :], (ns, len(modes), k, ns), (-sj, sc, sl, sj), writeable=False)


def kernel_toeplitz(ktable: np.ndarray, k_max: int) -> np.ndarray:
    """The read-only (k_max, ns, nvar) stack of the convolved derivative rows
    T_d[j, (l-1) ns + j'] = K_{d,l}(t_j - t_j'), j' <= j (0 above): the basis
    that the slot fields on one (potential, grid) share."""
    ns = ktable.shape[0]
    out = _lags(ktable, list(range(1, k_max + 1)), k_max, ns).transpose(1, 0, 2, 3).reshape(k_max, ns, -1)
    out.flags.writeable = False
    return out


class SlotField:
    """An x-d field sum E_m diag(coef[m-1, b, d-1]) B[b, d] (E_m: rows of mode
    m) or d-d field (``sym``) sum B[b, m]^T diag(coef[m-1, b, n-1]) B[b, n]
    over ns x nvar matrices: B[0, d] = T_d of ``basis`` (:func:`kernel_toeplitz`)
    and B[b, d] selecting x[d, j + b - 2] (0 off the grid).  It acts on (nvar, q)
    blocks through ``@`` and ``.T @`` as a dense field; + and * act on coef."""

    __slots__ = ("basis", "sym", "coef", "adjoint")

    def __init__(self, basis: np.ndarray, sym: bool, coef=None, adjoint=False):
        k, ns = basis.shape[:2]
        self.basis, self.sym, self.adjoint = basis, sym, adjoint
        self.coef = np.zeros((k, 4, k, ns)) if coef is None else coef

    def _rows(self, v):
        """B[b, d] v for all b, d: shape (4, k_max, ns, q), one GEMM."""
        vv = v.reshape(self.basis.shape[0], self.basis.shape[1], -1)
        out = np.zeros((4,) + vv.shape)
        out[0] = (self.basis.reshape(v.shape[0], -1) @ v).reshape(vv.shape)
        out[1, :, 1:], out[2], out[3, :, :-1] = vv[:, :-1], vv, vv[:, 1:]
        return out

    def _cols(self, w):
        """The sum of B[b, d]^T w[b, d] over b and d: shape (nvar, q), one GEMM."""
        out = w[2].copy()
        out[:, :-1] += w[1, :, 1:]
        out[:, 1:] += w[3, :, :-1]
        out = out.reshape(-1, w.shape[-1])
        return out + self.basis.reshape(out.shape[0], -1).T @ w[0].reshape(out.shape)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The field times v, shape (nvar, q)."""
        if self.sym:
            return self._cols(np.einsum("mbnj,bnjq->bmjq", self.coef, self._rows(v))).reshape(v.shape)
        return np.einsum("mbdj,bdjq->mjq", self.coef, self._rows(v)).reshape(v.shape)

    def apply_T(self, u: np.ndarray) -> np.ndarray:
        """The transposed field times u, shape (nvar, q)."""
        if self.sym:
            return self.apply(u)
        uu = u.reshape(self.basis.shape[0], self.basis.shape[1], -1)
        return self._cols(np.einsum("mbdj,mjq->bdjq", self.coef, uu)).reshape(u.shape)

    def __matmul__(self, v):
        return self.apply_T(v) if self.adjoint else self.apply(v)

    T = property(lambda self: SlotField(self.basis, self.sym, self.coef, not self.adjoint))

    def copy(self):
        return SlotField(self.basis, self.sym, self.coef.copy())

    def __iadd__(self, other):
        if other.basis is not self.basis or other.sym != self.sym:
            raise ValueError("slot fields of different bases or kinds")
        self.coef += other.coef
        return self

    def __mul__(self, scalar):
        return SlotField(self.basis, self.sym, self.coef * scalar)


class BosonOperator:
    """Canonical-form operator on :class:`PolyFunctional`.

    Fields are allocated lazily; nvar = k_max * (steps + 1).  Variable ids
    follow vid(k, j) = (k-1) * nslots + j.  The x-d and d-d fields are dense,
    or :class:`SlotField` objects over ``basis`` (:func:`kernel_toeplitz`).
    """

    __slots__ = ("grid", "k_max", "basis", "const", "x", "d", "xd", "dd")

    def __init__(self, grid: TimeGrid, k_max: int, basis: np.ndarray | None = None):
        self.grid = grid
        self.k_max = k_max
        self.basis = basis
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

    def _ensure(self, name):
        if getattr(self, name) is None:
            n = self.nvar
            if name in ("x", "d") or self.basis is None:
                setattr(self, name, np.zeros(n) if name in ("x", "d") else np.zeros((n, n)))
            else:
                setattr(self, name, SlotField(self.basis, name == "dd"))
        return getattr(self, name)

    # -- term builders ---------------------------------------------------

    def add_const(self, c):
        self.const += c

    def add_x(self, vid, c):
        self._ensure("x")[vid] += c

    def add_d(self, vid, c):
        self._ensure("d")[vid] += c

    def add_x_vec(self, vids, vals):
        np.add.at(self._ensure("x"), vids, vals)

    def add_xd(self, a, u, c):
        self._ensure("xd")[a, u] += c

    def add_xd_rows(self, mult, b, der, lo, coef, basis=None):
        """Add coef[i] times row lo + i of B[b, der] (:class:`SlotField`; T_der from ``basis``
        for a dense field) to the x-d row of x[mult, lo + i]; slot lo + i + b - 2 is on the grid."""
        xd, ns, rows = self._ensure("xd"), self.grid.nslots, slice(lo, lo + coef.size)
        if self.basis is not None:
            xd.coef[mult - 1, b, der - 1, rows] += coef
        elif b == 0:
            xd[(mult - 1) * ns :][rows] += basis[der - 1, rows] * coef[:, None]
        else:
            r = np.arange(lo, rows.stop)
            xd[(mult - 1) * ns + r, (der - 1) * ns + r + b - 2] += coef

    def add_xd_block(self, rows, cols, vals):
        """xd[rows, cols] += vals for an index pair that names no entry twice."""
        self._ensure("xd")[rows, cols] += vals

    def add_dd(self, u, v, c):
        dd = self._ensure("dd")
        dd[u, v] += c / 2.0
        dd[v, u] += c / 2.0

    # -- algebra ----------------------------------------------------------

    def copy(self):
        out = BosonOperator(self.grid, self.k_max, self.basis)
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
        out = BosonOperator(self.grid, self.k_max, self.basis)
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
    _add_convolved(op._ensure("d").reshape(k_max, grid.nslots), ktable, [k], np.full((1, 1), np.sqrt(pot.beta)), j)
    return op


# bytes per stack of one ordered reduce: it stays in cache (256 KiB stacks raised langevin-stored's peak RSS by 0.2 MB)
_REDUCE_BLOCK_BYTES = 1 << 17


def _add_convolved(d: np.ndarray, ktable: np.ndarray, modes, coefs: np.ndarray, first: int) -> None:
    """d[l - 1, j'] += coefs[i, c] K_{modes[c], l}(t_j - t_j') for every slot
    j = first + i >= j', each entry's terms in the order (i, c) after its value.

    Per tile of slots and columns, one axis-0 ``np.add.reduce`` of a stack
    (at most _REDUCE_BLOCK_BYTES) of the d block and the tile's terms: it adds
    slice by slice while two or more entries are kept (numpy sums a lone one
    pairwise), so a tile has two columns at least.  Zero coefficients and
    columns past their slot add +-0, which leaves every value but -0 as it is.
    """
    k, ns = d.shape
    n, nc = coefs.shape
    lags = _lags(ktable, modes, k, ns)
    width = max(2, math.isqrt(_REDUCE_BLOCK_BYTES // (8 * k * nc)))
    lo = 0
    while lo < min(ns, first + n):
        hi = ns if ns - lo < width + 2 else lo + width  # no lone column is left over
        per = max(1, (_REDUCE_BLOCK_BYTES // (8 * k * (hi - lo)) - 1) // nc)  # slots per tile
        for i in range(max(0, lo - first), n, per):
            e = min(i + per, n)
            stack = np.empty((1 + (e - i) * nc, k, hi - lo))
            stack[0] = d[:, lo:hi]
            terms = lags[first + i : first + e, :, :, lo:hi]
            np.multiply(coefs[i:e, :, None, None], terms, out=stack[1:].reshape(terms.shape))
            d[:, lo:hi] = np.add.reduce(stack, axis=0)
        lo = hi


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

    Every entry takes the additions of a build slot by slot, in slot order,
    each slot's (power, pair) combos in order.  The x-d rows, zero-mode x
    pieces and slot-field d-d coefficients, whose entries each take terms
    from one slot, are added one combo at a time over all slots (an x-d row
    block is one coefficient per slot, from the first live slot to the last,
    of the rows of T_der, or of the selection of mode der times 1/dt for the
    static field).  The zero-mode d pieces go through one ordered reduction
    (:func:`_add_convolved`); the scalar and a dense d-d field, which reads
    the x-d blocks' rows, are added slot by slot.
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
    beta = pot.beta
    sb = np.sqrt(beta)
    s0 = -sb * n_particles

    # per weight power, the x-d pairs (multiplier mode, derivative mode); over
    # all powers, the (power, pair) combos of each other piece: scalar, d-linear,
    # x-linear and d-d; all in the order m = -k_max..k_max per power
    powers, const_ups, d_combos, x_combos, dd_combos = [], [], [], [], []
    for p, up in weight.items():
        if p < 0:
            raise ValueError("quadratic weights must lie in the non-negative half")
        if p - 1 > 2 * k_max:
            raise ValueError("weight power shifts every mode pair outside the window")
        xd_pairs = []
        for m in range(-k_max, k_max + 1):
            n = p - 1 - m
            if not -k_max <= n <= k_max:
                continue
            if m <= -1 and n <= -1:
                raise AssertionError("multiplier-multiplier pair cannot occur for p >= 0")
            if m == 0 or n == 0:
                if field == "static":  # phi_0 = 0
                    continue
                if m + n == 0:
                    const_ups.append(up)
                else:  # the nonzero mode of the pair
                    (d_combos if m + n >= 1 else x_combos).append((up, m + n))
            elif parts == "affine":
                continue
            elif m >= 1 and n >= 1:
                dd_combos.append((up, m, n))
            else:
                xd_pairs.append((-min(m, n), max(m, n)))
        powers.append((up, xd_pairs))

    # the x-d rows of slots lo..hi-1 are added as one row slice per mode pair;
    # a slot between live ones takes scale 0 and so adds only zeros to its row
    lo, hi = int(slots[0]), int(slots[-1]) + 1
    row_scales = np.zeros(hi - lo)
    row_scales[slots - lo] = scales
    basis = op.basis
    if basis is None and field == "dynamic" and (dd_combos or any(xd_pairs for _, xd_pairs in powers)):
        basis = kernel_toeplitz(ktable, k_max)  # the rows a dense field adds
    for up, xd_pairs in powers:
        ups = up * row_scales
        for mult, der in xd_pairs:
            c = ups * mult
            if field == "static":
                op.add_xd_rows(mult, 2, der, lo, c * (1.0 / grid.dt))
            else:
                op.add_xd_rows(mult, 0, der, lo, c, basis)

    ns = grid.nslots
    for scale in scales:
        for up in const_ups:
            op.add_const(up * scale * s0 * s0)
    if d_combos:  # a slot between live ones takes scale 0 and adds +-0
        coefs = np.stack([up * row_scales * s0 * sb for up, _ in d_combos], axis=1)
        _add_convolved(op._ensure("d").reshape(k_max, ns), ktable, [o for _, o in d_combos], coefs, lo)
    for up, other in x_combos:
        op.add_x_vec((-other - 1) * ns + slots, up * scales * s0 * abs(other) / sb)
    if op.basis is not None:  # (up beta / 2)(u v^T + v u^T) with u, v rows j of B[b, m], B[b, n]
        for up, m, n in dd_combos:
            b, w = (0, up * scales * beta) if field == "dynamic" else (2, up * scales * beta / grid.dt**2)
            coef = op._ensure("dd").coef
            coef[m - 1, b, n - 1, slots] += w / 2.0
            coef[n - 1, b, m - 1, slots] += w / 2.0
    elif dd_combos:  # the same sum, dense: rows j of T_m and T_n, or of the selections times 1/dt
        dd = op._ensure("dd")
        for j, scale in zip(slots.tolist(), scales):
            for up, m, n in dd_combos:
                w = up * scale * beta
                if field == "static":
                    op.add_dd(op.vid(m, j), op.vid(n, j), w * (1.0 / grid.dt * (1.0 / grid.dt)))
                else:
                    half = w * np.outer(basis[m - 1, j], basis[n - 1, j]) / 2.0
                    dd += half
                    dd += half.T


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


def time_derivation(f: TimePoly, grid: TimeGrid, k_max: int, basis: np.ndarray | None = None) -> BosonOperator:
    """Grid realization of the time derivation f(t) d/dt on functionals.

    Acts as sum_{k,j} f(t_j) (D x)[k, j] d/dx[k, j] with D the centered
    difference (one-sided at the ends).  Its commutator action reproduces
    both duality rules: on multiplier profiles it yields minus the discrete
    derivative of (f g), on derivative profiles minus f times the profile's
    discrete derivative.  With a ``basis`` its x-d field is a slot field of
    the selections B[s + 2, k], s = -1, 0, 1.
    """
    op = BosonOperator(grid, k_max, basis)
    ns = grid.nslots
    dmat = (np.eye(ns, k=1) - np.eye(ns, k=-1)) * (0.5 / grid.dt)
    dmat[0, :2] = -1.0 / grid.dt, 1.0 / grid.dt
    dmat[-1, -2:] = -1.0 / grid.dt, 1.0 / grid.dt
    fd = (f(grid.times)[:, None] * dmat).T  # [j'', j] = f_j D[j, j'']
    for s in (-1, 0, 1):  # the x-d row of x[k, j''] reads x[k, j'' + s]
        for k in range(1, k_max + 1):
            op.add_xd_rows(k, s + 2, k, max(0, -s), np.diagonal(fd, s))
    return op
