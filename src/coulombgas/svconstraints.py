"""Equilibrium and dynamical constraint operators, and their algebra.

Builds the single-time Virasoro-type constraint operators acting on the
equilibrium generating function, and the two families of time-dependent
constraint operators (labels n = -1 and n = 0) acting on the trajectory
generating functional.  Verifies the closed bracket relations among the
quadratic and linear parts, the explicit Gaussian-case cancellation pairs,
and estimates order-tau^0 constraint residuals on Monte Carlo data.

Every time-dependent operator is assembled from the boson module's canonical
fields, so bracket checks are exact matrix algebra; the only O(dt) residuals
come from the left-closed time quadratures and centered time differences.

Conventions.  For the label functions we use the normalization in which

    L_{-1}[a] = integral dt { beta^(-1/2) [ a''(t) (z psi)-mode
                                            - a(t) ((beta/2-1) b'' + b'b)-modes ]
                - 1/2 a'(t) :psi^2: - 1/2 a(t) ( b' :psi^2: + :phi^2: ) }

    L_0[a] = -a d/dt + 1/2 beta^(-1/2) integral dt [ 1/2 a''' (z^2 psi)-mode
                 - a' ((beta/2-1)(zb)'' + (zb)'b)-modes ]
             + (beta/2-1)/2 N integral a'' dt
             - 1/2 integral dt [ 1/2 a'' z :psi^2: + 1/2 a' ( (zb)' :psi^2:
                                                              + z :phi^2: ) ]

(the quadratic a-terms enter with the minus sign forced by the derivation
and by the Gaussian-case displays; a doubled normalization L_0[2a] with
differential part -2a d/dt appears in intermediate computations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boson import (
    BosonOperator,
    _add_convolved,
    accumulate_quadratic,
    commutator,
    commutator_probed,
    kernel_table,
    kernel_toeplitz,
    time_derivation,
)
from .fseries import TruncSeries, differentiate, mul
from .kernel import Potential
from .timefunc import TimeGrid, TimePoly, bump, poly_t

__all__ = [
    "ConstraintOp",
    "equilibrium_virasoro_op",
    "build_dynamical_constraint",
    "BracketFamily",
    "quadr_family_op",
    "lin_family_op",
    "verify_sv_algebra_quadratic",
    "verify_sv_algebra_linear",
    "hermite_cancellation_pairs",
    "hermite_lin_quadr_bracket",
    "constraint_functional",
    "constraint_residual_mc",
    "EQ_GRID",
]

#: single-slot grid carrier for equilibrium (one-time) operators; only slot
#: j = 0 is used and dt = 1 makes delta/delta tau = d/dx exactly.
EQ_GRID = TimeGrid(1.0, 2)


# ----------------------------------------------------------------------
# equilibrium constraints


def equilibrium_virasoro_op(n: int, pot: Potential, k_max: int) -> BosonOperator:
    """Constraint operator L_n^eq on the equilibrium tau-variables, n >= -1.

    L_n^eq = sum_k k tau_k d_{k+n} + (beta/2) sum_{k=1}^{n-1} d_k d_{n-k}
             + sum_l b_l d_{n+l+1} + (beta/2 - 1)(n+1) d_n,

    with d_m = d/dtau_m and every occurrence of the (absent) zero mode
    dropped.  Operators act on polynomials in tau_1..tau_K at the single
    equilibrium slot.
    """
    if n < -1:
        raise ValueError("equilibrium constraints start at n = -1")
    op = BosonOperator(EQ_GRID, k_max)
    j = 0
    for k in range(1, k_max + 1):
        kn = k + n
        if 1 <= kn <= k_max:
            op.add_xd(op.vid(k, j), op.vid(kn, j), float(k))
    for k in range(1, n):
        if n - k >= 1 and k <= k_max and n - k <= k_max:
            op.add_dd(op.vid(k, j), op.vid(n - k, j), pot.beta / 2.0)
    for l, bl in pot.b.items():
        m = n + l + 1
        if 1 <= m <= k_max:
            op.add_d(op.vid(m, j), bl)
    if n >= 1 and n <= k_max:
        op.add_d(op.vid(n, j), (pot.beta / 2.0 - 1.0) * (n + 1))
    return op


# ----------------------------------------------------------------------
# weight series for the dynamical families


def _z_pow(p: int) -> TruncSeries:
    return TruncSeries.monomial(p)


def _v_series(v_power: int) -> TruncSeries:
    if v_power not in (0, 1):
        raise ValueError("the closed families use v(z) = 1 or z only")
    return _z_pow(v_power)


def _vb(pot: Potential, v_power: int) -> TruncSeries:
    return mul(_v_series(v_power), pot.b_series())


def weight_quadr_mix(pot: Potential, v_power: int) -> TruncSeries:
    """(v b)'(z)."""
    return differentiate(_vb(pot, v_power))


def weight_lin(pot: Potential, v_power: int) -> TruncSeries:
    """(beta/2 - 1)(v b)'' + (v b)' b."""
    vb = _vb(pot, v_power)
    return (pot.beta / 2.0 - 1.0) * differentiate(differentiate(vb)) + mul(differentiate(vb), pot.b_series())


def _int_v(v_power: int) -> TruncSeries:
    """Antiderivative of v: z for v = 1, z^2/2 for v = z."""
    return TruncSeries.monomial(v_power + 1, 1.0 / (v_power + 1))


# ----------------------------------------------------------------------
# integrated operator builders


def integrated_psi_weight(weight: TruncSeries, coeffs, pot, n_particles, grid, k_max, ktable):
    """sum_j coeffs[j] dt * contour{ weight(z) psi(z, t_j) dz }.

    The residue picks psi-mode p per weight power z^p (p >= 0): mode 0 is the
    scalar -sqrt(beta) N, modes p >= 1 the kernel-convolved derivatives.

    Mode p adds sqrt(beta) c_j K_{p,l}((j - j') dt) to d[l, j'] for every
    slot j >= j' with c_j = coeffs[j] up dt, from the first slot with
    c_j != 0 to the last, by one ordered reduction per power
    (:func:`boson._add_convolved`): every entry takes its terms in
    ascending j, after those of the powers before.  A slot with c_j = 0
    adds +-0, which leaves d as it is (d starts at +0 and never reaches -0).
    """
    op = BosonOperator(grid, k_max)
    coeffs = np.asarray(coeffs, dtype=float)
    sb = np.sqrt(pot.beta)
    dt = grid.dt
    for p, up in weight.items():
        if p < 0:
            raise ValueError("psi weights must lie in the non-negative half")
        if p == 0:
            op.add_const(-sb * n_particles * up * float(np.sum(coeffs)) * dt)
            continue
        if p > k_max:
            raise ValueError(f"weight power {p} outside the mode window")
        c = coeffs * up * dt
        live = np.flatnonzero(c)
        if live.size:
            d = op._ensure("d").reshape(k_max, grid.nslots)  # d[l - 1, j'] = d/dx[l, j']
            _add_convolved(d, ktable, [p], (sb * c[live[0] : live[-1] + 1])[:, None], live[0])
    return op


def integrated_quadratic(field, weight, coeffs, pot, n_particles, grid, k_max, ktable, parts="full", basis=None):
    """sum_j coeffs[j] dt * contour{ weight(z) :field(z, t_j)^2: dz }.

    One :func:`accumulate_quadratic` call assembles every slot with a
    nonzero coefficient (scale coeffs[j] dt); zero slots add nothing.
    """
    op = BosonOperator(grid, k_max, basis)
    coeffs = np.asarray(coeffs, dtype=float)
    slots = np.flatnonzero(coeffs != 0.0)
    accumulate_quadratic(op, field, weight, slots, coeffs[slots] * grid.dt, pot, n_particles, ktable, parts)
    return op


def quadr_core(v_power, c_psi: TimePoly, c_mix: TimePoly, pot, n_particles, grid, k_max, ktable, parts="full", basis=None):
    """Non-differential quadratic family member with explicit coefficients:

        integral dt { -1/2 c_psi(t) [v :psi^2:] - 1/2 c_mix(t) [(vb)' :psi^2:
                                                                 + v :phi^2:] }.

    The coefficients are polynomials, evaluated on the grid slots.  With
    parts="affine" only the scalar, x- and d-linear pieces of the quadratics
    are built (see :func:`accumulate_quadratic`); ``basis`` as in :func:`quadr_family_op`.
    """
    t = grid.times
    cp = c_psi(t)
    cm = c_mix(t)
    args = (pot, n_particles, grid, k_max, ktable, parts, basis)
    op = integrated_quadratic("dynamic", _v_series(v_power), -0.5 * cp, *args)
    op += integrated_quadratic("dynamic", weight_quadr_mix(pot, v_power), -0.5 * cm, *args)
    op += integrated_quadratic("static", _v_series(v_power), -0.5 * cm, *args)
    return op


def quadr_family_op(v_power, f: TimePoly, pot, n_particles, grid, k_max, ktable, basis=None):
    """Complete quadratic family member A_v[f], differential part included.

    A_1[f] is the n = -1 quadratic integrand with label f'; A_z[f] is the
    doubled-normalization n = 0 quadratic part, carrying -2 f d/dt.  With a
    ``basis`` (:func:`kernel_toeplitz` of ``ktable``) the x-d and d-d fields
    are slot fields over it, the time derivation's included.
    """
    op = quadr_core(v_power, f.deriv(2), f.deriv(1), pot, n_particles, grid, k_max, ktable, basis=basis)
    if v_power == 1:
        op += (-2.0) * time_derivation(f, grid, k_max, basis)
    return op


def lin_core(v_power, c_top: TimePoly, c_w: TimePoly, pot, n_particles, grid, k_max, ktable):
    """Linear family member with explicit coefficients:

        beta^(-1/2) integral dt { c_top(t) [(int v) psi] - c_w(t) [w_v psi] }
        + (v = z only) (beta/2 - 1) N integral c_w'(t) dt,

    where w_v = (beta/2-1)(vb)'' + (vb)'b.  The coefficients are
    polynomials, evaluated on the grid slots, and c_w' is exact.  The
    constant term is the total derivative that must integrate to zero for
    compactly supported labels; it is kept and reported rather than dropped.
    """
    t = grid.times
    sb_inv = 1.0 / np.sqrt(pot.beta)
    op = sb_inv * integrated_psi_weight(_int_v(v_power), c_top(t), pot, n_particles, grid, k_max, ktable)
    op += (-sb_inv) * integrated_psi_weight(weight_lin(pot, v_power), c_w(t), pot, n_particles, grid, k_max, ktable)
    if v_power == 1:
        cdot = c_w.deriv(1)(t)
        op.add_const((pot.beta / 2.0 - 1.0) * n_particles * float(np.sum(cdot)) * grid.dt)
    return op


def lin_family_op(v_power, f: TimePoly, pot, n_particles, grid, k_max, ktable):
    """Linear family member A_v^lin[f] (= lin part of L_{-1}[.] or L_0[2f]).

    The 1/(v+1) of the antiderivative weight (z^2/2 for v = z) is carried by
    the weight series itself, so the top coefficient is f''' for both v.
    """
    return lin_core(v_power, f.deriv(3), f.deriv(1), pot, n_particles, grid, k_max, ktable)


# ----------------------------------------------------------------------
# the dynamical constraints


@dataclass
class ConstraintOp:
    """Dynamical constraint operator: label n, test function a, three parts."""

    n: int
    a: TimePoly
    lin: BosonOperator
    quadr: BosonOperator
    diff: BosonOperator | None = None

    def total(self) -> BosonOperator:
        out = self.lin + self.quadr
        if self.diff is not None:
            out += self.diff
        return out


def _check_support(a: TimePoly, grid: TimeGrid):
    """a and its first three derivatives vanish at both grid ends, each
    measured against its own max on the grid (on a short window the r-th
    derivative grows like 1/t_max^r)."""
    tmax = grid.dt * grid.steps
    for r in range(4):
        d = a.deriv(r)
        scale = float(np.max(np.abs(d(grid.times))))
        if abs(d(0.0)) > 1e-9 * scale or abs(d(tmax)) > 1e-9 * scale:
            raise ValueError("test function must vanish with 3 derivatives at both grid ends")


def build_dynamical_constraint(
    n: int, a: TimePoly, pot: Potential, n_particles, grid: TimeGrid, k_max: int, parts="full"
) -> ConstraintOp:
    """Grid realization of the dynamical constraint operators, n in {-1, 0}.

    ``parts`` is "full" or "affine".  "affine" keeps only the pieces an
    order-tau^0 residual reads (scalar, x- and d-linear): the quadratics drop
    their x-d and d-d blocks and the n = 0 operator has no time derivation
    (``diff`` is None), so no dense nvar x nvar block is built.
    """
    if n not in (-1, 0):
        raise ValueError("dynamical constraints are built for n = -1 and n = 0")
    _check_support(a, grid)
    ktable = kernel_table(pot, grid, k_max)
    if n == -1:
        lin = lin_core(0, a.deriv(2), a, pot, n_particles, grid, k_max, ktable)
        quadr = quadr_core(0, a.deriv(1), a, pot, n_particles, grid, k_max, ktable, parts)
        return ConstraintOp(n, a, lin, quadr, None)
    lin = 0.5 * lin_core(1, a.deriv(3), a.deriv(1), pot, n_particles, grid, k_max, ktable)
    quadr = 0.5 * quadr_core(1, a.deriv(2), a.deriv(1), pot, n_particles, grid, k_max, ktable, parts)
    diff = None if parts == "affine" else (-1.0) * time_derivation(a, grid, k_max)
    return ConstraintOp(n, a, lin, quadr, diff)


# ----------------------------------------------------------------------
# bracket verification

#: Operators on functionals compose contravariantly relative to the
#: trajectory transformations that generate them (the realization is a Lie
#: anti-homomorphism: e.g. the time derivations obey [A_f, A_g] = A_{f'g-fg'}
#: while the vector fields f d/dt obey the opposite-sign relation).  The
#: displayed bracket relations therefore close with reversed orientation:
#: [A(f), A(g)] = BRACKET_ORIENTATION * (displayed right-hand side).
BRACKET_ORIENTATION = -1.0


def weak_probe_profiles(grid: TimeGrid, mode_int: int):
    """Degree <= 2 probe functionals: interior modes times smooth compactly
    supported time profiles (measure dt included)."""
    tmax = grid.dt * grid.steps
    shapes = [(bump(0.0, tmax, 2) * poly_t(p))(grid.times) for p in range(3)]
    return [(k, s) for k in range(1, mode_int + 1) for s in shapes]


def _probe_vectors(grid: TimeGrid, k_max: int, probes) -> list:
    """The probe functionals sum_j prof_j dt x[k, j] as vectors over vids."""
    ns = grid.nslots
    vecs = []
    for k, prof in probes:
        v = np.zeros(k_max * ns)
        v[(k - 1) * ns : k * ns] = prof * grid.dt
        vecs.append(v)
    return vecs


def _probe_score(op: BosonOperator, vecs, xd_p, dd_p) -> float:
    """The weak score of :func:`weak_field_score` from op's const, x and d
    fields and the probe pairings xd_p[i, k] = vecs[i] . (xd vecs[k]), and
    dd_p likewise (None for an absent field); op's own x-d and d-d fields
    are not read."""
    dt = op.grid.dt
    vals = [abs(op.const)]
    for u in vecs:
        if op.x is not None:
            vals.append(abs(float(op.x @ u)) / dt)
        if op.d is not None:
            vals.append(abs(float(op.d @ u)))
    if xd_p is not None:
        vals.append(np.max(np.abs(xd_p)) / dt)
    if dd_p is not None:
        vals.append(np.max(np.abs(dd_p)))
    return float(np.max(vals))


def weak_field_score(op: BosonOperator, probes) -> float:
    """Max matrix element of op between smooth degree <= 2 probe functionals.

    Entrywise kernel comparison is too strong for grid operators whose
    delta(t - t') parts are realized by different (weakly equivalent)
    stencils; pairing with smooth profiles measures exactly the operator
    content seen by degree <= 2 functionals built from smooth mode profiles.

    Measures per canonical field: derivative slots of an operator pair
    against probe functionals sum_j prof_j dt x[k, j] directly, while the
    operator's own multiplier output carries its time integral's dt weight,
    so x and x-d pairings are read against the bare dual profile (one 1/dt
    relative to the probe vector).

    The products xd @ w and dd @ w are formed once per probe w and paired
    with every left probe u one dot product at a time.
    """
    vecs = _probe_vectors(op.grid, op.k_max, probes)
    prods = {f: [getattr(op, f) @ w for w in vecs] for f in ("xd", "dd") if getattr(op, f) is not None}
    pairs = {f: np.array([[u @ p for p in ps] for u in vecs]) for f, ps in prods.items()}
    return _probe_score(op, vecs, pairs.get("xd"), pairs.get("dd"))


class _Probes:
    """The probe vectors of one (grid, mode_int), kept as a list, read one at
    a time as :func:`weak_field_score` reads them, and as the columns of
    ``vmat``, which each operator field multiplies once.

    An operator read through the probes is a :class:`BosonOperator` whose
    x-d and d-d fields hold that field times vmat, shape (nvar, n probes):
    sums and scalar multiples then act field by field as on any operator."""

    def __init__(self, grid: TimeGrid, k_max: int, mode_int: int):
        self.vecs = _probe_vectors(grid, k_max, weak_probe_profiles(grid, mode_int))
        self.vmat = np.stack(self.vecs, axis=1)

    def of(self, op: BosonOperator) -> BosonOperator:
        """A built operator read through the probes."""
        out = BosonOperator(op.grid, op.k_max)
        out.const, out.x, out.d = op.const, op.x, op.d
        out.xd, out.dd = (None if m is None else m @ self.vmat for m in (op.xd, op.dd))
        return out

    def bracket(self, a: BosonOperator, b: BosonOperator) -> BosonOperator:
        """[a, b] read through the probes (:func:`commutator_probed`)."""
        out, xd_v, dd_v = commutator_probed(a, b, self.vmat)
        out.xd, out.dd = xd_v, dd_v
        return out

    def score(self, op: BosonOperator) -> float:
        """The weak score of an operator read through the probes, each field's
        probe pairings from one GEMM."""
        pairings = lambda m: None if m is None else self.vmat.T @ m
        return _probe_score(op, self.vecs, pairings(op.xd), pairings(op.dd))

    def report(self, name, lhs: BosonOperator, rhs_displayed: BosonOperator) -> dict:
        """Residual and scale of lhs (read through the probes) ~ BRACKET_ORIENTATION * rhs_displayed."""
        rhs = BRACKET_ORIENTATION * self.of(rhs_displayed)
        resid = self.score(lhs - rhs)
        scale = float(np.max([self.score(lhs), self.score(rhs), 1e-30]))
        return {"relation": name, "residual": resid, "scale": scale, "relative": resid / scale}


class BracketFamily:
    """The bracket family of one (f, g, potential, N, grid, k_max, interior
    modes): its kernel table, its probes, and the eight members A_v[f],
    A_v[g], A_v^lin[f] and A_v^lin[g] (v = 1, z) that
    :func:`verify_sv_algebra_quadratic` and :func:`verify_sv_algebra_linear`
    read, each built once, on first use.

    A quadratic member holds its x-d and d-d fields as slot fields over one
    read-only :func:`kernel_toeplitz` basis, built with the first of them; a
    linear member has no such field.  The arrays of a kept member, slot-field
    coefficients included, are made read-only: the bracket checks only read
    their operands, and a write would corrupt every later read."""

    def __init__(self, f: TimePoly, g: TimePoly, pot: Potential, n_particles, grid: TimeGrid, k_max: int, mode_int: int):
        self.f, self.g, self.grid, self.k_max = f, g, grid, k_max
        self.ktable = kernel_table(pot, grid, k_max)
        self.args = (pot, n_particles, grid, k_max, self.ktable)  # every family builder's arguments after its labels
        self.probes = _Probes(grid, k_max, mode_int)
        self.basis = None
        self.members = {}

    def member(self, kind: str, v_power: int, label: str) -> BosonOperator:
        """A_v[label] (kind "quadr") or A_v^lin[label] (kind "lin") for
        v = z^v_power and label "f" or "g"."""
        key = (kind, v_power, label)
        if key not in self.members:
            fn = self.f if label == "f" else self.g
            if kind == "quadr":
                self.basis = kernel_toeplitz(self.ktable, self.k_max) if self.basis is None else self.basis
                op = quadr_family_op(v_power, fn, *self.args, self.basis)
            else:
                op = lin_family_op(v_power, fn, *self.args)
            for arr in (op.x, op.d, op.xd, op.dd):
                if arr is not None:
                    getattr(arr, "coef", arr).flags.writeable = False
            self.members[key] = op
        return self.members[key]


def verify_sv_algebra_quadratic(family: BracketFamily):
    """Bracket relations among the quadratic family members.

    Checks, against smooth degree <= 2 probe functionals on interior modes:
        [A_z[f], A_z[g]]  ~ 4 A_z[(f'g - fg')/2]        (complete operators)
        [A_1[f], A_z[g]]  ~ quadratic target with label f''g - f'g'/2
        [A_1[f], A_1[g]]  ~ 0,
    all with the realization's bracket orientation (BRACKET_ORIENTATION).
    Every quadratic member and target holds its x-d and d-d fields as slot
    fields over the family's :func:`kernel_toeplitz` basis, and each bracket
    is scored through its products with the probe vectors
    (:func:`commutator_probed`), so no nvar x nvar field other than that
    basis, and no bracket, is formed.  Returns a list of per-relation
    residual dicts.
    """
    f, g, probes = family.f, family.g, family.probes
    mk = lambda v, label: family.member("quadr", v, label)
    a1f, a1g = mk(0, "f"), mk(0, "g")
    azf, azg = mk(1, "f"), mk(1, "g")

    out = []
    h = f.deriv(1) * g - f * g.deriv(1)
    target = 4.0 * quadr_family_op(1, 0.5 * h, *family.args, family.basis)
    out.append(probes.report("quadr [0,0] -> 0-type", probes.bracket(azf, azg), target))
    del target

    h2 = f.deriv(2) * g - 0.5 * (f.deriv(1) * g.deriv(1))
    target2 = 2.0 * quadr_core(0, h2.deriv(1), h2, *family.args, basis=family.basis)
    out.append(probes.report("quadr [-1,0] -> -1-type", probes.bracket(a1f, azg), target2))
    del target2

    zero = BosonOperator(family.grid, family.k_max)
    out.append(probes.report("quadr [-1,-1] -> 0", probes.bracket(a1f, a1g), zero))
    return out


def verify_sv_algebra_linear(family: BracketFamily):
    """Cross-brackets of linear and quadratic family members.

    Checks (orientation as in the quadratic suite):
        [A_z^lin[f], A_z[g]] - (f <-> g) ~ 4 * lin target with label f'g - fg'
        [A_1^lin[f], A_z[g]] - [A_z^lin[g], A_1[f]] ~ 2 * lin target, label
                                                      f''g - f'g'/2
        [A_1^lin[f], A_1[g]] - (f <-> g) ~ 0.

    Run after :func:`verify_sv_algebra_quadratic` on the same family, it
    builds only the linear members.
    """
    f, g, probes, args = family.f, family.g, family.probes, family.args
    bracket = probes.bracket
    mkq = lambda v, label: family.member("quadr", v, label)
    mkl = lambda v, label: family.member("lin", v, label)

    out = []
    h = f.deriv(1) * g - f * g.deriv(1)
    lhs = bracket(mkl(1, "f"), mkq(1, "g")) - bracket(mkl(1, "g"), mkq(1, "f"))
    target = lin_core(1, 2.0 * h.deriv(3), 2.0 * h.deriv(1), *args)
    out.append(probes.report("linear [0,0] -> 0-type", lhs, target))

    h2 = f.deriv(2) * g - 0.5 * (f.deriv(1) * g.deriv(1))
    lhs2 = bracket(mkl(0, "f"), mkq(1, "g")) - bracket(mkl(1, "f"), mkq(0, "g"))
    target2 = 2.0 * lin_core(0, h2.deriv(2), h2, *args)
    # The mixed-weight bracket retains a total-derivative-labelled mode
    # extraction that the u = v cases kill (there it pairs with the conserved
    # zero mode and integrates away): the identity closes only after
    # subtracting  [(f'''g' - f'g''') against the z-mode of psi].  Both forms
    # are reported; "corrected" is the one that trends to zero at O(dt).
    corr_label = f.deriv(3) * g.deriv(1) - f.deriv(1) * g.deriv(3)
    target2_corr = target2 - lin_core(0, corr_label, TimePoly([0.0]), *args)
    rep_stated = probes.report("linear [-1,0] -> -1-type (as stated)", lhs2, target2)
    rep_corr = probes.report("linear [-1,0] -> -1-type", lhs2, target2_corr)
    rep_corr["as_stated_residual"] = rep_stated["residual"]
    rep_corr["as_stated_relative"] = rep_stated["relative"]
    out.append(rep_corr)

    lhs3 = bracket(mkl(0, "f"), mkq(0, "g")) - bracket(mkl(0, "g"), mkq(0, "f"))
    zero = BosonOperator(family.grid, family.k_max)
    out.append(probes.report("linear [-1,-1] -> 0", lhs3, zero))
    return out


# ----------------------------------------------------------------------
# Gaussian-case explicit machinery (diagonal kernel)

_ROW_BLOCK_BYTES = 1 << 18  # per piece of one fold block: the block stays in cache


def _row_blocks(ns: int) -> list:
    """The row slices j0:j1 of the fold over ns slots."""
    step = max(1, _ROW_BLOCK_BYTES // (8 * ns))
    return [slice(j0, min(j0 + step, ns)) for j0 in range(0, ns, step)]


def _hermite_setup(f, g, sigma, n_particles, grid: TimeGrid, k_max: int):
    """Both labels' slot values, the kernels and both directions' (C5, C6)
    on tau_2.  Label a gives (F = a'/sigma^2 + a'', a', P), P[:, j + 1] =
    sum_{s <= j} e^{-(t_j - t_s)/sigma^2} (a'', -a'/sigma^2)_s by recurrence;
    lags[c][j, s] = e^{-c (t_j - t_s)/sigma^2}, s <= j, is a Toeplitz view
    with one exp per lag and one row more than the grid.  No exponent is > 0."""
    t, ns, dt, decay, labels = grid.times, grid.nslots, grid.dt, np.exp(-grid.dt / sigma**2), []
    for a in (f, g):
        h, p = np.stack((a.deriv(2)(t), -a.deriv(1)(t) / sigma**2)), np.zeros((2, ns + 1))
        for j in range(ns):
            p[:, j + 1] = decay * p[:, j] + h[:, j]
        labels.append(((1.0 / sigma**2) * a.deriv(1)(t) + a.deriv(2)(t), a.deriv(1)(t), p))
    lag_t, zeros = dt * np.arange(ns, -1, -1), np.zeros(ns - 1)
    lags = {c: sliding_window_view(np.concatenate((np.exp(-c * lag_t / sigma**2), zeros)), ns)[::-1] for c in range(1, k_max)}
    (F, fd, _), (G, gd, _) = labels
    below = np.empty((2, ns))  # strictly lower E_1 sums; the recurrence would move C5+C6 by 1e-11
    for rows in _row_blocks(ns):
        blk = lags[1][rows, : rows.stop].copy()
        np.fill_diagonal(blk[:, rows.start :], 0.0)
        below[:, rows] = blk @ G[: rows.stop], blk @ F[: rows.stop]
    c5, c6 = -2.0 * n_particles * dt * dt, 2.0 * n_particles * dt
    return *labels, lags, (c5 * F * below[0], c6 * F * gd), (c5 * G * below[1], c6 * G * fd)


def _hermite_mode_pieces(f, g, k, rows, lags, dt):
    """Mode-k (C1, C12, C13, C4) of the (f, g) direction on rows j0:j1, as
    arrays [j - j0, s < j1] of tau_k(t_j) d_{k-2}(t_s); C2 = -C13, C3 = -C12."""
    (F, _, _), (_, gd, p) = f, g
    cols, nxt = slice(0, rows.stop), slice(rows.start + 1, rows.stop + 1)
    e1, e2, w = lags[k - 1][rows, cols], lags[k - 2][rows, cols], float(k * (k - 1))
    # C1, C13: (E_{k-1} diag(h) E_{k-2})[j, s] = E_{k-2}[j, s] (P_h(j) - E_1[j, s-1] P_h(s-1)), no GEMM
    inner = p[:, nxt, None] - lags[1][nxt, cols] * p[:, None, cols]
    fe2 = (dt * dt * w * F[rows, None]) * e2
    c12 = -dt * w * (F[rows, None] * gd[None, cols]) * e1
    return fe2 * inner[0], c12, fe2 * inner[1], -dt * w * (F * gd)[rows, None] * e2


def hermite_cancellation_pairs(f, g, sigma, n_particles, grid: TimeGrid, k_max: int):
    """Grid residuals of the four Gaussian-case cancellation pairs.

    The bracket of two n = -1 quadratic parts splits into contributions
    C_1..C_6 (by elementary commutator); after the integrations by parts the
    pairs C_11 + C_4, C_12 + C_3, C_13 + C_2, C_5 + C_6 each vanish.  C_11
    is C_1 minus the displayed C_12, C_13, so pair 1 measures the discrete
    integration by parts; pairs 2, 3 cancel by construction.  The pieces,
    from the builders of :func:`hermite_pieces_total_operator`, are folded
    one row block and mode at a time into running max-abs residuals and
    magnitudes, floored at 1e-30.  All residuals are O(dt).
    """
    # tau_k d_{k-2} needs mode k-2 >= 1; the formal k = 2 terms carry the
    # absent zero-mode derivative and annihilate identically
    if k_max < 3:
        raise ValueError("the cancellation pairs need k_max >= 3")
    resid = dict.fromkeys(("C11+C4", "C12+C3", "C13+C2"), 1e-30)
    mag = dict.fromkeys(("C11+C4", "C12+C3", "C13+C2", "C5+C6"), 1e-30)

    def fold(acc, name, *arrays):
        acc[name] = np.max([acc[name], *(np.max(np.abs(a)) for a in arrays)])

    # c* of the (f, g) direction, d* of (g, f); the a* are antisymmetrized
    fs, gs, lags, (c5, c6), (d5, d6) = _hermite_setup(f, g, sigma, n_particles, grid, k_max)
    resid["C5+C6"] = float(np.max(np.abs((c5 - d5) + (c6 - d6))))
    fold(mag, "C5+C6", c5, c6, d5, d6)
    for rows in _row_blocks(grid.nslots):
        for k in range(3, k_max + 1):
            c1, c12, c13, c4 = _hermite_mode_pieces(fs, gs, k, rows, lags, grid.dt)
            d1, d12, d13, d4 = _hermite_mode_pieces(gs, fs, k, rows, lags, grid.dt)
            a12, a13 = c12 - d12, c13 - d13
            c11 = (c1 - d1) - a12 - a13
            fold(resid, "C11+C4", c11 + (c4 - d4))
            fold(resid, "C12+C3", a12 + ((-c12) - (-d12)))
            fold(resid, "C13+C2", a13 + ((-c13) - (-d13)))
            fold(mag, "C11+C4", c11, c4, d4)
            fold(mag, "C12+C3", c12, d12)
            fold(mag, "C13+C2", c13, d13)
    return {name: {"residual": r, "magnitude": mag[name], "relative": r / mag[name]} for name, r in resid.items()}


def hermite_pieces_total_operator(f, g, sigma, n_particles, grid, k_max):
    """Sum C_1 + ... + C_6, antisymmetrized in (f, g), as a BosonOperator:
    the builders of :func:`hermite_cancellation_pairs` on all rows, so the
    cross-check against the direct bracket tests the report's formulas."""
    op = BosonOperator(grid, k_max)
    slots, rows = np.arange(grid.nslots), slice(0, grid.nslots)
    fs, gs, lags, (c5, c6), (d5, d6) = _hermite_setup(f, g, sigma, n_particles, grid, k_max)
    for k in range(3, k_max + 1):
        # C1 + C2 + C3 + C4 with C2 = -C13 and C3 = -C12
        c1, c12, c13, c4 = _hermite_mode_pieces(fs, gs, k, rows, lags, grid.dt)
        d1, d12, d13, d4 = _hermite_mode_pieces(gs, fs, k, rows, lags, grid.dt)
        block = (c1 - c13 - c12 + c4) - (d1 - d13 - d12 + d4)
        op.add_xd_block(op.vid(k, 0) + slots[:, None], op.vid(k - 2, 0) + slots[None, :], block)
    op.add_x_vec(op.vid(2, 0) + slots, (c5 + c6) - (d5 + d6))
    return op


def hermite_lin_quadr_bracket(f, g, pot: Potential, n_particles, grid, k_max):
    """The scalar part of [L_{-1,lin}(f), L_{-1,quadr}(g)] - (f <-> g) in the
    Gaussian case, N * integral (f'''g' - f'g''') dt, a total derivative whose
    quadrature vanishes at O(dt).  Returns ``analytic_total_derivative``, N
    times that grid quadrature from the exact polynomial derivatives, and
    ``const_minus_analytic``, |scalar part - analytic_total_derivative|.

    The linear part has only a scalar and a d field, so each commutator's
    scalar is lin.d . quadr.x.  Affine quadratic parts make the same x entries
    in the same order as full ones, so the scalar keeps its bits without the
    dense x-d and d-d blocks.
    """
    ktable = kernel_table(pot, grid, k_max)
    mk_l = lambda fn: lin_core(0, fn.deriv(2), fn, pot, n_particles, grid, k_max, ktable)
    mk_q = lambda fn: quadr_core(0, fn.deriv(1), fn, pot, n_particles, grid, k_max, ktable, parts="affine")
    const = commutator(mk_l(f), mk_q(g)).const - commutator(mk_l(g), mk_q(f)).const
    t = grid.times
    quad = float(np.sum(f.deriv(3)(t) * g.deriv(1)(t) - f.deriv(1)(t) * g.deriv(3)(t)) * grid.dt)
    analytic = n_particles * quad
    return {
        "analytic_total_derivative": analytic,
        "const_minus_analytic": abs(const - analytic),
    }


# ----------------------------------------------------------------------
# Monte Carlo constraint residuals


def constraint_functional(cop: ConstraintOp) -> dict:
    """The order-tau^0 constraint residual as a :func:`simulate_dbm`
    functional: weights -dt d[l, j] on the action densities S_l(t_j), where
    d is the derivative part of ``cop.total()``.  A constraint without one
    (a label whose derivatives vanish on every slot, as on a 2-step grid)
    gives the zero functional."""
    op = cop.total()
    if op.dd is not None and np.any(op.dd):
        raise ValueError("the constraint has a second-derivative block, which the order-tau^0 functional does not carry")
    w = () if op.d is None else op.d.reshape(op.k_max, op.grid.nslots)
    return {"s": {l: -op.grid.dt * wl for l, wl in enumerate(w, start=1) if np.any(wl)}}


def constraint_residual_mc(cop: ConstraintOp, ensemble, name: str):
    """Constraint residual on the Monte Carlo generating functional.

    At order tau^0 the residual is  const - dt * sum_{l,j} d[l,j] * avg S_l(t_j),
    with S the linearized per-replica action densities; the sum is the
    functional :func:`constraint_functional` that the ensemble accumulated
    under ``name``.  The standard error is the replica scatter of the same
    combination.  Returns (mean, se), with se 0.0 for a single replica.
    """
    from .dyson import mean_se  # here, so that the Gaussian-case checks do not load the engine

    per_rep = cop.total().const + ensemble.functional_samples[name]
    return mean_se(per_rep) if per_rep.size > 1 else (float(np.mean(per_rep)), 0.0)
