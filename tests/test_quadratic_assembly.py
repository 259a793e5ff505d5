"""Whole-grid quadratic assembly and the weak score against slot-by-slot
references.

The references below are the slot-by-slot builds that the whole-grid
assembly replaced, kept here as test-only oracles.  Both sides must agree
bit for bit: every canonical field compares with ``np.array_equal``.
"""

import numpy as np
import pytest

from coulombgas import boson
from coulombgas.boson import (
    BosonOperator,
    TimeGrid,
    accumulate_quadratic,
    commutator,
    kernel_table,
    kernel_toeplitz,
    normal_ordered_quadratic,
    time_derivation,
)
from coulombgas.fseries import TruncSeries
from coulombgas.kernel import Potential
from coulombgas.svconstraints import integrated_quadratic, weak_field_score, weak_probe_profiles, weight_quadr_mix
from coulombgas.timefunc import bump

GRID = TimeGrid(0.05, 12)
K_MAX = 5
N_PART = 3.0
POTENTIALS = {
    "hermite": Potential(2.0, {1: 1.0}),
    "generic": Potential(1.0, {1: 0.5, 2: 0.3}),
}
FIELDS = ("const", "x", "d", "xd", "dd")


# ------------------------------------------------------ slot-by-slot oracle


def _convolved_row(ktable, k_max, m, j):
    """(vids, values) of the kernel-convolved derivative of mode m at slot j,
    K_{m,l}(t_j - t_j') on x[l, j'] for l = 1..k_max, j' <= j, without sqrt(beta)."""
    vids = np.arange(k_max)[:, None] * ktable.shape[0] + np.arange(j + 1)
    return vids.ravel(), ktable[j::-1, m, 1:].T.ravel()


def _add_dd_block(op, u_vids, v_vids, block):
    """The symmetric d-d add of block on the vid pairs (u, v): half on each side."""
    dd = op._ensure("dd")
    dd[np.ix_(u_vids, v_vids)] += block / 2.0
    dd[np.ix_(v_vids, u_vids)] += block.T / 2.0


def _reference_accumulate(op, field, weight, j, scale, pot, n_particles, ktable, parts):
    """Add scale * contour{ weight(z) :field(z, t_j)**2: dz } onto op, one slot."""
    grid, k_max = op.grid, op.k_max
    beta = pot.beta
    sb = np.sqrt(beta)

    def deriv_vec(m):
        if field == "static":
            return np.array([op.vid(m, j)]), np.array([1.0 / grid.dt])
        return _convolved_row(ktable, k_max, m, j)

    for p, up in weight.items():
        up = up * scale
        for m in range(-k_max, k_max + 1):
            n = p - 1 - m
            if not -k_max <= n <= k_max:
                continue
            if m == 0 or n == 0:
                if field == "static":
                    continue
                other = n if m == 0 else m
                s0 = -sb * n_particles
                if other == 0:
                    op.add_const(up * s0 * s0)
                elif other >= 1:
                    vids, vals = deriv_vec(other)
                    np.add.at(op._ensure("d"), vids, up * s0 * sb * vals)
                else:
                    op.add_x(op.vid(-other, j), up * s0 * abs(other) / sb)
            elif m >= 1 and n >= 1:
                if parts == "affine":
                    continue
                vu, au = deriv_vec(m)
                vv, av = deriv_vec(n)
                _add_dd_block(op, vu, vv, up * beta * np.outer(au, av))
            else:
                if parts == "affine":
                    continue
                mult, der = (m, n) if m <= -1 else (n, m)
                vids, vals = deriv_vec(der)
                np.add.at(op._ensure("xd")[op.vid(-mult, j)], vids, up * abs(mult) * vals)


def _reference_integrated(field, weight, coeffs, pot, n_particles, grid, k_max, ktable, parts):
    op = BosonOperator(grid, k_max)
    coeffs = np.asarray(coeffs, dtype=float)
    for j in range(grid.nslots):
        if coeffs[j] == 0.0:
            continue
        _reference_accumulate(op, field, weight, j, coeffs[j] * grid.dt, pot, n_particles, ktable, parts)
    return op


def _slot_loop_accumulate(op, field, weight, slots, scales, pot, n_particles, ktable, parts):
    """accumulate_quadratic with its x-d rows added one row slice per mode pair
    and every other piece added slot by slot, each slot's (power, pair) combos
    in order: the reference for the combo-wise and reduced assembly."""
    grid, k_max = op.grid, op.k_max
    beta = pot.beta
    sb = np.sqrt(beta)
    s0 = -sb * n_particles
    slots, scales = np.asarray(slots), np.asarray(scales, dtype=float)

    def deriv_vec(m, j):
        if field == "static":
            return np.array([op.vid(m, j)]), np.array([1.0 / grid.dt])
        return _convolved_row(ktable, k_max, m, j)

    powers = []
    for p, up in weight.items():
        xd_pairs, slot_pairs = [], []
        for m in range(-k_max, k_max + 1):
            n = p - 1 - m
            if not -k_max <= n <= k_max:
                continue
            if m == 0 or n == 0:
                if field == "dynamic":
                    slot_pairs.append((m, n))
            elif parts == "affine":
                continue
            elif m >= 1 and n >= 1:
                slot_pairs.append((m, n))
            else:
                xd_pairs.append((-min(m, n), max(m, n)))
        powers.append((up, xd_pairs, slot_pairs))

    lo, hi = int(slots[0]), int(slots[-1]) + 1
    row_scales = np.zeros(hi - lo)
    row_scales[slots - lo] = scales
    basis = op.basis if op.basis is not None else kernel_toeplitz(ktable, k_max)
    for up, xd_pairs, _ in powers:
        ups = up * row_scales
        for mult, der in xd_pairs:
            c = ups * mult
            if field == "static":
                op.add_xd_rows(mult, 2, der, lo, c * (1.0 / grid.dt))
            else:
                op.add_xd_rows(mult, 0, der, lo, c, basis)

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
                        np.add.at(op._ensure("d"), vids, up * s0 * sb * vals)
                    else:
                        op.add_x(op.vid(-other, j), up * s0 * abs(other) / sb)
                elif op.basis is None:
                    vu, au = deriv_vec(m, j)
                    vv, av = deriv_vec(n, j)
                    _add_dd_block(op, vu, vv, up * beta * np.outer(au, av))
                else:
                    b, w = (0, up * beta) if field == "dynamic" else (2, up * beta / grid.dt**2)
                    coef = op._ensure("dd").coef
                    coef[m - 1, b, n - 1, j] += w / 2.0
                    coef[n - 1, b, m - 1, j] += w / 2.0


def _field_bytes(op) -> dict:
    """Every canonical field of op as bytes, a slot field by its coefficients."""
    out = {"const": np.float64(op.const).tobytes()}
    for f in ("x", "d", "xd", "dd"):
        v = getattr(op, f)
        out[f] = None if v is None else getattr(v, "coef", v).tobytes()
    return out


def _reference_weak_score(op, probes):
    ns = op.grid.nslots
    dt = op.grid.dt
    vals = [abs(op.const)]
    vecs = []
    for k, prof in probes:
        v = np.zeros(op.nvar)
        v[(k - 1) * ns : k * ns] = prof * dt
        vecs.append(v)
    for u in vecs:
        if op.x is not None:
            vals.append(abs(float(op.x @ u)) / dt)
        if op.d is not None:
            vals.append(abs(float(op.d @ u)))
        for w in vecs:
            if op.xd is not None:
                vals.append(abs(float(u @ (op.xd @ w))) / dt)
            if op.dd is not None:
                vals.append(abs(float(u @ (op.dd @ w))))
    return float(max(vals))


def _assert_same_fields(got, want):
    for f in FIELDS:
        a, b = getattr(got, f), getattr(want, f)
        if f == "const":
            assert a == b
        elif b is None:
            assert a is None, f
        else:
            assert a is not None and np.array_equal(a, b), f


# ------------------------------------------------------------------ cases


def _weights(pot):
    return {
        "z^0": TruncSeries.monomial(0, 1.0),
        "z^1": TruncSeries.monomial(1, -0.5),
        "(zb)'": weight_quadr_mix(pot, 1),
        "up to z^3": TruncSeries.from_dict({0: 0.7, 1: -1.3, 2: 0.4, 3: 0.25}),
    }


def _coefficients():
    t = GRID.times
    tmax = GRID.dt * GRID.steps
    smooth = bump(0.0, tmax, 2)(t)  # zero at both ends
    holes = np.linspace(-1.0, 2.0, GRID.nslots)
    holes[[0, 3, 4, 9]] = 0.0  # interior zero slots: the live slots are not contiguous
    single = np.zeros(GRID.nslots)
    single[GRID.steps] = -0.8
    return {"smooth": smooth, "holes": holes, "last-slot": single, "all-zero": np.zeros(GRID.nslots)}


@pytest.mark.parametrize("parts", ["full", "affine"])
@pytest.mark.parametrize("field", ["static", "dynamic"])
@pytest.mark.parametrize("pot_name", sorted(POTENTIALS))
def test_integrated_quadratic_matches_slot_by_slot_reference(pot_name, field, parts):
    pot = POTENTIALS[pot_name]
    tab = kernel_table(pot, GRID, K_MAX)
    for wname, weight in _weights(pot).items():
        for cname, coeffs in _coefficients().items():
            got = integrated_quadratic(field, weight, coeffs, pot, N_PART, GRID, K_MAX, tab, parts)
            want = _reference_integrated(field, weight, coeffs, pot, N_PART, GRID, K_MAX, tab, parts)
            try:
                _assert_same_fields(got, want)
            except AssertionError as exc:
                raise AssertionError(f"weight {wname}, coefficients {cname}: field {exc}") from None


@pytest.mark.parametrize("field", ["static", "dynamic"])
def test_normal_ordered_quadratic_matches_one_slot_reference(field):
    pot = POTENTIALS["generic"]
    tab = kernel_table(pot, GRID, K_MAX)
    for weight in _weights(pot).values():
        for j in (0, 5, GRID.steps):
            got = normal_ordered_quadratic(field, weight, j, pot, N_PART, GRID, K_MAX, tab)
            want = BosonOperator(GRID, K_MAX)
            _reference_accumulate(want, field, weight, j, 1.0, pot, N_PART, tab, "full")
            _assert_same_fields(got, want)


def test_cubic_weight_reaches_every_field():
    """The z^3 weight on the dynamic field exercises the scalar, x, d, x-d and
    d-d paths at once, so the comparison above covers all five."""
    pot = POTENTIALS["generic"]
    tab = kernel_table(pot, GRID, K_MAX)
    op = integrated_quadratic("dynamic", _weights(pot)["up to z^3"], _coefficients()["holes"], pot, N_PART, GRID, K_MAX, tab)
    assert op.const != 0.0
    for f in ("x", "d", "xd", "dd"):
        assert np.any(getattr(op, f)), f


def test_weak_field_score_matches_pair_loop_reference():
    pot = POTENTIALS["generic"]
    tab = kernel_table(pot, GRID, K_MAX)
    probes = weak_probe_profiles(GRID, K_MAX - 2)
    weights = _weights(pot)
    coeffs = _coefficients()
    a = integrated_quadratic("dynamic", weights["up to z^3"], coeffs["holes"], pot, N_PART, GRID, K_MAX, tab)
    b = integrated_quadratic("static", weights["(zb)'"], coeffs["smooth"], pot, N_PART, GRID, K_MAX, tab)
    c = integrated_quadratic("dynamic", weights["z^0"], coeffs["smooth"], pot, N_PART, GRID, K_MAX, tab, "affine")
    deriv = time_derivation(bump(0.0, GRID.dt * GRID.steps, 3), GRID, K_MAX)
    ops = [a, b, c, deriv, a - b, commutator(a, deriv), commutator(b, c), BosonOperator(GRID, K_MAX)]
    for op in ops:
        assert weak_field_score(op, probes) == _reference_weak_score(op, probes)


@pytest.mark.parametrize("block_bytes", [None, 8 * K_MAX * 3 * 10], ids=["one-tile", "small-tiles"])
@pytest.mark.parametrize("parts", ["full", "affine"])
@pytest.mark.parametrize("field", ["static", "dynamic"])
@pytest.mark.parametrize("dense", [True, False], ids=["dense", "slot-field"])
def test_accumulate_quadratic_equals_the_slot_loop_byte_for_byte(monkeypatch, dense, field, parts, block_bytes):
    """Every field of accumulate_quadratic equals the slot loop's byte for
    byte: weights with every kind of piece, contiguous and gapped slots, a
    lone first or last slot, and two calls onto one operator, so that the
    second adds onto the first's values; with the default block budget (one
    tile per reduction here) and a small one (many tiles, a short last one)."""
    if block_bytes is not None:
        monkeypatch.setattr(boson, "_REDUCE_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(11)
    grid = TimeGrid(0.05, 20)
    for pot in POTENTIALS.values():
        tab = kernel_table(pot, grid, K_MAX)
        basis = None if dense else kernel_toeplitz(tab, K_MAX)
        weights = list(_weights(pot).values()) + [TruncSeries.from_dict({0: -0.3, 2: 1.1, 4: 0.6, 7: -0.2})]
        slot_sets = [np.arange(grid.nslots), np.array([0, 2, 3, 7, 12, 13, 20]), np.array([0]), np.array([grid.steps]), np.arange(4, 17, 3)]
        for weight in weights:
            for slots in slot_sets:
                got, want = BosonOperator(grid, K_MAX, basis), BosonOperator(grid, K_MAX, basis)
                for _ in range(2):
                    scales = rng.uniform(-1.5, 2.0, slots.size)
                    accumulate_quadratic(got, field, weight, slots, scales, pot, N_PART, tab, parts)
                    _slot_loop_accumulate(want, field, weight, slots, scales, pot, N_PART, tab, parts)
                assert _field_bytes(got) == _field_bytes(want), (weight, slots)
