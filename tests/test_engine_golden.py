"""Golden-bits regression test for the Langevin engine.

Each small ``simulate_dbm`` configuration below is run once and every output
of the returned ``Ensemble`` (stored arrays, accumulators, functionals and
counters) is hashed with sha256 over its raw bytes.  The literals pin the exact bit pattern of the
engine: a refactor that keeps the noise stream, the trajectories and the
summation order passes; any change of a single bit fails.  The moment
residuals of :func:`moment_functionals` get a digest of their own, so that a
change of their summation order leaves every other literal standing.  The
digests hold for this repository's numpy (Philox stream, pairwise summation,
libm power) on x86-64; a different numpy or libm may legitimately change them.

``python tests/test_engine_golden.py`` prints every case's current digests
and counts in the form of ``GOLDEN``.
"""

import hashlib

import numpy as np
import pytest

from coulombgas.boson import TimeGrid
from coulombgas.dyson import InitSpec, girsanov_functionals, moment_functionals, npoint_functionals, simulate_dbm
from coulombgas.kernel import Potential
from coulombgas.svconstraints import build_dynamical_constraint, constraint_functional
from coulombgas.timefunc import bump

HERMITE2 = Potential(2.0, {1: 1.0})
GENERIC1 = Potential(1.0, {1: 0.5, 2: 0.3})


def _npoint_funcs(pot, grid):
    f = bump(0.0, grid.dt * grid.steps, 2)
    funcs = {}
    for k in (1, 2):
        fl = npoint_functionals(pot, grid, f, k, 4)
        funcs[f"npoint{k}:lhs"] = fl["lhs"]
        funcs[f"npoint{k}:rhs"] = fl["rhs"]
    return funcs


def _run(name):
    if name == "moment-residual":
        grid = TimeGrid(1e-3, 400)
        return simulate_dbm(
            HERMITE2, 5, grid, 300, InitSpec("equispaced", shift=0.5), seed=11,
            functionals=moment_functionals(HERMITE2, grid, (1, 2, 3, 4)), keep_paths=False,
        )
    if name == "reweight-constraint":
        grid = TimeGrid(1e-3, 300)
        cop = build_dynamical_constraint(-1, bump(0.0, grid.dt * grid.steps, 4), HERMITE2, 5, grid, 4, parts="affine")
        funcs = {**girsanov_functionals({2: 0.05, 3: 0.01}, grid), "constraint": constraint_functional(cop)}
        return simulate_dbm(
            HERMITE2, 5, grid, 200, InitSpec("equispaced", shift=0.4), seed=12,
            functionals=funcs, keep_paths=False,
        )
    if name == "functionals":
        grid = TimeGrid(1e-3, 300)
        return simulate_dbm(
            HERMITE2, 5, grid, 200, InitSpec("equispaced", shift=0.4), seed=13,
            functionals=_npoint_funcs(HERMITE2, grid), keep_paths=False,
        )
    if name == "stored-paths":
        return simulate_dbm(
            GENERIC1, 4, TimeGrid(1e-3, 300), 150, InitSpec("explicit", values=(-2.0, -0.5, 0.5, 2.0)), seed=14,
            keep_paths=True,
        )
    if name == "substeps":
        grid = TimeGrid(5e-3, 200)
        return simulate_dbm(
            HERMITE2, 5, grid, 200, InitSpec("equispaced", halfwidth=1.0), seed=3,
            functionals={**moment_functionals(HERMITE2, grid, (1, 2)), **_npoint_funcs(HERMITE2, grid)},
            keep_paths=True,
        )
    raise KeyError(name)


def ensemble_digests(ens) -> tuple:
    """sha256 over the raw bytes of every output array, accumulator and
    counter but the moment residuals, and sha256 over the moment residuals
    (None without them).  A martingale functional is hashed as the
    time-averaged density, over steps * dt."""
    h, h_res = hashlib.sha256(), hashlib.sha256()

    def put(label, value, into=h):
        into.update(label.encode())
        if value is None:
            into.update(b"none")
        else:
            into.update(np.ascontiguousarray(value).tobytes())

    put("paths", ens.paths)
    put("incs", ens.incs)
    put("pi_sum", ens.pi_sum[:, :3])
    put("pi_sumsq", ens.pi_sumsq[:, :3])
    put("noise", np.array([ens.noise_sum, ens.noise_sumsq], dtype=np.float64))
    put("counts", np.array([ens.noise_count, ens.rejected, ens.substepped], dtype=np.int64))
    funcs = ens.functional_samples
    moments = sorted(name for name in funcs if name.startswith(("residual", "martingale")))
    for name in sorted(set(funcs) - set(moments)):
        put(f"functional:{name}", funcs[name])
    for name in moments:
        if name.startswith("martingale"):
            put(name, funcs[name] / (ens.grid.steps * ens.grid.dt))
        else:
            put(name, funcs[name], into=h_res)
    return h.hexdigest(), h_res.hexdigest() if any(name.startswith("residual") for name in moments) else None


# name -> (sha256 of all outputs but the moment residuals, sha256 of the
# moment residuals, rejected, substepped)
GOLDEN = {
    "moment-residual": (
        "c6a00862b8dcb51dca56536aed4b5009dc49aefa5427ad865cf7b2e0cc68871b",
        "f1820cccbb2f99c39c00a6879a52ac00e1ad12033d73fb0700dddbb81559eba1",
        0,
        0,
    ),
    "reweight-constraint": ("48325a13db1de776757c3bee80ad79a19807fa4f4de691279b5910e68d6e12e9", None, 0, 0),
    "functionals": ("fe55a43c29d66dfd7cbcbf5aab6de76e64bd9eb977897203691d5ea86efeabfe", None, 0, 0),
    "stored-paths": ("94e248c34d5202330cc2468c0eac1802bc1fa6b3476abf7724bc4ff0dcec6347", None, 21, 0),
    "substeps": (
        "ed786ee60bf087171554cf926b773a5afd62a417349dccba96b4862cd76ce3dc",
        "257e93c43ee36830d51c7ea41e9ce8bb8de76ad798ff394c0c2425a45b780c16",
        198,
        11,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_engine_outputs_bitwise_golden(name):
    *digests, rejected, substepped = GOLDEN[name]
    ens = _run(name)
    assert (ens.rejected, ens.substepped) == (rejected, substepped)
    assert ensemble_digests(ens) == tuple(digests)
    if name == "substeps":
        assert substepped > 0  # the sub-step path is really exercised


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        ens = _run(name)
        print(f"    {name!r}: ({', '.join(map(repr, ensemble_digests(ens)))}, {ens.rejected}, {ens.substepped}),")
