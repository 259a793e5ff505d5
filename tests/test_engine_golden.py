"""Golden-bits regression test for the Langevin engine.

Each small ``simulate_dbm`` configuration below is run once and every output
of the returned ``Ensemble`` (stored arrays, accumulators, functionals and
counters) is hashed with sha256 over its raw bytes.  The literals pin the exact bit pattern of the
engine: a refactor that keeps the noise stream, the trajectories and the
summation order passes; any change of a single bit fails.  The digests hold
for this repository's numpy (Philox stream, pairwise summation, libm power)
on x86-64; a different numpy or libm may legitimately change them.
"""

import hashlib

import numpy as np
import pytest

from coulombgas.boson import TimeGrid
from coulombgas.dyson import InitSpec, girsanov_functionals, npoint_functionals, simulate_dbm
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
        return simulate_dbm(
            HERMITE2, 5, TimeGrid(1e-3, 400), 300, InitSpec("equispaced", shift=0.5), seed=11,
            k_track=6, track_moment_residual=(1, 2, 3, 4), keep_paths=False,
        )
    if name == "reweight-constraint":
        grid = TimeGrid(1e-3, 300)
        cop = build_dynamical_constraint(-1, bump(0.0, grid.dt * grid.steps, 4), HERMITE2, 5, grid, 4, parts="affine")
        funcs = {**girsanov_functionals({2: 0.05, 3: 0.01}, grid), "constraint": constraint_functional(cop)}
        return simulate_dbm(
            HERMITE2, 5, grid, 200, InitSpec("equispaced", shift=0.4), seed=12,
            k_track=4, functionals=funcs, keep_paths=False,
        )
    if name == "functionals":
        grid = TimeGrid(1e-3, 300)
        return simulate_dbm(
            HERMITE2, 5, grid, 200, InitSpec("equispaced", shift=0.4), seed=13,
            k_track=6, functionals=_npoint_funcs(HERMITE2, grid), keep_paths=False,
        )
    if name == "stored-paths":
        return simulate_dbm(
            GENERIC1, 4, TimeGrid(1e-3, 300), 150, InitSpec("explicit", values=(-2.0, -0.5, 0.5, 2.0)), seed=14,
            k_track=4, keep_paths=True,
        )
    if name == "substeps":
        grid = TimeGrid(5e-3, 200)
        return simulate_dbm(
            HERMITE2, 5, grid, 200, InitSpec("equispaced", halfwidth=1.0), seed=3,
            k_track=6, track_moment_residual=(1, 2), functionals=_npoint_funcs(HERMITE2, grid),
            keep_paths=True,
        )
    raise KeyError(name)


def ensemble_digest(ens) -> str:
    """sha256 over the raw bytes of every output array, accumulator and counter."""
    h = hashlib.sha256()

    def put(label, value):
        h.update(label.encode())
        if value is None:
            h.update(b"none")
        else:
            h.update(np.ascontiguousarray(value).tobytes())

    put("paths", ens.paths)
    put("incs", ens.incs)
    put("pi_sum", ens.pi_sum)
    put("pi_sumsq", ens.pi_sumsq)
    put("noise", np.array([ens.noise_sum, ens.noise_sumsq], dtype=np.float64))
    put("counts", np.array([ens.noise_count, ens.rejected, ens.substepped], dtype=np.int64))
    for name in sorted(ens.functional_samples):
        put(f"functional:{name}", ens.functional_samples[name])
    for k in sorted(ens.moment_residual_samples):
        put(f"moment_residual{k}", ens.moment_residual_samples[k])
        put(f"martingale{k}", ens.martingale_samples[k])
    return h.hexdigest()


# name -> (sha256 of all outputs, rejected, substepped)
GOLDEN = {
    "moment-residual": ("8f573174647a396fe4e1f0a18330b12dd66f01084a8e212d5f2bc711ab331fc3", 0, 0),
    "reweight-constraint": ("2c108708d93c106681a9d36546da93b0172e882f2024c8ada1973d6b52b312c8", 0, 0),
    "functionals": ("ad4b4401d86f6ec247fa51e0184ea9bd2eed04f1064b8fda98e95662c6470401", 0, 0),
    "stored-paths": ("c26036abe69318686f72f48c1edef4383bb6af88069a0ee75fdf204a713c5e29", 21, 0),
    "substeps": ("f638dffe0667079cd86e402784054a7696007d6e665036be0263cd3b557cb4e4", 198, 11),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_engine_outputs_bitwise_golden(name):
    digest, rejected, substepped = GOLDEN[name]
    ens = _run(name)
    assert (ens.rejected, ens.substepped) == (rejected, substepped)
    assert ensemble_digest(ens) == digest
    if name == "substeps":
        assert substepped > 0  # the sub-step path is really exercised
