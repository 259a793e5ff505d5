"""Golden-bits regression test for the Langevin engine.

Each small ``simulate_dbm`` configuration below is run once and every output
of the returned ``Ensemble`` (arrays, accumulators and counters) is hashed
with sha256 over its raw bytes.  The literals pin the exact bit pattern of the
engine: a refactor that keeps the noise stream, the trajectories and the
summation order passes; any change of a single bit fails.  The digests hold
for this repository's numpy (Philox stream, pairwise summation, libm power)
on x86-64; a different numpy or libm may legitimately change them.
"""

import hashlib

import numpy as np
import pytest

from coulombgas.boson import TimeGrid
from coulombgas.dyson import InitSpec, npoint_functionals, simulate_dbm
from coulombgas.kernel import Potential
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
    if name == "slin":
        return simulate_dbm(
            HERMITE2, 5, TimeGrid(1e-3, 300), 200, InitSpec("equispaced", shift=0.4), seed=12,
            k_track=4, track_slin=(1, 2), keep_paths=False,
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
            k_track=4, track_slin=(1, 3), keep_paths=True,
        )
    if name == "substeps":
        grid = TimeGrid(5e-3, 200)
        return simulate_dbm(
            HERMITE2, 5, grid, 200, InitSpec("equispaced", halfwidth=1.0), seed=3,
            k_track=6, track_slin=(1, 2), track_moment_residual=(1, 2), functionals=_npoint_funcs(HERMITE2, grid),
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
    for key in sorted(ens.pair_sum):
        put(f"pair_sum{key}", ens.pair_sum[key])
        put(f"pair_sumsq{key}", ens.pair_sumsq[key])
    put("noise", np.array([ens.noise_sum, ens.noise_sumsq], dtype=np.float64))
    put("counts", np.array([ens.noise_count, ens.rejected, ens.substepped], dtype=np.int64))
    put("slin_modes", np.array(ens.slin_modes, dtype=np.int64))
    put("slin_samples", ens.slin_samples)
    for name in sorted(ens.functional_samples):
        put(f"functional:{name}", ens.functional_samples[name])
    for k in sorted(ens.moment_residual_samples):
        put(f"moment_residual{k}", ens.moment_residual_samples[k])
        put(f"martingale{k}", ens.martingale_samples[k])
    return h.hexdigest()


# name -> (sha256 of all outputs, rejected, substepped)
GOLDEN = {
    "moment-residual": ("52a24b8bc007a15d54fedd179baa651bac97dda41d98679021e779257ba80295", 0, 0),
    "slin": ("c054b356a095578d8be3260181b2d7e7b08d1b27b460cfff55416f11a06ea4f8", 0, 0),
    "functionals": ("63680787172adeffadf22453ade65d4b55ac90743b4946db69fa2b0976cf3d5c", 0, 0),
    "stored-paths": ("ef939636334316c89b23e57d0eee35490cc3375f029c84f656e9219588fd5f82", 21, 0),
    "substeps": ("9dc1c978642a9f5a309c98d8664264c10fc9025350ba460b57da153bfcfc8c61", 198, 11),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_engine_outputs_bitwise_golden(name):
    digest, rejected, substepped = GOLDEN[name]
    ens = _run(name)
    assert (ens.rejected, ens.substepped) == (rejected, substepped)
    assert ensemble_digest(ens) == digest
    if name == "substeps":
        assert substepped > 0  # the sub-step path is really exercised
