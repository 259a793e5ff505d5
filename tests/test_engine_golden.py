"""Golden-bits regression test for the Langevin engine.

Each small ``simulate_dbm`` configuration below is run once and every output
of the returned ``Ensemble`` (stored arrays, accumulators, functionals and
counters) is hashed with sha256 over its raw bytes.  The literals pin the
exact bit pattern of the engine: a refactor that keeps the noise stream, the
trajectories and the summation order passes; any change of a single bit
fails.  The trajectories and accumulators, the functional samples and the
moment residuals of :func:`moment_functionals` each get a digest of their
own, so that a change of the functionals' summation order leaves the
trajectory literals standing.  The digests hold for this repository's numpy
(Philox stream, pairwise summation, libm power, and the BLAS matrix product
that weights the functionals' features) on x86-64; a different numpy, libm
or BLAS kernel may legitimately change them.

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
    counter; sha256 over the functional samples but the moment residuals
    (None without any); sha256 over the moment residuals (None without
    them).  A martingale functional is hashed as the time-averaged density,
    over steps * dt."""
    h, h_fun, h_res = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()

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
    residuals = sorted(name for name in funcs if name.startswith("residual"))
    others = sorted(set(funcs) - set(residuals))
    for name in others:
        if name.startswith("martingale"):
            put(name, funcs[name] / (ens.grid.steps * ens.grid.dt), into=h_fun)
        else:
            put(f"functional:{name}", funcs[name], into=h_fun)
    for name in residuals:
        put(name, funcs[name], into=h_res)
    return h.hexdigest(), h_fun.hexdigest() if others else None, h_res.hexdigest() if residuals else None


# name -> (sha256 of the trajectories and accumulators, sha256 of the
# functional samples, sha256 of the moment residuals, rejected, substepped)
GOLDEN = {
    "functionals": (
        "f5eba389ea14efdf6fd955269f90675105e6e62cf734839ef830d7758f590aa4",
        "0413d48ccf30ec2435b483af2e78c839ac89ab2e2408ec2e03f7060c663365a1",
        None,
        0,
        0,
    ),
    "moment-residual": (
        "43687154be87622c8a54c375f5c32f2af6e85fcf6db0d00046dcb511be02354c",
        "bcb50e015fdccd154117f6c12f384f8078f5e1118046bd51b497d9fc98f60110",
        "c39f9844bd7d280079217e01b78c73d1163e3fd28e2241d352d132c0ec7274f7",
        0,
        0,
    ),
    "reweight-constraint": (
        "f227d94adca541eccac43d654c461414a89d71358912ad43d20d73a790e615d4",
        "28f6ce959c846130b957657272736ac6617a696e717d6519928302e1b3fc3acd",
        None,
        0,
        0,
    ),
    "stored-paths": ("94e248c34d5202330cc2468c0eac1802bc1fa6b3476abf7724bc4ff0dcec6347", None, None, 21, 0),
    "substeps": (
        "d95c87b4fc29d510e2e198cb904e6a9235d2ae95e2bb4ba30ee247ba03fbe76d",
        "6645638550868ecca9428163c037175eef3b35e09fba83ca2b9e8d64b8b221c4",
        "58ad5ff664bf5c0fa8727b5644da12737d5e3d5ff123797b514543db0f86f364",
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
