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
QUARTIC4 = Potential(4.0, {1: 1.0, 3: 0.1})


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
    if name == "blocks":  # three blocks, the last one short: the merged accumulators
        grid = TimeGrid(2e-3, 150)
        return simulate_dbm(
            HERMITE2, 4, grid, 1100, InitSpec("equispaced", shift=0.3), seed=15,
            functionals=moment_functionals(HERMITE2, grid, (1, 2)), keep_paths=False,
        )
    if name == "seven-particles":  # N = 7 and beta = 4: the pair force beyond the other cases' N <= 5
        grid = TimeGrid(5e-3, 200)
        return simulate_dbm(
            QUARTIC4, 7, grid, 300, InitSpec("equispaced", halfwidth=2.0, shift=0.2), seed=16,
            functionals=moment_functionals(QUARTIC4, grid, (1, 2)), keep_paths=True,
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
    put("pi_avg", ens.pi_avg)
    put("pi_m2", ens.pi_m2)
    put("noise", np.array([ens.noise_mean, ens.noise_m2], dtype=np.float64))
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
    "blocks": (
        "2f057530817d01c8d96a503438b0240dd5416c8be5158d318d791dac4e44e724",
        "afa1729997a37e3c306357089db258daa0407eec5a149b1434dd45d6fd9d64cc",
        "c22ae462e2ed35fbe7e96fb1d1807b69cba959d3cd1e5c14c41f68e6dccddcc3",
        0,
        0,
    ),
    "functionals": (
        "d47afc12d507af9155a49856661585136938e5bef701deaa004abb7f1244ac66",
        "994e6d3bbb7fe64cf359a9210b59ac00e0c1e72738f6bf6e98220d2a791b42f0",
        None,
        1,
        0,
    ),
    "moment-residual": (
        "2760c0b9d1acad5998203ec8ee8dd2c805da25e33a0996b281d7b1302a95a32f",
        "3c37dd424a4d632ece3857916f28c1c2d0f9dc04a183fa94c8ead216f9b4c72e",
        "c309868df5251373843b1f5b6f5d3b7bfe8599de75c781a1c50b4bac985bae3d",
        1,
        0,
    ),
    "reweight-constraint": (
        "d9c1bf88501f8d84c07fa2ce8bc5582585a765f16ca2149889e3834fc86eb38c",
        "92945cc39badae71ac20b1d57ef7cd7702f3d3820eef47d431290c965fb3ebfd",
        None,
        1,
        0,
    ),
    "seven-particles": (
        "6b166bdbece08fd70990bd8c5228b03341c42fe8f2fdd1e886fcd31b2d3d737a",
        "2da5aebb3c371b1d853ffbd05cb4d12c298e39ebfd16f20770587e7a2ddc3f5e",
        "7820d665397d6f8706d182105d6ac92cb744b45185d029366beca055a2112edf",
        4,
        0,
    ),
    "stored-paths": ("219c1188b05989b45f75c51e3c9858a1527d690ec464132fbd708a57f6de821d", None, None, 20, 0),
    "substeps": (
        "9b111211ed10621733eb1ffbe39a3c93d29d2efc05f2154c308516aafc707d8b",
        "45da236f3ededc4f8b481f271ee216401de59687fda3d46001914160d246524c",
        "c8e95ef455856ad7efdf6cfab23e187b4fc23fdd217c2be0ab4d818a640f6a88",
        116,
        4,
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


#: The noise feeds, as (helper forced on, ring budget in bytes or None for
#: the default): the main draws made in the worker, made ahead by a forked
#: helper, and made ahead into a ring of one step, which wraps at every step.
FEEDS = {"in-process": (False, None), "helper": (True, None), "one-step-ring": (True, 1)}


@pytest.mark.parametrize("feed", sorted(FEEDS))
@pytest.mark.parametrize("name", ["blocks", "substeps"])
def test_every_noise_feed_keeps_the_golden_bits(name, feed, monkeypatch):
    """Whoever draws the main noise, the Ensemble keeps every bit: "substeps"
    has ordering retries and sub-steps, "blocks" three blocks, the last one
    short."""
    from coulombgas import dyson

    ahead, ring_bytes = FEEDS[feed]
    monkeypatch.setattr(dyson, "_spare_core", lambda workers: ahead)
    if ring_bytes is not None:
        monkeypatch.setattr(dyson, "_RING_BYTES", ring_bytes)
    *digests, rejected, substepped = GOLDEN[name]
    ens = _run(name)
    assert (ens.rejected, ens.substepped) == (rejected, substepped)
    assert ensemble_digests(ens) == tuple(digests)


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        ens = _run(name)
        print(f"    {name!r}: ({', '.join(map(repr, ensemble_digests(ens)))}, {ens.rejected}, {ens.substepped}),")
