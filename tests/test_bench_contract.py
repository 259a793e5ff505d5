"""What the benchmark harness in ``perfbench/`` relies on in the library.

The harness is loaded by path, as ``run.py`` starts it, and is not changed
here.  Its tracer binds parameters by name (``e`` of the path
post-processors, ``n``/``sweeps``/``chains`` of ``sample_equilibrium``,
``a``/``b`` of ``commutator``), reads ``paths``, ``incs`` and
``slin_samples`` of every ``Ensemble``, wraps every name it lists by
``getattr``, and its set-up validates the scenarios it derives from the
default ones; an API change that breaks any of these fails here rather than
in a benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from coulombgas import boson, cli, dyson, svconstraints
from coulombgas.kernel import Potential
from coulombgas.timefunc import bump

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HERMITE2 = Potential(2.0, {1: 1.0})


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counters_bind_and_restore():
    tracer = _load("tracer")
    t = tracer.Tracer("contract")
    t.install()
    try:
        grid = boson.TimeGrid(1e-3, 20)
        ens = dyson.simulate_dbm(HERMITE2, 3, grid, 10, seed=0, keep_paths=True)
        tau = {2: 0.05}
        dyson.girsanov_logweight(ens, tau)
        dyson.girsanov_quadratic_correction(ens, tau)
        dyson.linear_statistics(ens, 2)
        dyson.action_terms(ens, tau)
        dyson.sample_equilibrium(HERMITE2, 2, 200, seed=0, chains=10)
        boson.commutator(boson.static_boson(1, 2, 2.0, grid, 2), boson.static_boson(-1, 2, 2.0, grid, 2))
        values = t.layer_metrics({}, 0)
    finally:
        restored = t.uninstall()
    assert restored
    assert dyson.simulate_dbm.__module__ == "coulombgas.dyson" and not hasattr(dyson.simulate_dbm, "__wrapped__")
    for name in tracer.COUNTERS:
        assert values[f"{name}.calls"] == 1, name
    assert values["dyson.simulate_dbm.replica_steps"] == 10 * 20
    assert values["dyson.simulate_dbm.stored_mb"] > 0.0
    assert values["dyson.postproc.bytes_read"] == 4 * (ens.paths.nbytes + ens.incs.nbytes)
    assert values["dyson.sample_equilibrium.site_updates"] == 10 * 20 * 2
    assert values["boson.commutator.operand_mb"] > 0.0
    assert set(tracer.per_layer_units()) - set(values) == {"trace.overhead_s"}


def test_tracer_counts_online_run_as_unstored():
    """A run with functionals and no stored paths stores nothing, and the
    constraint residual reads its functional, both under the tracer."""
    tracer = _load("tracer")
    t = tracer.Tracer("contract-online")
    t.install()
    try:
        grid = boson.TimeGrid(0.01, 20)
        a = bump(0.0, grid.dt * grid.steps, 4)
        cop = svconstraints.build_dynamical_constraint(-1, a, HERMITE2, 3, grid, 2, parts="affine")
        funcs = {"constraint": svconstraints.constraint_functional(cop), **dyson.girsanov_functionals({2: 0.05}, grid)}
        ens = dyson.simulate_dbm(HERMITE2, 3, grid, 10, seed=0, functionals=funcs)
        svconstraints.constraint_residual_mc(cop, ens, "constraint")
        values = t.layer_metrics({}, 0)
    finally:
        restored = t.uninstall()
    assert restored
    assert values["dyson.simulate_dbm.calls"] == 1 and values["svconstraints.constraint_residual_mc.calls"] == 1
    assert values["dyson.simulate_dbm.stored_mb"] == 0.0
    assert values["dyson.postproc.bytes_read"] == 0


def test_tracer_counts_a_run_on_worker_processes():
    """With workers=2 the tracer wraps simulate_dbm in this process and reads
    the merged Ensemble: its replica steps and rejections are the Ensemble's,
    and every wrapped name is restored.  The workers step the blocks and run
    no traced function."""
    tracer = _load("tracer")
    t = tracer.Tracer("contract-workers")
    t.install()
    try:
        grid = boson.TimeGrid(5e-3, 100)
        init = dyson.InitSpec("equispaced", halfwidth=1.0)
        ens = dyson.simulate_dbm(HERMITE2, 5, grid, 1100, init, seed=3, workers=2)
        values = t.layer_metrics({}, 0)
    finally:
        restored = t.uninstall()
    assert restored is True
    assert values["dyson.simulate_dbm.calls"] == 1
    assert values["dyson.simulate_dbm.replica_steps"] == ens.m * grid.steps == 1100 * 100
    assert values["dyson.simulate_dbm.rejected"] == ens.rejected > 0
    assert values["dyson.simulate_dbm.substepped"] == ens.substepped
    assert "_run_blocks" not in tracer.TRACED["dyson"]


@pytest.mark.parametrize("workload", ["langevin-online", "langevin-stored", "operator-algebra", "gibbs-loop"])
def test_workload_scenarios_validate(workload):
    worker = _load("worker")
    scns = worker.scenarios(workload, 2024, cli.default_scenario)
    assert [s["suite"] for s in scns] == [suite for suite, _ in worker.WORKLOADS[workload]]
    for scn in scns:
        cli.validate_scenario(scn)
