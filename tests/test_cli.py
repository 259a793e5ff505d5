import copy
import importlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coulombgas import cli
from coulombgas.cli import (
    SUITES,
    default_scenario,
    main,
    run_suite,
    validate_scenario,
    write_report,
)

#: The environment of a child process: the coulombgas these tests import comes
#: first on its path, so a bare ``python -m pytest`` runs the same code in both.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def test_schema_version_constant():
    assert cli.SCHEMA_VERSION == "1.0.0"
    for suite in SUITES:
        assert default_scenario(suite)["schema_version"] == "1.0.0"


def test_default_configs_are_complete():
    for suite in SUITES:
        validate_scenario(default_scenario(suite))


def test_validate_rejects_missing_keys():
    scn = default_scenario("kernel-identities")
    del scn["k_max"]
    with pytest.raises(ValueError):
        validate_scenario(scn)
    with pytest.raises(ValueError):
        validate_scenario({"suite": "no-such-suite"})


def test_run_writes_reports_and_exit_codes(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(default_scenario("boson-commutators")))
    out = tmp_path / "reports"
    rc = main(["run", str(cfg), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "boson-commutators.json").read_text())
    assert report["schema_version"] == "1.0.0"
    assert report["passed"] is True
    for c in report["checks"]:
        assert set(c) >= {"name", "anchor", "value", "tolerance", "pass"}
    assert (out / "boson-commutators_psi_psi_commutators.csv").exists()
    header = (out / "boson-commutators_psi_psi_commutators.csv").read_text().splitlines()[0]
    assert header == "potential,k,l,commutator,l*K_kl"


def test_config_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 2
    incomplete = tmp_path / "inc.json"
    incomplete.write_text(json.dumps({"suite": "kernel-identities"}))
    assert main(["run", str(incomplete), "--out", str(tmp_path)]) == 2


def test_langevin_config_errors_exit_2(tmp_path, capsys):
    """A sample time past steps * dt and a missing grid key are config errors
    (exit 2 with a message), caught before any simulation runs."""
    short = default_scenario("dbm-moments")
    short["grid"]["steps"] = 800  # default pi1_times / pi2_window reach t = 4.0
    no_dt = default_scenario("dbm-moments")
    del no_dt["grid"]["dt"]
    for name, scn in (("short", short), ("no-dt", no_dt)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(scn))
        assert main(["run", str(cfg), "--out", str(tmp_path / name)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / name).exists()


def _mutated(suite, **changes):
    scn = default_scenario(suite)
    for path, value in changes.items():
        *keys, leaf = path.split("__")
        target = scn
        for key in keys:
            target = target[int(key)] if isinstance(target, list) else target[key]
        target[leaf] = value
    return scn


OPERATOR_CONFIG_ERRORS = {
    "sv-algebra interior_modes > k_max": _mutated("sv-algebra", interior_modes=10),
    "sv-algebra one grid": _mutated("sv-algebra", grids=[{"dt": 0.02, "steps": 50}]),
    "sv-algebra grid steps 1": _mutated("sv-algebra", grids__0__steps=1),
    "sv-algebra repeated grid": _mutated("sv-algebra", grids=[{"dt": 0.04, "steps": 25}, {"dt": 0.04, "steps": 25}]),
    "sv-algebra grid dt not halved": _mutated("sv-algebra", grids=[{"dt": 0.02, "steps": 50}, {"dt": 0.005, "steps": 200}]),
    "sv-algebra grid span changed": _mutated("sv-algebra", grids=[{"dt": 0.02, "steps": 50}, {"dt": 0.01, "steps": 50}]),
    "boson-commutators grid steps 1": _mutated("boson-commutators", grid__steps=1),
    "boson-commutators grid steps 2": _mutated("boson-commutators", grid__steps=2),
    "boson-commutators k_max < force support": _mutated("boson-commutators", k_max=1),
    "kernel-identities k_max < force support": _mutated("kernel-identities", k_max=0),
    "sv-algebra constraint_mc k_max < force support": _mutated("sv-algebra", constraint_mc__k_max=0),
    "npoint k_max < force support": _mutated("npoint", k_max=0),
    "hermite-example one dt": _mutated("hermite-example", dts=[0.01]),
    "hermite-example dt leaves one step": _mutated("hermite-example", dts=[1.0, 0.5]),
    "hermite-example dt 0": _mutated("hermite-example", dts=[0.01, 0.0]),
    "hermite-example k_max 2": _mutated("hermite-example", k_max=2),
    "hermite-example dts repeated": _mutated("hermite-example", dts=[0.02, 0.01, 0.01]),
    "kernel-identities no times": _mutated("kernel-identities", times=[]),
    "kernel-identities time below 0": _mutated("kernel-identities", times=[-0.1, 0.3]),
    "kernel-identities time 10": _mutated("kernel-identities", times=[0.1, 10.0]),
    "kernel-identities identity_times not decreasing": _mutated("kernel-identities", identity_times=[0.3, 0.2, 0.2]),
    "kernel-identities two identity_times": _mutated("kernel-identities", identity_times=[0.2, 0.1]),
    "np-brackets exponent -2": _mutated("np-brackets", exponents=[-2, 0]),
    "np-brackets grid_points 10": _mutated("np-brackets", grid_points=10),
    "np-brackets t_max 0": _mutated("np-brackets", t_max=0.0),
    "np-brackets eps 0": _mutated("np-brackets", eps=0.0),
    "hermite-example sigma 0": _mutated("hermite-example", sigma=0.0),
    "malformed: boson-commutators potential without b": _mutated("boson-commutators", potentials__hermite={"beta": 2.0}),
    "malformed: npoint b as a list": _mutated("npoint", b=[1.0]),
    "kernel-identities potential renamed": _mutated(
        "kernel-identities",
        potentials={("quadratic" if k == "quadratic-force" else k): v for k, v in default_scenario("kernel-identities")["potentials"].items()},
    ),
}

EQUILIBRIUM_CONFIG_ERRORS = {
    "orders 7": _mutated("equilibrium-loop", orders=[0, 7]),
    "orders -1": _mutated("equilibrium-loop", orders=[-1]),
    "orders 1.5": _mutated("equilibrium-loop", orders=[1.5]),
    "chains 0": _mutated("equilibrium-loop", chains=0),
    "chains 1": _mutated("equilibrium-loop", chains=1),
    "sweeps 1e5": _mutated("equilibrium-loop", sweeps=1e5),
    "case without beta": _mutated("equilibrium-loop", cases=[{"n_particles": 2}]),
    "beta -1": _mutated("equilibrium-loop", cases__0__beta=-1.0),
    "n_particles 0": _mutated("equilibrium-loop", cases__3__n_particles=0),
    "n_particles 2.5": _mutated("equilibrium-loop", cases__0__n_particles=2.5),
    "no cases": _mutated("equilibrium-loop", cases=[]),
    "orders repeated": _mutated("equilibrium-loop", orders=[0, 0]),
    "cases repeated": _mutated("equilibrium-loop", cases=[{"n_particles": 2, "beta": 1.0}, {"beta": 1, "n_particles": 2}]),
    "b not confining": _mutated("equilibrium-loop", b={"2": 1.0}),
    "b not Gaussian": _mutated("equilibrium-loop", b={"1": 1, "3": 0.2}),
    "b_1 negative": _mutated("equilibrium-loop", b={"1": -1.0}),
    "seed -1": _mutated("equilibrium-loop", seed=-1),
    "threads -3": _mutated("equilibrium-loop", threads=-3),
    "malformed: case not an object": _mutated("equilibrium-loop", cases=[[2, 1.0]]),
    "malformed: b as a list": _mutated("equilibrium-loop", b=[1.0]),
}


LANGEVIN_CONFIG_ERRORS = {
    "girsanov tau_1": _mutated("girsanov", tau={"1": 0.1}),
    "girsanov init_values of the wrong length": _mutated("girsanov", init_values=[-1.0, 0.0, 1.0]),
    "girsanov n_particles 0": _mutated("girsanov", n_particles=0, init_values=[]),
    "girsanov replicas 1": _mutated("girsanov", replicas=1),
    "dbm-moments moment_ks 7": _mutated("dbm-moments", moment_ks=[1, 7]),
    "dbm-moments init kind bogus": _mutated("dbm-moments", init={"kind": "bogus"}),
    "dbm-moments unknown init key": _mutated("dbm-moments", init={"kind": "equispaced", "offset": 0.5}),
    "dbm-moments replicas 1": _mutated("dbm-moments", replicas=1),
    "dbm-moments b not Gaussian": _mutated("dbm-moments", b={"1": 1.0, "3": 0.1}),
    "dbm-moments equilibrium init, force not confining": _mutated("dbm-moments", b={"2": 1.0}, init={"kind": "equilibrium"}),
    "npoint mode above k_max": _mutated("npoint", modes=[1, 5]),
    "npoint modes repeated": _mutated("npoint", modes=[1, 2, 1]),
    "dbm-moments pi1_times repeated": _mutated("dbm-moments", pi1_times=[0.5, 0.5]),
    "dbm-moments moment_ks repeated": _mutated("dbm-moments", moment_ks=[1, 2, 2]),
    "npoint explicit init of the wrong length": _mutated("npoint", init={"kind": "explicit", "values": [0.0, 1.0]}),
    "girsanov coincident init_values": _mutated("girsanov", init_values=[-4.0, -2.0, 0.0, 0.0, 4.0]),
    "dbm-moments coincident explicit init": _mutated("dbm-moments", init={"kind": "explicit", "values": [-1.0, 0.0, 0.0, 1.0, 2.0]}),
    "npoint coincident explicit init": _mutated("npoint", init={"kind": "explicit", "values": [0, 0, 1, 2, 3]}),
    "sv-algebra constraint_mc k_max 1": _mutated("sv-algebra", constraint_mc__k_max=1),
    "sv-algebra constraint_mc replicas 1": _mutated("sv-algebra", constraint_mc__replicas=1),
    "sv-algebra constraint_mc beta 0": _mutated("sv-algebra", constraint_mc__beta=0.0),
    "malformed: girsanov tau key not an integer": _mutated("girsanov", tau={"two": 0.05}),
    "npoint Gaussian b_1 negative": _mutated("npoint", b={"1": -1.0}),
    "sv-algebra constraint_mc Gaussian b_1 negative": _mutated("sv-algebra", constraint_mc__b={"1": -1.0}),
    "npoint seed 2**63": _mutated("npoint", seed=2**63),
    "dbm-moments init sweeps 0": _mutated("dbm-moments", init={"kind": "equilibrium", "sweeps": 0}),
}

#: The start of the message a config gets, where the test asserts it: the key path at fault.
MALFORMED_MESSAGES = {
    "malformed: boson-commutators potential without b": "potentials.hermite: missing b",
    "malformed: npoint b as a list": "b must be an object",
    "malformed: b as a list": "b must be an object",
    "malformed: girsanov tau key not an integer": "tau: key 'two' must be an integer",
    "malformed: case not an object": "cases[0] must be an object",
    "npoint seed 2**63": f"seed must be < {2**63}",
    "kernel-identities time 10": "times[1] must be < 10",
    "threads -3": "threads must be >= 1",
    "dbm-moments init sweeps 0": "init.sweeps must be >= 1",
    "girsanov coincident init_values": "init_values must be distinct",
    "dbm-moments coincident explicit init": "init.values must be distinct",
    "npoint coincident explicit init": "init.values must be distinct",
    "orders repeated": "orders must not repeat an entry",
    "cases repeated": "cases must not repeat an entry",
    "npoint modes repeated": "modes must not repeat an entry",
    "dbm-moments pi1_times repeated": "pi1_times must not repeat an entry",
    "dbm-moments moment_ks repeated": "moment_ks must not repeat an entry",
    "hermite-example dts repeated": "dts must not repeat an entry",
    "sv-algebra repeated grid": "grids[1] must halve the dt of grids[0]",
    "sv-algebra grid dt not halved": "grids[1] must halve the dt of grids[0]",
    "sv-algebra grid span changed": "grids[1] must halve the dt of grids[0]",
}

#: Configs with a key no suite reads, by the start of their message.
UNKNOWN_KEY_ERRORS = {
    "config: unknown key debug": _mutated("kernel-identities", debug={"flip_generator_sign": True}),
    "tolerances: unknown key semigroupp": _mutated("kernel-identities", tolerances__semigroupp=1e-10),
    "potentials.hermite: unknown key sigma": _mutated("boson-commutators", potentials__hermite__sigma=1.0),
    "init: unknown key offset": _mutated("npoint", init__offset=0.5),
    "constraint_mc: unknown key replica": _mutated("sv-algebra", constraint_mc__replica=100),
}


def test_init_keys_name_the_engine_fields():
    """The init keys validation accepts are the fields of dyson.InitSpec."""
    import dataclasses

    from coulombgas.cli import INIT_KEYS
    from coulombgas.dyson import InitSpec

    assert INIT_KEYS == tuple(f.name for f in dataclasses.fields(InitSpec))


def _assert_config_error(tmp_path, scn, message=None):
    """Running scn exits 2 with a message, no traceback and no report."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scn))
    proc = subprocess.run(
        [sys.executable, "-m", "coulombgas.cli", "run", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
    if message:
        assert f"config error: {message}" in proc.stderr


@pytest.mark.parametrize("case", sorted(OPERATOR_CONFIG_ERRORS))
def test_operator_config_errors_exit_2(tmp_path, case):
    """Configs that the operator suites cannot run are config errors."""
    _assert_config_error(tmp_path, OPERATOR_CONFIG_ERRORS[case], MALFORMED_MESSAGES.get(case))


@pytest.mark.parametrize("case", sorted(LANGEVIN_CONFIG_ERRORS))
def test_langevin_value_errors_exit_2(tmp_path, case):
    """Langevin-suite configs that would end in a traceback, a nan standard
    error or a vacuous pass are config errors."""
    _assert_config_error(tmp_path, LANGEVIN_CONFIG_ERRORS[case], MALFORMED_MESSAGES.get(case))


@pytest.mark.parametrize("case", sorted(EQUILIBRIUM_CONFIG_ERRORS))
def test_equilibrium_config_errors_exit_2(tmp_path, case):
    """equilibrium-loop configs that would end in a traceback, a nan standard
    error or an empty run are config errors."""
    _assert_config_error(tmp_path, EQUILIBRIUM_CONFIG_ERRORS[case], MALFORMED_MESSAGES.get(case))


@pytest.mark.parametrize("message", sorted(UNKNOWN_KEY_ERRORS))
def test_unknown_keys_exit_2(tmp_path, message):
    """A key the suite does not read, at any depth, is a config error that
    names its path."""
    _assert_config_error(tmp_path, UNKNOWN_KEY_ERRORS[message], message)


def _key_paths(node, prefix=()):
    """Every key path of a config: object keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


RETYPED = (None, True, "x", [], {}, 0, -1, 0.5, float("nan"), [1.0], {"1": 1.0}, {"beta": 2.0})


def _mutated_by(data, scn):
    """scn with one to three key paths dropped, renamed, retyped or negated,
    as drawn from the hypothesis data."""
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, leaf = data.draw(st.sampled_from(list(_key_paths(scn))))
        target = scn
        for key in parents:
            target = target[key]
        mutation = data.draw(st.sampled_from(("drop", "rename", "retype", "negate")))
        if mutation == "drop":
            del target[leaf]
        elif mutation == "rename" and isinstance(target, dict):
            target[f"{leaf}x"] = target.pop(leaf)
        elif mutation == "retype":
            target[leaf] = copy.deepcopy(data.draw(st.sampled_from(RETYPED)))
        elif mutation == "negate" and type(target[leaf]) in (int, float):
            target[leaf] = -target[leaf]
    return scn


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_validate_mutated_defaults_returns_or_raises_value_error(data):
    """Default configs with keys dropped, renamed, retyped or negated either
    validate or raise ValueError, never another exception."""
    scn = _mutated_by(data, default_scenario(data.draw(st.sampled_from(SUITES))))
    try:
        validate_scenario(scn)
    except ValueError:
        pass


def _tiny_scenario(suite):
    """_small_scenario with the Langevin runs cut to 20 replicas of 50 steps
    and the Metropolis loop to 100 sweeps of 4 chains."""
    scn = _small_scenario(suite)
    tiny = {"replicas": 20, "grid": {"dt": 1e-3, "steps": 50}}
    if suite == "sv-algebra":
        scn["constraint_mc"].update(tiny)
    elif suite == "equilibrium-loop":
        scn.update(sweeps=100, chains=4)
    elif suite == "dbm-moments":
        scn.update(tiny, pi1_times=[0.02, 0.04], pi2_window=[0.03, 0.05])
    elif suite in ("girsanov", "npoint"):
        scn.update(tiny)
    return scn


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_run_mutated_small_configs_exit_0_1_or_2(tmp_path_factory, data):
    """Tiny configs of every suite with keys dropped, renamed, retyped or
    negated run through main to exit 0, 1 or 2; no exception escapes."""
    scn = _mutated_by(data, _tiny_scenario(data.draw(st.sampled_from(SUITES))))
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "cfg.json").write_text(json.dumps(scn))
    assert main(["run", str(tmp / "cfg.json"), "--out", str(tmp / "out")]) in (0, 1, 2)


def test_validation_imports_no_engine():
    """Validating every default config imports neither kernel nor dyson, so
    a config error costs no engine start-up."""
    code = (
        "import sys\n"
        "from coulombgas import cli\n"
        "for suite in cli.SUITES:\n"
        "    cli.validate_scenario(cli.default_scenario(suite))\n"
        "print(sorted({'coulombgas.kernel', 'coulombgas.dyson'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pi1_decay_uses_sigma():
    """pi1-decay expects pi_1(0) e^{-t/sigma^2}: at b_1 = 2 (sigma^2 = 1/2)
    both rows pass, and the expected values fall by e^{-2 (1.0 - 0.5)}."""
    scn = default_scenario("dbm-moments")
    scn.update(b={"1": 2.0}, replicas=400, grid={"dt": 1e-3, "steps": 1000}, pi2_window=[0.8, 1.0])
    rep, _ = run_suite(validate_scenario(scn))
    rows = [c for c in rep["checks"] if c["name"].startswith("pi1-decay/")]
    assert [c["name"] for c in rows] == ["pi1-decay/t=0.5", "pi1-decay/t=1.0"]
    assert math.isclose(rows[1]["expected"] / rows[0]["expected"], math.exp(-1.0), rel_tol=1e-12)
    assert all(c["pass"] for c in rows), rows


def test_seed_flag_below_zero_exit_2(tmp_path, capsys):
    """--seed -1 is a config error like a negative seed in the file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(default_scenario("equilibrium-loop")))
    assert main(["run", str(cfg), "--seed", "-1", "--out", str(tmp_path / "r")]) == 2
    assert "config error: --seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_threads_flag_zero_exit_2(tmp_path, capsys):
    """--threads 0 is a config error like that value in the file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(default_scenario("equilibrium-loop")))
    assert main(["run", str(cfg), "--threads", "0", "--out", str(tmp_path / "r")]) == 2
    assert "config error: --threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_seed_flag_at_ceiling_exit_2(tmp_path, capsys):
    """--seed 2**63 is a config error like that seed in the file."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(default_scenario("npoint")))
    assert main(["run", str(cfg), "--seed", str(2**63), "--out", str(tmp_path / "r")]) == 2
    assert f"config error: --seed must be < {2**63}" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_largest_seed_runs():
    """girsanov, whose second run uses seed + 1, runs at the largest seed."""
    scn = default_scenario("girsanov")
    scn.update(seed=2**63 - 1, replicas=20, grid={"dt": 0.01, "steps": 10})
    validate_scenario(scn)
    rep, _ = run_suite(scn)
    assert rep["scenario"]["seed"] == 2**63 - 1 and rep["checks"]


def test_integer_dt_runs(tmp_path, capsys):
    """An integer dt passes as a number and runs: dt = 1 ends in the engine's
    rejection-rate error (exit 1), not in an int/float cast error in the
    collision sub-steps."""
    scn = default_scenario("npoint")
    scn.update(replicas=20, grid={"dt": 1, "steps": 4})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scn))
    assert main(["run", str(cfg), "--out", str(tmp_path / "r")]) == 1
    assert "engine error: RejectionRateError" in capsys.readouterr().err


def test_equilibrium_reports_sampler_diagnostics():
    """Each pi2-stationary row carries the sampler's acceptance rate and
    integrated autocorrelation time of pi_1."""
    rep, _ = run_suite(_small_scenario("equilibrium-loop"))
    rows = [c for c in rep["checks"] if c["name"].startswith("pi2-stationary/")]
    assert len(rows) == 4
    for c in rows:
        assert 0.0 < c["acceptance"] < 1.0 and isinstance(c["acceptance"], float)
        assert c["tau_int"] >= 1.0 and isinstance(c["tau_int"], float)


def test_engine_failure_writes_failed_report(tmp_path, capsys):
    """An engine error (here the rejection-rate budget) ends in a failed
    report and exit 1, with one line on stderr and no traceback."""
    scn = default_scenario("dbm-moments")
    scn.update(replicas=200, grid={"dt": 0.02, "steps": 200}, init={"kind": "equispaced", "halfwidth": 1.0})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scn))
    assert main(["run", str(cfg), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "RejectionRateError: rejection rate" in err[0]

    def no_constants(name):
        raise ValueError(f"non-finite number {name} in the report")

    report = json.loads((tmp_path / "r" / "dbm-moments.json").read_text(), parse_constant=no_constants)
    assert report["passed"] is False and report["scenario"] == scn
    (row,) = report["checks"]
    assert row["pass"] is False and row["error"].startswith("RejectionRateError: rejection rate")
    assert isinstance(row["value"], float) and isinstance(row["tolerance"], float)


def test_kernel_times_past_the_ceiling_exit_2_at_once(tmp_path, capsys):
    """A kernel time of 3000 is a config error within a second: the
    characteristics route costs time linear in t, so the run would take minutes."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_mutated("kernel-identities", times=[0.1, 3000.0])))
    t0 = time.perf_counter()
    assert main(["run", str(cfg), "--out", str(tmp_path / "r")]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "config error: times[1] must be < 10" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def _nan_into_x(op, args):
    """Allocate the multiplier field if need be and set one of its entries to nan."""
    if op.x is None:
        op.x = np.zeros(op.nvar)
    op.x[op.vid(1, op.grid.steps // 2)] = np.nan


def _nan_into_time_slot_3(op, args):
    """The multiplier psi_{-k}(t_3) gets a nan at its own entry."""
    k, j = args[:2]
    if k < 0 and j == 3:
        op.x[op.vid(-k, j)] = np.nan


#: Where a nan enters each residual fold: (scenario, function, how its result
#: is poisoned, the row that must fail).  With the builtin max every one of
#: these rows passed, because max(worst, nan) keeps worst.
NAN_SITES = {
    "boson-commutators residual": (
        default_scenario("boson-commutators"),
        "coulombgas.kernel.retarded_propagator_modes",
        lambda g, args: g.entries.__setitem__((1, 1), np.nan),
        "psi-psi-retarded/hermite",
    ),
    "boson-commutators field_max_abs": (
        default_scenario("boson-commutators"),
        "coulombgas.boson.dynamic_boson",
        _nan_into_time_slot_3,
        "psi-plus-equals-phi-plus/hermite",
    ),
    "np-brackets elementary-bracket": (
        default_scenario("np-brackets"),
        "coulombgas.nptransform.numeric_commutator_richardson",
        lambda num, args: num.__setitem__(num.size // 2, np.nan) if args[3] == 1e-2 else None,  # not the Jacobi calls at 2 eps
        "elementary-bracket",
    ),
    "np-brackets delayed-force-closed-family": (
        default_scenario("np-brackets"),
        "coulombgas.nptransform.force_change",
        lambda out, args: out["delay"].__setitem__(0, np.nan) if args[0] == -1 else None,
        "delayed-force-closed-family",
    ),
    "sv-algebra weak_field_score": (
        _mutated("sv-algebra", potentials={"hermite": {"beta": 2.0, "b": {"1": 1.0}}}, constraint_mc=None),
        "coulombgas.svconstraints.commutator",
        _nan_into_x,
        "bracket-ratio/hermite/quadr [0,0] -> 0-type",
    ),
    "hermite-example cancellation fold": (
        default_scenario("hermite-example"),
        "coulombgas.svconstraints._hermite_mode_pieces",
        lambda pieces, args: pieces[3].__setitem__((1, 0), np.nan) if args[2] == 3 else None,
        "cancellation/C11+C4",
    ),
}


@pytest.mark.parametrize("site", sorted(NAN_SITES))
def test_nan_residual_fails_its_row(tmp_path, monkeypatch, site):
    """A nan that reaches a residual fold makes the row's value nan, the row
    fails and the run exits 1."""
    scn, target, poison, row = NAN_SITES[site]
    module, name = target.rsplit(".", 1)
    real = getattr(importlib.import_module(module), name)

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        poison(out, args)
        return out

    monkeypatch.setattr(target, poisoned)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scn))
    assert main(["run", str(cfg), "--out", str(tmp_path / "r")]) == 1
    checks = {c["name"]: c for c in json.loads((tmp_path / "r" / f"{scn['suite']}.json").read_text())["checks"]}
    assert math.isnan(checks[row]["value"]) and checks[row]["pass"] is False


def test_negative_control_exit_1(tmp_path, monkeypatch):
    """A wrong matrix exponential, the first-order step I + a, fails every
    semigroup row and the run exits 1."""
    monkeypatch.setattr("coulombgas.kernel.expm_tol", lambda a: np.eye(a.shape[0]) + a)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(default_scenario("kernel-identities")))
    rc = main(["run", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 1
    report = json.loads((tmp_path / "r" / "kernel-identities.json").read_text())
    semis = [c for c in report["checks"] if c["name"].startswith("semigroup/")]
    assert semis and not any(c["pass"] for c in semis)


def _small_scenario(suite):
    """Default scenario of a suite, cut to a size that runs in about a second."""
    scn = default_scenario(suite)
    if suite == "sv-algebra":
        scn.update(k_max=6, interior_modes=4, grids=[{"dt": 0.04, "steps": 25}, {"dt": 0.02, "steps": 50}])
        scn["constraint_mc"].update(replicas=200, grid={"dt": 1e-3, "steps": 200})
    elif suite == "equilibrium-loop":
        scn.update(sweeps=4000, chains=40)
    elif suite == "dbm-moments":
        scn.update(replicas=200, grid={"dt": 1e-3, "steps": 1000}, pi1_times=[0.5, 1.0], pi2_window=[0.8, 1.0])
    elif suite == "girsanov":
        scn.update(replicas=300)
    elif suite == "npoint":
        scn.update(replicas=200, grid={"dt": 1e-3, "steps": 400})
    elif suite == "hermite-example":
        scn.update(dts=[0.02, 0.01])
    return scn


def _report_and_tables(out, suite) -> tuple:
    """The report with its wall-clock check values masked, and the CSV bytes."""
    report = json.loads((out / f"{suite}.json").read_text())
    for c in report["checks"]:
        if c["name"] in TIMED_CHECKS:
            c["value"] = None
    return report, {f.name: f.read_bytes() for f in out.glob("*.csv")}


@pytest.mark.parametrize("suite", ["dbm-moments", "npoint", "girsanov", "sv-algebra"])
def test_threads_do_not_change_reports(tmp_path, suite):
    """--threads 1 and --threads 2 write the same checks and CSVs; only
    scenario.threads differs.  1 200 replicas make blocks of 500, 500 and
    200, so the two workers get unequal shares and the last block is short."""
    scn = _small_scenario(suite)
    if suite == "sv-algebra":
        scn.update(potentials={})
        scn["constraint_mc"]["replicas"] = 1200
    else:
        scn["replicas"] = 1200
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scn))
    runs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        assert main(["run", str(cfg), "--threads", str(threads), "--out", str(out)]) in (0, 1)
        report, tables = _report_and_tables(out, suite)
        assert report["scenario"].pop("threads") == threads and tables
        runs.append((report, tables))
    assert runs[0] == runs[1]


def test_equilibrium_loop_split_does_not_change_reports(tmp_path, monkeypatch):
    """equilibrium-loop writes the same report and CSV bytes with its cases
    split over two processes and run in this one, and leaves no child."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_small_scenario("equilibrium-loop")))
    outs = []
    for cores in (2, 1):
        monkeypatch.setattr("coulombgas.dyson._cores", lambda cores=cores: cores)
        outs.append(tmp_path / f"cores{cores}")
        assert main(["run", str(cfg), "--out", str(outs[-1])]) == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    files = sorted(f.name for f in outs[0].iterdir())
    assert files == sorted(f.name for f in outs[1].iterdir()) == ["equilibrium-loop.json", "equilibrium-loop_loop_residuals.csv"]
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.mark.parametrize("failing, first", [((1, 2), 1), ((0, 3), 0)])
def test_equilibrium_loop_raises_the_first_failing_case(monkeypatch, failing, first):
    """With the default cases on two processes, this one runs cases 0 and 2
    and a forked one cases 1 and 3.  When a case of each raises, the error
    raised is that of the earlier case, as in a run on one process, and the
    forked process has been joined."""
    from coulombgas import dyson

    scn = _small_scenario("equilibrium-loop")
    cases = [(c["n_particles"], c["beta"]) for c in scn["cases"]]
    sample = dyson.sample_equilibrium

    def failing_sample(pot, n, sweeps, **kwargs):
        i = cases.index((n, pot.beta))
        if i in failing:
            raise FloatingPointError(f"case {i} in {'this' if os.getpid() == here else 'a forked'} process")
        return sample(pot, n, sweeps, **kwargs)

    here = os.getpid()
    monkeypatch.setattr(dyson, "sample_equilibrium", failing_sample)
    monkeypatch.setattr(dyson, "_cores", lambda: 2)
    with pytest.raises(FloatingPointError) as info:
        run_suite(scn)
    assert str(info.value) == f"case {first} in {'a forked' if first % 2 else 'this'} process"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_equilibrium_loop_raises_when_a_forked_process_dies(monkeypatch):
    """A forked process that ends without sending its rows makes the runner
    raise, after it has been waited for."""
    from coulombgas import dyson

    here, loop_cases = os.getpid(), cli._loop_cases

    def dying(scn, indices):
        if os.getpid() != here:
            os._exit(3)
        return loop_cases(scn, indices)

    monkeypatch.setattr(cli, "_loop_cases", dying)
    monkeypatch.setattr(dyson, "_cores", lambda: 2)
    with pytest.raises(EOFError):
        run_suite(_small_scenario("equilibrium-loop"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_engine_error_in_a_worker_writes_failed_report(tmp_path, monkeypatch, capsys):
    """A RejectionRateError raised in a worker reaches main as the engine
    report and exit 1.  With a minimum gap no step can keep, the first row of
    each worker's range fails its sub-steps at step 0, in this process and in
    the forked one alike."""
    monkeypatch.setattr("coulombgas.dyson.GAP_MIN", 1e3)  # the forked worker inherits it
    scn = _small_scenario("npoint")
    scn["replicas"] = 600
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scn))
    assert main(["run", str(cfg), "--threads", "2", "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["engine error: RejectionRateError: step 0: sub-step rejection did not terminate"]
    report = json.loads((tmp_path / "r" / "npoint.json").read_text())
    (row,) = report["checks"]
    assert report["passed"] is False and row["name"] == "npoint/engine" and row["error"] == err[0].removeprefix("engine error: ")


#: The ordered (name, anchor) of every check row that each suite's _small_scenario
#: writes.  It holds no float, so it holds on any host; a runner that drops,
#: renames or reorders a row fails test_reports_bitwise_reproducible.
CHECK_LAYOUT = {
    "kernel-identities": [
        ("route-equivalence/quadratic-force", "exp(tA) vs characteristics"),
        ("route-equivalence/mixed-force", "exp(tA) vs characteristics"),
        ("route-equivalence/runtime", "wall clock seconds"),
        ("hermite-diagonal", "K_kl = delta e^{-kt/s^2}"),
        ("hermite-closed/hermite-beta1", "re-derived coefficients k!/(m!(k-2m)!) f^m e^{-(k-2m)t}"),
        ("hermite-closed/hermite-beta4", "re-derived coefficients k!/(m!(k-2m)!) f^m e^{-(k-2m)t}"),
        ("semigroup/hermite", "K(t-t')K(t'-t'')=K(t-t''), relative to the kernel scale"),
        ("kolmogorov-forward/hermite", "dK/dt = (generator) K, relative"),
        ("kolmogorov-backward/hermite", "dK/dt = K (generator), relative"),
        ("technical-lemma/u=1/hermite", "d/dt' contour pair sum, weight ub'-u'b"),
        ("technical-lemma/u=z/hermite", "d/dt' contour pair sum, weight ub'-u'b (+ second-derivative band correction off the transport line)"),
        ("semigroup/generic-beta1", "K(t-t')K(t'-t'')=K(t-t''), relative to the kernel scale"),
        ("kolmogorov-forward/generic-beta1", "dK/dt = (generator) K, relative"),
        ("kolmogorov-backward/generic-beta1", "dK/dt = K (generator), relative"),
        ("technical-lemma/u=1/generic-beta1", "d/dt' contour pair sum, weight ub'-u'b"),
        ("technical-lemma/u=z/generic-beta1", "d/dt' contour pair sum, weight ub'-u'b (+ second-derivative band correction off the transport line)"),
        ("semigroup/generic-beta4", "K(t-t')K(t'-t'')=K(t-t''), relative to the kernel scale"),
        ("kolmogorov-forward/generic-beta4", "dK/dt = (generator) K, relative"),
        ("kolmogorov-backward/generic-beta4", "dK/dt = K (generator), relative"),
        ("technical-lemma/u=1/generic-beta4", "d/dt' contour pair sum, weight ub'-u'b"),
        ("technical-lemma/u=z/generic-beta4", "d/dt' contour pair sum, weight ub'-u'b (+ second-derivative band correction off the transport line)"),
    ],
    "boson-commutators": [
        ("psi-psi-retarded/hermite", "[psi_k(t), psi_-l(t')] = l K_kl(t-t')"),
        ("psi-phi/hermite", "[psi_k(t), phi_-l(t')] = l K_kl, incl. equal-time"),
        ("phi-phi-delta/hermite", "[phi_k, phi_-l] = (l/dt) delta_kl delta_jj'"),
        ("phi-phi-unequal/hermite", "[phi(t), phi(t')] = 0 for t != t'"),
        ("psi-plus-equals-phi-plus/hermite", "multiplier halves coincide exactly"),
        ("psi-psi-retarded/generic-beta1", "[psi_k(t), psi_-l(t')] = l K_kl(t-t')"),
        ("psi-phi/generic-beta1", "[psi_k(t), phi_-l(t')] = l K_kl, incl. equal-time"),
        ("phi-phi-delta/generic-beta1", "[phi_k, phi_-l] = (l/dt) delta_kl delta_jj'"),
        ("phi-phi-unequal/generic-beta1", "[phi(t), phi(t')] = 0 for t != t'"),
        ("psi-plus-equals-phi-plus/generic-beta1", "multiplier halves coincide exactly"),
    ],
    "sv-algebra": [
        ("bracket-ratio/hermite/quadr [0,0] -> 0-type", "first-order dt trend of the bracket residual"),
        ("bracket-ratio/hermite/quadr [-1,0] -> -1-type", "first-order dt trend of the bracket residual"),
        ("bracket-ratio/hermite/quadr [-1,-1] -> 0", "first-order dt trend of the bracket residual"),
        ("bracket-ratio/hermite/linear [0,0] -> 0-type", "first-order dt trend of the bracket residual"),
        ("bracket-ratio/hermite/linear [-1,0] -> -1-type", "first-order dt trend of the bracket residual"),
        ("bracket-ratio/hermite/linear [-1,-1] -> 0", "first-order dt trend of the bracket residual"),
        ("bracket-ratio/generic/quadr [0,0] -> 0-type", "first-order dt trend of the bracket residual"),
        ("bracket-ratio/generic/quadr [-1,0] -> -1-type", "first-order dt trend of the bracket residual"),
        ("bracket-ratio/generic/quadr [-1,-1] -> 0", "first-order dt trend of the bracket residual"),
        ("bracket-ratio/generic/linear [0,0] -> 0-type", "first-order dt trend of the bracket residual"),
        ("bracket-ratio/generic/linear [-1,0] -> -1-type", "first-order dt trend of the bracket residual"),
        ("bracket-ratio/generic/linear [-1,-1] -> 0", "first-order dt trend of the bracket residual"),
        ("sv-algebra/runtime", "wall clock seconds"),
        ("constraint-order0/n=-1", "dynamical constraint annihilates the generating functional at order tau^0"),
        ("constraint-order0/n=0", "dynamical constraint annihilates the generating functional at order tau^0"),
    ],
    "equilibrium-loop": [
        ("loop-equation/N=2/beta=1.0/n=0", "integration-by-parts moment identity"),
        ("loop-equation/N=2/beta=1.0/n=1", "integration-by-parts moment identity"),
        ("loop-equation/N=2/beta=1.0/n=2", "integration-by-parts moment identity"),
        ("pi2-stationary/N=2/beta=1.0", "<pi_2> = sigma^2 (beta N(N-1)/2 + N)"),
        ("loop-equation/N=2/beta=2.0/n=0", "integration-by-parts moment identity"),
        ("loop-equation/N=2/beta=2.0/n=1", "integration-by-parts moment identity"),
        ("loop-equation/N=2/beta=2.0/n=2", "integration-by-parts moment identity"),
        ("pi2-stationary/N=2/beta=2.0", "<pi_2> = sigma^2 (beta N(N-1)/2 + N)"),
        ("loop-equation/N=5/beta=1.0/n=0", "integration-by-parts moment identity"),
        ("loop-equation/N=5/beta=1.0/n=1", "integration-by-parts moment identity"),
        ("loop-equation/N=5/beta=1.0/n=2", "integration-by-parts moment identity"),
        ("pi2-stationary/N=5/beta=1.0", "<pi_2> = sigma^2 (beta N(N-1)/2 + N)"),
        ("loop-equation/N=5/beta=2.0/n=0", "integration-by-parts moment identity"),
        ("loop-equation/N=5/beta=2.0/n=1", "integration-by-parts moment identity"),
        ("loop-equation/N=5/beta=2.0/n=2", "integration-by-parts moment identity"),
        ("pi2-stationary/N=5/beta=2.0", "<pi_2> = sigma^2 (beta N(N-1)/2 + N)"),
    ],
    "dbm-moments": [
        ("pi1-decay/t=0.5", "E pi_1(t) = pi_1(0) e^{-t/sigma^2}"),
        ("pi1-decay/t=1.0", "E pi_1(t) = pi_1(0) e^{-t/sigma^2}"),
        ("pi2-longtime", "<pi_2> relaxes to sigma^2 (beta N(N-1)/2 + N)"),
        ("noise-variance", "Var(dB) = 2 dt"),
        ("moment-hierarchy/k=1", "time-averaged residual of the averaged evolution identity"),
        ("action-density-mean/k=1", "E S_k(t) = 0 (martingale density)"),
        ("moment-hierarchy/k=2", "time-averaged residual of the averaged evolution identity"),
        ("action-density-mean/k=2", "E S_k(t) = 0 (martingale density)"),
        ("moment-hierarchy/k=3", "time-averaged residual of the averaged evolution identity"),
        ("action-density-mean/k=3", "E S_k(t) = 0 (martingale density)"),
        ("moment-hierarchy/k=4", "time-averaged residual of the averaged evolution identity"),
        ("action-density-mean/k=4", "E S_k(t) = 0 (martingale density)"),
        ("dbm-moments/runtime", "wall clock seconds"),
        ("rejection-rate", "step rejections below the weak-order budget"),
    ],
    "girsanov": [
        ("full-weight-mean", "E[exp(logweight + quadratic correction)] = 1"),
        ("reweighted-vs-direct", "tilt by the stored weight = drift shift -2 d(sum tau_k pi_k)"),
    ],
    "npoint": [
        ("npoint/k=1", "int f <pi_k> = kernel convolution of the action-density source (+ initial term)"),
        ("npoint/k=2", "int f <pi_k> = kernel convolution of the action-density source (+ initial term)"),
    ],
    "np-brackets": [
        ("elementary-bracket", "closed bracket vs 4-point stencil, eps-Richardson"),
        ("jacobi", "cyclic bracket sum vanishes"),
        ("shuffle-identity", "product of iterated integrals = shuffle sum (exact polynomial path)"),
        ("delayed-force-closed-family", "equal time shifts kill the delayed term for n in {-1, 0}"),
        ("sv-bracket-exact", "[X_f,X_g]=X_{f'g-fg'}, [Y_f,X_g]=Y_{f'g-fg'/2}, [Y,Y]=0"),
    ],
    "hermite-example": [
        ("cancellation/C11+C4", "paired contributions cancel"),
        ("cancellation-trend/C11+C4", "pair residual shrinks at first order in dt"),
        ("cancellation/C12+C3", "paired contributions cancel"),
        ("cancellation/C13+C2", "paired contributions cancel"),
        ("cancellation/C5+C6", "paired contributions cancel"),
        ("cancellation-trend/C5+C6", "pair residual shrinks at first order in dt"),
        ("linquadr-analytic/dt=0.02", "scalar part equals N * total-derivative quadrature (= 0)"),
        ("linquadr-analytic/dt=0.01", "scalar part equals N * total-derivative quadrature (= 0)"),
        ("linquadr-trend", "total-derivative cancellation at first order in dt"),
    ],
}

#: The rows whose value is measured seconds: masked where reports are compared.
TIMED_CHECKS = {name for rows in CHECK_LAYOUT.values() for name, anchor in rows if anchor == "wall clock seconds"}


def test_reports_bitwise_reproducible(tmp_path):
    """Two runs of every suite write identical report bytes, with the check rows
    of CHECK_LAYOUT; only the measured seconds of the three wall-clock runtime
    checks are masked (their bounds and verdicts are kept)."""
    for suite in SUITES:
        scn = _small_scenario(suite)
        validate_scenario(scn)
        dirs = []
        for run in ("a", "b"):
            rep, tab = run_suite(json.loads(json.dumps(scn)))
            for c in rep["checks"]:
                if c["name"] in TIMED_CHECKS:
                    c["value"] = None
            dirs.append(tmp_path / suite / run)
            write_report(rep, tab, dirs[-1])
        assert [(c["name"], c["anchor"]) for c in rep["checks"]] == CHECK_LAYOUT[suite]
        names = [c["name"] for c in rep["checks"]]
        assert len(set(names)) == len(names), suite
        files = sorted(f.name for f in dirs[0].iterdir())
        assert files and files == sorted(f.name for f in dirs[1].iterdir())
        for name in files:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_default_config_subcommand(capsys):
    rc = main(["default-config", "np-brackets"])
    assert rc == 0
    out = capsys.readouterr().out
    scn = json.loads(out)
    assert scn["suite"] == "np-brackets"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "coulombgas.cli", "default-config", "boson-commutators"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["suite"] == "boson-commutators"


def test_report_schema_validates():
    """Minimal schema validation of a generated report."""
    rep, _ = run_suite(default_scenario("np-brackets"))
    assert isinstance(rep["schema_version"], str)
    assert rep["suite"] in SUITES
    assert isinstance(rep["scenario"], dict)
    assert isinstance(rep["passed"], bool)
    for c in rep["checks"]:
        assert isinstance(c["name"], str) and isinstance(c["anchor"], str)
        assert isinstance(c["value"], float) and isinstance(c["tolerance"], float)
        assert isinstance(c["pass"], bool)
