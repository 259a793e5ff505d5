import json
import subprocess
import sys

import pytest

from coulombgas.cli import (
    SUITES,
    default_scenario,
    main,
    report_schema_version,
    run_suite,
    validate_scenario,
    write_report,
)


def test_schema_version_constant():
    assert report_schema_version() == "1.0.0"
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
    "b not confining": _mutated("equilibrium-loop", b={"2": 1.0}),
    "b not Gaussian": _mutated("equilibrium-loop", b={"1": 1, "3": 0.2}),
    "b_1 negative": _mutated("equilibrium-loop", b={"1": -1.0}),
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
    "npoint mode above k_max": _mutated("npoint", modes=[1, 5]),
    "npoint explicit init of the wrong length": _mutated("npoint", init={"kind": "explicit", "values": [0.0, 1.0]}),
    "sv-algebra constraint_mc k_max 1": _mutated("sv-algebra", constraint_mc__k_max=1),
    "sv-algebra constraint_mc replicas 1": _mutated("sv-algebra", constraint_mc__replicas=1),
    "malformed: girsanov tau key not an integer": _mutated("girsanov", tau={"two": 0.05}),
}


def test_init_keys_name_the_engine_fields():
    """The init keys validation accepts are the fields of dyson.InitSpec."""
    import dataclasses

    from coulombgas.cli import INIT_KEYS
    from coulombgas.dyson import InitSpec

    assert INIT_KEYS == tuple(f.name for f in dataclasses.fields(InitSpec))


def _assert_config_error(tmp_path, scn, malformed):
    """Running scn exits 2 with a message, no traceback and no report."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scn))
    proc = subprocess.run(
        [sys.executable, "-m", "coulombgas.cli", "run", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "config error:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()
    if malformed:
        # a value the rule cannot read is reported with its cause
        assert "could not evaluate:" in proc.stderr


@pytest.mark.parametrize("case", sorted(OPERATOR_CONFIG_ERRORS))
def test_operator_config_errors_exit_2(tmp_path, case):
    """Configs that the operator suites cannot run are config errors."""
    _assert_config_error(tmp_path, OPERATOR_CONFIG_ERRORS[case], case.startswith("malformed:"))


@pytest.mark.parametrize("case", sorted(LANGEVIN_CONFIG_ERRORS))
def test_langevin_value_errors_exit_2(tmp_path, case):
    """Langevin-suite configs that would end in a traceback, a nan standard
    error or a vacuous pass are config errors."""
    _assert_config_error(tmp_path, LANGEVIN_CONFIG_ERRORS[case], case.startswith("malformed:"))


@pytest.mark.parametrize("case", sorted(EQUILIBRIUM_CONFIG_ERRORS))
def test_equilibrium_config_errors_exit_2(tmp_path, case):
    """equilibrium-loop configs that would end in a traceback, a nan standard
    error or an empty run are config errors."""
    _assert_config_error(tmp_path, EQUILIBRIUM_CONFIG_ERRORS[case], case.startswith("malformed:"))


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


def test_negative_control_exit_1(tmp_path):
    scn = default_scenario("kernel-identities")
    scn["debug"]["flip_generator_sign"] = True
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(scn))
    rc = main(["run", str(cfg), "--out", str(tmp_path / "r")])
    assert rc == 1
    report = json.loads((tmp_path / "r" / "kernel-identities.json").read_text())
    semis = [c for c in report["checks"] if c["name"].startswith("semigroup/")]
    assert semis and not any(c["pass"] for c in semis)


TIMED_CHECKS = {"route-equivalence/runtime", "sv-algebra/runtime", "dbm-moments/runtime"}


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


def test_reports_bitwise_reproducible(tmp_path):
    """Two runs of every suite write identical report bytes; only the measured
    seconds of the three wall-clock runtime checks are masked (their bounds
    and verdicts are kept)."""
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
