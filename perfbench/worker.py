"""One workload run in its own process.

Sets the workload's scenarios up (import ``coulombgas.cli`` with numpy
already loaded, write and validate one scenario file per suite run), runs
every suite through the public entry point
``coulombgas.cli.main(["run", cfg, "--out", dir])``, times the reference work
``reference_s`` and prints one JSON line: set-up and wall time, peak memory,
reference times, and per suite run its exit code, report digest and failed
checks.  With ``--trace`` the run is
wrapped by :class:`tracer.Tracer` and the line also carries the per-layer
metrics.  ``run.py`` starts this file with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

# Loaded before the set-up timer starts: numpy's import was ~85% of set-up
# time, no change to coulombgas moves it, and it drifts with the host's file
# system speed.
import numpy as np

DEFAULT_SEED = 2024
THREADS = min(2, len(os.sched_getaffinity(0)))

# Suite runs of each workload: (suite, overrides of its default scenario).
# A tuple key overrides a nested entry.  The seed is written into every
# scenario on top of these.  Replica and sweep counts are below the shipped
# ones so that a timed run of ``run.py`` holds several whole iterations.
WORKLOADS = {
    # simulate_dbm with every online observer on and no stored paths; ``threads``
    # does nothing yet, and is set so that a worker pool shows here unedited
    "langevin-online": (
        ("dbm-moments", {"replicas": 1000, "threads": THREADS}),
        ("npoint", {"replicas": 1000, "threads": THREADS}),
    ),
    # the same engine write-then-read: stored paths walked by post-processors,
    # and the constraint Monte Carlo with its action-density array
    "langevin-stored": (
        ("girsanov", {"replicas": 2500}),
        ("sv-algebra", {"potentials": {}, ("constraint_mc", "replicas"): 1500}),
    ),
    # operator assembly, commutators and weak scores; no Langevin work
    "operator-algebra": (
        ("kernel-identities", {}),
        ("boson-commutators", {}),
        ("sv-algebra", {"constraint_mc": None}),
        ("np-brackets", {}),
        ("hermite-example", {}),
    ),
    # the Metropolis sampler
    "gibbs-loop": (("equilibrium-loop", {"sweeps": 200000}),),
}

# The reference work is timed REFERENCE_REPEATS times after the suites of every
# iteration, outside its timed window (~0.2 s each on a 2-core sandbox).
REFERENCE_STEPS = 300
REFERENCE_REPEATS = 3

# Checks whose value is a measured wall-clock time; masked before hashing.
TIMED_CHECKS = {"route-equivalence/runtime", "sv-algebra/runtime", "dbm-moments/runtime"}
MB = 1e6


def scenarios(workload: str, seed: int, default_scenario) -> list:
    out = []
    for suite, overrides in WORKLOADS[workload]:
        scn = default_scenario(suite)
        for key, value in overrides.items():
            *parents, leaf = key if isinstance(key, tuple) else (key,)
            target = scn
            for parent in parents:
                target = target[parent]
            target[leaf] = value
        scn["seed"] = seed
        out.append(scn)
    return out


def stated_sizes(scns) -> list:
    """Replicas, steps, particles, sweeps, chains and operator nvar of each suite run."""
    sizes = []
    for scn in scns:
        entry = {"suite": scn["suite"]}
        for key in ("replicas", "n_particles", "sweeps", "chains"):
            if key in scn:
                entry[key] = scn[key]
        if "grid" in scn:
            entry["steps"] = scn["grid"]["steps"]
        mc = scn.get("constraint_mc")
        if mc:
            entry["mc"] = {"replicas": mc["replicas"], "steps": mc["grid"]["steps"], "n_particles": mc["n_particles"]}
        if "cases" in scn:
            entry["n_particles"] = sorted({c["n_particles"] for c in scn["cases"]})
        grids = []
        if scn["suite"] == "boson-commutators":
            grids = [scn["grid"]["steps"]]
        elif scn["suite"] == "sv-algebra" and scn["potentials"]:
            grids = [g["steps"] for g in scn["grids"]]
        elif scn["suite"] == "hermite-example":
            grids = [round(scn["linquadr_t_max"] / dt) for dt in scn["dts"]]
        if grids:
            entry["operator_nvar"] = [scn["k_max"] * (steps + 1) for steps in grids]
        sizes.append(entry)
    return sizes


def set_up(workload: str, seed: int, out: Path):
    """Import the CLI and write and validate the scenario files; returns (cli, runs, seconds)."""
    t0 = time.perf_counter()
    from coulombgas import cli

    out.mkdir(parents=True, exist_ok=True)
    runs = []
    for i, scn in enumerate(scenarios(workload, seed, cli.default_scenario)):
        cfg = out / f"{i}-{scn['suite']}.json"
        cfg.write_text(json.dumps(scn, indent=2, sort_keys=True) + "\n")
        cli.validate_scenario(json.loads(cfg.read_text()))
        runs.append((scn["suite"], cfg, out / f"{i}-{scn['suite']}"))
    return cli, runs, time.perf_counter() - t0


def digest(report: dict) -> str:
    """sha256 of the report with the values of the wall-clock checks masked."""
    for row in report["checks"]:
        if row["name"] in TIMED_CHECKS:
            row["value"] = None
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def inspect_report(suite: str, code, dest: Path) -> dict:
    """Digest, failed checks and size of one suite's report; ``report_ok`` is
    False when the report is missing or disagrees with the exit code."""
    try:
        report = json.loads((dest / f"{suite}.json").read_text())
    except (OSError, ValueError) as exc:
        return {"report_ok": False, "error": f"report unreadable: {exc}"}
    failed = [row["name"] for row in report["checks"] if not row["pass"]]
    consistent = report["passed"] == (not failed) and code == (0 if report["passed"] else 1)
    return {
        "report_ok": consistent and report["suite"] == suite,
        "digest": digest(report),
        "failed_checks": failed,
        "report_bytes": sum(p.stat().st_size for p in dest.iterdir()),
    }


def run_suites(cli, runs) -> tuple:
    """Run each suite through ``cli.main``; returns (wall seconds, per-run records)."""
    records = []
    t0 = time.perf_counter()
    for suite, cfg, dest in runs:
        s0 = time.perf_counter()
        error = None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", str(cfg), "--out", str(dest)])
        except Exception as exc:  # a crash is a failed suite run, recorded and reported
            code, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"suite": suite, "exit": code, "error": error, "wall_s": time.perf_counter() - s0})
    wall = time.perf_counter() - t0
    for rec, (suite, _, dest) in zip(records, runs):
        rec.update(inspect_report(suite, rec["exit"], dest))
        if rec["error"]:
            rec["report_ok"] = False
    return wall, records


def reference_s() -> float:
    """Seconds for a fixed piece of work shaped like the Langevin engine's
    inner loop: a Python loop of numpy operations on a 1000 x 5 array.  It
    runs no coulombgas code, so only the speed of the host moves it."""
    x = np.linspace(-2.0, 2.0, 5000).reshape(1000, 5)
    t0 = time.perf_counter()
    for _ in range(REFERENCE_STEPS):
        gap = np.diff(x, axis=1)
        force = (1.0 / gap).sum(axis=1) - (x**3).sum(axis=1)
        x = x + 1e-9 * (np.tanh(x) + force[:, None])
        np.min(gap, axis=1)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / MB


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "thread_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", required=True, help="directory for scenarios and reports")
    parser.add_argument("--setup-only", action="store_true", help="set up and stop")
    parser.add_argument("--describe", action="store_true", help="record the environment and stated sizes")
    parser.add_argument("--trace", action="store_true", help="record spans and per-layer metrics")
    args = parser.parse_args(argv)
    out = Path(args.out)

    cli, runs, setup_s = set_up(args.workload, args.seed, out)
    result = {"setup_s": setup_s}
    if args.describe:
        result["env"] = environment()
        result["sizes"] = stated_sizes([json.loads(cfg.read_text()) for _, cfg, _ in runs])
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}/seed={args.seed}/pid={os.getpid()}")
        tracer.install()
    try:
        wall_s, records = run_suites(cli, runs)
    finally:
        restored = tracer.uninstall() if tracer else True
    result.update({"wall_s": wall_s, "peak_rss_mb": peak_rss_mb(), "suites": records})
    result["reference_s"] = [reference_s() for _ in range(REFERENCE_REPEATS)]
    if tracer:
        walls = {rec["suite"]: rec["wall_s"] for rec in records}
        nbytes = sum(rec.get("report_bytes", 0) for rec in records)
        result["layers"] = tracer.layer_metrics(walls, nbytes)
        result["restored"] = restored
        result["patched"] = tracer.patched_names()
        tracer.write_spans(out / "spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
