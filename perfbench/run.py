"""Benchmark of the coulombgas verification suites.

Run from the repository root:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload (see ``worker.WORKLOADS``) runs its suites through
``coulombgas.cli.main`` in a fresh process per iteration.  ``--trace 0``
makes the timed run of each selected workload, ``--trace 1`` its traced run,
and without ``--trace`` both are made.  A timed run makes one untimed
warm-up set-up, then rounds of set-up-only processes and a whole iteration,
at least ``MIN_ITERATIONS`` and as many as end within ``--seconds`` of its
start.  It reports the medians of ``wall_s``, ``setup_s`` and
``peak_rss_mb``.  The host's speed drifts by a quarter within minutes, so the
two times are scaled to a fixed host speed: each iteration times a reference
work (``worker.reference_s``, no coulombgas code) after its suites, and the
times are multiplied by ``REFERENCE_S`` over the run's median reference time.
The unscaled medians are printed and kept in ``result.json``.  A traced run
makes one untraced and one traced iteration and reports the per-layer metrics
of ``tracer.per_layer_units`` plus the tracing overhead.  Every report is
checked: it must exist, agree with the exit code, and hash (wall-clock check
values masked) to the same digest in every iteration of the run, traced or
not.  A suite whose statistical check fails at the seed exits 1; that verdict
is printed and recorded, and only a crash, another exit code or an unsound
report counts as a failed suite run (see ``tally``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment,
stated sizes, digests and every iteration are written to
``.bench_out/<workload>-seed<seed>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import per_layer_units
from worker import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = Path(".bench_out")
MIN_ITERATIONS = 3  # a timed run reports medians of at least this many iterations
SETUPS_PER_ROUND = 2  # set-up-only processes beside each iteration, so setup_s is a median of many
# Median seconds of ``worker.reference_s`` on the 2-core sandbox (Python 3.11,
# numpy 2.4) where the bounds were set.  Timed metrics are scaled by
# REFERENCE_S / (the run's median reference time), so they read as seconds on
# that host at that speed.
REFERENCE_S = 0.18
BUDGET_S = 150.0  # no new iteration starts that would end a run later than this


class BenchError(Exception):
    pass


def git_commit():
    """Commit of the checkout, or None when it is no git repository or git is missing."""
    # the ceiling keeps git from taking up a repository that encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(Path.cwd().parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


class Runner:
    """Starts worker processes for one workload run and keeps its deadline."""

    def __init__(self, workload: str, seed: int, run_dir: Path):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.start = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), os.environ.get("PYTHONPATH")]))

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, name: str, *flags) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed)]
        cmd += ["--out", str(self.run_dir / name), *flags]
        timeout = max(1.0, BUDGET_S + 20.0 - self.elapsed())
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name}: no result within {timeout:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{name}: worker exited {proc.returncode}\n{proc.stderr[-4000:]}")
        return {"label": name, **json.loads(proc.stdout.strip().splitlines()[-1])}


def tally(iterations) -> dict:
    """Suite runs attempted and failed, checks failed, and whether every report is sound.

    A suite run fails when it raises, exits with a code other than 0 (every
    check passed) or 1 (a check failed), writes a missing or self-contradicting
    report, or its digest differs from the first digest of that suite run in
    this benchmark run.  A failed statistical check is the suite's verdict on
    the seed's noise sample, not a fault of the run: it is counted in
    ``checks_failed`` and in ``suite_fail_ratio`` (exit code not 0), printed
    with the check's name and kept in ``result.json``.
    """
    digests, attempted, failed, correct, checks_failed, exits = {}, 0, 0, True, 0, 0
    for it in iterations:
        for i, rec in enumerate(it["suites"]):
            first = digests.setdefault((i, rec["suite"]), rec.get("digest"))
            same = rec.get("digest") == first
            sound = rec["report_ok"] and same
            attempted += 1
            failed += rec["error"] is not None or rec["exit"] not in (0, 1) or not sound
            exits += rec["exit"] != 0
            checks_failed += len(rec.get("failed_checks", []))
            correct &= sound
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": bool(correct),
        "checks_failed": checks_failed,
        "suite_fail_ratio": exits / attempted,
    }


def timed_run(runner: Runner, seconds: int) -> dict:
    """One untimed warm-up set-up, then rounds of ``SETUPS_PER_ROUND``
    set-up-only processes and one whole iteration while the next round still
    ends within ``seconds`` of the start (at least ``MIN_ITERATIONS`` rounds).

    The warm-up compiles the byte code and fills the page cache that every
    later process of the run reads; it also records the environment.  Each
    timed metric is the median over the run, scaled by REFERENCE_S over the
    median of the reference times the iterations took after their suites.
    """
    warmup = runner.spawn("warmup", "--setup-only", "--describe")
    setups, iterations = [], []
    last = 0.0
    while len(iterations) < MIN_ITERATIONS or runner.elapsed() + last <= min(seconds, BUDGET_S):
        s0 = time.perf_counter()
        setups += [runner.spawn(f"setup{len(setups)}", "--setup-only") for _ in range(SETUPS_PER_ROUND)]
        iterations.append(runner.spawn(f"iter{len(iterations)}"))
        last = time.perf_counter() - s0
    raw = {
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "setup_s": statistics.median(r["setup_s"] for r in setups + iterations),
        "reference_s": statistics.median(t for it in iterations for t in it["reference_s"]),
    }
    scale = REFERENCE_S / raw["reference_s"]
    metrics = {
        "wall_s": (raw["wall_s"] * scale, "s"),
        "setup_s": (raw["setup_s"] * scale, "s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in iterations), "MB"),
    }
    return {"describe": warmup, "iterations": iterations, "metrics": metrics, "raw": raw, **tally(iterations)}


def traced_run(runner: Runner) -> dict:
    plain = runner.spawn("untraced", "--describe")
    traced = runner.spawn("traced", "--trace")
    counts = tally([plain, traced])
    counts["correct"] &= traced["restored"]
    layers = traced["layers"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: (layers[name], unit) for name, unit in per_layer_units().items()}
    return {"describe": plain, "iterations": [plain, traced], "metrics": metrics, **counts}


def show(workload: str, result: dict):
    print(f"== {workload}")
    print(f"commit {result['commit']}")
    print(f"env {json.dumps(result['describe']['env'], sort_keys=True)}")
    for entry in result["describe"]["sizes"]:
        print(f"size {json.dumps(entry, sort_keys=True)}")
    for it in result["iterations"]:
        print(f"{it['label']}: wall_s={it['wall_s']:.4f} setup_s={it['setup_s']:.4f} peak_rss_mb={it['peak_rss_mb']:.1f}")
        for rec in it["suites"]:
            status = "pass" if rec["exit"] == 0 else f"FAIL exit={rec['exit']} {rec.get('error') or ''}".rstrip()
            failed = ",".join(rec.get("failed_checks", []))
            print(f"  {rec['suite']:<18} {rec.get('digest', '-')} {rec['wall_s']:9.4f} s {status} {failed}".rstrip())
    if "layers" in result["iterations"][-1]:
        it = result["iterations"][-1]
        share = it["layers"]["dyson.simulate_dbm.self_s"] / it["wall_s"]
        print(f"dyson.simulate_dbm.self_s / traced wall_s = {share:.4f}; attributes restored: {it['restored']}")
    print(f"suite_fail_ratio {result['suite_fail_ratio']:.4f} ratio (suite runs with exit code not 0, of {result['attempted']})")
    print(f"checks_failed {result['checks_failed']} count; failed suite runs {result['failed']} of {result['attempted']}")
    for name, value in result.get("raw", {}).items():
        print(f"unscaled {name} {value:.6g} s")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value:.6g} {unit}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    runner = Runner(workload, seed, run_dir)
    result = traced_run(runner) if trace else timed_run(runner, seconds)
    result["commit"] = git_commit()
    show(workload, result)
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark of the coulombgas verification suites")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30, help="length of a timed run (at least MIN_ITERATIONS rounds)")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="0: timed runs only, 1: traced runs only; both when omitted"
    )
    args = parser.parse_args(argv)
    # a terminated benchmark raises SystemExit in its wait, and subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not Path("src/coulombgas/cli.py").is_file():
        print("perfbench: src/coulombgas/cli.py not found; run from the repository root", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (False, True) if args.trace is None else (bool(args.trace),)
    runs = [(workload, trace) for workload in workloads for trace in modes]
    summary, metrics = {"correct": True, "attempted": 0, "failed": 0}, {}
    try:
        for workload, trace in runs:
            result = run_workload(workload, args.seed, args.seconds, trace)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = f"{workload}/" if len(workloads) > 1 else ""
            metrics.update({prefix + name: value for name, value in result["metrics"].items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    summary["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
