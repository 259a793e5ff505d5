"""Span tracer for one workload run.

Wraps the public functions of the coulombgas modules listed in ``TRACED``
in every module namespace that binds them (``svconstraints`` imports
``accumulate_quadratic`` from ``boson``, ``kernel`` imports ``mul`` from
``fseries`` and so on), so that a call is recorded whichever name it is
made through.  Spans stay in memory until ``write_spans``; ``uninstall``
puts every original object back and checks that by identity.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

TRACED = {
    "cli": ("write_report",),
    "dyson": (
        "simulate_dbm",
        "girsanov_logweight",
        "girsanov_quadratic_correction",
        "linear_statistics",
        "action_terms",
        "sample_equilibrium",
        "loop_equation_residual",
        "npoint_functionals",
        "npoint_vs_kernel",
    ),
    "kernel": (
        "propagator",
        "propagator_table",
        "expm_tol",
        "kernel_beta2_closed",
        "verify_kernel_identities",
        "retarded_propagator_modes",
    ),
    "boson": ("accumulate_quadratic", "commutator", "kernel_table", "dynamic_boson", "static_boson", "time_derivation"),
    "svconstraints": (
        "verify_sv_algebra_quadratic",
        "verify_sv_algebra_linear",
        "quadr_family_op",
        "lin_family_op",
        "weak_field_score",
        "hermite_cancellation_pairs",
        "hermite_lin_quadr_bracket",
        "build_dynamical_constraint",
        "constraint_residual_mc",
    ),
    "nptransform": ("numeric_commutator_richardson", "elementary_bracket", "force_change", "shuffle_product"),
    "fseries": ("mul", "split", "residue_pair"),
}

SUITES = (
    "kernel-identities",
    "boson-commutators",
    "sv-algebra",
    "equilibrium-loop",
    "dbm-moments",
    "girsanov",
    "npoint",
    "np-brackets",
    "hermite-example",
)

# Functions whose span count is not reported: only their self time is.
SELF_ONLY = {"cli.write_report", "dyson.loop_equation_residual", "dyson.npoint_functionals", "dyson.npoint_vs_kernel"}
POSTPROC = ("girsanov_logweight", "girsanov_quadratic_correction", "linear_statistics", "action_terms")
MB = 1e6


def _nbytes(*arrays) -> int:
    return sum(a.nbytes for a in arrays if a is not None)


def _dbm_counts(args, result):
    return {
        "replica_steps": result.m * result.grid.steps,
        "rejected": result.rejected,
        "substepped": result.substepped,
        "stored_bytes": _nbytes(result.paths, result.incs, result.slin_samples),
    }


def _postproc_counts(args, result):
    ens = args.arguments["e"]
    return {"postproc_bytes": _nbytes(ens.paths, ens.incs)}


def _equilibrium_counts(args, result):
    a = args.arguments
    return {
        "site_updates": a["chains"] * max(10, a["sweeps"] // a["chains"]) * a["n"],
        "eq_acceptance": result.acceptance,
        "eq_tau_int": result.autocorr_pi1,
        "eq_effective": result.samples.shape[0] / result.autocorr_pi1,
    }


def _commutator_counts(args, result):
    ops = (args.arguments["a"], args.arguments["b"])
    return {"operand_bytes": sum(_nbytes(op.x, op.d, op.xd, op.dd) for op in ops)}


COUNTERS = {
    "dyson.simulate_dbm": _dbm_counts,
    "dyson.sample_equilibrium": _equilibrium_counts,
    "boson.commutator": _commutator_counts,
    **{f"dyson.{name}": _postproc_counts for name in POSTPROC},
}


# Counts beyond calls and self time, listed after the function they belong to.
EXTRA_UNITS = {
    "dyson.simulate_dbm": {
        "dyson.simulate_dbm.replica_steps": "count",
        "dyson.simulate_dbm.replica_steps_per_s": "1/s",
        "dyson.simulate_dbm.rejected": "count",
        "dyson.simulate_dbm.substepped": "count",
        "dyson.simulate_dbm.accept_ratio": "ratio",
        "dyson.simulate_dbm.stored_mb": "MB",
    },
    "dyson.action_terms": {"dyson.postproc.bytes_read": "bytes"},
    "dyson.sample_equilibrium": {
        "dyson.sample_equilibrium.site_updates": "count",
        "dyson.sample_equilibrium.acceptance": "ratio",
        "dyson.sample_equilibrium.tau_int": "sweeps",
        "dyson.sample_equilibrium.eff_samples_per_s": "1/s",
    },
    "boson.commutator": {"boson.commutator.operand_mb": "MB"},
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"cli.{suite}.wall_s": "s" for suite in SUITES}
    units["cli.report_bytes"] = "bytes"
    for module, names in TRACED.items():
        for name in names:
            full = f"{module}.{name}"
            if full not in SELF_ONLY:
                units[f"{full}.calls"] = "count"
            units[f"{full}.self_s"] = "s"
            units.update(EXTRA_UNITS.get(full, {}))
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Records one span per call of a traced function.

    A span is ``[name, start, end, parent, run_id]``; ``parent`` is the index
    of the enclosing traced span, or -1.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, counts, run_id = self.spans, self._stack, self.counts, self.run_id
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, run_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in counter(bound, result).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {m: importlib.import_module(f"coulombgas.{m}") for m in TRACED}
        namespaces = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "coulombgas" and mod is not None]
        for module, names in TRACED.items():
            for name in names:
                original = getattr(modules[module], name)
                wrapper = self._wrap(f"{module}.{name}", original)
                for ns in namespaces:
                    if getattr(ns, name, None) is original:
                        self._patched.append((ns, name, original))
                        setattr(ns, name, wrapper)

    def uninstall(self) -> bool:
        """Restore every wrapped attribute; True iff each is the original object again."""
        for ns, name, original in reversed(self._patched):
            setattr(ns, name, original)
        return all(getattr(ns, name) is original for ns, name, original in self._patched)

    def patched_names(self):
        return sorted(f"{ns.__name__}.{name}" for ns, name, _ in self._patched)

    def layer_metrics(self, suite_walls: dict, report_bytes: int) -> dict:
        """Per-layer values from the spans and counts; a layer the run never entered reads 0."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        c = self.counts
        values = {f"cli.{suite}.wall_s": suite_walls.get(suite, 0.0) for suite in SUITES}
        values["cli.report_bytes"] = report_bytes
        for module, names in TRACED.items():
            for name in names:
                full = f"{module}.{name}"
                values[f"{full}.calls"] = calls[full]
                values[f"{full}.self_s"] = self_s[full]
        dbm_s = self_s["dyson.simulate_dbm"]
        steps = c["replica_steps"]
        values.update(
            {
                "dyson.simulate_dbm.replica_steps": steps,
                "dyson.simulate_dbm.replica_steps_per_s": steps / dbm_s if dbm_s else 0.0,
                "dyson.simulate_dbm.rejected": c["rejected"],
                "dyson.simulate_dbm.substepped": c["substepped"],
                "dyson.simulate_dbm.accept_ratio": steps / (steps + c["rejected"]) if steps else 0.0,
                "dyson.simulate_dbm.stored_mb": c["stored_bytes"] / MB,
                "dyson.postproc.bytes_read": c["postproc_bytes"],
                "boson.commutator.operand_mb": c["operand_bytes"] / MB,
            }
        )
        eq_calls = calls["dyson.sample_equilibrium"]
        eq_s = self_s["dyson.sample_equilibrium"]
        values.update(
            {
                "dyson.sample_equilibrium.site_updates": c["site_updates"],
                "dyson.sample_equilibrium.acceptance": c["eq_acceptance"] / eq_calls if eq_calls else 0.0,
                "dyson.sample_equilibrium.tau_int": c["eq_tau_int"] / eq_calls if eq_calls else 0.0,
                "dyson.sample_equilibrium.eff_samples_per_s": c["eq_effective"] / eq_s if eq_s else 0.0,
            }
        )
        return values

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run_id"], "spans": self.spans}, fh)
