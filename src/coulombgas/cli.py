"""Batch verification driver.

Parses a scenario configuration, runs one of the named verification suites
across the library modules, and emits machine-readable reports: one JSON
file with per-check (name, anchor, value, tolerance, pass) rows and CSV data
tables alongside.  Exit status 0 iff every check passed, 1 on check failure
or engine error (the report then carries the error), 2 on configuration
errors.

Every suite has a complete default scenario (printable with the
``default-config`` subcommand) that reproduces the package's acceptance
criteria; user configs must spell out all physical constants explicitly --
there are no hidden defaults for beta, dt, or seeds.  Reports are
deterministic for a fixed (config, seed): no timestamps, sorted keys.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import pickle
import sys
import time
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "1.0.0"


def check(name, anchor, value, tolerance, passed=None, **extra):
    if passed is None:
        passed = bool(abs(value) <= tolerance)
    row = {"name": name, "anchor": anchor, "value": float(value), "tolerance": float(tolerance), "pass": bool(passed)}
    row.update(extra)
    return row


def _ratio_check(name, anchor, coarse, fine, low, high):
    """A dt-halving trend: the coarse-over-fine residual ratio lies in [low, high]."""
    ratio = coarse / fine if fine else float("inf")
    return check(name, anchor, ratio, high, passed=low <= ratio <= high)


def _worst(values) -> float:
    """The largest of the values, 0.0 for none; nan if any is nan (the builtin max drops it)."""
    return float(np.max(values, initial=0.0))


def _max_gap(pairs) -> float:
    """The largest entry gap max |a - b| over the (a, b) array pairs; nan if any gap is."""
    return _worst([np.max(np.abs(a - b)) for a, b in pairs])


# ----------------------------------------------------------------------
# suites: each runner with its default scenario


#: Each suite's runner and its default scenario (the acceptance
#: configuration), which is also the schema of its configs.  Filled by @_suite.
SUITE_TABLE = {}


def _suite(name, **settings):
    """Register the decorated runner as suite `name` with its default settings."""

    def register(runner):
        base = {"schema_version": SCHEMA_VERSION, "suite": name, "seed": 2024, "threads": 1}
        SUITE_TABLE[name] = (runner, base | settings)
        return runner

    return register


def default_scenario(suite: str) -> dict:
    """A fresh copy of the suite's complete default scenario."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    return pickle.loads(pickle.dumps(SUITE_TABLE[suite][1]))  # numpy has loaded pickle; faster than json


def _forces(spec) -> dict:
    """The force coefficients {l: b_l} of a potential config."""
    return {int(k): float(v) for k, v in spec["b"].items()}


def _pot(spec):
    from .kernel import Potential

    return Potential(float(spec["beta"]), _forces(spec))


@_suite(
    "kernel-identities",
    k_max=12,
    times=[0.1, 0.3],
    identity_times=[0.3, 0.2, 0.1],
    potentials={
        "quadratic-force": {"beta": 2.0, "b": {"2": 1.0}},
        "mixed-force": {"beta": 2.0, "b": {"1": 0.5, "2": 0.3}},
        "hermite": {"beta": 2.0, "b": {"1": 1.0}},
        "hermite-beta1": {"beta": 1.0, "b": {"1": 1.0}},
        "hermite-beta4": {"beta": 4.0, "b": {"1": 1.0}},
        "generic-beta1": {"beta": 1.0, "b": {"1": 0.5, "2": 0.3}},
        "generic-beta4": {"beta": 4.0, "b": {"1": 0.5, "2": 0.3}},
    },
    tolerances={
        "route_equivalence": 1e-8,
        "hermite_diagonal": 1e-12,
        "hermite_closed": 1e-10,
        "semigroup": 1e-10,
        "kolmogorov": 1e-10,
        "technical_lemma_rel": 1e-7,
        "route_runtime_s": 5.0,
    },
)
def run_kernel_identities(scn):
    from .kernel import (
        hermite_kernel,
        kernel_beta2_closed,
        kernel_to_csv_rows,
        propagator,
        verify_kernel_identities,
    )

    checks, tables = [], {}
    tol = scn["tolerances"]
    k_max = scn["k_max"]
    pots = {name: _pot(sp) for name, sp in scn["potentials"].items()}

    t0 = time.perf_counter()
    for name in ("quadratic-force", "mixed-force"):
        pot = pots[name]
        worst = _max_gap((propagator(pot, t, k_max).entries, kernel_beta2_closed(pot.b, t, k_max).entries) for t in scn["times"])
        checks.append(check(f"route-equivalence/{name}", "exp(tA) vs characteristics", worst, tol["route_equivalence"]))
    elapsed = time.perf_counter() - t0
    checks.append(check("route-equivalence/runtime", "wall clock seconds", elapsed, tol["route_runtime_s"]))

    worst = _max_gap((propagator(pots["hermite"], t, k_max).entries, np.diag([math.exp(-kk * t) for kk in range(k_max + 1)])) for t in (0.25, 0.5, 1.0))
    checks.append(check("hermite-diagonal", "K_kl = delta e^{-kt/s^2}", worst, tol["hermite_diagonal"]))

    for name in ("hermite-beta1", "hermite-beta4"):
        pot = pots[name]
        worst = _max_gap((propagator(pot, t, k_max).entries, hermite_kernel(1.0, pot.beta, t, k_max).entries) for t in (0.2, 0.5, 1.0))
        checks.append(
            check(
                f"hermite-closed/{name}",
                "re-derived coefficients k!/(m!(k-2m)!) f^m e^{-(k-2m)t}",
                worst,
                tol["hermite_closed"],
                note="coefficients from the generating construction; printed binomial/power form rejected by this oracle",
            )
        )

    for name in ("hermite", "generic-beta1", "generic-beta4"):
        pot = pots[name]
        rep = verify_kernel_identities(pot, tuple(scn["identity_times"]), k_max)
        for identity, tol_key, anchor in (
            ("semigroup", "semigroup", "K(t-t')K(t'-t'')=K(t-t''), relative to the kernel scale"),
            ("kolmogorov-forward", "kolmogorov", "dK/dt = (generator) K, relative"),
            ("kolmogorov-backward", "kolmogorov", "dK/dt = K (generator), relative"),
        ):
            key = identity.replace("-", "_")
            checks.append(check(f"{identity}/{name}", anchor, rep[f"{key}_rel"], tol[tol_key], absolute=rep[key]))
        lem = rep["technical_lemma"]
        checks.append(
            check(
                f"technical-lemma/u=1/{name}",
                "d/dt' contour pair sum, weight ub'-u'b",
                lem["u=1"]["as_stated_rel"],
                tol["technical_lemma_rel"],
            )
        )
        key = "as_stated_rel" if pot.beta == 2.0 else "corrected_rel"
        checks.append(
            check(
                f"technical-lemma/u=z/{name}",
                "d/dt' contour pair sum, weight ub'-u'b (+ second-derivative band correction off the transport line)",
                lem["u=z"][key],
                tol["technical_lemma_rel"],
                as_stated_rel=lem["u=z"]["as_stated_rel"],
                corrected_rel=lem["u=z"]["corrected_rel"],
            )
        )

    rows = kernel_to_csv_rows(propagator(pots["mixed-force"], scn["times"][-1], k_max))
    tables["kernel_mixed_force"] = (("k", "l", "t", "value"), rows)
    return checks, tables


@_suite(
    "boson-commutators",
    k_max=6,
    n_particles=5,
    grid={"dt": 0.1, "steps": 6},
    potentials={
        "hermite": {"beta": 2.0, "b": {"1": 1.0}},
        "generic-beta1": {"beta": 1.0, "b": {"1": 0.5, "2": 0.3}},
    },
    tolerances={"commutator": 1e-12},
)
def run_boson_commutators(scn):
    from .boson import TimeGrid, commutator, dynamic_boson, kernel_table, static_boson
    from .kernel import retarded_propagator_modes

    checks, tables = [], {}
    tol = scn["tolerances"]["commutator"]
    grid = TimeGrid(scn["grid"]["dt"], scn["grid"]["steps"])
    k_max = scn["k_max"]
    n_part = scn["n_particles"]
    rows = []
    for name, spec in scn["potentials"].items():
        pot = _pot(spec)
        tab = kernel_table(pot, grid, k_max)
        j, jp = grid.steps - 1, 2
        g = retarded_propagator_modes(pot, grid.dt * (j - jp), k_max)
        g0 = retarded_propagator_modes(pot, 0.0, k_max)
        psi, cross, delta, plus, phiphi = [], [], [], [], []
        for k in range(1, k_max + 1):
            psi_k = dynamic_boson(k, j, pot, n_part, grid, k_max, tab)  # commutator only reads its operands
            phi_k = static_boson(k, j, pot.beta, grid, k_max)
            for l in range(1, k_max + 1):
                phi_l = static_boson(-l, jp, pot.beta, grid, k_max)
                c = commutator(psi_k, dynamic_boson(-l, jp, pot, n_part, grid, k_max, tab))
                psi.append(abs(c.const - g.entries[k, l]))
                cross.append(abs(commutator(psi_k, phi_l).const - g.entries[k, l]))
                c3 = commutator(phi_k, static_boson(-l, j, pot.beta, grid, k_max))
                want = (l / grid.dt) if k == l else 0.0
                delta.append(abs(c3.const - want))
                phiphi.append(commutator(phi_k, phi_l).field_max_abs())
                rows.append((name, k, l, c.const, g.entries[k, l]))
            d = dynamic_boson(-k, 3, pot, n_part, grid, k_max, tab) - static_boson(-k, 3, pot.beta, grid, k_max)
            plus.append(d.field_max_abs())
            ceq = commutator(psi_k, static_boson(-k, j, pot.beta, grid, k_max))
            cross.append(abs(ceq.const - g0.entries[k, k]))
        checks.append(check(f"psi-psi-retarded/{name}", "[psi_k(t), psi_-l(t')] = l K_kl(t-t')", _worst(psi), tol))
        checks.append(check(f"psi-phi/{name}", "[psi_k(t), phi_-l(t')] = l K_kl, incl. equal-time", _worst(cross), tol))
        checks.append(check(f"phi-phi-delta/{name}", "[phi_k, phi_-l] = (l/dt) delta_kl delta_jj'", _worst(delta), tol))
        checks.append(check(f"phi-phi-unequal/{name}", "[phi(t), phi(t')] = 0 for t != t'", _worst(phiphi), tol))
        checks.append(check(f"psi-plus-equals-phi-plus/{name}", "multiplier halves coincide exactly", _worst(plus), tol))
    tables["psi_psi_commutators"] = (("potential", "k", "l", "commutator", "l*K_kl"), rows)
    return checks, tables


@_suite(
    "sv-algebra",
    k_max=8,
    interior_modes=6,
    n_particles=5,
    grids=[{"dt": 0.02, "steps": 50}, {"dt": 0.01, "steps": 100}],
    potentials={
        "hermite": {"beta": 2.0, "b": {"1": 1.0}},
        "generic": {"beta": 2.0, "b": {"1": 0.5, "2": 0.3}},
    },
    constraint_mc={
        "beta": 2.0,
        "b": {"1": 1.0},
        "n_particles": 5,
        "grid": {"dt": 1e-3, "steps": 1000},
        "replicas": 20000,
        "k_max": 4,
        "init_shift": 0.4,
    },
    tolerances={"ratio_low": 1.6, "ratio_high": 2.4, "runtime_s": 120.0, "mc_sigmas": 3.0},
)
def run_sv_algebra(scn):
    from .boson import TimeGrid, kernel_table
    from .dyson import InitSpec, simulate_dbm
    from .svconstraints import (
        build_dynamical_constraint,
        constraint_functional,
        constraint_residual_mc,
        verify_sv_algebra_linear,
        verify_sv_algebra_quadratic,
    )
    from .timefunc import bump, poly_t

    checks, tables = [], {}
    tol = scn["tolerances"]
    rows = []
    t0 = time.perf_counter()
    for name, spec in scn["potentials"].items():
        pot = _pot(spec)
        resid = {}
        for gspec in scn["grids"]:
            grid = TimeGrid(gspec["dt"], gspec["steps"])
            tmax = grid.dt * grid.steps
            f = bump(0.0, tmax, 4)
            g = f * poly_t(1)
            tab = kernel_table(pot, grid, scn["k_max"])
            family = {}  # the family members of this (potential, grid), built once for both checks
            reps = verify_sv_algebra_quadratic(
                f, g, pot, scn["n_particles"], grid, scn["k_max"], mode_int=scn["interior_modes"], ktable=tab, family=family
            )
            reps += verify_sv_algebra_linear(
                f, g, pot, scn["n_particles"], grid, scn["k_max"], mode_int=scn["interior_modes"], ktable=tab, family=family
            )
            del family  # eight dense operators: free them before the next grid's are built
            for r in reps:
                resid.setdefault(r["relation"], []).append(r["residual"])
                rows.append((name, r["relation"], gspec["dt"], scn["k_max"], r["residual"], r["relative"]))
        for rel, vals in resid.items():
            checks.append(
                _ratio_check(
                    f"bracket-ratio/{name}/{rel}",
                    "first-order dt trend of the bracket residual",
                    vals[0],
                    vals[1],
                    tol["ratio_low"],
                    tol["ratio_high"],
                )
            )
    elapsed = time.perf_counter() - t0
    checks.append(check("sv-algebra/runtime", "wall clock seconds", elapsed, tol["runtime_s"]))
    tables["sv_bracket_residuals"] = (("potential", "relation", "dt", "k_max", "residual", "relative"), rows)

    mc = scn.get("constraint_mc")
    if mc:
        pot = _pot(mc)
        grid = TimeGrid(mc["grid"]["dt"], mc["grid"]["steps"])
        tmax = grid.dt * grid.steps
        a = bump(0.0, tmax, 4)
        cops = {
            f"n={n}": build_dynamical_constraint(n, a, pot, mc["n_particles"], grid, mc["k_max"], parts="affine")
            for n in (-1, 0)
        }
        funcs = {name: constraint_functional(cop) for name, cop in cops.items()}
        init = InitSpec("equispaced", shift=mc["init_shift"])
        ens = simulate_dbm(pot, mc["n_particles"], grid, mc["replicas"], init, scn["seed"], funcs, workers=scn["threads"])
        for name, cop in cops.items():
            mean, se = constraint_residual_mc(cop, ens, name)
            checks.append(
                check(
                    f"constraint-order0/{name}",
                    "dynamical constraint annihilates the generating functional at order tau^0",
                    mean,
                    tol["mc_sigmas"] * se if se else 1e-12,
                    se=se,
                )
            )
    return checks, tables


@_suite(
    "equilibrium-loop",
    sweeps=100000,
    chains=200,
    orders=[0, 1, 2],
    cases=[
        {"n_particles": 2, "beta": 1.0},
        {"n_particles": 2, "beta": 2.0},
        {"n_particles": 5, "beta": 1.0},
        {"n_particles": 5, "beta": 2.0},
    ],
    b={"1": 1.0},
    tolerances={"sigmas": 3.0},
)
def run_equilibrium_loop(scn):
    """Check the loop equations and <pi_2> on Gibbs samples of each case.  The
    cases run on min(cases, usable cores) processes, this one and the rest
    forked (see dyson._fork_map), each with whole cases dealt costliest first
    to the least loaded.  Rows return in case order and the first failing
    case's error is raised, so neither depends on the cores."""
    from .dyson import _cores, _fork_map

    n = [case["n_particles"] for case in scn["cases"]]
    shares = [[] for _ in range(min(len(n), _cores()))]
    for i in sorted(range(len(n)), key=lambda i: -n[i]):  # a case costs ~N: sweeps and chains are shared
        min(shares, key=lambda share: sum(n[j] for j in share)).append(i)
    done = sorted((case for part in _fork_map(_loop_cases, [(scn, share) for share in shares]) for case in part), key=lambda case: case[0])
    table = (("n_particles", "beta", "order", "residual", "se"), [row for _, _, rows in done for row in rows])
    return [row for _, checks, _ in done for row in checks], {"loop_residuals": table}


def _loop_cases(scn, indices):
    """Run the equilibrium-loop cases of the indices in order: [(index, check
    rows, table rows)].  An error is tagged ``where`` = (index,), so that a
    split run raises the first failing case's error, as a serial run does."""
    from .dyson import loop_equation_residual, sample_equilibrium
    from .kernel import Potential

    sig, done = scn["tolerances"]["sigmas"], []
    for i in sorted(indices):
        n_part, beta = scn["cases"][i]["n_particles"], scn["cases"][i]["beta"]
        checks, rows = [], []
        try:
            pot = Potential(beta, _forces(scn))
            eq = sample_equilibrium(pot, n_part, scn["sweeps"], seed=scn["seed"], chains=scn["chains"])
            for order in scn["orders"]:
                res, se = loop_equation_residual(eq, order, pot)
                rows.append((n_part, beta, order, res, se))
                checks.append(check(f"loop-equation/N={n_part}/beta={beta}/n={order}", "integration-by-parts moment identity", res, sig * se, se=se))
            mean, mse = eq.pi_mean_se(2)
            want = pot.sigma**2 * (beta * n_part * (n_part - 1) / 2.0 + n_part)
            extra = {"mean": mean, "expected": want, "acceptance": eq.acceptance, "tau_int": eq.autocorr_pi1}
            checks.append(check(f"pi2-stationary/N={n_part}/beta={beta}", "<pi_2> = sigma^2 (beta N(N-1)/2 + N)", mean - want, sig * mse, **extra))
        except Exception as exc:
            exc.where = (i,)
            raise
        done.append((i, checks, rows))
    return done


@_suite(
    "dbm-moments",
    beta=2.0,
    b={"1": 1.0},
    n_particles=5,
    grid={"dt": 1e-3, "steps": 4000},
    replicas=20000,
    init={"kind": "equispaced", "shift": 0.5},
    pi1_times=[0.5, 1.0],
    pi2_window=[3.0, 4.0],
    moment_ks=[1, 2, 3, 4],
    tolerances={
        "sigmas": 3.0,
        "noise_sigmas": 4.0,
        "runtime_s": 180.0,
        "bias_per_dt": 200.0,
    },
)
def run_dbm_moments(scn):
    from .boson import TimeGrid
    from .dyson import InitSpec, mean_se, moment_functionals, simulate_dbm

    checks, tables = [], {}
    tol = scn["tolerances"]
    pot = _pot(scn)
    n_part = scn["n_particles"]
    grid = TimeGrid(scn["grid"]["dt"], scn["grid"]["steps"])
    t0 = time.perf_counter()
    funcs = moment_functionals(pot, grid, scn["moment_ks"])
    ens = simulate_dbm(pot, n_part, grid, scn["replicas"], InitSpec(**scn["init"]), scn["seed"], funcs, workers=scn["threads"])
    elapsed = time.perf_counter() - t0

    pi1, se1, pi2, se2 = ens.pi_mean(1), ens.pi_se(1), ens.pi_mean(2), ens.pi_se(2)
    for t in scn["pi1_times"]:
        j = int(round(t / grid.dt))
        want = pi1[0] * math.exp(-t / pot.sigma**2)
        checks.append(
            check(
                f"pi1-decay/t={t}",
                "E pi_1(t) = pi_1(0) e^{-t/sigma^2}",
                pi1[j] - want,
                tol["sigmas"] * se1[j],
                mean=float(pi1[j]),
                expected=want,
            )
        )
    j0, j1 = (int(round(x / grid.dt)) for x in scn["pi2_window"])
    mean = float(np.mean(pi2[j0 : j1 + 1]))
    se_w = float(np.mean(se2[j0 : j1 + 1]))  # correlated in time: no 1/sqrt(T) gain claimed
    want = pot.sigma**2 * (pot.beta * n_part * (n_part - 1) / 2.0 + n_part)
    checks.append(
        check(
            "pi2-longtime",
            "<pi_2> relaxes to sigma^2 (beta N(N-1)/2 + N)",
            mean - want,
            tol["sigmas"] * se_w,
            mean=mean,
            expected=want,
        )
    )
    var = ens.noise_m2 / ens.noise_count
    se_var = var * math.sqrt(2.0 / (ens.noise_count - 1))
    checks.append(
        check("noise-variance", "Var(dB) = 2 dt", var - 2 * grid.dt, tol["noise_sigmas"] * se_var, variance=float(var))
    )
    rows = []
    for k in scn["moment_ks"]:
        mean, se = mean_se(ens.functional_samples[f"residual{k}"])
        bias = tol["bias_per_dt"] * (1 + k * k) * grid.dt
        rows.append((k, mean, se, bias))
        checks.append(
            check(
                f"moment-hierarchy/k={k}",
                "time-averaged residual of the averaged evolution identity",
                mean,
                tol["sigmas"] * se + bias,
                se=se,
                bias_bound=bias,
            )
        )
        s_mean, s_se = mean_se(ens.functional_samples[f"martingale{k}"] / (grid.steps * grid.dt))
        checks.append(check(f"action-density-mean/k={k}", "E S_k(t) = 0 (martingale density)", s_mean, tol["sigmas"] * s_se, se=s_se))
    checks.append(check("dbm-moments/runtime", "wall clock seconds", elapsed, tol["runtime_s"]))
    checks.append(check("rejection-rate", "step rejections below the weak-order budget", ens.rejection_rate, 0.01))
    tables["moment_residuals"] = (("k", "residual", "se", "bias_bound"), rows)
    tables["pi_moments"] = (
        ("t", "pi1_mean", "pi1_se", "pi2_mean", "pi2_se"),
        [
            (float(grid.times[j]), float(pi1[j]), float(se1[j]), float(pi2[j]), float(se2[j]))
            for j in range(0, grid.steps + 1, max(1, grid.steps // 100))
        ],
    )
    return checks, tables


@_suite(
    "girsanov",
    beta=2.0,
    b={"1": 1.0},
    n_particles=5,
    grid={"dt": 1e-3, "steps": 400},
    replicas=12000,
    tau={"2": 0.05},
    init_values=[-4.0, -2.0, 0.0, 2.0, 4.0],
    tolerances={"sigmas": 3.0},
)
def run_girsanov(scn):
    from .boson import TimeGrid
    from .dyson import InitSpec, girsanov_functionals, mean_se, perturbed_potential, simulate_dbm

    checks, tables = [], {}
    sig = scn["tolerances"]["sigmas"]
    pot = _pot(scn)
    grid = TimeGrid(scn["grid"]["dt"], scn["grid"]["steps"])
    tau = {int(k): float(v) for k, v in scn["tau"].items()}
    init = InitSpec("explicit", values=tuple(scn["init_values"]))
    funcs = girsanov_functionals(tau, grid)
    base = simulate_dbm(pot, scn["n_particles"], grid, scn["replicas"], init, scn["seed"], funcs, workers=scn["threads"])
    per_rep = base.functional_samples
    w = np.exp(per_rep["logweight"] + per_rep["quadratic"])
    mean_w, se_w = mean_se(w)
    checks.append(check("full-weight-mean", "E[exp(logweight + quadratic correction)] = 1", mean_w - 1.0, sig * se_w, mean=mean_w))

    pi2 = per_rep["pi2_end"]
    rew = float(np.sum(w * pi2) / np.sum(w))
    se_rew = float(np.std(w * (pi2 - rew), ddof=1) / (np.mean(w) * math.sqrt(base.m)))
    tilted = perturbed_potential(pot, tau)
    direct = simulate_dbm(tilted, scn["n_particles"], grid, scn["replicas"], init, scn["seed"] + 1, workers=scn["threads"])
    d_mean = float(direct.pi_mean(2)[-1])
    d_se = float(direct.pi_se(2)[-1])
    checks.append(
        check(
            "reweighted-vs-direct",
            "tilt by the stored weight = drift shift -2 d(sum tau_k pi_k)",
            rew - d_mean,
            sig * math.hypot(se_rew, d_se),
            reweighted=rew,
            direct=d_mean,
        )
    )
    tables["girsanov"] = (
        ("quantity", "value", "se"),
        [("full_weight_mean", mean_w, se_w), ("reweighted_pi2", rew, se_rew), ("direct_pi2", d_mean, d_se)],
    )
    return checks, tables


@_suite(
    "npoint",
    beta=2.0,
    b={"1": 1.0},
    n_particles=5,
    grid={"dt": 1e-3, "steps": 800},
    replicas=8000,
    modes=[1, 2],
    k_max=4,
    init={"kind": "equispaced", "shift": 0.4},
    tolerances={"sigmas": 3.0},
)
def run_npoint(scn):
    from .boson import TimeGrid
    from .dyson import InitSpec, npoint_functionals, npoint_vs_kernel, simulate_dbm
    from .timefunc import bump

    checks, tables = [], {}
    tol = scn["tolerances"]
    pot = _pot(scn)
    grid = TimeGrid(scn["grid"]["dt"], scn["grid"]["steps"])
    tmax = grid.dt * grid.steps
    f = bump(0.0, tmax, 2)
    funcs = {}
    for k in scn["modes"]:
        fl = npoint_functionals(pot, grid, f, k, scn["k_max"])
        funcs[f"npoint{k}:lhs"] = fl["lhs"]
        funcs[f"npoint{k}:rhs"] = fl["rhs"]
    init = InitSpec(**scn["init"])
    ens = simulate_dbm(pot, scn["n_particles"], grid, scn["replicas"], init, scn["seed"], funcs, workers=scn["threads"])
    rows = []
    for k in scn["modes"]:
        lhs, rhs, disc, se = npoint_vs_kernel(ens, k)
        rows.append((k, lhs, rhs, disc, se))
        checks.append(
            check(
                f"npoint/k={k}",
                "int f <pi_k> = kernel convolution of the action-density source (+ initial term)",
                disc,
                tol["sigmas"] * se + 1e-12 * abs(lhs),  # floor: the k=1 discrepancy telescopes to rounding
                lhs=lhs,
                rhs=rhs,
                se=se,
            )
        )
    tables["npoint"] = (("k", "lhs", "rhs", "discrepancy", "se"), rows)
    return checks, tables


@_suite(
    "np-brackets",
    grid_points=2000,
    t_max=1.0,
    exponents=[-1, 0, 1, 2],
    eps=1e-2,
    beta=2.0,
    b={"1": 1.0},
    tolerances={"bracket_rel": 1e-4, "jacobi": 1e-3, "shuffle": 1e-9, "sv_exact": 1e-12},
)
def run_np_brackets(scn):
    from .nptransform import (
        IIWord,
        NPGenerator,
        SampledPath,
        elementary_bracket,
        evaluate_iterated_exact,
        force_change,
        numeric_commutator_richardson,
        shuffle_product,
        sv_bracket,
    )
    from .timefunc import TimePoly, poly_t

    checks, tables = [], {}
    tol = scn["tolerances"]
    path = SampledPath.from_function(lambda t: 2.0 + np.sin(t), 0.0, scn["t_max"], scn["grid_points"] + 1)
    a1, a2 = poly_t(2), TimePoly([0.0, 1.0, 0.5])
    eps = scn["eps"]
    rows = []
    for n1 in scn["exponents"]:
        for n2 in scn["exponents"]:
            num = numeric_commutator_richardson(NPGenerator(n1, a1.deriv(1)), NPGenerator(n2, a2.deriv(1)), path, eps)
            sym = elementary_bracket(n1, a1, n2, a2).variation(path)
            sl = np.s_[10:-10]
            scale = _worst([np.max(np.abs(sym[sl])), np.max(np.abs(num[sl]))])
            rel = float(np.max(np.abs(num[sl]))) if scale <= 1e-10 else float(np.max(np.abs(num[sl] - sym[sl]))) / scale
            rows.append((n1, n2, rel, scale))
    checks.append(check("elementary-bracket", "closed bracket vs 4-point stencil, eps-Richardson", _worst([r[2] for r in rows]), tol["bracket_rel"]))

    ns = [-1, 0, 1]
    labels = [poly_t(2), TimePoly([0.0, 1.0, 0.4]), poly_t(3)]
    gens = [NPGenerator(n, label.deriv(1)) for n, label in zip(ns, labels)]
    total = np.zeros_like(path.values)
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        inner = elementary_bracket(ns[i], labels[i], ns[j], labels[j])
        total += numeric_commutator_richardson(inner, gens[k], path, 2 * eps)
    checks.append(check("jacobi", "cyclic bracket sum vanishes", float(np.max(np.abs(total[10:-10]))), tol["jacobi"]))

    lam_poly = TimePoly([2.0, 1.0, -1.0 / 3.0])
    w1 = IIWord(((1, TimePoly([1.0])), (0, poly_t(1))))
    w2 = IIWord(((2, TimePoly([1.0])),))
    t = np.linspace(0.0, scn["t_max"], 101)
    lhs = evaluate_iterated_exact(w1, lam_poly)(t) * evaluate_iterated_exact(w2, lam_poly)(t)
    rhs = np.zeros_like(t)
    for c, w in shuffle_product(w1, w2):
        rhs += c * evaluate_iterated_exact(w, lam_poly)(t)
    checks.append(
        check(
            "shuffle-identity",
            "product of iterated integrals = shuffle sum (exact polynomial path)",
            float(np.max(np.abs(lhs - rhs))),
            tol["shuffle"],
        )
    )

    pot = _pot(scn)
    tH = np.linspace(0, 1, 101)
    hist = np.sort(np.vstack([np.sin(tH) - 1, 0.3 * tH, 2 + 0.1 * np.cos(tH)]).T, axis=1)
    delay = _worst([np.max(np.abs(force_change(n, poly_t(2), pot, hist[-1], hist_matrix=(tH, hist))["delay"])) for n in (-1, 0)])
    checks.append(check("delayed-force-closed-family", "equal time shifts kill the delayed term for n in {-1, 0}", delay, 1e-12))

    kind, lbl = sv_bracket("Y", TimePoly([1.0]), "X", poly_t(1))
    kind2, lbl2 = sv_bracket("X", poly_t(1), "X", TimePoly([1.0]))
    kind3, _ = sv_bracket("Y", poly_t(1), "Y", poly_t(2))
    err = _max_gap(((lbl.coeffs, np.array([-0.5])), (lbl2.coeffs, np.array([1.0]))))
    checks.append(
        check(
            "sv-bracket-exact",
            "[X_f,X_g]=X_{f'g-fg'}, [Y_f,X_g]=Y_{f'g-fg'/2}, [Y,Y]=0",
            err,
            tol["sv_exact"],
            passed=err <= tol["sv_exact"] and kind == "Y" and kind2 == "X" and kind3 == "0",
        )
    )
    tables["np_brackets"] = (("n1", "n2", "relative_error", "scale"), rows)
    return checks, tables


@_suite(
    "hermite-example",
    sigma=1.0,
    n_particles=5,
    k_max=6,
    t_max=3.0,
    dts=[0.01, 0.005],
    linquadr_t_max=1.0,
    tolerances={"pair_rel": 1e-3, "trend_low": 1.4, "trend_high": 2.6},
)
def run_hermite_example(scn):
    from .boson import TimeGrid
    from .kernel import Potential
    from .svconstraints import hermite_cancellation_pairs, hermite_lin_quadr_bracket
    from .timefunc import bump, poly_t

    checks, tables = [], {}
    tol = scn["tolerances"]
    sigma, n_part = scn["sigma"], scn["n_particles"]
    rows = []
    rels = {}
    f = bump(0.0, scn["t_max"], 3)
    g = f * poly_t(1)
    for dt in scn["dts"]:
        grid = TimeGrid(dt, int(round(scn["t_max"] / dt)))
        rep = hermite_cancellation_pairs(f, g, sigma, n_part, grid, scn["k_max"])
        for name, v in rep.items():
            rels.setdefault(name, []).append(v["relative"])
            rows.append((name, dt, v["residual"], v["magnitude"], v["relative"]))
    for name, vals in rels.items():
        checks.append(check(f"cancellation/{name}", "paired contributions cancel", vals[-1], tol["pair_rel"]))
        if vals[-1] > 1e-10:  # display-level pairs cancel identically; no trend
            checks.append(
                _ratio_check(
                    f"cancellation-trend/{name}",
                    "pair residual shrinks at first order in dt",
                    vals[0],
                    vals[-1],
                    tol["trend_low"],
                    tol["trend_high"] * 2,
                )
            )
    pot = Potential(2.0, {1: 1.0 / sigma**2})
    consts = []
    f = bump(0.0, scn["linquadr_t_max"], 4)
    g = f * poly_t(1)
    for dt in scn["dts"]:
        grid = TimeGrid(dt, int(round(scn["linquadr_t_max"] / dt)))
        rep = hermite_lin_quadr_bracket(f, g, pot, n_part, grid, scn["k_max"])
        consts.append(rep["const_minus_analytic"])
        checks.append(
            check(
                f"linquadr-analytic/dt={dt}",
                "scalar part equals N * total-derivative quadrature (= 0)",
                rep["analytic_total_derivative"],
                1e-9,
            )
        )
    checks.append(
        _ratio_check(
            "linquadr-trend",
            "total-derivative cancellation at first order in dt",
            consts[0],
            consts[1],
            tol["trend_low"],
            tol["trend_high"],
        )
    )
    tables["hermite_cancellations"] = (("pair", "dt", "residual", "magnitude", "relative"), rows)
    return checks, tables


SUITES = tuple(SUITE_TABLE)


# ----------------------------------------------------------------------
# orchestration


def run_suite(scn: dict):
    suite = scn["suite"]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    checks, tables = SUITE_TABLE[suite][0](scn)
    return suite_report(scn, checks), tables


def suite_report(scn: dict, checks: list) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": scn["suite"],
        "scenario": scn,
        "checks": checks,
        "passed": all(c["pass"] for c in checks),
    }


def write_report(report, tables, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    name = report["suite"]
    with open(out_dir / f"{name}.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for tname, (header, rows) in tables.items():
        with open(out_dir / f"{name}_{tname}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


# ----------------------------------------------------------------------
# config validation: the default scenario of the suite is the schema


def _l_max(spec) -> int:
    """The force support L_max of a potential config: the highest l with
    b_l != 0, as in kernel.Potential.l_max.  No Potential is built here,
    because importing kernel would add about 10 ms to every validation."""
    return max((l for l, v in _forces(spec).items() if v), default=0)


def _confining(spec) -> bool:
    """The force confines, as in kernel.Potential.is_confining: the highest
    nonzero b_l has odd l and b_l > 0."""
    forces, l = _forces(spec), _l_max(spec)
    return l % 2 == 1 and forces[l] > 0


#: The fields of dyson.InitSpec, each with a value of its type, named here so
#: that validation does not import the engine.  An init may leave any out.
INIT_FIELDS = {"kind": "equispaced", "shift": 0.0, "halfwidth": 1.0, "values": [0.0], "sweeps": 200, "seed": 0}
INIT_KEYS = tuple(INIT_FIELDS)
INIT_KINDS = ("equispaced", "explicit", "equilibrium")

#: Maps whose keys the user names, with the least integer a key may be (None:
#: any name).  A tau_1 tilt would be a constant force, not a potential.
NAMED_KEYS = {"potentials": None, "b": 1, "tau": 2}

#: Lower bounds by key name, on its value or on each entry of its list.  The
#: standard errors are the scatter across replicas or chains, so 2 are needed;
#: np-brackets leaves out 10 grid points at each end and divides by eps; NP exponents start at -1.
BOUNDS = {"dt": (">", 0), "dts": (">", 0), "sigma": (">", 0), "t_max": (">", 0), "eps": (">", 0), "steps": (">=", 2), "replicas": (">=", 2)}
BOUNDS |= {"chains": (">=", 2), "n_particles": (">=", 1), "threads": (">=", 1), "sweeps": (">=", 1), "grid_points": (">=", 20), "exponents": (">=", -1), "seed": (">=", 0)}
BOUNDS |= dict.fromkeys(("beta", "times", "identity_times", "orders", "moment_ks", "modes", "pi1_times", "pi2_window"), (">=", 0))

#: Upper bounds by key name, applied like BOUNDS.  The engine keys its noise
#: with numpy.uint64(seed), and girsanov's second run uses seed + 1; the
#: characteristics route of kernel-identities costs time linear in t.
CEILINGS = {"seed": 2**63, "times": 10}


def _check_value(value, ref, path, key=None):
    """Check a config value against its default ref: a number is finite (an
    integer where the default is one, never a bool) within its BOUNDS and CEILINGS,
    every list entry matches the first default entry, and an object has
    exactly the default's keys.  Errors name the key path."""
    where = path or "config"
    if isinstance(ref, (int, float)):
        kind = int if isinstance(ref, int) else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind) or (isinstance(value, float) and not math.isfinite(value)):
            raise ValueError(f"{where} must be {'an integer' if kind is int else 'a finite number'}")
        op, least = BOUNDS.get(key, (">=", -math.inf))
        if value < least or (op == ">" and value == least):
            raise ValueError(f"{where} must be {op} {least}")
        if key in CEILINGS and value >= CEILINGS[key]:
            raise ValueError(f"{where} must be < {CEILINGS[key]}")
    elif isinstance(ref, str):
        if not isinstance(value, str):
            raise ValueError(f"{where} must be a string")
    elif isinstance(ref, list):
        if not isinstance(value, list):
            raise ValueError(f"{where} must be a list")
        for i, v in enumerate(value):
            _check_value(v, ref[0], f"{where}[{i}]", key)
    elif value is None and key == "constraint_mc":  # null skips the Monte Carlo
        return
    elif not isinstance(value, dict):
        raise ValueError(f"{where} must be an object")
    elif key in NAMED_KEYS:
        least, entry = NAMED_KEYS[key], next(iter(ref.values()))
        for name, v in value.items():
            if least is not None and not (str(name).isdecimal() and int(name) >= least):
                raise ValueError(f"{where}: key {name!r} must be an integer >= {least}")
            _check_value(v, entry, f"{path}.{name}")
    else:
        if key == "init":
            ref = INIT_FIELDS
        missing = [k for k in ref if k not in value and k != "schema_version" and key != "init"]
        if missing:
            raise ValueError(f"{where}: missing {', '.join(missing)}")
        unknown = [str(k) for k in value if k not in ref]
        if unknown:
            raise ValueError(f"{where}: unknown key {', '.join(unknown)}")
        for k, v in value.items():
            _check_value(v, ref[k], f"{path}.{k}" if path else k, k)


#: The potentials run_kernel_identities reads by name: those of its default scenario.
KERNEL_IDENTITY_POTENTIALS = tuple(SUITE_TABLE["kernel-identities"][1]["potentials"])


def _spread_defined(spec, init) -> bool:
    """An equispaced init without a halfwidth spreads over sigma = b_1^(-1/2)
    when the force is Gaussian, as in dyson.InitSpec.positions; a Gaussian
    force with b_1 < 0 has no sigma."""
    equispaced = init.get("kind", "equispaced") == "equispaced" and "halfwidth" not in init
    return not equispaced or [(l, v > 0) for l, v in _forces(spec).items() if v] != [(1, False)]


#: Cross-field rules on a config that has passed the schema: (suites, rule, message).
VALUE_RULES = (
    (("kernel-identities",), lambda s: set(KERNEL_IDENTITY_POTENTIALS) <= set(s["potentials"]), f"potentials must name {', '.join(KERNEL_IDENTITY_POTENTIALS)}"),
    (("kernel-identities",), lambda s: len(s["times"]) >= 1, "times needs an entry: the kernel table is written at the last"),
    (("kernel-identities",), lambda s: len(s["identity_times"]) == 3 and s["identity_times"][0] > s["identity_times"][1] > s["identity_times"][2], "identity_times must be [t, t', t''] with t > t' > t''"),
    (("kernel-identities", "boson-commutators", "sv-algebra"), lambda s: all(s["k_max"] >= _l_max(p) for p in s["potentials"].values()), "k_max must reach the force support L_max of every potential"),
    (("npoint",), lambda s: s["k_max"] >= _l_max(s), "k_max must reach the force support L_max of b"),
    (("boson-commutators",), lambda s: s["grid"]["steps"] >= 3, "grid.steps must be >= 3: the checks pair slots steps - 1 and 2"),
    (("sv-algebra",), lambda s: 1 <= s["interior_modes"] <= s["k_max"], "interior_modes must lie in 1..k_max"),
    (("sv-algebra",), lambda s: len(s["grids"]) >= 2, "grids needs two entries for the dt-halving ratio"),
    (("sv-algebra",), lambda s: math.isclose(2 * s["grids"][1]["dt"], s["grids"][0]["dt"]) and math.isclose(*(g["dt"] * g["steps"] for g in s["grids"][:2])), "grids[1] must halve the dt of grids[0] over the same span steps * dt: the bracket ratios read a dt-halving trend"),
    (("sv-algebra",), lambda s: not s["constraint_mc"] or s["constraint_mc"]["k_max"] >= max(2, 2 * _l_max(s["constraint_mc"])), "constraint_mc.k_max must be >= max(2, 2 L_max): the constraint weights reach mode 2 L_max"),
    (("sv-algebra",), lambda s: not s["constraint_mc"] or s["constraint_mc"]["beta"] > 0, "constraint_mc.beta must be > 0: the constraint's linear part scales by beta^(-1/2)"),
    (("hermite-example",), lambda s: len(s["dts"]) >= 2, "dts needs two entries for the dt-halving trends"),
    (("hermite-example",), lambda s: all(round(t / dt) >= 2 for dt in s["dts"] for t in (s["t_max"], s["linquadr_t_max"])), "every dt must leave 2 or more steps in t_max and linquadr_t_max"),
    (("hermite-example",), lambda s: s["k_max"] >= 3, "k_max must be >= 3: the cancellation pairs start at mode 3"),
    (("equilibrium-loop", "dbm-moments"), lambda s: [(l, v > 0) for l, v in _forces(s).items() if v] == [(1, True)], "b must be Gaussian, {1: b_1 > 0}: the closed forms for pi_1 and pi_2 need sigma"),
    (("equilibrium-loop",), lambda s: all(o <= 6 for o in s["orders"]), "orders must be <= 6: order n reads pi_(n+2), and the sampler tracks pi_k up to k = 8"),
    (("equilibrium-loop",), lambda s: len(s["cases"]) >= 1, "cases must hold one case or more"),
    (("girsanov",), lambda s: len(s["init_values"]) == s["n_particles"], "init_values must hold n_particles values"),
    (("girsanov",), lambda s: len(set(s["init_values"])) == len(s["init_values"]), "init_values must be distinct: coincident particles have an infinite pair force"),
    (("dbm-moments",), lambda s: all(k <= 6 for k in s["moment_ks"]), "moment_ks must be <= 6"),
    (("dbm-moments",), lambda s: len(s["pi2_window"]) == 2 and s["pi2_window"][0] <= s["pi2_window"][1], "pi2_window must be [start, end] with start <= end"),
    (("dbm-moments",), lambda s: all(round(t / s["grid"]["dt"]) <= s["grid"]["steps"] for t in s["pi1_times"] + s["pi2_window"]), "pi1_times and pi2_window must lie within steps * dt: the runner reads slot round(t / dt)"),
    (("dbm-moments", "npoint"), lambda s: s["init"].get("kind", "equispaced") in INIT_KINDS, f"init.kind must be one of {', '.join(INIT_KINDS)}"),
    (("dbm-moments", "npoint"), lambda s: s["init"].get("kind") != "explicit" or len(s["init"].get("values", [])) == s["n_particles"], "an explicit init needs n_particles values"),
    (("dbm-moments", "npoint"), lambda s: s["init"].get("kind") != "explicit" or len(set(s["init"]["values"])) == len(s["init"]["values"]), "init.values must be distinct: coincident particles have an infinite pair force"),
    (("npoint",), lambda s: s["init"].get("kind") != "equilibrium" or _confining(s), "an equilibrium init needs a confining force: the highest nonzero b_l must have odd l and b_l > 0"),
    (("npoint",), lambda s: all(k <= s["k_max"] for k in s["modes"]), "modes must be <= k_max"),
    (("npoint", "sv-algebra"), lambda s: _spread_defined(s, s["init"]) if s["suite"] == "npoint" else not s["constraint_mc"] or _spread_defined(s["constraint_mc"], {}), "a Gaussian force {1: b_1} needs b_1 > 0 for an equispaced init without halfwidth: the init spreads over sigma = b_1^(-1/2)"),
)

#: Lists each of whose entries writes its own check rows, so no entry may repeat.
DISTINCT_LISTS = {"equilibrium-loop": ("cases", "orders"), "dbm-moments": ("pi1_times", "moment_ks"), "npoint": ("modes",), "hermite-example": ("dts",)}


def _holds(rule, message, scn) -> bool:
    """Whether the rule holds; a rule that cannot be evaluated on the config
    is a config error that names the cause."""
    try:
        return bool(rule(scn))
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, ArithmeticError) as exc:
        raise ValueError(f"{message} (could not evaluate: {exc!r})") from None


def validate_scenario(scn: dict):
    if not isinstance(scn, dict) or "suite" not in scn:
        raise ValueError("config must be an object that names a suite")
    if scn["suite"] not in SUITES:
        raise ValueError(f"unknown suite {scn['suite']!r}; choose from {', '.join(SUITES)}")
    _check_value(scn, SUITE_TABLE[scn["suite"]][1], "")
    for key in DISTINCT_LISTS.get(scn["suite"], ()):
        entries = [tuple(sorted(v.items())) if isinstance(v, dict) else v for v in scn[key]]
        if len(set(entries)) < len(entries):
            raise ValueError(f"{key} must not repeat an entry: each entry writes its own check rows")
    for suites, rule, message in VALUE_RULES:
        if scn["suite"] in suites and not _holds(rule, message, scn):
            raise ValueError(message)
    return scn


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="coulombgas", description="verification suites for the Coulomb-gas dynamics engine")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a suite from a JSON scenario config")
    runp.add_argument("config", help="path to the scenario JSON")
    runp.add_argument("--out", default=None, help="output directory (default: COULOMBGAS_OUT or ./reports)")
    runp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    runp.add_argument("--threads", type=int, default=None, help="worker processes for replica blocks")
    defp = sub.add_parser("default-config", help="print the complete default scenario for a suite")
    defp.add_argument("suite", choices=SUITES)
    args = parser.parse_args(argv)

    if args.command == "default-config":
        print(json.dumps(default_scenario(args.suite), indent=2, sort_keys=True))
        return 0

    flags = {key: value for key, value in (("seed", args.seed), ("threads", args.threads)) if value is not None}
    try:
        with open(args.config) as fh:
            scn = json.load(fh)
        validate_scenario(scn)
        for key, value in flags.items():
            _check_value(value, 0, f"--{key}", key)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    scn |= flags
    out_dir = Path(args.out or os.environ.get("COULOMBGAS_OUT", "reports"))

    from .dyson import RejectionRateError  # not at module level: keeps CLI start-up free of the engine import

    try:
        report, tables = run_suite(scn)
    except (RejectionRateError, FloatingPointError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        row = check(f"{scn['suite']}/engine", "the suite's computation ran to completion", 1.0, 0.0, error=error)
        report, tables = suite_report(scn, [row]), {}
        print(f"engine error: {error}", file=sys.stderr)
    write_report(report, tables, out_dir)
    for c in report["checks"]:
        status = "pass" if c["pass"] else "FAIL"
        print(f"[{status}] {c['name']}: value={c['value']:.6g} tol={c['tolerance']:.6g}")
    print(f"suite {report['suite']}: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
