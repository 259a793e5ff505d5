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
import sys
import time
from pathlib import Path

import numpy as np

SCHEMA_VERSION = "1.0.0"

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


def report_schema_version() -> str:
    return SCHEMA_VERSION


def check(name, anchor, value, tolerance, passed=None, **extra):
    if passed is None:
        passed = bool(abs(value) <= tolerance)
    row = {"name": name, "anchor": anchor, "value": float(value), "tolerance": float(tolerance), "pass": bool(passed)}
    row.update(extra)
    return row


# ----------------------------------------------------------------------
# default scenarios (the acceptance configurations)


def default_scenario(suite: str) -> dict:
    base = {"schema_version": SCHEMA_VERSION, "suite": suite, "seed": 2024, "threads": 1}
    if suite == "kernel-identities":
        base.update(
            {
                "k_max": 12,
                "times": [0.1, 0.3],
                "identity_times": [0.3, 0.2, 0.1],
                "potentials": {
                    "quadratic-force": {"beta": 2.0, "b": {"2": 1.0}},
                    "mixed-force": {"beta": 2.0, "b": {"1": 0.5, "2": 0.3}},
                    "hermite": {"beta": 2.0, "b": {"1": 1.0}},
                    "hermite-beta1": {"beta": 1.0, "b": {"1": 1.0}},
                    "hermite-beta4": {"beta": 4.0, "b": {"1": 1.0}},
                    "generic-beta1": {"beta": 1.0, "b": {"1": 0.5, "2": 0.3}},
                    "generic-beta4": {"beta": 4.0, "b": {"1": 0.5, "2": 0.3}},
                },
                "tolerances": {
                    "route_equivalence": 1e-8,
                    "hermite_diagonal": 1e-12,
                    "hermite_closed": 1e-10,
                    "semigroup": 1e-10,
                    "kolmogorov": 1e-10,
                    "technical_lemma_rel": 1e-7,
                    "route_runtime_s": 5.0,
                },
                "debug": {"flip_generator_sign": False},
            }
        )
    elif suite == "boson-commutators":
        base.update(
            {
                "k_max": 6,
                "n_particles": 5,
                "grid": {"dt": 0.1, "steps": 6},
                "potentials": {
                    "hermite": {"beta": 2.0, "b": {"1": 1.0}},
                    "generic-beta1": {"beta": 1.0, "b": {"1": 0.5, "2": 0.3}},
                },
                "tolerances": {"commutator": 1e-12},
            }
        )
    elif suite == "sv-algebra":
        base.update(
            {
                "k_max": 8,
                "interior_modes": 6,
                "n_particles": 5,
                "grids": [{"dt": 0.02, "steps": 50}, {"dt": 0.01, "steps": 100}],
                "potentials": {
                    "hermite": {"beta": 2.0, "b": {"1": 1.0}},
                    "generic": {"beta": 2.0, "b": {"1": 0.5, "2": 0.3}},
                },
                "constraint_mc": {
                    "beta": 2.0,
                    "b": {"1": 1.0},
                    "n_particles": 5,
                    "grid": {"dt": 1e-3, "steps": 1000},
                    "replicas": 20000,
                    "k_max": 4,
                    "init_shift": 0.4,
                },
                "tolerances": {"ratio_low": 1.6, "ratio_high": 2.4, "runtime_s": 120.0, "mc_sigmas": 3.0},
            }
        )
    elif suite == "equilibrium-loop":
        base.update(
            {
                "sweeps": 100000,
                "chains": 200,
                "orders": [0, 1, 2],
                "cases": [
                    {"n_particles": 2, "beta": 1.0},
                    {"n_particles": 2, "beta": 2.0},
                    {"n_particles": 5, "beta": 1.0},
                    {"n_particles": 5, "beta": 2.0},
                ],
                "b": {"1": 1.0},
                "tolerances": {"sigmas": 3.0},
            }
        )
    elif suite == "dbm-moments":
        base.update(
            {
                "beta": 2.0,
                "b": {"1": 1.0},
                "n_particles": 5,
                "grid": {"dt": 1e-3, "steps": 4000},
                "replicas": 20000,
                "init": {"kind": "equispaced", "shift": 0.5},
                "pi1_times": [0.5, 1.0],
                "pi2_window": [3.0, 4.0],
                "moment_ks": [1, 2, 3, 4],
                "tolerances": {
                    "sigmas": 3.0,
                    "noise_sigmas": 4.0,
                    "runtime_s": 180.0,
                    "bias_per_dt": 200.0,
                },
            }
        )
    elif suite == "girsanov":
        base.update(
            {
                "beta": 2.0,
                "b": {"1": 1.0},
                "n_particles": 5,
                "grid": {"dt": 1e-3, "steps": 400},
                "replicas": 12000,
                "tau": {"2": 0.05},
                "init_values": [-4.0, -2.0, 0.0, 2.0, 4.0],
                "tolerances": {"sigmas": 3.0},
            }
        )
    elif suite == "npoint":
        base.update(
            {
                "beta": 2.0,
                "b": {"1": 1.0},
                "n_particles": 5,
                "grid": {"dt": 1e-3, "steps": 800},
                "replicas": 8000,
                "modes": [1, 2],
                "k_max": 4,
                "init": {"kind": "equispaced", "shift": 0.4},
                "tolerances": {"sigmas": 3.0},
            }
        )
    elif suite == "np-brackets":
        base.update(
            {
                "grid_points": 2000,
                "t_max": 1.0,
                "exponents": [-1, 0, 1, 2],
                "eps": 1e-2,
                "beta": 2.0,
                "b": {"1": 1.0},
                "tolerances": {"bracket_rel": 1e-4, "jacobi": 1e-3, "shuffle": 1e-9, "sv_exact": 1e-12},
            }
        )
    elif suite == "hermite-example":
        base.update(
            {
                "sigma": 1.0,
                "n_particles": 5,
                "k_max": 6,
                "t_max": 3.0,
                "dts": [0.01, 0.005],
                "linquadr_t_max": 1.0,
                "tolerances": {"pair_rel": 1e-3, "trend_low": 1.4, "trend_high": 2.6},
            }
        )
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return base


# ----------------------------------------------------------------------
# suite implementations


def _forces(spec) -> dict:
    """The force coefficients {l: b_l} of a potential config."""
    return {int(k): float(v) for k, v in spec["b"].items()}


def _pot(spec):
    from .kernel import Potential

    return Potential(float(spec["beta"]), _forces(spec))


def run_kernel_identities(scn):
    from .kernel import (
        generator_matrix,
        hermite_kernel,
        kernel_beta2_closed,
        kernel_to_csv_rows,
        propagator,
        verify_kernel_identities,
        expm_tol,
    )

    checks, tables = [], {}
    tol = scn["tolerances"]
    k_max = scn["k_max"]
    pots = {name: _pot(sp) for name, sp in scn["potentials"].items()}

    t0 = time.perf_counter()
    for name in ("quadratic-force", "mixed-force"):
        pot = pots[name]
        worst = 0.0
        for t in scn["times"]:
            ka = propagator(pot, t, k_max).entries
            kb = kernel_beta2_closed(pot.b, t, k_max).entries
            worst = max(worst, float(np.max(np.abs(ka - kb))))
        checks.append(check(f"route-equivalence/{name}", "exp(tA) vs characteristics", worst, tol["route_equivalence"]))
    elapsed = time.perf_counter() - t0
    checks.append(check("route-equivalence/runtime", "wall clock seconds", elapsed, tol["route_runtime_s"]))

    worst = 0.0
    for t in (0.25, 0.5, 1.0):
        k = propagator(pots["hermite"], t, k_max).entries
        want = np.diag([math.exp(-kk * t) for kk in range(k_max + 1)])
        worst = max(worst, float(np.max(np.abs(k - want))))
    checks.append(check("hermite-diagonal", "K_kl = delta e^{-kt/s^2}", worst, tol["hermite_diagonal"]))

    for name in ("hermite-beta1", "hermite-beta4"):
        pot = pots[name]
        worst = 0.0
        for t in (0.2, 0.5, 1.0):
            ka = propagator(pot, t, k_max).entries
            kb = hermite_kernel(1.0, pot.beta, t, k_max).entries
            worst = max(worst, float(np.max(np.abs(ka - kb))))
        checks.append(
            check(
                f"hermite-closed/{name}",
                "re-derived coefficients k!/(m!(k-2m)!) f^m e^{-(k-2m)t}",
                worst,
                tol["hermite_closed"],
                note="coefficients from the generating construction; printed binomial/power form rejected by this oracle",
            )
        )

    flip = scn.get("debug", {}).get("flip_generator_sign", False)
    for name in ("hermite", "generic-beta1", "generic-beta4"):
        pot = pots[name]
        if flip:
            a = -generator_matrix(pot, k_max)
            t, tp, ts = scn["identity_times"]
            k1 = expm_tol((t - tp) * a)
            k2 = expm_tol((tp - ts) * a)
            k3 = propagator(pot, t - ts, k_max).entries
            resid = float(np.max(np.abs(k1 @ k2 - k3)))
            checks.append(check(f"semigroup/{name}", "K(t-t')K(t'-t'')=K(t-t'')", resid, tol["semigroup"]))
            continue
        rep = verify_kernel_identities(pot, tuple(scn["identity_times"]), k_max)
        checks.append(
            check(
                f"semigroup/{name}",
                "K(t-t')K(t'-t'')=K(t-t''), relative to the kernel scale",
                rep["semigroup_rel"],
                tol["semigroup"],
                absolute=rep["semigroup"],
            )
        )
        checks.append(
            check(
                f"kolmogorov-forward/{name}",
                "dK/dt = (generator) K, relative",
                rep["kolmogorov_forward_rel"],
                tol["kolmogorov"],
                absolute=rep["kolmogorov_forward"],
            )
        )
        checks.append(
            check(
                f"kolmogorov-backward/{name}",
                "dK/dt = K (generator), relative",
                rep["kolmogorov_backward_rel"],
                tol["kolmogorov"],
                absolute=rep["kolmogorov_backward"],
            )
        )
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
        worst_psi = worst_cross = worst_delta = worst_plus = worst_phiphi = 0.0
        for k in range(1, k_max + 1):
            for l in range(1, k_max + 1):
                c = commutator(
                    dynamic_boson(k, j, pot, n_part, grid, k_max, tab),
                    dynamic_boson(-l, jp, pot, n_part, grid, k_max, tab),
                )
                worst_psi = max(worst_psi, abs(c.const - g.entries[k, l]))
                c2 = commutator(
                    dynamic_boson(k, j, pot, n_part, grid, k_max, tab),
                    static_boson(-l, jp, pot.beta, grid, k_max),
                )
                worst_cross = max(worst_cross, abs(c2.const - g.entries[k, l]))
                c3 = commutator(static_boson(k, j, pot.beta, grid, k_max), static_boson(-l, j, pot.beta, grid, k_max))
                want = (l / grid.dt) if k == l else 0.0
                worst_delta = max(worst_delta, abs(c3.const - want))
                c4 = commutator(static_boson(k, j, pot.beta, grid, k_max), static_boson(-l, jp, pot.beta, grid, k_max))
                worst_phiphi = max(worst_phiphi, c4.field_max_abs())
                rows.append((name, k, l, c.const, g.entries[k, l]))
            d = dynamic_boson(-k, 3, pot, n_part, grid, k_max, tab) - static_boson(-k, 3, pot.beta, grid, k_max)
            worst_plus = max(worst_plus, d.field_max_abs())
            ceq = commutator(
                dynamic_boson(k, j, pot, n_part, grid, k_max, tab),
                static_boson(-k, j, pot.beta, grid, k_max),
            )
            worst_cross = max(worst_cross, abs(ceq.const - g0.entries[k, k]))
        checks.append(check(f"psi-psi-retarded/{name}", "[psi_k(t), psi_-l(t')] = l K_kl(t-t')", worst_psi, tol))
        checks.append(check(f"psi-phi/{name}", "[psi_k(t), phi_-l(t')] = l K_kl, incl. equal-time", worst_cross, tol))
        checks.append(check(f"phi-phi-delta/{name}", "[phi_k, phi_-l] = (l/dt) delta_kl delta_jj'", worst_delta, tol))
        checks.append(check(f"phi-phi-unequal/{name}", "[phi(t), phi(t')] = 0 for t != t'", worst_phiphi, tol))
        checks.append(check(f"psi-plus-equals-phi-plus/{name}", "multiplier halves coincide exactly", worst_plus, tol))
    tables["psi_psi_commutators"] = (("potential", "k", "l", "commutator", "l*K_kl"), rows)
    return checks, tables


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
    residual_reports = []
    t0 = time.perf_counter()
    for name, spec in scn["potentials"].items():
        pot = _pot(spec)
        resid = {}
        for gspec in scn["grids"]:
            grid = TimeGrid(gspec["dt"], gspec["steps"])
            tmax = grid.dt * grid.steps
            f = bump(0.0, tmax, 4)
            g = bump(0.0, tmax, 4) * poly_t(1)
            tab = kernel_table(pot, grid, scn["k_max"])
            reps = verify_sv_algebra_quadratic(
                f, g, pot, scn["n_particles"], grid, scn["k_max"], mode_int=scn["interior_modes"], ktable=tab
            )
            reps += verify_sv_algebra_linear(
                f, g, pot, scn["n_particles"], grid, scn["k_max"], mode_int=scn["interior_modes"], ktable=tab
            )
            for r in reps:
                resid.setdefault(r["relation"], []).append(r["residual"])
                rows.append((name, r["relation"], gspec["dt"], scn["k_max"], r["residual"], r["relative"]))
                residual_reports.append(
                    {
                        "potential": name,
                        "relation": r["relation"],
                        "dt": gspec["dt"],
                        "K_max": scn["k_max"],
                        "residual": r["residual"],
                        "tolerance": None,  # pinned through the dt-halving ratio below
                        "pass": None,
                    }
                )
        for rel, vals in resid.items():
            ratio = vals[0] / vals[1] if vals[1] else float("inf")
            ok = tol["ratio_low"] <= ratio <= tol["ratio_high"]
            for rr in residual_reports:
                if rr["potential"] == name and rr["relation"] == rel:
                    rr["tolerance"] = f"ratio in [{tol['ratio_low']}, {tol['ratio_high']}]"
                    rr["pass"] = ok
            checks.append(
                check(
                    f"bracket-ratio/{name}/{rel}",
                    "first-order dt trend of the bracket residual",
                    ratio,
                    tol["ratio_high"],
                    passed=ok,
                )
            )
    elapsed = time.perf_counter() - t0
    checks.append(check("sv-algebra/runtime", "wall clock seconds", elapsed, tol["runtime_s"]))
    tables["sv_bracket_residuals"] = (("potential", "relation", "dt", "k_max", "residual", "relative"), rows)
    tables["__json__bracket_residuals"] = residual_reports

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
        ens = simulate_dbm(
            pot,
            mc["n_particles"],
            grid,
            mc["replicas"],
            InitSpec("equispaced", shift=mc["init_shift"]),
            seed=scn["seed"],
            k_track=4,
            functionals={name: constraint_functional(cop) for name, cop in cops.items()},
        )
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


def run_equilibrium_loop(scn):
    from .dyson import loop_equation_residual, sample_equilibrium
    from .kernel import Potential

    checks, tables = [], {}
    sig = scn["tolerances"]["sigmas"]
    rows = []
    for case in scn["cases"]:
        n_part, beta = case["n_particles"], case["beta"]
        pot = Potential(beta, _forces(scn))
        eq = sample_equilibrium(pot, n_part, scn["sweeps"], seed=scn["seed"], chains=scn["chains"])
        for order in scn["orders"]:
            res, se = loop_equation_residual(eq, order, pot)
            rows.append((n_part, beta, order, res, se))
            checks.append(
                check(
                    f"loop-equation/N={n_part}/beta={beta}/n={order}",
                    "integration-by-parts moment identity",
                    res,
                    sig * se,
                    se=se,
                )
            )
        mean, mse = eq.pi_mean_se(2)
        want = pot.sigma**2 * (beta * n_part * (n_part - 1) / 2.0 + n_part)
        checks.append(
            check(
                f"pi2-stationary/N={n_part}/beta={beta}",
                "<pi_2> = sigma^2 (beta N(N-1)/2 + N)",
                mean - want,
                sig * mse,
                mean=mean,
                expected=want,
                acceptance=eq.acceptance,
                tau_int=eq.autocorr_pi1,
            )
        )
    tables["loop_residuals"] = (("n_particles", "beta", "order", "residual", "se"), rows)
    return checks, tables


def run_dbm_moments(scn):
    from .boson import TimeGrid
    from .dyson import InitSpec, simulate_dbm

    checks, tables = [], {}
    tol = scn["tolerances"]
    pot = _pot(scn)
    n_part = scn["n_particles"]
    grid = TimeGrid(scn["grid"]["dt"], scn["grid"]["steps"])
    t0 = time.perf_counter()
    ens = simulate_dbm(
        pot,
        n_part,
        grid,
        scn["replicas"],
        InitSpec(**scn["init"]),
        seed=scn["seed"],
        k_track=6,
        track_moment_residual=tuple(scn["moment_ks"]),
    )
    elapsed = time.perf_counter() - t0

    pi1_0 = ens.pi_mean(1)[0]
    for t in scn["pi1_times"]:
        j = int(round(t / grid.dt))
        want = pi1_0 * math.exp(-t)
        checks.append(
            check(
                f"pi1-decay/t={t}",
                "E pi_1(t) = pi_1(0) e^{-t/sigma^2}",
                ens.pi_mean(1)[j] - want,
                tol["sigmas"] * ens.pi_se(1)[j],
                mean=float(ens.pi_mean(1)[j]),
                expected=want,
            )
        )
    j0, j1 = (int(round(x / grid.dt)) for x in scn["pi2_window"])
    window = ens.pi_mean(2)[j0 : j1 + 1]
    se_w = float(np.mean(ens.pi_se(2)[j0 : j1 + 1]))  # correlated in time: no 1/sqrt(T) gain claimed
    want = pot.sigma**2 * (pot.beta * n_part * (n_part - 1) / 2.0 + n_part)
    checks.append(
        check(
            "pi2-longtime",
            "<pi_2> relaxes to sigma^2 (beta N(N-1)/2 + N)",
            float(np.mean(window)) - want,
            tol["sigmas"] * se_w,
            mean=float(np.mean(window)),
            expected=want,
        )
    )
    var = ens.noise_sumsq / ens.noise_count - (ens.noise_sum / ens.noise_count) ** 2
    se_var = var * math.sqrt(2.0 / (ens.noise_count - 1))
    checks.append(
        check("noise-variance", "Var(dB) = 2 dt", var - 2 * grid.dt, tol["noise_sigmas"] * se_var, variance=float(var))
    )
    rows = []
    for k in scn["moment_ks"]:
        r = ens.moment_residual_samples[k]
        se = float(r.std(ddof=1) / math.sqrt(r.size))
        bias = tol["bias_per_dt"] * (1 + k * k) * grid.dt
        rows.append((k, float(r.mean()), se, bias))
        checks.append(
            check(
                f"moment-hierarchy/k={k}",
                "time-averaged residual of the averaged evolution identity",
                float(r.mean()),
                tol["sigmas"] * se + bias,
                se=se,
                bias_bound=bias,
            )
        )
        s = ens.martingale_samples[k]
        s_se = float(s.std(ddof=1) / math.sqrt(s.size))
        checks.append(
            check(
                f"action-density-mean/k={k}",
                "E S_k(t) = 0 (martingale density)",
                float(s.mean()),
                tol["sigmas"] * s_se,
                se=s_se,
            )
        )
    checks.append(check("dbm-moments/runtime", "wall clock seconds", elapsed, tol["runtime_s"]))
    checks.append(check("rejection-rate", "step rejections below the weak-order budget", ens.rejection_rate, 0.01))
    tables["moment_residuals"] = (("k", "residual", "se", "bias_bound"), rows)
    tables["pi_moments"] = (
        ("t", "pi1_mean", "pi1_se", "pi2_mean", "pi2_se"),
        [
            (float(grid.times[j]), float(ens.pi_mean(1)[j]), float(ens.pi_se(1)[j]), float(ens.pi_mean(2)[j]), float(ens.pi_se(2)[j]))
            for j in range(0, grid.steps + 1, max(1, grid.steps // 100))
        ],
    )
    return checks, tables


def run_girsanov(scn):
    from .boson import TimeGrid
    from .dyson import InitSpec, girsanov_functionals, perturbed_potential, simulate_dbm

    checks, tables = [], {}
    sig = scn["tolerances"]["sigmas"]
    pot = _pot(scn)
    grid = TimeGrid(scn["grid"]["dt"], scn["grid"]["steps"])
    tau = {int(k): float(v) for k, v in scn["tau"].items()}
    init = InitSpec("explicit", values=tuple(scn["init_values"]))
    funcs = girsanov_functionals(tau, grid)
    base = simulate_dbm(pot, scn["n_particles"], grid, scn["replicas"], init, seed=scn["seed"], k_track=4, functionals=funcs)
    per_rep = base.functional_samples
    w = np.exp(per_rep["logweight"] + per_rep["quadratic"])
    mean_w = float(w.mean())
    se_w = float(w.std(ddof=1) / math.sqrt(w.size))
    checks.append(check("full-weight-mean", "E[exp(logweight + quadratic correction)] = 1", mean_w - 1.0, sig * se_w, mean=mean_w))

    pi2 = per_rep["pi2_end"]
    rew = float(np.sum(w * pi2) / np.sum(w))
    se_rew = float(np.std(w * (pi2 - rew), ddof=1) / (np.mean(w) * math.sqrt(base.m)))
    tilted = perturbed_potential(pot, tau)
    direct = simulate_dbm(tilted, scn["n_particles"], grid, scn["replicas"], init, seed=scn["seed"] + 1, k_track=4)
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
    ens = simulate_dbm(
        pot,
        scn["n_particles"],
        grid,
        scn["replicas"],
        InitSpec(**scn["init"]),
        seed=scn["seed"],
        k_track=6,
        functionals=funcs,
    )
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
    worst = 0.0
    rows = []
    for n1 in scn["exponents"]:
        for n2 in scn["exponents"]:
            num = numeric_commutator_richardson(NPGenerator(n1, a1.deriv(1)), NPGenerator(n2, a2.deriv(1)), path, eps)
            sym = elementary_bracket(n1, a1, n2, a2).variation(path)
            sl = np.s_[10:-10]
            scale = max(float(np.max(np.abs(sym[sl]))), float(np.max(np.abs(num[sl]))))
            rel = float(np.max(np.abs(num[sl] - sym[sl]))) / scale if scale > 1e-10 else float(np.max(np.abs(num[sl])))
            rows.append((n1, n2, rel, scale))
            worst = max(worst, rel)
    checks.append(check("elementary-bracket", "closed bracket vs 4-point stencil, eps-Richardson", worst, tol["bracket_rel"]))

    gens = [
        NPGenerator(-1, poly_t(2).deriv(1)),
        NPGenerator(0, TimePoly([0.0, 1.0, 0.4]).deriv(1)),
        NPGenerator(1, poly_t(3).deriv(1)),
    ]
    labels = [poly_t(2), TimePoly([0.0, 1.0, 0.4]), poly_t(3)]
    ns = [-1, 0, 1]
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

    from .kernel import Potential

    pot = _pot(scn)
    tH = np.linspace(0, 1, 101)
    hist = np.sort(np.vstack([np.sin(tH) - 1, 0.3 * tH, 2 + 0.1 * np.cos(tH)]).T, axis=1)
    worst_delay = 0.0
    for n in (-1, 0):
        out = force_change(n, poly_t(2), pot, hist[-1], hist_matrix=(tH, hist))
        worst_delay = max(worst_delay, float(np.max(np.abs(out["delay"]))))
    checks.append(check("delayed-force-closed-family", "equal time shifts kill the delayed term for n in {-1, 0}", worst_delay, 1e-12))

    kind, lbl = sv_bracket("Y", TimePoly([1.0]), "X", poly_t(1))
    err = float(np.max(np.abs(lbl.coeffs - np.array([-0.5]))))
    kind2, lbl2 = sv_bracket("X", poly_t(1), "X", TimePoly([1.0]))
    err = max(err, float(np.max(np.abs(lbl2.coeffs - np.array([1.0])))))
    kind3, _ = sv_bracket("Y", poly_t(1), "Y", poly_t(2))
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
    for dt in scn["dts"]:
        grid = TimeGrid(dt, int(round(scn["t_max"] / dt)))
        f = bump(0.0, scn["t_max"], 3)
        g = bump(0.0, scn["t_max"], 3) * poly_t(1)
        rep = hermite_cancellation_pairs(f, g, sigma, n_part, grid, scn["k_max"])
        for name, v in rep.items():
            rels.setdefault(name, []).append(v["relative"])
            rows.append((name, dt, v["residual"], v["magnitude"], v["relative"]))
    for name, vals in rels.items():
        checks.append(check(f"cancellation/{name}", "paired contributions cancel", vals[-1], tol["pair_rel"]))
        if vals[-1] > 1e-10:  # display-level pairs cancel identically; no trend
            ratio = vals[0] / vals[-1]
            checks.append(
                check(
                    f"cancellation-trend/{name}",
                    "pair residual shrinks at first order in dt",
                    ratio,
                    tol["trend_high"] * 2,
                    passed=tol["trend_low"] <= ratio <= tol["trend_high"] * 2,
                )
            )
    pot = Potential(2.0, {1: 1.0 / sigma**2})
    consts = []
    for dt in scn["dts"]:
        grid = TimeGrid(dt, int(round(scn["linquadr_t_max"] / dt)))
        f = bump(0.0, scn["linquadr_t_max"], 4)
        g = bump(0.0, scn["linquadr_t_max"], 4) * poly_t(1)
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
    ratio = consts[0] / consts[1] if consts[1] else float("inf")
    checks.append(
        check(
            "linquadr-trend",
            "total-derivative cancellation at first order in dt",
            ratio,
            tol["trend_high"],
            passed=tol["trend_low"] <= ratio <= tol["trend_high"],
        )
    )
    tables["hermite_cancellations"] = (("pair", "dt", "residual", "magnitude", "relative"), rows)
    return checks, tables


RUNNERS = {
    "kernel-identities": run_kernel_identities,
    "boson-commutators": run_boson_commutators,
    "sv-algebra": run_sv_algebra,
    "equilibrium-loop": run_equilibrium_loop,
    "dbm-moments": run_dbm_moments,
    "girsanov": run_girsanov,
    "npoint": run_npoint,
    "np-brackets": run_np_brackets,
    "hermite-example": run_hermite_example,
}


# ----------------------------------------------------------------------
# orchestration


def run_suite(scn: dict):
    suite = scn["suite"]
    if suite not in RUNNERS:
        raise ValueError(f"unknown suite {suite!r}")
    checks, tables = RUNNERS[suite](scn)
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
    for tname, payload in tables.items():
        if tname.startswith("__json__"):
            with open(out_dir / f"{name}_{tname[8:]}.json", "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            continue
        header, rows = payload
        with open(out_dir / f"{name}_{tname}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)


def _l_max(spec) -> int:
    """The force support L_max of a potential config: the highest l with
    b_l != 0, as in kernel.Potential.l_max.  No Potential is built here,
    because importing kernel would add about 10 ms to every validation."""
    return max((l for l, v in _forces(spec).items() if v), default=0)


def _covers_forces(scn) -> bool:
    """k_max reaches the force support L_max of every potential the suite tabulates."""
    mc = scn.get("constraint_mc") or {}
    specs = [(scn["k_max"], p) for p in scn.get("potentials", {}).values()]
    specs += [(scn["k_max"], scn)] if "b" in scn else []
    specs += [(mc["k_max"], mc)] if mc else []
    return all(k >= _l_max(spec) for k, spec in specs)


def _langevin_runs(scn) -> list:
    """The config blocks that set up a Langevin simulation: sv-algebra's
    constraint_mc (when set) or the scenario itself."""
    if scn["suite"] == "sv-algebra":
        return [scn["constraint_mc"]] if scn["constraint_mc"] else []
    return [scn]


#: The fields and kinds of dyson.InitSpec, named here so that validation
#: does not import the engine.
INIT_KEYS = ("kind", "shift", "halfwidth", "values", "sweeps", "seed")
INIT_KINDS = ("equispaced", "explicit", "equilibrium")


def _init_ok(scn) -> bool:
    init = scn["init"]
    kind = init.get("kind", "equispaced")
    return set(init) <= set(INIT_KEYS) and kind in INIT_KINDS and (kind != "explicit" or len(init["values"]) == scn["n_particles"])


#: The potentials run_kernel_identities reads by name.
KERNEL_IDENTITY_POTENTIALS = ("quadratic-force", "mixed-force", "hermite", "hermite-beta1", "hermite-beta4", "generic-beta1", "generic-beta4")


def _eq_case(case) -> bool:
    n, beta = case.get("n_particles"), case.get("beta")
    return isinstance(n, int) and n >= 1 and isinstance(beta, (int, float)) and beta >= 0


LANGEVIN_SUITES = ("sv-algebra", "dbm-moments", "girsanov", "npoint")

#: Value rules beyond the presence of keys: (suites, rule, message).
VALUE_RULES = (
    (("kernel-identities",), lambda s: set(KERNEL_IDENTITY_POTENTIALS) <= set(s["potentials"]), f"potentials must name {', '.join(KERNEL_IDENTITY_POTENTIALS)}"),
    (("kernel-identities", "boson-commutators", "sv-algebra", "npoint"), _covers_forces, "k_max must reach the force support L_max of every potential"),
    (("boson-commutators",), lambda s: s["grid"]["steps"] >= 3, "grid.steps must be >= 3: the checks pair slots steps - 1 and 2"),
    (("sv-algebra",), lambda s: 1 <= s["interior_modes"] <= s["k_max"], "interior_modes must lie in 1..k_max"),
    (("sv-algebra",), lambda s: len(s["grids"]) >= 2, "grids needs two entries for the dt-halving ratio"),
    (("hermite-example",), lambda s: len(s["dts"]) >= 2, "dts needs two entries for the dt-halving trends"),
    (("hermite-example",), lambda s: all(round(t / dt) >= 2 for dt in s["dts"] for t in (s["t_max"], s["linquadr_t_max"])), "every dt must leave 2 or more steps in t_max and linquadr_t_max"),
    (("hermite-example",), lambda s: s["k_max"] >= 3, "k_max must be >= 3: the cancellation pairs start at mode 3"),
    (("equilibrium-loop",), lambda s: [(l, v > 0) for l, v in _forces(s).items() if v] == [(1, True)], "b must be Gaussian, {1: b_1 > 0}: the pi2-stationary check needs sigma"),
    (("equilibrium-loop",), lambda s: all(isinstance(o, int) and 0 <= o <= 6 for o in s["orders"]), "orders must be integers in 0..6: order n reads pi_(n+2), and the sampler tracks pi_k up to k = 8"),
    (("equilibrium-loop",), lambda s: isinstance(s["chains"], int) and s["chains"] >= 2 and isinstance(s["sweeps"], int), "chains must be an integer >= 2 (the standard errors are the scatter across chains) and sweeps an integer"),
    (("equilibrium-loop",), lambda s: len(s["cases"]) >= 1 and all(_eq_case(c) for c in s["cases"]), "cases must be a non-empty list; every case needs an integer n_particles >= 1 and a number beta >= 0"),
    (LANGEVIN_SUITES, lambda s: all(isinstance(r["replicas"], int) and r["replicas"] >= 2 for r in _langevin_runs(s)), "replicas must be an integer >= 2: the standard errors are the scatter across replicas"),
    (LANGEVIN_SUITES, lambda s: all(isinstance(r["n_particles"], int) and r["n_particles"] >= 1 for r in _langevin_runs(s)), "n_particles must be an integer >= 1"),
    (("sv-algebra",), lambda s: all(r["k_max"] >= max(2, 2 * _l_max(r)) for r in _langevin_runs(s)), "constraint_mc.k_max must be >= max(2, 2 L_max): the constraint weights reach mode 2 L_max"),
    (("girsanov",), lambda s: all(int(k) >= 2 and math.isfinite(float(v)) for k, v in s["tau"].items()), "tau must map integers k >= 2 to numbers: a tau_1 tilt is a constant force, not a potential"),
    (("girsanov",), lambda s: len(s["init_values"]) == s["n_particles"], "init_values must hold n_particles values"),
    (("dbm-moments",), lambda s: all(isinstance(k, int) and 0 <= k and k + max(_l_max(s), 1) - 1 <= 6 for k in s["moment_ks"]), "moment_ks must be integers k >= 0 with k + L_max - 1 <= 6: the run tracks pi_k up to k = 6"),
    (("dbm-moments", "npoint"), _init_ok, f"init must set kind in {', '.join(INIT_KINDS)} and no keys beyond {', '.join(INIT_KEYS)}; an explicit init needs n_particles values"),
    (("npoint",), lambda s: all(isinstance(k, int) and 0 <= k <= s["k_max"] for k in s["modes"]), "modes must be integers in 0..k_max"),
)


def _holds(rule, message, scn) -> bool:
    """Whether the rule holds; a rule that cannot be evaluated on the config
    is a config error that names the cause."""
    try:
        return bool(rule(scn))
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"{message} (could not evaluate: {exc!r})") from None


def validate_scenario(scn: dict):
    if "suite" not in scn:
        raise ValueError("config must name a suite")
    if scn["suite"] not in SUITES:
        raise ValueError(f"unknown suite {scn['suite']!r}; choose from {', '.join(SUITES)}")
    ref = default_scenario(scn["suite"])
    missing = [k for k in ref if k not in scn and k not in ("schema_version",)]
    if missing:
        raise ValueError(f"config is missing explicit settings: {', '.join(sorted(missing))}")
    mc = scn["constraint_mc"] if isinstance(scn.get("constraint_mc"), dict) else {}
    grids = [("grid", scn["grid"])] if "grid" in ref else []
    grids += [(f"grids[{i}]", g) for i, g in enumerate(scn.get("grids", ()))]
    grids += [("constraint_mc.grid", mc.get("grid"))] if mc else []
    for where, g in grids:
        if not (isinstance(g, dict) and isinstance(g.get("dt"), (int, float)) and isinstance(g.get("steps"), int)):
            raise ValueError(f"{where} must set a number dt and an integer steps")
        if g["dt"] <= 0 or g["steps"] < 2:
            raise ValueError(f"{where} needs dt > 0 and steps >= 2")
    for suites, rule, message in VALUE_RULES:
        if scn["suite"] in suites and not _holds(rule, message, scn):
            raise ValueError(message)
    if "pi2_window" in ref:
        # the runner reads slot round(t / dt): every sample time must fall on the simulated grid
        dt, steps, times, window = scn["grid"]["dt"], scn["grid"]["steps"], scn["pi1_times"], scn["pi2_window"]
        ok = isinstance(times, list) and isinstance(window, list) and len(window) == 2 and window[0] <= window[1]
        if not (ok and all(isinstance(t, (int, float)) and 0 <= round(t / dt) <= steps for t in times + window)):
            raise ValueError(f"pi1_times and pi2_window = [start, end] must lie within [0, steps * dt] = [0, {steps * dt:g}]")
    return scn


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="coulombgas", description="verification suites for the Coulomb-gas dynamics engine")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a suite from a JSON scenario config")
    runp.add_argument("config", help="path to the scenario JSON")
    runp.add_argument("--out", default=None, help="output directory (default: COULOMBGAS_OUT or ./reports)")
    runp.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    runp.add_argument("--threads", type=int, default=None, help="worker hint, recorded in the report")
    defp = sub.add_parser("default-config", help="print the complete default scenario for a suite")
    defp.add_argument("suite", choices=SUITES)
    args = parser.parse_args(argv)

    if args.command == "default-config":
        print(json.dumps(default_scenario(args.suite), indent=2, sort_keys=True))
        return 0

    try:
        with open(args.config) as fh:
            scn = json.load(fh)
        validate_scenario(scn)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        scn["seed"] = args.seed
    if args.threads is not None:
        scn["threads"] = args.threads
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
