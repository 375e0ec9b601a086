"""The three workloads: the CLI commands each runs and how each is checked.

Every check uses a closed form, a published criterion or a cross-check
the paper relies on, with its tolerance; none compares bytes, so a change
that moves the last digit of a result still passes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

NAMES = ("wealth-mc", "synthesis", "certify")
SCALAR = "docs/examples/scalar.json"
TWO_STATE = "perfbench/configs/two_state.json"

# Wealth-target references: the stopping time from an independent
# high-precision root solve, and the branch times of acceptance criterion 1.
WEALTH_TAU = 10.922845913817808
WEALTH_T1, WEALTH_T2 = 3.21, 7.67
MC_PATHS = 32768
MC_DT = 0.00390625
VOL_PAIR = ("0.2", "0.4")

# Stopping time of the scalar.json vertex policy from the brute-force
# oracle of acceptance criterion 9 (best upper-then-lower policy over
# 2501 switch points and 8001 time nodes); criterion 9 allows 1e-3.
SYNTH_TAU = 1.1334865871605482

MEAN_STEPS = 4096          # `mean` default
SIM_PATHS, SIM_STEPS = 2000, 1000
VAR_PATHS, VAR_STATE_STEPS = 256, 2000   # `verify-variational` defaults


@dataclass
class Command:
    name: str
    argv: list
    check: Callable[[], list]


@dataclass
class Workload:
    configs: tuple
    build: Callable
    path_steps: int = 0
    predicted_zero: tuple = field(default=())


def _load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _close(failures, label, value, ref, tol):
    if not abs(value - ref) <= tol:
        failures.append(f"{label} = {value!r}, expected {ref!r} within {tol:g}")


# -- wealth-mc -----------------------------------------------------------------


def _wealth_mc(seed, work):
    out = os.path.join(work, "portfolio")

    def check():
        s = _load(out, "summary.json")
        mc = s["mc"]
        bad = []
        _close(bad, "tau", s["tau"], WEALTH_TAU, 1e-8)
        _close(bad, "t1", s["t1"], WEALTH_T1, 0.01)
        _close(bad, "t2", s["t2"], WEALTH_T2, 0.01)
        if not abs(mc["z_score"]) < 3.0:
            bad.append(f"|z| = {abs(mc['z_score'])!r} is not below 3")
        if mc["vol_pair_means"][0] != mc["mean_terminal"]:
            bad.append("vol-pair run at the base volatility differs from the base run")
        return bad

    argv = ["portfolio", "--out", out, "--mc", "--vol-pair", *VOL_PAIR,
            "--dt", str(MC_DT), "--paths", str(MC_PATHS), "--seed", str(seed)]
    return [Command("portfolio", argv, check)]


# -- synthesis -----------------------------------------------------------------


def _scalar_rates(cfg):
    """(a, b, c1, c2) of the scalar family: drift a x + b u, mean target
    rate c1 E[X] + c2 u."""
    dyn, tgt = cfg["problem"]["dynamics"], cfg["problem"]["target"]
    a, b = dyn["A"][0][0], dyn["B"][0][0]
    c1 = tgt["E1"][0] + tgt["E2"][0] + tgt["E3"][0] * a
    c2 = tgt["E3"][0] * b + tgt["E4"][0]
    return a, b, c1, c2


def _synthesis(seed, work):
    out = os.path.join(work, "bangbang")

    def check():
        with open(SCALAR) as fh:
            a, b, c1, c2 = _scalar_rates(json.load(fh))
        p = _load(out, "policy.json")
        bad = []
        tau = p["tau"]
        _close(bad, "tau", tau, SYNTH_TAU, 1e-3)
        switches = p["switch_times"]
        if [len(s) for s in switches] != [1]:
            bad.append(f"expected one switch, got {switches!r}")
        else:
            # Khat(t) = -(c1 b / a)(e^{a(tau-t)} - 1) - c2 vanishes at t0
            t0 = tau - math.log(1.0 - a * c2 / (b * c1)) / a
            _close(bad, "switch time", switches[0][0], t0, 1e-8)
        return bad

    return [Command("bangbang", ["bangbang", "--config", SCALAR, "--out", out], check)]


# -- certify -------------------------------------------------------------------


def _certify(seed, work):
    cmds = []
    for cfg_path in (SCALAR, TWO_STATE):
        with open(cfg_path) as fh:
            cfg = json.load(fh)
        horizon = cfg["problem"]["horizon"]
        k = len(cfg["problem"]["control_set"]["lower"])
        tag = os.path.splitext(os.path.basename(cfg_path))[0]
        dirs = {c: os.path.join(work, f"{tag}-{c}") for c in
                ("mean", "simulate", "check-smp", "verify-variational")}

        def mean_check(out=dirs["mean"]):
            s = _load(out, "summary.json")
            return [] if s["case_label"] == "i" else [f"mean: case {s['case_label']}"]

        def sim_check(out=dirs["simulate"]):
            s = _load(out, "summary.json")
            bad = []
            if s["n_paths"] != SIM_PATHS or not math.isfinite(s["cost"]):
                bad.append(f"simulate: n_paths {s['n_paths']}, cost {s['cost']!r}")
            with open(os.path.join(out, "ensemble.csv")) as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != SIM_STEPS + 1:
                bad.append(f"simulate: {rows} ensemble rows, expected {SIM_STEPS + 1}")
            return bad

        def smp_check(out=dirs["check-smp"], k=k):
            r = _load(out, "smp.json")
            bad = []
            if (r["n_time_nodes"], r["n_control_samples"]) != (2049, 101 ** k):
                bad.append(f"check-smp: grid {r['n_time_nodes']} x {r['n_control_samples']}")
            if not math.isfinite(r["max_residual"]):
                bad.append(f"check-smp: residual {r['max_residual']!r}")
            return bad

        def var_check(out=dirs["verify-variational"], mean_out=dirs["mean"],
                      h=horizon / MEAN_STEPS):
            v = _load(out, "variational.json")
            bad = []
            if not v["dual_identity"]["rel_gap"] < 1e-6:
                bad.append(f"duality rel gap {v['dual_identity']['rel_gap']!r}")
            finest = min(v["tau_table"], key=lambda r: r["rho"])
            if not finest["rel_gap"] < 1e-3:
                bad.append(f"FD tau rel gap {finest['rel_gap']!r} at rho {finest['rho']}")
            # `mean` interpolates the hit on a 4096-step grid: error O(h^2)
            tau_mean = _load(mean_out, "summary.json")["tau"]
            _close(bad, "mean vs verify-variational tau", v["tau"], tau_mean, h * h)
            return bad

        base = ["--config", cfg_path]
        cmds += [
            Command("mean", ["mean", *base, "--out", dirs["mean"]], mean_check),
            Command("simulate", ["simulate", *base, "--out", dirs["simulate"],
                                 "--paths", str(SIM_PATHS), "--store-paths",
                                 "--seed", str(seed)], sim_check),
            Command("check-smp", ["check-smp", *base, "--out", dirs["check-smp"]],
                    smp_check),
            Command("verify-variational",
                    ["verify-variational", *base, "--out", dirs["verify-variational"],
                     "--seed", str(seed)], var_check),
        ]
    return cmds


def _certify_path_steps():
    """simulate, plus the state table's base, sensitivity and one run per rho."""
    total = 0
    for cfg_path in (SCALAR, TWO_STATE):
        with open(cfg_path) as fh:
            n_rhos = len(json.load(fh).get("rhos", [1e-2, 1e-3, 1e-4]))
        total += SIM_PATHS * SIM_STEPS + (2 + n_rhos) * VAR_PATHS * VAR_STATE_STEPS
    return total


def workloads():
    """Workloads by name; paths are relative to the checkout root."""
    mc_steps = max(2, math.ceil(WEALTH_TAU / MC_DT))
    return {
        "wealth-mc": Workload(
            (), _wealth_mc,
            path_steps=(1 + len(VOL_PAIR)) * MC_PATHS * mc_steps,
            predicted_zero=("adjoint.exp_with_integral.calls",),
        ),
        "synthesis": Workload(
            (SCALAR,), _synthesis,
            predicted_zero=("simulate.step_noise.calls",),
        ),
        "certify": Workload(
            (SCALAR, TWO_STATE), _certify,
            path_steps=_certify_path_steps(),
        ),
    }
