"""Command-line interface.

Subcommands:

* simulate           path ensemble of the coupled (state, target) system
* mean               deterministic mean solve with hit detection
* portfolio          closed-form wealth-target policy, figure, MC check
* bangbang           secant synthesis of the vertex policy and its tau
* check-smp          first-order optimality residual of a candidate
* verify-variational finite-difference and duality diagnostics

Every run writes `summary.json` into the output directory plus the
command's own artifacts.  Outputs are pure functions of the config and
flags: no timestamps, no environment data, and `--threads` never changes
a byte.  It caps the threads of the Monte Carlo loop (default: the CPUs
available to the process); with two or more, a large enough per-step draw
is made on one worker thread ahead of the loop, and the draw is keyed by
(seed, step) either way.  A value below 1, a negative `--seed`, or a
grid size (`--steps`, `--nodes`, `--t-nodes`) below 1 exits 2 before the
output directory is made.

Exit codes: 0 success; 2 invalid config or arguments; 3 numerical
failure (no convergence, infeasible target, diverged paths, failed
cross-check); 4 structural assumption violated (non-transversal hit,
singular arc, parameters outside the supported regime).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from .bangbang import synthesize
from .config import json_type, load_config, parse_policy, parse_portfolio_params, parse_problem
from .errors import (
    AssumptionViolationError,
    DivergenceError,
    InfeasibleError,
    NonConvergenceError,
    NumericalConsistencyError,
    SingularArcError,
    SpecValidationError,
)
from .output import fmt_float, svg_line_chart, write_csv, write_json, write_svg
from .portfolio import figure_columns, mc_validate, optimal_policy, solve_tau
from .problem import policy_eval
from .simulate import SimGrid, _available_cpus, simulate_ensemble, solve_mean_path
from .smp import check_candidate
from .variational import (
    PerturbationSpec,
    _rho_violations,
    dual_identity_check,
    fd_state_check,
    fd_tau_check,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meantau",
        description="Control of linear systems up to a mean-field minimum-time target.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument(
            "--config",
            required=config_required,
            help="path to the JSON config" + ("" if config_required else " (optional)"),
        )
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument(
            "--threads",
            type=int,
            default=_available_cpus(),
            help="threads the Monte Carlo loop may use, at least 1 (default: the "
            "CPUs available to the process, %(default)s here); artifacts are "
            "byte-identical for any value",
        )

    p = sub.add_parser("simulate", help="simulate a path ensemble")
    common(p)
    p.add_argument("--paths", type=int, default=1000, help="number of Monte Carlo paths")
    p.add_argument("--steps", type=int, default=1000, help="time steps over the horizon")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument(
        "--store-paths",
        action="store_true",
        help="keep paths and estimate the objective (`cost`) at any --paths; without "
        "it, both happen up to 10000 paths",
    )

    p = sub.add_parser("mean", help="solve the mean flow and detect the hit")
    common(p)
    p.add_argument("--steps", type=int, default=4096, help="time steps over the horizon")

    p = sub.add_parser("portfolio", help="closed-form wealth-target policy")
    common(p, config_required=False)
    p.add_argument("--mc", action="store_true", help="run the Monte Carlo consistency check")
    p.add_argument("--paths", type=int, default=200_000, help="paths for --mc")
    p.add_argument("--dt", type=float, default=1.0 / 256.0, help="time step for --mc")
    p.add_argument("--seed", type=int, default=42, help="seed for --mc")
    p.add_argument(
        "--vol-pair",
        type=float,
        nargs=2,
        metavar=("V1", "V2"),
        help="repeat --mc at two volatilities with shared noise",
    )

    p = sub.add_parser("bangbang", help="synthesize the vertex policy")
    common(p)
    p.add_argument("--nodes", type=int, default=4096, help="switching grid nodes")
    p.add_argument("--max-iter", type=int, default=100, help="budget of tau passes")
    p.add_argument(
        "--damping", type=float, default=0.5,
        help="weight in (0, 1] of the damped step that starts the secant solve "
        "and replaces a secant step that leaves (0, horizon]",
    )

    p = sub.add_parser("check-smp", help="first-order optimality residual")
    common(p)
    p.add_argument("--t-nodes", type=int, default=2048, help="time nodes of the check grid")
    p.add_argument("--u-samples", type=int, default=101, help="control samples per axis "
                   "(>= 2) of the certified lattice; the maximum is taken at a vertex")
    p.add_argument("--tol", type=float, default=1e-8, help="pass threshold on the residual")

    p = sub.add_parser("verify-variational", help="finite-difference diagnostics")
    common(p)
    p.add_argument("--steps", type=int, default=40_000, help="mean-solve steps for the tau table")
    p.add_argument("--paths", type=int, default=256, help="paths for the state table")
    p.add_argument("--seed", type=int, default=0, help="noise seed for the state table")
    p.add_argument(
        "--skip-state", action="store_true", help="skip the Monte Carlo state table"
    )
    return parser


def _load(args, policy=True):
    """(cfg, spec) from `--config`, plus the parsed `policy` section when asked."""
    cfg = load_config(args.config)
    spec = parse_problem(_require(cfg, "problem"))
    if not policy:
        return cfg, spec
    return cfg, spec, parse_policy(_require(cfg, "policy"), horizon=spec.horizon)


def _write_summary(out_dir: str, payload: dict):
    write_json(os.path.join(out_dir, "summary.json"), payload)


def _run_simulate(args) -> int:
    _, spec, policy = _load(args)
    grid = SimGrid(spec.horizon, args.steps)
    res = simulate_ensemble(
        spec,
        policy,
        args.paths,
        grid,
        args.seed,
        store_paths=args.store_paths or None,
        threads=args.threads,
    )
    ts = grid.times()
    m = spec.dynamics.m
    header = (
        ["t"]
        + [f"mean_x_{i}" for i in range(m)]
        + [f"std_x_{i}" for i in range(m)]
        + ["mean_y"]
    )
    columns = (
        [ts]
        + [res.mean_x[:, i] for i in range(m)]
        + [res.std_x[:, i] for i in range(m)]
        + [res.mean_y]
    )
    write_csv(os.path.join(args.out, "ensemble.csv"), header, columns)
    summary = {
        "command": "simulate",
        "n_paths": args.paths,
        "steps": args.steps,
        "seed": args.seed,
        "tau": res.tau,
        "case_label": res.case_label,
        "mean_terminal": res.mean_x[-1],
        "outputs": ["ensemble.csv", "summary.json"],
    }
    if res.cost is not None:
        summary["cost"] = res.cost
        summary["cost_stderr"] = res.cost_stderr
    _write_summary(args.out, summary)
    return 0


def _run_mean(args) -> int:
    _, spec, policy = _load(args)
    grid = SimGrid(spec.horizon, args.steps)
    mp = solve_mean_path(spec, policy, grid)
    ts = grid.times()
    m = spec.dynamics.m
    header = ["t"] + [f"mean_x_{i}" for i in range(m)] + ["mean_y"]
    columns = [ts] + [mp.mean_x[:, i] for i in range(m)] + [mp.mean_y]
    write_csv(os.path.join(args.out, "mean.csv"), header, columns)
    _write_summary(
        args.out,
        {
            "command": "mean",
            "steps": args.steps,
            "tau": mp.tau,
            "case_label": mp.case_label,
            "outputs": ["mean.csv", "summary.json"],
        },
    )
    return 0


def _run_portfolio(args) -> int:
    params_obj = {}
    if args.config:
        params_obj = _require(load_config(args.config), "params")
    params = parse_portfolio_params(params_obj)
    sol = solve_tau(params)
    # the Monte Carlo check runs first, so a failing one writes no artifact
    report = None
    if args.mc:
        report = mc_validate(
            params,
            n_paths=args.paths,
            dt=args.dt,
            seed=args.seed,
            vol_pair=tuple(args.vol_pair) if args.vol_pair else None,
            threads=args.threads,
        )
    fig = figure_columns(params)
    write_csv(
        os.path.join(args.out, "portfolio.csv"),
        ["t", "control", "mean_wealth"],
        [fig["t"], fig["control"], fig["mean_wealth"]],
    )
    svg = svg_line_chart(
        fig["t"],
        [fig["control"], fig["mean_wealth"]],
        ["control", "mean wealth"],
        title="Wealth-target policy",
        x_label="t",
        y_label="value",
        markers=(sol.t1, sol.t2),
    )
    write_svg(os.path.join(args.out, "portfolio.svg"), svg)
    summary = {
        "command": "portfolio",
        "params": asdict(params),
        "tau": sol.tau,
        "t1": sol.t1,
        "t2": sol.t2,
        "residual": sol.residual,
        "control_at_0": float(policy_eval(optimal_policy(params, sol), 0.0)[0]),
        "outputs": ["portfolio.csv", "portfolio.svg", "summary.json"],
    }
    if report is not None:
        # tau is the summary's own; the vol_pair fields are None without --vol-pair
        summary["mc"] = {
            k: v for k, v in asdict(report).items() if k != "tau" and v is not None
        }
    _write_summary(args.out, summary)
    return 0


def _run_bangbang(args) -> int:
    _, spec = _load(args, policy=False)
    result = synthesize(
        spec, n_nodes=args.nodes, max_iter=args.max_iter, damping=args.damping
    )
    payload = {
        "tau": result.tau,
        "case_label": result.case_label,
        "slope_at_tau": result.slope_at_tau,
        "iterations": result.iterations,
        "tau_history": result.history,
        "switch_times": result.switch_times,
        "policy": {"segments": [asdict(s) for s in result.policy.segments]},
    }
    write_json(os.path.join(args.out, "policy.json"), payload)
    _write_summary(
        args.out,
        {
            "command": "bangbang",
            "tau": result.tau,
            "case_label": result.case_label,
            "iterations": result.iterations,
            "n_switches": [len(s) for s in result.switch_times],
            "outputs": ["policy.json", "summary.json"],
        },
    )
    return 0


def _run_check_smp(args) -> int:
    _, spec, policy = _load(args)
    report = check_candidate(
        spec,
        policy,
        t_grid_size=args.t_nodes,
        u_samples_per_axis=args.u_samples,
        tol=args.tol,
    )
    write_json(os.path.join(args.out, "smp.json"), asdict(report))
    _write_summary(
        args.out,
        {
            "command": "check-smp",
            "tau": report.tau,
            "case_label": report.case_label,
            "max_residual": report.max_residual,
            "passed": report.passed,
            "outputs": ["smp.json", "summary.json"],
        },
    )
    return 0


def _run_verify_variational(args) -> int:
    cfg, spec, policy = _load(args)
    direction = parse_policy(
        _require(cfg, "direction"), path="direction", horizon=spec.horizon
    )
    rhos = cfg.get("rhos", [1e-2, 1e-3, 1e-4])
    if not isinstance(rhos, list) or not rhos:
        raise SpecValidationError(["rhos: expected a non-empty list of step sizes"])
    bad = _rho_violations(rhos)
    if bad:
        raise SpecValidationError(bad)
    pert = PerturbationSpec(direction=direction, rhos=[float(r) for r in rhos])
    admissible = pert.validate(spec, policy)

    grid = SimGrid(spec.horizon, args.steps)
    tau_report = fd_tau_check(spec, policy, direction, pert.rhos, grid)
    deriv = tau_report.derivative
    payload = {
        "admissible": admissible.ok,
        "admissibility_violations": admissible.violations,
        "tau": deriv.tau,
        "case_label": deriv.case_label,
        "tau_derivative": deriv.value,
        "slope_at_tau": deriv.slope_at_tau,
        "response_integral": deriv.response_integral,
        "tau_table": [asdict(r) for r in tau_report.rows],
    }
    if deriv.case_label == "i" and deriv.tau > 0:
        dual = dual_identity_check(spec, policy, direction, grid, derivative=deriv)
        # tau is the payload's own
        payload["dual_identity"] = {k: v for k, v in asdict(dual).items() if k != "tau"}
    if not args.skip_state:
        state_grid = SimGrid(spec.horizon, min(args.steps, 2000))
        rows = fd_state_check(
            spec, policy, direction, pert.rhos, state_grid, args.seed, args.paths, args.threads
        )
        payload["state_table"] = [asdict(r) for r in rows]
    write_json(os.path.join(args.out, "variational.json"), payload)
    _write_summary(
        args.out,
        {
            "command": "verify-variational",
            "tau": deriv.tau,
            "case_label": deriv.case_label,
            "tau_derivative": deriv.value,
            "outputs": ["variational.json", "summary.json"],
        },
    )
    return 0


def _require(cfg: dict, key: str) -> dict:
    if key not in cfg:
        raise SpecValidationError([f"{key}: missing required section"])
    if not isinstance(cfg[key], dict):
        raise SpecValidationError([f"{key}: expected object, got {json_type(cfg[key])}"])
    return cfg[key]


_RUNNERS = {
    "simulate": _run_simulate,
    "mean": _run_mean,
    "portfolio": _run_portfolio,
    "bangbang": _run_bangbang,
    "check-smp": _run_check_smp,
    "verify-variational": _run_verify_variational,
}


def _diagnostic(exc: Exception) -> str:
    info = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, SpecValidationError):
        info["violations"] = exc.violations
    if isinstance(exc, NonConvergenceError):
        info["cycle"] = exc.cycle
        info["history_tail"] = [fmt_float(h) for h in exc.history[-5:]]
    if isinstance(exc, DivergenceError):
        info["step"] = exc.step
        info["path"] = exc.path
    if isinstance(exc, SingularArcError):
        info["component"] = exc.component
    return json.dumps(info, sort_keys=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        for size in ("steps", "nodes", "t_nodes"):
            if getattr(args, size, 1) < 1:
                flag = "--" + size.replace("_", "-")
                raise ValueError(f"{flag} must be at least 1, got {getattr(args, size)}")
        os.makedirs(args.out, exist_ok=True)
        return _RUNNERS[args.command](args)
    except (SpecValidationError, ValueError) as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 2
    except (
        NonConvergenceError,
        InfeasibleError,
        DivergenceError,
        NumericalConsistencyError,
    ) as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 3
    except AssumptionViolationError as exc:
        print(_diagnostic(exc), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
