"""Command-line interface.

Subcommands:

* simulate           path ensemble of the coupled (state, target) system
* mean               deterministic mean solve with hit detection
* portfolio          closed-form wealth-target policy, figure, MC check
* bangbang           vertex policy at the exact minimum time, with its check
* check-smp          first-order optimality residual of a candidate
* verify-variational hitting-time FD table, duality and sensitivity moment checks

Each subparser carries its runner (`set_defaults(run=...)`).  A runner
writes the command's own artifacts and returns its summary fields and
artifact names; `main` alone writes `summary.json`, adding `command` and
`outputs`.  Outputs are pure functions of the config and flags: no
timestamps, no environment data, and `--threads` never changes a byte.
It caps the threads of the Monte Carlo loop (default: the CPUs
available to the process); with two or more, a large enough per-step draw
is made on one worker thread ahead of the loop, and the draw is keyed by
(seed, step) either way.  A value below 1, a negative `--seed`, or a
grid size (`--steps`, `--nodes`, `--t-nodes`) below 1 exits 2 before any
solve, as does an `--out` that names a file or a path under one.  So does
every argument the parser rejects (an unknown command or flag, a missing
`--config`, a value of the wrong type): `_Parser.error` raises ValueError,
which `main` reports like any other, without the usage text.  The first
artifact makes the output directory, so a failed command leaves none.

`simulate` writes the Monte Carlo objective (`cost`, `cost_stderr`) at
any `--paths`: each path's cost is folded into the time loop, and no path
is stored.  Its `--store-paths` flag is still accepted and changes
nothing.

Exit codes: 0 success; 2 invalid config or arguments; 3 numerical
failure (infeasible target, diverged paths, failed cross-check); 4
structural assumption violated (non-transversal hit, singular arc,
parameters outside the supported regime).  Each toolkit error class
declares its code (`errors`); any other ValueError exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from . import __version__
from .bangbang import synthesize
from .config import load_config, parse_policy, parse_portfolio_params, parse_problem, read_section
from .errors import MeanTauError, SpecValidationError
from .output import svg_line_chart, write_csv, write_json, write_text_atomic
from .portfolio import figure_columns, mc_validate, solve_tau
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise ValueError instead of exiting.

    `add_subparsers` builds each subcommand's parser with `type(parser)`,
    so the subcommands raise too; `--help` and `--version` still exit 0.
    """

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="meantau",
        description="Control of linear systems up to a mean-field minimum-time target.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, config_required=True):
        p.set_defaults(run=run)
        p.add_argument(
            "--config",
            required=config_required,
            help="path to the JSON config" + ("" if config_required else " (optional)"),
        )
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument(
            "--threads",
            type=int,
            help="threads the Monte Carlo loop may use, at least 1 (default: the "
            "CPUs available to the process when the command runs); artifacts are "
            "byte-identical for any value",
        )

    p = sub.add_parser("simulate", help="simulate a path ensemble")
    common(p, _run_simulate)
    p.add_argument("--paths", type=int, default=1000, help="number of Monte Carlo paths")
    p.add_argument("--steps", type=int, default=1000, help="time steps over the horizon")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument(
        "--store-paths",
        action="store_true",
        help="changes nothing: the objective (`cost`) is estimated during the time "
        "loop at any --paths, and no path is stored",
    )

    p = sub.add_parser("mean", help="solve the mean flow and detect the hit")
    common(p, _run_mean)
    p.add_argument("--steps", type=int, default=4096, help="time steps over the horizon")

    p = sub.add_parser("portfolio", help="closed-form wealth-target policy")
    common(p, _run_portfolio, config_required=False)
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
    common(p, _run_bangbang)
    p.add_argument("--nodes", type=int, default=4096, help="switching grid nodes")

    p = sub.add_parser("check-smp", help="first-order optimality residual")
    common(p, _run_check_smp)
    p.add_argument("--t-nodes", type=int, default=2048, help="time nodes of the check grid")
    p.add_argument("--tol", type=float, default=1e-8, help="pass threshold on the residual")

    p = sub.add_parser("verify-variational", help="tau FD, duality and sensitivity moment checks")
    common(p, _run_verify_variational)
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
    spec = parse_problem(read_section(cfg, "problem"))
    if not policy:
        return cfg, spec
    return cfg, spec, _load_policy(cfg, "policy", spec)


def _load_policy(cfg: dict, key: str, spec):
    """The `policy` or `direction` section, in the problem's horizon and control dimension."""
    policy = parse_policy(read_section(cfg, key), path=key, horizon=spec.horizon)
    if policy.k != spec.dynamics.k:
        raise SpecValidationError(
            [f"{key}: control dimension {policy.k} != k={spec.dynamics.k}"]
        )
    return policy


def _run_simulate(args):
    _, spec, policy = _load(args)
    grid = SimGrid(spec.horizon, args.steps)
    res = simulate_ensemble(spec, policy, args.paths, grid, args.seed, threads=args.threads)
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
        "n_paths": args.paths,
        "steps": args.steps,
        "seed": args.seed,
        "tau": res.tau,
        "case_label": res.case_label,
        "mean_terminal": res.mean_x[-1],
        "cost": res.cost,
        "cost_stderr": res.cost_stderr,
    }
    return summary, ["ensemble.csv"]


def _run_mean(args):
    _, spec, policy = _load(args)
    grid = SimGrid(spec.horizon, args.steps)
    mp = solve_mean_path(spec, policy, grid)
    ts = grid.times()
    m = spec.dynamics.m
    header = ["t"] + [f"mean_x_{i}" for i in range(m)] + ["mean_y"]
    columns = [ts] + [mp.mean_x[:, i] for i in range(m)] + [mp.mean_y]
    write_csv(os.path.join(args.out, "mean.csv"), header, columns)
    return {"steps": args.steps, "tau": mp.tau, "case_label": mp.case_label}, ["mean.csv"]


def _run_portfolio(args):
    params_obj = {}
    if args.config:
        params_obj = read_section(load_config(args.config), "params")
    params = parse_portfolio_params(params_obj)
    sol = solve_tau(params)
    # the Monte Carlo check runs first, so a failing one writes no artifact
    report = None
    if args.mc:
        report = mc_validate(
            params,
            sol,
            n_paths=args.paths,
            dt=args.dt,
            seed=args.seed,
            vol_pair=tuple(args.vol_pair) if args.vol_pair else None,
            threads=args.threads,
        )
    fig = figure_columns(params, sol)
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
    write_text_atomic(os.path.join(args.out, "portfolio.svg"), svg)
    summary = {
        "params": asdict(params),
        "tau": sol.tau,
        "t1": sol.t1,
        "t2": sol.t2,
        "residual": sol.residual,
        "control_at_0": float(fig["control"][0]),
    }
    if report is not None:
        # the vol_pair fields are None without --vol-pair
        summary["mc"] = {k: v for k, v in asdict(report).items() if v is not None}
    return summary, ["portfolio.csv", "portfolio.svg"]


def _run_bangbang(args):
    _, spec = _load(args, policy=False)
    result = synthesize(spec, n_nodes=args.nodes)
    certificate = {"tau_certified": result.tau_certified, "tau_gap": result.tau_gap}
    payload = {
        "tau": result.tau,
        **certificate,
        "case_label": result.case_label,
        "slope_at_tau": result.slope_at_tau,
        "switch_times": result.switch_times,
        "policy": {"segments": [asdict(s) for s in result.policy.segments]},
    }
    write_json(os.path.join(args.out, "policy.json"), payload)
    summary = {
        "tau": result.tau,
        **certificate,
        "case_label": result.case_label,
        "n_switches": [len(s) for s in result.switch_times],
    }
    return summary, ["policy.json"]


def _run_check_smp(args):
    _, spec, policy = _load(args)
    report = check_candidate(spec, policy, t_grid_size=args.t_nodes, tol=args.tol)
    write_json(os.path.join(args.out, "smp.json"), asdict(report))
    summary = {
        "tau": report.tau,
        "case_label": report.case_label,
        "max_residual": report.max_residual,
        "passed": report.passed,
    }
    return summary, ["smp.json"]


def _run_verify_variational(args):
    cfg, spec, policy = _load(args)
    direction = _load_policy(cfg, "direction", spec)
    rhos = read_section(cfg, "rhos") if "rhos" in cfg else list(PerturbationSpec.rhos)
    bad = _rho_violations(rhos) if rhos else ["rhos: must be a non-empty list"]
    if bad:
        raise SpecValidationError(bad)
    pert = PerturbationSpec(direction=direction, rhos=[float(r) for r in rhos])
    violations = pert.validate(spec, policy)

    grid = SimGrid(spec.horizon, args.steps)
    tau_report = fd_tau_check(spec, policy, direction, pert.rhos, grid)
    deriv = tau_report.derivative
    payload = {
        "admissible": not violations,
        "admissibility_violations": violations,
        "tau": deriv.tau,
        "case_label": deriv.case_label,
        "tau_derivative": deriv.value,
        "slope_at_tau": deriv.slope_at_tau,
        "response_integral": deriv.response_integral,
        "tau_table": [asdict(r) for r in tau_report.rows],
    }
    if deriv.case_label == "i" and deriv.tau > 0:
        dual = dual_identity_check(spec, direction, deriv)
        payload["dual_identity"] = asdict(dual)
    if not args.skip_state:
        state_grid = SimGrid(spec.horizon, min(args.steps, 2000))
        rows = fd_state_check(spec, direction, state_grid, args.seed, args.paths, args.threads)
        payload["state_table"] = [asdict(r) for r in rows]
    write_json(os.path.join(args.out, "variational.json"), payload)
    summary = {
        "tau": deriv.tau,
        "case_label": deriv.case_label,
        "tau_derivative": deriv.value,
    }
    return summary, ["variational.json"]


def _fail(exc: Exception, exit_code: int, fields: dict) -> int:
    """Print the one-line JSON diagnostic of `exc` to stderr and return its exit code."""
    info = {"error": type(exc).__name__, "message": str(exc), **fields}
    print(json.dumps(info, sort_keys=True), file=sys.stderr)
    return exit_code


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: building it costs about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.threads is None:
            args.threads = _available_cpus()
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        for size in ("steps", "nodes", "t_nodes"):
            if getattr(args, size, 1) < 1:
                flag = "--" + size.replace("_", "-")
                raise ValueError(f"{flag} must be at least 1, got {getattr(args, size)}")
        # the first artifact makes --out; a file in its way fails before any solve
        path = os.path.abspath(args.out)
        while not os.path.isdir(path):
            if os.path.lexists(path):
                raise ValueError(f"--out {args.out!r}: {path} is not a directory")
            path = os.path.dirname(path)
        summary, artifacts = args.run(args)
        write_json(
            os.path.join(args.out, "summary.json"),
            {"command": args.command, **summary, "outputs": [*artifacts, "summary.json"]},
        )
    except MeanTauError as exc:
        return _fail(exc, exc.exit_code, exc.diagnostic_fields())
    except (ValueError, MemoryError) as exc:
        return _fail(exc, 2, {})
    return 0
