"""End-to-end acceptance checks.

Each test exercises one advertised guarantee and prints a single
PASS/FAIL line, so `pytest tests/test_acceptance.py -v -s` reads as a
checklist.  Tolerances here are the published ones, not test-side
conveniences; loosening them is a behavior change.
"""

import filecmp
import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from helpers import scalar_spec
from meantau.adjoint import solve_time_adjoint
from meantau.bangbang import scalar_switch_structure, synthesize
from meantau.cli import main as cli_main
from meantau.errors import NumericalConsistencyError
from meantau.portfolio import (
    PortfolioParams,
    branch_coefficient,
    mc_validate,
    optimal_control,
    solve_tau,
    to_problem_spec,
    wealth_residual,
)
from meantau.problem import (
    ControlPolicy,
    ControlSegment,
    LinearDynamics,
    TargetCoefficients,
    policy_eval,
)
from meantau.simulate import SimGrid, solve_mean_path
from meantau.smp import check_candidate
from meantau.variational import dual_identity_check, fd_tau_check

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def _line(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def bumped_policy(params, sol):
    """The closed-form optimum with the control pushed to 12.8 on [2, 3]."""
    coef = branch_coefficient(params)
    r = params.rate
    return ControlPolicy(
        [
            ControlSegment.constant(0.0, 2.0, [12.5]),
            ControlSegment.constant(2.0, 3.0, [12.8]),
            ControlSegment.constant(3.0, sol.t1, [12.5]),
            ControlSegment(sol.t1, sol.t2, [0.0], [coef * np.exp(r * sol.tau)], [-r]),
            ControlSegment.constant(sol.t2, sol.tau, [10.0]),
            ControlSegment.constant(sol.tau, params.horizon, [10.0]),
        ]
    )


def test_criterion_01_switching_times(params):
    start = time.perf_counter()
    sol = solve_tau(params)
    elapsed = time.perf_counter() - start
    gaps = (abs(sol.tau - 10.92), abs(sol.t1 - 3.21), abs(sol.t2 - 7.67))
    ok = max(gaps) <= 0.01 and elapsed < 1.0
    _line(
        1,
        ok,
        f"tau={sol.tau:.6f} t1={sol.t1:.6f} t2={sol.t2:.6f} "
        f"(targets 10.92/3.21/7.67 within 0.01) in {elapsed:.3f}s",
    )


def test_criterion_02_wealth_identity(params, tau_solution):
    residual, parts = wealth_residual(params, tau_solution.tau)
    tau, t1, t2 = tau_solution.tau, tau_solution.t1, tau_solution.t2
    r, alpha = params.rate, params.target_wealth

    def integrand(s):
        return np.exp(r * (tau - s)) * float(optimal_control(params, tau, s)) / alpha

    oracle = 0.0
    for a, b in ((0.0, t1), (t1, t2), (t2, tau)):
        val, _ = quad(integrand, a, b, epsabs=1e-14, epsrel=1e-13)
        oracle += val
    gap = abs(sum(parts) - oracle)
    ok = abs(residual) < 1e-9 and gap < 1e-10
    _line(
        2,
        ok,
        f"|residual(tau)|={abs(residual):.2e} (<1e-9), "
        f"branch integrals vs quadrature gap={gap:.2e} (<1e-10)",
    )


def test_criterion_03_control_shape(params, tau_solution, wealth_policy):
    tau = tau_solution.tau
    at0 = float(policy_eval(wealth_policy, 0.0)[0])
    at_tau = float(policy_eval(wealth_policy, tau)[0])
    jumps = []
    for edge in (tau_solution.t1, tau_solution.t2, tau):
        left = float(wealth_policy.value(edge, side=-1)[0])
        right = float(wealth_policy.value(edge, side=+1)[0])
        jumps.append(abs(left - right))
    ts = np.linspace(0.0, tau, 4096)
    vals = wealth_policy.values(ts, side=+1)[:, 0]
    in_box = float(vals.min()) >= 10.0 - 1e-9 and float(vals.max()) <= 12.5 + 1e-9
    ok = at0 == 12.5 and at_tau == 10.0 and max(jumps) < 1e-9 and in_box
    _line(
        3,
        ok,
        f"u(0)={at0} u(tau)={at_tau} (exact bounds), max jump={max(jumps):.2e} "
        f"(<1e-9), box respected on 4096 nodes={in_box}",
    )


def test_criterion_04_closed_loop_hit(tau_solution, wealth_spec, wealth_policy):
    mp = solve_mean_path(wealth_spec, wealth_policy, SimGrid(20.0, 200_000))
    gap = abs(mp.tau - tau_solution.tau)
    ok = mp.case_label == "i" and gap < 1e-6
    _line(
        4,
        ok,
        f"detected tau={mp.tau:.9f} vs root {tau_solution.tau:.9f}, "
        f"gap={gap:.2e} (<1e-6, dt=1e-4)",
    )


def test_criterion_05_first_order_check(params, tau_solution, wealth_spec, wealth_policy):
    clean = check_candidate(
        wealth_spec, wealth_policy, tau=tau_solution.tau, case_label="i"
    )
    bumped = check_candidate(
        wealth_spec,
        bumped_policy(params, tau_solution),
        tau=tau_solution.tau,
        case_label="i",
    )
    ok = (
        clean.passed
        and clean.max_residual <= 1e-8
        and bumped.max_residual > 0.0
        and 2.0 <= bumped.witness_t <= 3.0
    )
    _line(
        5,
        ok,
        f"optimum residual={clean.max_residual:.2e} (<=1e-8 on 2048x101), "
        f"bumped residual={bumped.max_residual:.2e} at t={bumped.witness_t:.4f} "
        f"(witness inside [2, 3])",
    )


def test_criterion_06_time_adjoint_two_routes():
    rng = np.random.default_rng(20260815)
    worst_anchor = 0.0
    checked = 0
    ok = True
    detail = ""
    for _ in range(20):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        norm_target = rng.uniform(0.1, 10.0)
        G = rng.normal(size=(m, m))
        A = G * (norm_target / np.linalg.norm(G, 2))
        tau = rng.uniform(0.5, min(20.0, 6.0 / norm_target))
        dyn = LinearDynamics(
            A=A,
            B=rng.normal(size=(m, k)),
            C=np.zeros((1, m, m)),
            D=np.zeros((1, m, k)),
            x0=rng.normal(size=m),
        )
        tgt = TargetCoefficients(
            E1=rng.uniform(-1.0, 1.0, m),
            E2=rng.uniform(-1.0, 1.0, m),
            E3=rng.uniform(-1.0, 1.0, m),
            E4=rng.uniform(-1.0, 1.0, k),
            y0=1.0,
        )
        try:
            sol = solve_time_adjoint(dyn, tgt, tau, SimGrid(tau, 256), cross_check_tol=1e-8)
        except NumericalConsistencyError as exc:
            ok = False
            detail = f"routes disagree beyond 1e-8 on spec {checked}: {exc}"
            break
        worst_anchor = max(worst_anchor, float(np.max(np.abs(sol.p0[-1]))))
        checked += 1
    if ok:
        detail = (
            f"{checked} random specs (m<=3, |A|<=10, tau<=20) agree within 1e-8; "
            f"worst |p0(tau)|={worst_anchor:.2e}"
        )
        ok = checked == 20 and worst_anchor < 1e-12
    _line(6, ok, detail)


def test_criterion_07_hit_time_derivative(params, wealth_spec, wealth_policy):
    grid = SimGrid(20.0, 200_000)
    v = ControlPolicy.constant([1.0], 20.0)
    report = fd_tau_check(wealth_spec, wealth_policy, v, rhos=(1e-4,), grid=grid)
    row = report.rows[0]

    capped = replace(params, horizon=5.0)
    spec5 = to_problem_spec(capped)
    hold = ControlPolicy.constant([10.0], 5.0)
    cap_report = fd_tau_check(
        spec5, hold, ControlPolicy.constant([1.0], 5.0), rhos=(1e-3,), grid=SimGrid(5.0, 20_000)
    )
    cap_row = cap_report.rows[0]
    ok = (
        row.rel_gap < 1e-3
        and cap_report.derivative.case_label == "ii"
        and cap_report.derivative.value == 0.0
        and abs(cap_row.quotient) < 1e-10
    )
    _line(
        7,
        ok,
        f"derivative={report.derivative.value:.6f}, fd quotient={row.quotient:.6f}, "
        f"rel gap={row.rel_gap:.2e} (<1e-3 at rho=1e-4); capped-run quotient="
        f"{cap_row.quotient:.2e} (<1e-10)",
    )


def test_criterion_08_duality():
    rng = np.random.default_rng(8451)
    grid = SimGrid(8.0, 4096)
    worst = 0.0
    kept = 0
    attempts = 0
    while kept < 20 and attempts < 200:
        attempts += 1
        spec = scalar_spec(
            a=rng.uniform(0.1, 0.9),
            b=rng.uniform(0.4, 1.4),
            e2=-rng.uniform(0.3, 1.0),
            e4=rng.uniform(-0.5, 0.5),
            y0=rng.uniform(0.5, 2.0),
            lower=0.2,
            upper=1.2,
            horizon=8.0,
        )
        u_vals = rng.uniform(0.2, 1.2, 2)
        u_edge = rng.uniform(2.0, 6.0)
        policy = ControlPolicy(
            [
                ControlSegment.constant(0.0, u_edge, [u_vals[0]]),
                ControlSegment.constant(u_edge, 8.0, [u_vals[1]]),
            ]
        )
        mp = solve_mean_path(spec, policy, grid)
        if mp.case_label != "i" or mp.tau <= 0.0:
            continue
        edges = np.sort(rng.uniform(1.0, 7.0, 2))
        v_vals = rng.uniform(-1.0, 1.0, 3)
        direction = ControlPolicy(
            [
                ControlSegment.constant(0.0, edges[0], [v_vals[0]]),
                ControlSegment.constant(edges[0], edges[1], [v_vals[1]]),
                ControlSegment.constant(edges[1], 8.0, [v_vals[2]]),
            ]
        )
        report = dual_identity_check(spec, policy, direction, grid)
        worst = max(worst, report.rel_gap)
        kept += 1
    ok = kept == 20 and worst < 1e-6
    _line(
        8,
        ok,
        f"{kept} random interior-hit problems, worst duality rel gap={worst:.2e} (<1e-6)",
    )


def first_crossing(times, values):
    below = values <= 0.0
    if not below.any():
        return None
    j = int(np.argmax(below))
    if j == 0:
        return float(times[0])
    a, b = values[j - 1], values[j]
    return float(times[j - 1] - a * (times[j] - times[j - 1]) / (b - a))


def single_switch_tau_oracle(a, b_coef, c1, c2, x0, y0, lo, up, horizon):
    """Smallest hitting time over upper-then-lower policies, brute force.

    The mean pair (E[X], E[Y]) has a closed form on each constant piece,
    so every candidate switch point s gets an interpolated crossing time
    from a dense evaluation grid.
    """
    n_time = 8001
    t = np.linspace(0.0, horizon, n_time)
    et = np.exp(a * t)

    def y_piece(x_start, y_start, u, grid, egrid):
        growth = (x_start / a) * (egrid - 1.0) + (b_coef * u / a) * ((egrid - 1.0) / a - grid)
        return y_start + c1 * growth + c2 * u * grid

    x_up = et * x0 + (b_coef * up / a) * (et - 1.0)
    y_up = y_piece(x0, y0, up, t, et)
    tau_up = first_crossing(t, y_up)
    best = tau_up if tau_up is not None else np.inf
    s_hi = tau_up if tau_up is not None else horizon
    s_grid = np.linspace(0.0, s_hi, 2501)
    es = np.exp(a * s_grid)
    x_s = es * x0 + (b_coef * up / a) * (es - 1.0)
    y_s = y_piece(x0, y0, up, s_grid, es)

    for lo_i in range(0, len(s_grid), 200):
        sl = slice(lo_i, lo_i + 200)
        growth = np.outer(x_s[sl] / a, et - 1.0) + (
            (b_coef * lo / a) * ((et - 1.0) / a - t)
        )[None, :]
        y2 = y_s[sl][:, None] + c1 * growth + (c2 * lo * t)[None, :]
        total = s_grid[sl][:, None] + t[None, :]
        y2 = np.where(total <= horizon + 1e-12, y2, np.inf)
        below = y2 <= 0.0
        for row in np.nonzero(below.any(axis=1))[0]:
            j = int(np.argmax(below[row]))
            if j == 0:
                cand = float(total[row, 0])
            else:
                ya, yb = y2[row, j - 1], y2[row, j]
                cand = float(total[row, j - 1] + (total[row, j] - total[row, j - 1]) * (-ya) / (yb - ya))
            best = min(best, cand)
    return best


def test_criterion_09_scalar_regimes():
    # regime A: both rows push downward, the vertex policy never leaves u_max
    spec_a = scalar_spec(
        a=0.4, b=1.0, e2=-1.0, e4=-0.3, y0=1.5, lower=0.2, upper=1.2, horizon=8.0
    )
    res_a = synthesize(spec_a, n_nodes=1024)
    report_a = scalar_switch_structure(0.4, 1.0, -1.0, -0.3, res_a.tau)
    oracle_a = single_switch_tau_oracle(0.4, 1.0, -1.0, -0.3, 1.0, 1.5, 0.2, 1.2, 8.0)
    ts = np.linspace(0.0, res_a.tau * 0.999, 64)
    all_upper = bool(np.all(res_a.policy.values(ts)[:, 0] == 1.2))
    ok_a = (
        res_a.switch_times[0].size == 0
        and all_upper
        and report_a.structure == "constant-upper"
        and res_a.tau <= oracle_a + 1e-3
    )

    # regime B: control row opposes, one switch at the closed-form root
    spec_b = scalar_spec()  # a=0.5, b=1, c1=-1, c2=0.5, box [0.2, 1.5]
    res_b = synthesize(spec_b, n_nodes=1024)
    report_b = scalar_switch_structure(0.5, 1.0, -1.0, 0.5, res_b.tau)
    t0_gap = abs(res_b.switch_times[0][0] - report_b.switch_time)
    oracle_b = single_switch_tau_oracle(0.5, 1.0, -1.0, 0.5, 1.0, 2.0, 0.2, 1.5, 6.0)
    tau_gap = abs(res_b.tau - oracle_b)
    ok_b = (
        report_b.structure == "upper-then-lower"
        and len(res_b.switch_times[0]) == 1
        and t0_gap < 1e-8
        and tau_gap < 1e-3
    )
    _line(
        9,
        ok_a and ok_b,
        f"constant-upper regime: 0 switches, tau={res_a.tau:.6f} vs exhaustive "
        f"{oracle_a:.6f}; one-switch regime: t0 gap={t0_gap:.2e} (<1e-8), "
        f"tau={res_b.tau:.6f} vs exhaustive {oracle_b:.6f} (gap {tau_gap:.2e} < 1e-3)",
    )


def test_criterion_10_monte_carlo(params):
    start = time.perf_counter()
    report = mc_validate(
        params, n_paths=200_000, dt=1.0 / 256.0, seed=42, vol_pair=(0.2, 0.4)
    )
    elapsed = time.perf_counter() - start
    se_joint = float(np.hypot(*report.vol_pair_stderrs))
    ok = (
        abs(report.z_score) < 3.0
        and report.vol_pair_gap < 3.0 * se_joint
        and elapsed < 60.0
    )
    _line(
        10,
        ok,
        f"mean wealth at tau={report.mean_terminal:.5f} (target 10, z={report.z_score:.3f}, "
        f"|z|<3); vol 0.2 vs 0.4 gap={report.vol_pair_gap:.5f} < 3*{se_joint:.5f}; "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_11_thread_count_never_changes_bytes(tmp_path):
    scalar_cfg = str(EXAMPLES / "scalar.json")
    portfolio_cfg = str(EXAMPLES / "portfolio.json")
    commands = {
        "simulate": [
            "simulate", "--config", scalar_cfg,
            "--paths", "120", "--steps", "240", "--seed", "5", "--store-paths",
        ],
        "mean": ["mean", "--config", scalar_cfg, "--steps", "300"],
        "portfolio": ["portfolio", "--config", portfolio_cfg],
        "bangbang": ["bangbang", "--config", scalar_cfg, "--nodes", "256", "--max-iter", "80"],
        "check-smp": [
            "check-smp", "--config", scalar_cfg, "--t-nodes", "128", "--u-samples", "9",
        ],
        "verify-variational": [
            "verify-variational", "--config", scalar_cfg,
            "--steps", "1500", "--paths", "24", "--seed", "4",
        ],
    }
    mismatched = []
    for name, argv in commands.items():
        dirs = []
        for threads, tag in (("1", "a"), ("7", "b")):
            out = str(tmp_path / f"{name}-{tag}")
            code = cli_main(argv + ["--out", out, "--threads", threads])
            assert code == 0, f"{name} exited {code}"
            dirs.append(out)
        names = sorted(os.listdir(dirs[0]))
        if names != sorted(os.listdir(dirs[1])):
            mismatched.append(name)
            continue
        _, bad, err = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
        if bad or err:
            mismatched.append(name)
    ok = mismatched == []
    _line(
        11,
        ok,
        "all six subcommands byte-identical across --threads 1 vs 7"
        if ok
        else f"artifact mismatch in: {', '.join(mismatched)}",
    )
