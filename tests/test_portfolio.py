from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    T1_REF,
    T2_REF,
    TAU_REF,
    clip_control,
    wealth_value,
    wealth_value_minimizer,
)
from meantau.errors import InfeasibleError, RegimeError, SpecValidationError
from meantau.portfolio import (
    PortfolioParams,
    TauSolution,
    branch_coefficient,
    figure_columns,
    mc_validate,
    optimal_policy,
    solve_tau,
    switch_times,
    to_problem_spec,
    wealth_residual,
)
from meantau.problem import validate
from meantau.simulate import SimGrid, simulate_ensemble, solve_mean_path
from meantau.smp import check_candidate


def test_solution_matches_frozen_values(tau_solution):
    assert abs(tau_solution.tau - TAU_REF) < 1e-9
    assert abs(tau_solution.t1 - T1_REF) < 1e-9
    assert abs(tau_solution.t2 - T2_REF) < 1e-9
    assert abs(tau_solution.residual) < 1e-9


def test_branch_coefficient_default_case(params):
    assert branch_coefficient(params) == pytest.approx(8.5, rel=1e-12)


def test_switch_ordering(params, tau_solution):
    assert 0.0 < tau_solution.t1 < tau_solution.t2 < tau_solution.tau
    t1, t2 = switch_times(params, tau_solution.tau)
    assert t1 == tau_solution.t1 and t2 == tau_solution.t2


def test_switch_times_clamp_for_short_runs(params):
    assert switch_times(params, 0.0) == (0.0, 0.0)
    # by t = 1 the exponential has not yet risen into the box
    assert switch_times(params, 1.0) == (0.0, 0.0)


def test_wealth_identity_at_the_root(params):
    residual, parts = wealth_residual(params, TAU_REF)
    assert abs(residual) < 1e-9
    assert all(p > 0.0 for p in parts)
    mean_gain = (params.growth - params.rate) * params.target_wealth * sum(parts)
    start_growth = params.initial_wealth * np.exp(params.rate * TAU_REF)
    assert abs(params.target_wealth - start_growth - mean_gain) < 1e-9


def test_control_boundary_and_monotone_values(tau_solution, wealth_policy):
    tau, t1, t2 = tau_solution.tau, tau_solution.t1, tau_solution.t2

    def left(t):
        return wealth_policy.values(t, side=-1)[..., 0]

    assert abs(float(left(t1)) - 12.5) < 1e-9
    assert abs(float(left(t2)) - 10.0) < 1e-9
    assert float(left(0.0)) == 12.5
    assert float(left(tau)) == 10.0
    ts = np.linspace(0.0, tau, 513)
    vals = left(ts)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals >= 10.0) & (vals <= 12.5))
    with pytest.raises(ValueError):
        left(-0.1)


def test_policy_matches_closed_form_on_dense_grid(params, tau_solution, wealth_policy):
    ts = np.linspace(0.0, tau_solution.tau, 2001)
    from_policy = wealth_policy.values(ts, side=+1)[:, 0]
    closed = clip_control(params, tau_solution.tau, ts)
    assert np.max(np.abs(from_policy - closed)) < 1e-12


def test_policy_structure_and_continuity(params, tau_solution, wealth_policy):
    tau, t1, t2 = tau_solution.tau, tau_solution.t1, tau_solution.t2
    assert len(wealth_policy.segments) == 4
    np.testing.assert_allclose(
        wealth_policy.breakpoints, [0.0, t1, t2, tau, params.horizon]
    )
    for edge in (t1, t2, tau):
        left = float(wealth_policy.values(edge, side=-1)[0])
        right = float(wealth_policy.values(edge, side=+1)[0])
        assert abs(left - right) < 1e-9
    assert float(wealth_policy.values(0.0)[0]) == 12.5
    assert float(wealth_policy.values(tau)[0]) == 10.0


def test_policy_drops_degenerate_branches(params):
    sol = TauSolution(tau=0.5, t1=0.0, t2=0.0, residual=0.0)
    policy = optimal_policy(params, sol)
    assert len(policy.segments) == 2
    assert float(policy.values(0.2)[0]) == 10.0
    assert policy.horizon == params.horizon


def test_regime_error_when_the_exponential_clears_the_box(params):
    steep = replace(params, beta=2.5)
    with pytest.raises(RegimeError):
        solve_tau(steep)


def test_two_branches_when_the_exponential_ends_above_the_lower_bound(params):
    # lower <= coef < upper: the control leaves the upper bound but is
    # still above the lower one at tau, so t2 = tau, and it ends at K
    mid = replace(params, beta=1.7)
    coef = branch_coefficient(mid)
    assert mid.control_lower <= coef < mid.control_upper
    sol = solve_tau(mid)
    assert 0.0 < sol.t1 < sol.t2 == sol.tau
    residual, parts = wealth_residual(mid, sol.tau)
    assert abs(residual) < 1e-9 and parts[2] == 0.0
    policy = optimal_policy(mid, sol)
    np.testing.assert_allclose(policy.breakpoints, [0.0, sol.t1, sol.tau, mid.horizon])
    before_tau = [s for s in policy.segments if s.t_start < sol.tau]
    assert not any(s.gamma0[0] == mid.control_lower for s in before_tau)
    q = mid.rate / (mid.growth - mid.rate)
    K = mid.target_wealth * (-q + np.sqrt(q * q + 2.0 * mid.beta))
    assert mid.control_lower < K < coef
    assert float(policy.values(sol.tau, side=-1)[0]) == pytest.approx(K, rel=1e-12)
    # the RK4 mean solve of the embedded problem reaches the target at tau
    mean = solve_mean_path(to_problem_spec(mid), policy, SimGrid(sol.tau, 4096))
    assert abs(mean.mean_y[-1]) < 1e-9 and mean.mean_y[-2] > 0.0


def test_solve_tau_brackets_past_an_overflowing_horizon(params):
    # e^{rate horizon} = e^1000 overflows; the residual there is -inf, which
    # brackets the root without a warning (pyproject.toml makes one an error)
    p = replace(params, rate=1.0, growth=2.0, horizon=1000.0)
    with np.errstate(over="ignore"):
        assert wealth_residual(p, 1000.0)[0] == -np.inf
    sol = solve_tau(p)
    assert sol.tau == 0.5461422956908905
    assert abs(sol.residual) < 1e-9


def _regime_edge(p):
    """beta at which the exponential would end on the upper bound: 1.25^2 / 2 + 1.25 q."""
    return 1.25**2 / 2.0 + 1.25 * p.rate / (p.growth - p.rate)


def _assert_optimal(p):
    """The policy passes the first-order check, and tau minimizes the value in tau."""
    sol = solve_tau(p)
    report = check_candidate(
        to_problem_spec(p), optimal_policy(p, sol), tau=sol.tau, case_label="i", tol=1e-8
    )
    assert report.passed, (p, report.max_residual)
    assert abs(wealth_value_minimizer(p) - sol.tau) <= 1e-7, p
    return sol


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.8, 1.2, 1.45, 1.55, 1.7, 1.9, 2.0, 2.02, 2.031])
def test_the_policy_is_optimal_up_to_the_regime_edge(params, beta):
    # three branches below beta = 1/2 + q = 1.5 at the default market, two
    # from there, the exponential ending at K, up to the edge 2.03125
    p = replace(params, beta=beta)
    sol = _assert_optimal(p)
    # V is finite only between the hits under the lower bound, which is the
    # optimal policy below beta = 0.7, and under the upper one, near 2.03
    if 0.7 < beta < 2.0:
        assert wealth_value(p, sol.tau) < min(wealth_value(p, sol.tau + d) for d in (-1e-4, 1e-4))


@pytest.mark.parametrize(
    "beta, tau", [(1.7, 10.3103154477), (1.9, 10.2295478270), (2.02, 10.2166019203)]
)
def test_two_branch_tau_values(params, beta, tau):
    assert abs(solve_tau(replace(params, beta=beta)).tau - tau) < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    rate=st.floats(0.005, 0.15),
    excess=st.floats(0.005, 0.2),
    target=st.floats(0.5, 50.0),
    start=st.floats(0.02, 0.95),
    share=st.floats(0.01, 0.99),
)
def test_the_policy_is_optimal_over_random_markets(rate, excess, target, start, share):
    base = PortfolioParams(rate=rate, growth=rate + excess, target_wealth=target,
                           initial_wealth=start * target, horizon=3.0 / excess + 1.0)
    _assert_optimal(replace(base, beta=share * _regime_edge(base)))


def test_regime_error_just_past_the_edge(params):
    assert _regime_edge(params) == 2.03125
    with pytest.raises(RegimeError, match="2.03125"):
        solve_tau(replace(params, beta=2.0313))


def test_infeasible_when_the_horizon_is_too_short(params):
    with pytest.raises(InfeasibleError):
        solve_tau(replace(params, horizon=1.0))


def test_params_validation_collects_labeled_messages():
    with pytest.raises(SpecValidationError) as err:
        PortfolioParams(rate=0.0, initial_wealth=20.0)
    text = str(err.value)
    assert "params.rate" in text
    assert "params.initial_wealth" in text


def test_problem_embedding_coefficients(params, wealth_spec):
    assert validate(wealth_spec) == []
    dyn = wealth_spec.dynamics
    np.testing.assert_allclose(dyn.A, [[0.05]])
    np.testing.assert_allclose(dyn.B, [[0.05]])
    np.testing.assert_allclose(dyn.D[0], [[0.2]])
    tgt = wealth_spec.target
    np.testing.assert_allclose(tgt.E2, [-0.05])
    np.testing.assert_allclose(tgt.E4, [-0.05])
    assert tgt.y0 == 9.0
    np.testing.assert_allclose(tgt.diffusion.coef_control, [[-0.2]])
    assert wealth_spec.cost.Lambda[0][0] == pytest.approx(1.0 / 120.0, rel=1e-12)
    np.testing.assert_allclose(wealth_spec.control_set.lower, [10.0])
    np.testing.assert_allclose(wealth_spec.control_set.upper, [12.5])
    assert wealth_spec.horizon == 20.0


def test_mc_validate_smoke(params, tau_solution):
    report = mc_validate(params, tau_solution, n_paths=4000, dt=1.0 / 32.0, seed=7)
    assert (report.n_paths, report.dt, report.seed) == (4000, 1.0 / 32.0, 7)
    assert report.stderr > 0.0
    assert abs(report.z_score) < 5.0
    assert report.vol_pair is None and report.vol_pair_gap is None


def test_mc_validate_vol_pair_shares_noise(params, tau_solution):
    report = mc_validate(
        params, tau_solution, n_paths=2000, dt=1.0 / 16.0, seed=3, vol_pair=(0.2, 0.4)
    )
    assert report.vol_pair == (0.2, 0.4)
    assert len(report.vol_pair_means) == 2
    joint = np.hypot(*report.vol_pair_stderrs)
    assert report.vol_pair_gap < 5.0 * joint


def test_mc_validate_vol_pair_reuses_base_column(params, tau_solution):
    report = mc_validate(
        params, tau_solution, n_paths=4000, dt=1.0 / 32.0, seed=7, vol_pair=(0.2, 0.4)
    )
    assert report.vol_pair_means[0] == report.mean_terminal
    assert report.vol_pair_stderrs[0] == report.stderr
    # each volatility's terminal values are those of its ensemble run alone
    tau = tau_solution.tau
    grid = SimGrid(tau, int(np.ceil(tau * 32.0)))
    columns = [(params.vol, report.mean_terminal, report.stderr)] + list(
        zip(report.vol_pair, report.vol_pair_means, report.vol_pair_stderrs)
    )
    for vol, mean, stderr in columns:
        p = replace(params, vol=vol)
        policy = optimal_policy(p, solve_tau(p))
        alone = simulate_ensemble(to_problem_spec(p), policy, 4000, grid, 7)
        assert mean == float(alone.mean_x[-1, 0])
        assert stderr == float(alone.std_x[-1, 0] / np.sqrt(4000))


@pytest.mark.parametrize(
    "vol_pair, index", [((0.0, 0.4), 0), ((0.2, float("inf")), 1)], ids=["zero", "inf"]
)
def test_mc_validate_rejects_a_vol_pair_entry_before_solving(
    params, tau_solution, monkeypatch, vol_pair, index
):
    def no_column(*args, **kwargs):
        raise AssertionError("built a column before checking vol_pair")

    monkeypatch.setattr("meantau.portfolio._Column", no_column)
    with pytest.raises(ValueError, match=rf"vol_pair\[{index}\]"):
        mc_validate(params, tau_solution, n_paths=100, dt=0.0625, vol_pair=vol_pair)


@pytest.mark.parametrize("beta", [1.2, 1.7])
def test_figure_control_is_the_simulated_policy_left_limits(params, beta):
    # the figure's control column is the policy that mc_validate steps,
    # read from the left, so at 1.7 it ends at u(tau-) = K, not the hold 10.0
    p = replace(params, beta=beta)
    sol = solve_tau(p)
    fig = figure_columns(p, sol)
    left = optimal_policy(p, sol).values(fig["t"], side=-1)[:, 0]
    np.testing.assert_array_equal(fig["control"], left)
    if beta == 1.7:
        assert fig["control"][-1] == pytest.approx(10.976, abs=1e-3)
    else:
        assert fig["control"][-1] == 10.0


def test_figure_columns_shapes_and_ends(params, tau_solution):
    fig = figure_columns(params, tau_solution)
    assert set(fig) == {"t", "control", "mean_wealth"}
    assert len(fig["t"]) == 2001
    assert fig["t"][0] == 0.0 and fig["t"][-1] == tau_solution.tau
    assert np.all((fig["control"] >= 10.0) & (fig["control"] <= 12.5))
    assert fig["mean_wealth"][0] == 1.0
    assert abs(fig["mean_wealth"][-1] - 10.0) < 1e-6
