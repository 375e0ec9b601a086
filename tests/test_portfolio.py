from dataclasses import replace

import numpy as np
import pytest

from helpers import T1_REF, T2_REF, TAU_REF
from meantau.errors import InfeasibleError, RegimeError, SpecValidationError
from meantau.portfolio import (
    PortfolioParams,
    TauSolution,
    branch_coefficient,
    figure_columns,
    mc_validate,
    optimal_control,
    optimal_policy,
    solve_tau,
    switch_times,
    to_problem_spec,
    wealth_residual,
)
from meantau.problem import policy_eval, validate
from meantau.simulate import SimGrid, simulate_ensemble


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


def test_control_boundary_and_monotone_values(params, tau_solution):
    tau, t1, t2 = tau_solution.tau, tau_solution.t1, tau_solution.t2
    assert abs(float(optimal_control(params, tau, t1)) - 12.5) < 1e-9
    assert abs(float(optimal_control(params, tau, t2)) - 10.0) < 1e-9
    assert float(optimal_control(params, tau, 0.0)) == 12.5
    assert float(optimal_control(params, tau, tau)) == 10.0
    ts = np.linspace(0.0, tau, 513)
    vals = optimal_control(params, tau, ts)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals >= 10.0) & (vals <= 12.5))
    with pytest.raises(ValueError):
        optimal_control(params, tau, tau * 1.001)
    with pytest.raises(ValueError):
        optimal_control(params, tau, -0.1)


def test_policy_matches_closed_form_on_dense_grid(params, tau_solution, wealth_policy):
    ts = np.linspace(0.0, tau_solution.tau, 2001)
    from_policy = wealth_policy.values(ts, side=+1)[:, 0]
    closed = optimal_control(params, tau_solution.tau, ts)
    assert np.max(np.abs(from_policy - closed)) < 1e-12


def test_policy_structure_and_continuity(params, tau_solution, wealth_policy):
    tau, t1, t2 = tau_solution.tau, tau_solution.t1, tau_solution.t2
    assert len(wealth_policy.segments) == 4
    np.testing.assert_allclose(
        wealth_policy.breakpoints, [0.0, t1, t2, tau, params.horizon]
    )
    for edge in (t1, t2, tau):
        left = float(wealth_policy.value(edge, side=-1)[0])
        right = float(wealth_policy.value(edge, side=+1)[0])
        assert abs(left - right) < 1e-9
    assert float(policy_eval(wealth_policy, 0.0)[0]) == 12.5
    assert float(policy_eval(wealth_policy, tau)[0]) == 10.0


def test_policy_drops_degenerate_branches(params):
    sol = TauSolution(tau=0.5, t1=0.0, t2=0.0, residual=0.0)
    policy = optimal_policy(params, sol)
    assert len(policy.segments) == 2
    assert float(policy.value(0.2)[0]) == 10.0
    assert policy.horizon == params.horizon


def test_regime_error_when_the_exponential_clears_the_box(params):
    steep = replace(params, beta=2.5)
    with pytest.raises(RegimeError):
        solve_tau(steep)


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
    assert validate(wealth_spec).ok
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
    report = mc_validate(params, n_paths=4000, dt=1.0 / 32.0, seed=7)
    assert report.tau == tau_solution.tau
    assert report.stderr > 0.0
    assert abs(report.z_score) < 5.0
    assert report.vol_pair is None and report.vol_pair_gap is None


def test_mc_validate_vol_pair_shares_noise(params):
    report = mc_validate(
        params, n_paths=2000, dt=1.0 / 16.0, seed=3, vol_pair=(0.2, 0.4)
    )
    assert report.vol_pair == (0.2, 0.4)
    assert len(report.vol_pair_means) == 2
    joint = np.hypot(*report.vol_pair_stderrs)
    assert report.vol_pair_gap < 5.0 * joint


def test_mc_validate_vol_pair_reuses_base_column(params):
    report = mc_validate(params, n_paths=4000, dt=1.0 / 32.0, seed=7, vol_pair=(0.2, 0.4))
    assert report.vol_pair_means[0] == report.mean_terminal
    assert report.vol_pair_stderrs[0] == report.stderr
    # each volatility's terminal values are those of its ensemble run alone
    grid = SimGrid(report.tau, int(np.ceil(report.tau * 32.0)))
    columns = [(params.vol, report.mean_terminal, report.stderr)] + list(
        zip(report.vol_pair, report.vol_pair_means, report.vol_pair_stderrs)
    )
    for vol, mean, stderr in columns:
        p = replace(params, vol=vol)
        alone = simulate_ensemble(
            to_problem_spec(p), optimal_policy(p), 4000, grid, 7, store_paths=False
        )
        assert mean == float(alone.mean_x[-1, 0])
        assert stderr == float(alone.std_x[-1, 0] / np.sqrt(4000))


@pytest.mark.parametrize(
    "vol_pair, index", [((0.0, 0.4), 0), ((0.2, float("inf")), 1)], ids=["zero", "inf"]
)
def test_mc_validate_rejects_a_vol_pair_entry_before_solving(
    params, monkeypatch, vol_pair, index
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking vol_pair")

    monkeypatch.setattr("meantau.portfolio.solve_tau", no_solve)
    with pytest.raises(ValueError, match=rf"vol_pair\[{index}\]"):
        mc_validate(params, n_paths=100, dt=0.0625, vol_pair=vol_pair)


def test_figure_columns_shapes_and_ends(params, tau_solution):
    fig = figure_columns(params, n_nodes=801)
    assert set(fig) == {"t", "control", "mean_wealth", "tau", "t1", "t2"}
    assert len(fig["t"]) == 801
    assert fig["t"][0] == 0.0 and fig["t"][-1] == tau_solution.tau
    assert np.all((fig["control"] >= 10.0) & (fig["control"] <= 12.5))
    assert fig["mean_wealth"][0] == 1.0
    assert abs(fig["mean_wealth"][-1] - 10.0) < 1e-6
