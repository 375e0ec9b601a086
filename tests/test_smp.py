from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import never_crossing_spec, scalar_spec
from meantau.bangbang import synthesize
from meantau.config import load_config, parse_policy, parse_problem
from meantau.portfolio import branch_coefficient
from meantau.problem import (
    ControlPolicy,
    ControlSegment,
    ControlSet,
    CostSpec,
    ProblemSpec,
)
from meantau.smp import _vertex_maximum, check_candidate, control_samples, terminal_cost_drift

TWO_STATE = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "two_state.json"


def lattice_scan(g, u_bar, times, samples):
    """Reference: first argmax of g(t) . (w - u_bar(t)) over the whole (time, sample) lattice."""
    residual = np.einsum("tk,tsk->ts", g, samples[None, :, :] - u_bar[:, None, :])
    i, j = np.unravel_index(int(np.argmax(residual)), residual.shape)
    return float(residual[i, j]), float(times[i]), samples[j]


def test_terminal_cost_drift_linear_terminal():
    spec = scalar_spec(a=0.5, b=1.0, d_coef=0.1)
    cost = CostSpec(kappa=0.0, c_lin=[0.0], Lambda=[[0.0]], psi_lin=[2.0], psi_quad=[[0.0]])
    x = np.array([[1.0], [2.0]])
    out = terminal_cost_drift(x, [0.6], spec.dynamics, cost)
    np.testing.assert_allclose(out, [2.0 * 1.1, 2.0 * 1.6], atol=1e-14)


def test_terminal_cost_drift_quadratic_adds_noise_correction():
    spec = scalar_spec(a=0.5, b=1.0, d_coef=0.1)
    cost = CostSpec(kappa=0.0, c_lin=[0.0], Lambda=[[0.0]], psi_lin=[2.0], psi_quad=[[3.0]])
    x = np.array([[1.0], [2.0]])
    out = terminal_cost_drift(x, [0.6], spec.dynamics, cost)
    # gradient (2 + 3x) times drift, plus half sigma' psi_quad sigma with sigma = 0.06
    expected = np.array([(2 + 3 * 1.0) * 1.1, (2 + 3 * 2.0) * 1.6]) + 0.5 * 0.06 * 3.0 * 0.06
    np.testing.assert_allclose(out, expected, atol=1e-14)


def test_control_samples_one_axis_is_the_full_grid():
    box = ControlSet([0.0], [1.0])
    samples = control_samples(box, per_axis=5)
    assert samples.shape == (5, 1)
    np.testing.assert_allclose(samples[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_control_samples_two_axis_lattice():
    box = ControlSet([0.0, -1.0], [1.0, 1.0])
    samples = control_samples(box, per_axis=7)
    assert samples.shape == (49, 2)
    assert np.all(samples[:, 0] >= 0.0) and np.all(samples[:, 1] >= -1.0)


def test_control_samples_three_axis_keeps_all_corners():
    box = ControlSet([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    samples = control_samples(box, per_axis=5)
    assert samples.shape[1] == 3
    got = {tuple(row) for row in samples}
    for cx in (0.0, 1.0):
        for cy in (0.0, 2.0):
            for cz in (0.0, 3.0):
                assert (cx, cy, cz) in got


def test_check_candidate_passes_on_wealth_optimum(
    params, tau_solution, wealth_spec, wealth_policy
):
    report = check_candidate(
        wealth_spec,
        wealth_policy,
        tau=tau_solution.tau,
        case_label="i",
        t_grid_size=512,
        u_samples_per_axis=33,
    )
    assert report.passed
    assert report.max_residual <= 1e-8
    assert abs(report.slope_at_tau + 1.0) < 1e-6
    # expected running cost at the hit: 1 + lam u^2 / 2 with u = 10
    assert abs(report.terminal_weight - 17.0 / 12.0) < 1e-6
    assert set(report.variants) == {"full"}
    assert report.n_time_nodes == 513
    assert report.n_control_samples == 33


def test_check_candidate_flags_a_bumped_policy(params, tau_solution, wealth_spec):
    sol = tau_solution
    coef = branch_coefficient(params)
    r = params.rate
    bumped = ControlPolicy(
        [
            ControlSegment.constant(0.0, 2.0, [12.5]),
            ControlSegment.constant(2.0, 3.0, [12.8]),
            ControlSegment.constant(3.0, sol.t1, [12.5]),
            ControlSegment(sol.t1, sol.t2, [0.0], [coef * np.exp(r * sol.tau)], [-r]),
            ControlSegment.constant(sol.t2, sol.tau, [10.0]),
            ControlSegment.constant(sol.tau, params.horizon, [10.0]),
        ]
    )
    report = check_candidate(
        wealth_spec,
        bumped,
        tau=sol.tau,
        case_label="i",
        t_grid_size=1024,
        u_samples_per_axis=51,
    )
    assert not report.passed
    assert report.max_residual > 1e-4
    assert 2.0 <= report.witness_t <= 3.0
    # pushing u past the box top makes a move back toward the bottom improving
    assert float(report.witness_u[0]) == 10.0


def test_check_candidate_cap_case_tests_only_the_drift_part():
    spec = never_crossing_spec(horizon=1.0)
    policy = ControlPolicy.constant([0.5], 1.0)
    report = check_candidate(spec, policy, t_grid_size=128, detection_steps=2048)
    assert report.case_label == "ii"
    assert report.tau == 1.0
    assert set(report.variants) == {"drift_only"}
    # time-optimal cost has no control gradient, so the residual vanishes
    assert report.max_residual == 0.0
    assert report.passed
    assert np.isnan(report.slope_at_tau)
    assert np.isnan(report.terminal_weight)


def test_check_candidate_trivial_when_already_at_the_level():
    spec = scalar_spec(y0=0.0)
    report = check_candidate(
        spec, ControlPolicy.constant([0.8], 6.0), t_grid_size=64, detection_steps=512
    )
    assert report.tau == 0.0
    assert report.passed
    assert report.n_time_nodes == 0
    assert report.witness_u.size == 0


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
def test_check_candidate_rejects_a_tolerance_that_is_not_finite_and_nonnegative(
    monkeypatch, tol
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking tol")

    monkeypatch.setattr("meantau.smp.solve_mean_path", no_solve)
    with pytest.raises(ValueError, match="tol"):
        check_candidate(scalar_spec(), ControlPolicy.constant([0.8], 6.0), tol=tol)


def test_check_candidate_requires_tau_and_label_together():
    spec = scalar_spec()
    policy = ControlPolicy.constant([0.8], 6.0)
    with pytest.raises(ValueError, match="together or neither"):
        check_candidate(spec, policy, tau=1.0)
    with pytest.raises(ValueError, match="together or neither"):
        check_candidate(spec, policy, case_label="i")


def test_check_candidate_quadratic_terminal_needs_sampled_states(
    tau_solution, wealth_spec, wealth_policy
):
    cost = CostSpec(
        kappa=1.0,
        c_lin=[0.0],
        Lambda=wealth_spec.cost.Lambda,
        psi_lin=[0.0],
        psi_quad=[[0.2]],
    )
    spec = ProblemSpec(
        wealth_spec.dynamics,
        wealth_spec.target,
        cost,
        wealth_spec.control_set,
        wealth_spec.horizon,
    )
    with pytest.raises(ValueError, match="terminal_x_paths"):
        check_candidate(
            spec,
            wealth_policy,
            tau=tau_solution.tau,
            case_label="i",
            t_grid_size=64,
            u_samples_per_axis=9,
        )
    report = check_candidate(
        spec,
        wealth_policy,
        tau=tau_solution.tau,
        case_label="i",
        t_grid_size=64,
        u_samples_per_axis=9,
        terminal_x_paths=np.full((32, 1), 10.0),
    )
    assert np.isfinite(report.terminal_weight)
    assert report.n_control_samples == 9


# Nonzero gains stay at least 1e-2: a gain below the rounding of the other
# terms lets a non-vertex sample round to the vertex value, and the lattice's
# first argmax then names that sample instead of the (equal-valued) vertex.
_GAIN = st.one_of(st.just(0.0), st.floats(0.01, 10.0), st.floats(-10.0, -0.01))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    k=st.integers(1, 4),
    n_times=st.integers(1, 6),
    per_axis=st.sampled_from([2, 3, 5, 17, 101]),
)
def test_vertex_maximum_matches_the_lattice_scan(data, k, n_times, per_axis):
    lower = np.array(data.draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k)))
    width = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 10.0)), min_size=k, max_size=k))
    box = ControlSet(lower, lower + np.array(width))
    g = np.array(data.draw(st.lists(_GAIN, min_size=k * n_times, max_size=k * n_times)))
    g = g.reshape(n_times, k)
    # each candidate row sits inside the box or on one of its vertices (exact ties)
    rows = []
    for _ in range(n_times):
        if data.draw(st.booleans()):
            frac = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
            rows.append(box.lower + frac * (box.upper - box.lower))
        else:
            upper = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)))
            rows.append(np.where(upper, box.upper, box.lower))
    u_bar = np.array(rows)
    times = np.linspace(0.0, 1.0, n_times)

    got = _vertex_maximum(box, g, u_bar, times)
    value, t_at, u_at = lattice_scan(g, u_bar, times, control_samples(box, per_axis))
    scale = np.linalg.norm(g) * max(np.max(np.abs(box.lower)), np.max(np.abs(box.upper)))
    assert abs(got["max_residual"] - value) <= 1e-14 * scale
    assert got["witness_t"] == t_at
    np.testing.assert_array_equal(got["witness_u"], u_at)


def test_two_state_bang_bang_candidate_witness_is_the_first_node():
    spec = parse_problem(load_config(str(TWO_STATE))["problem"])
    candidate = synthesize(spec)
    report = check_candidate(spec, candidate.policy)
    # the vertex candidate attains the maximum 0 at every node: the first wins
    assert report.max_residual == 0.0
    assert report.witness_t == 0.0
    np.testing.assert_array_equal(report.witness_u, [1.5, 1.5])


def test_check_candidate_report_does_not_depend_on_the_sample_size():
    cfg = load_config(str(TWO_STATE))
    spec = parse_problem(cfg["problem"])
    policy = parse_policy(cfg["policy"], horizon=spec.horizon)
    reports = [
        check_candidate(spec, policy, t_grid_size=256, u_samples_per_axis=n)
        for n in (2, 3, 101)
    ]
    assert [r.n_control_samples for r in reports] == [4, 9, 10201]
    first = reports[0]
    for r in reports[1:]:
        assert (r.max_residual, r.witness_t) == (first.max_residual, first.witness_t)
        np.testing.assert_array_equal(r.witness_u, first.witness_u)
        assert r.variants.keys() == first.variants.keys()
        for name, v in r.variants.items():
            assert (v["max_residual"], v["witness_t"]) == (
                first.variants[name]["max_residual"], first.variants[name]["witness_t"]
            )
            np.testing.assert_array_equal(v["witness_u"], first.variants[name]["witness_u"])
