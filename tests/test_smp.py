from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

from helpers import never_crossing_spec, piecewise_constant, scalar_spec
from meantau import smp
from meantau.bangbang import synthesize
from meantau.config import load_config, parse_problem
from meantau.errors import RegimeError
from meantau.portfolio import branch_coefficient
from meantau.problem import (
    ControlPolicy,
    ControlSegment,
    ControlSet,
    CostSpec,
    ProblemSpec,
)
from meantau.smp import _vertex_maximum, check_candidate, control_samples

TWO_STATE = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "two_state.json"


def lattice_scan(g, u_bar, times, samples):
    """Reference: first argmax of g(t) . (w - u_bar(t)) over the whole (time, sample) lattice."""
    residual = np.einsum("tk,tsk->ts", g, samples[None, :, :] - u_bar[:, None, :])
    i, j = np.unravel_index(int(np.argmax(residual)), residual.shape)
    return float(residual[i, j]), float(times[i]), samples[j]


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
    )
    assert report.passed
    assert report.max_residual <= 1e-8
    assert abs(report.slope_at_tau + 1.0) < 1e-6
    # expected running cost at the hit: 1 + lam u^2 / 2 with u = 10
    assert abs(report.terminal_weight - 17.0 / 12.0) < 1e-6
    assert set(report.variants) == {"full"}
    assert report.n_time_nodes == 513
    assert report.n_control_samples == 101


def test_check_candidate_flags_a_bumped_policy(params, tau_solution, wealth_spec):
    sol = tau_solution
    coef = branch_coefficient(params)
    r = params.rate
    bumped = ControlPolicy(
        [
            ControlSegment(0.0, 2.0, [12.5]),
            ControlSegment(2.0, 3.0, [12.8]),
            ControlSegment(3.0, sol.t1, [12.5]),
            ControlSegment(sol.t1, sol.t2, [0.0], [coef * np.exp(r * sol.tau)], [-r]),
            ControlSegment(sol.t2, sol.tau, [10.0]),
            ControlSegment(sol.tau, params.horizon, [10.0]),
        ]
    )
    report = check_candidate(
        wealth_spec,
        bumped,
        tau=sol.tau,
        case_label="i",
        t_grid_size=1024,
    )
    assert not report.passed
    assert report.max_residual > 1e-4
    assert 2.0 <= report.witness_t <= 3.0
    # pushing u past the box top makes a move back toward the bottom improving
    assert float(report.witness_u[0]) == 10.0


def test_check_candidate_cap_case_tests_only_the_drift_part():
    spec = never_crossing_spec(horizon=1.0)
    policy = ControlPolicy.constant([0.5], 1.0)
    report = check_candidate(spec, policy, t_grid_size=128)
    assert report.case_label == "ii"
    assert report.tau == 1.0
    assert set(report.variants) == {"drift_only"}
    # time-optimal cost has no control gradient, so the residual vanishes
    assert report.max_residual == 0.0
    assert report.passed
    assert np.isnan(report.slope_at_tau)
    assert np.isnan(report.terminal_weight)


def test_check_candidate_at_the_cap_passes_when_one_variant_does():
    # a hit exactly at the cap (label "iii") may take either derivative of
    # the hit: the time-optimal cost has no control gradient, so the
    # drift-only part vanishes while the full one does not
    policy = ControlPolicy.constant([0.8], 6.0)
    report = check_candidate(scalar_spec(), policy, tau=6.0, case_label="iii")
    assert set(report.variants) == {"full", "drift_only"}
    assert report.variants["drift_only"]["max_residual"] == 0.0
    assert report.variants["full"]["max_residual"] == pytest.approx(0.525, abs=1e-3)
    assert report.passed and report.max_residual == 0.0


def test_check_candidate_trivial_when_already_at_the_level():
    spec = scalar_spec(y0=0.0)
    report = check_candidate(spec, ControlPolicy.constant([0.8], 6.0), t_grid_size=64)
    assert report.tau == 0.0
    assert report.passed
    assert report.n_time_nodes == 0
    assert report.witness_u.size == 0


# kappa + c_lin x running and psi_lin x terminal: both costs reach the
# maximum principle through the cost adjoint p alone
STATE_COST = CostSpec(kappa=1.0, c_lin=[0.05], Lambda=[[0.0]], psi_lin=[0.1], psi_quad=[[0.0]])


def _scalar_mean_piece(spec, x, y, u, dt):
    """(E[X], mean target, int E[X] dt) of a scalar spec after dt at constant u.

    E[X]' = a E[X] + b u and y' = (e1 + e2) E[X] + e4 u, with e3 = 0.
    """
    a, b = spec.dynamics.A[0, 0], spec.dynamics.B[0, 0]
    tgt = spec.target
    shift, grow = x + b * u / a, np.expm1(a * dt)
    int_x = shift * grow / a - b * u / a * dt
    y = y + (tgt.E1[0] + tgt.E2[0]) * int_x + tgt.E4[0] * u * dt
    return x + shift * grow, y, int_x


def _upper_then_lower_value(spec, s):
    """(J, tau) of the policy upper on [0, s), lower after, from closed-form means.

    J = int_0^tau (kappa + c_lin E[X]) dt + psi_lin E[X](tau), the cost
    itself: no adjoint and no maximum principle enter.
    """
    box, cost = spec.control_set, spec.cost
    x1, y1, int1 = _scalar_mean_piece(
        spec, spec.dynamics.x0[0], spec.target.y0, box.upper[0], s
    )
    assert y1 > 0.0
    rest = brentq(lambda dt: _scalar_mean_piece(spec, x1, y1, box.lower[0], dt)[1],
                  0.0, spec.horizon - s, xtol=1e-15)
    x_tau, _, int2 = _scalar_mean_piece(spec, x1, y1, box.lower[0], rest)
    tau = s + rest
    return cost.kappa * tau + cost.c_lin[0] * (int1 + int2) + cost.psi_lin[0] * x_tau, tau


def test_check_candidate_decides_state_costs_as_the_direct_minimum(monkeypatch):
    # the switch that minimizes the cost directly is the one the check
    # passes; moving it by 1e-3 (two grid steps) fails at the moved switch
    def direct_minimum(spec):
        best = minimize_scalar(lambda s: _upper_then_lower_value(spec, s)[0], bounds=(0.0, 1.0),
                               method="bounded", options={"xatol": 1e-10})
        return float(best.x)

    spec = scalar_spec(cost=STATE_COST)
    s_star = direct_minimum(spec)
    assert s_star == pytest.approx(0.40445, abs=1e-5)
    # the state costs move it: the elapsed time alone switches at 0.687
    assert direct_minimum(scalar_spec()) == pytest.approx(0.68720, abs=1e-5)
    box = spec.control_set

    def check(s):
        policy = piecewise_constant([box.upper[0], box.lower[0]], [0.0, s, spec.horizon])
        return check_candidate(spec, policy)

    report = check(s_star)
    assert report.passed and report.max_residual == 0.0
    assert report.tau == pytest.approx(_upper_then_lower_value(spec, s_star)[1], abs=1e-9)
    # the weight: kappa + c_lin xbar + psi_lin (a xbar + b u(tau-)), xbar the
    # closed-form mean at the reported tau
    (a,), (b,) = spec.dynamics.A[0], spec.dynamics.B[0]
    cost = spec.cost
    x1, y1, _ = _scalar_mean_piece(spec, spec.dynamics.x0[0], spec.target.y0, box.upper[0], s_star)
    x_tau = _scalar_mean_piece(spec, x1, y1, box.lower[0], report.tau - s_star)[0]
    weight = cost.kappa + cost.c_lin[0] * x_tau + cost.psi_lin[0] * (a * x_tau + b * box.lower[0])
    assert report.terminal_weight == pytest.approx(weight, rel=1e-12)
    for shift in (-1e-3, 1e-3):
        report = check(s_star + shift)
        assert not report.passed
        assert 5e-4 < report.max_residual < 1e-3
        step = report.tau / (report.n_time_nodes - 1)
        assert abs(report.witness_t - (s_star + shift)) <= step

    # without the cost adjoint the direct minimum fails
    monkeypatch.setattr(smp, "solve_cost_adjoint",
                        lambda dyn, cost, grid, mean_x_tau: np.zeros((grid.n_steps + 1, dyn.m)))
    assert check(s_star).max_residual > 0.2


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0], ids=["nan", "inf", "negative"])
def test_check_candidate_rejects_a_tolerance_that_is_not_finite_and_nonnegative(
    monkeypatch, tol
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking tol")

    monkeypatch.setattr("meantau.smp.hit_time", no_solve)
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
    with pytest.raises(RegimeError, match=r"problem\.cost\.psi_quad"):
        check_candidate(
            spec,
            wealth_policy,
            tau=tau_solution.tau,
            case_label="i",
            t_grid_size=64,
        )


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

