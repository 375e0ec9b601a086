import numpy as np
import pytest

from helpers import TAU_REF, never_crossing_spec, scalar_spec
from meantau.bangbang import (
    find_switch_times,
    khat_evaluator,
    scalar_switch_structure,
    switching_function,
    synthesize,
    vertex_policy,
)
from meantau.errors import (
    AssumptionViolationError,
    InfeasibleError,
    NonConvergenceError,
    SingularArcError,
)
from meantau.simulate import SimGrid, solve_mean_path


def scalar_khat(a, b, c1, c2, tau, t):
    return -(c1 * b / a) * (np.exp(a * (tau - t)) - 1.0) - c2


def test_khat_evaluator_matches_scalar_closed_form():
    spec = scalar_spec(a=0.5, b=1.0, e2=-1.0, e4=0.5)
    khat = khat_evaluator(spec.dynamics, spec.target, 3.0)
    for t in (0.0, 1.2, 2.5537128973715806, 3.0):
        expected = scalar_khat(0.5, 1.0, -1.0, 0.5, 3.0, t)
        assert abs(float(khat(t)[0]) - expected) < 1e-12
    assert float(khat(3.0)[0]) == -0.5


def test_switching_function_sign_and_guard():
    khat = np.array([1.0, -2.0, 0.0])
    s = switching_function(khat, -0.5)
    np.testing.assert_allclose(s, [2.0, -4.0, 0.0])
    with pytest.raises(AssumptionViolationError):
        switching_function(khat, 0.0)


def test_find_switch_times_linear_interpolation_is_exact_on_lines():
    times = np.linspace(0.0, 1.0, 5)
    roots = find_switch_times(times, 0.37 - times)
    assert len(roots) == 1
    np.testing.assert_allclose(roots[0], [0.37], atol=1e-15)


def test_find_switch_times_refines_with_brentq():
    times = np.linspace(0.0, 3.0, 7)
    vals = np.cos(times)
    roots = find_switch_times(times, vals, refine=lambda t, i: np.cos(t), xtol=1e-12)
    assert len(roots[0]) == 1
    assert abs(roots[0][0] - np.pi / 2.0) < 1e-10


def test_find_switch_times_node_zero_counts_once():
    times = np.linspace(0.0, 1.0, 5)
    vals = np.array([1.0, 0.5, 0.0, -0.5, -1.0])
    roots = find_switch_times(times, vals)
    np.testing.assert_allclose(roots[0], [0.5])


def test_find_switch_times_rejects_values_without_a_node_axis():
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="per time node"):
        find_switch_times(times, np.linspace(-1.0, 1.0, 12).reshape(3, 4))


def test_find_switch_times_zero_plateau_is_singular():
    times = np.linspace(0.0, 1.0, 5)
    vals = np.array([1.0, 0.0, 0.0, 0.0, -1.0])
    with pytest.raises(SingularArcError):
        find_switch_times(times, vals)


def test_find_switch_times_exact_zero_between_opposite_signs_is_that_node():
    times = np.linspace(0.0, 1.0, 6)
    vals = np.array([-1.0, -0.5, 0.0, 0.5, 1.0, 0.5])
    calls = []

    def refine(t, i):
        calls.append(t)
        return 0.0

    roots = find_switch_times(times, vals, refine=refine)
    assert roots[0].tolist() == [times[2]]
    assert calls == []  # a node root needs no polish


def test_find_switch_times_zero_at_node_zero_is_no_root():
    times = np.linspace(0.0, 1.0, 5)
    assert find_switch_times(times, np.array([0.0, -1.0, -2.0, -1.0, -0.5]))[0].size == 0
    assert find_switch_times(times, np.array([0.0, 1.0, 2.0, 1.0, 0.0]))[0].size == 0


def test_find_switch_times_three_node_near_zero_plateau_raises():
    times = np.linspace(0.0, 1.0, 7)
    two = np.array([1.0, 0.5, 1e-14, -1e-14, -0.5, -1.0, -1.5])
    assert len(find_switch_times(times, two)[0]) == 1
    three = np.array([1.0, 0.5, 1e-14, -1e-14, 1e-14, -1.0, -1.5])
    with pytest.raises(SingularArcError) as err:
        find_switch_times(times, np.stack([times - 0.5, three], axis=1))
    assert err.value.component == 1


def _switch_times_by_node_loop(times, col):
    """The node-by-node scan, kept as the reference for the vectorized one."""
    roots = []
    sgn = np.sign(col)
    for j in range(len(times) - 1):
        a, b = col[j], col[j + 1]
        if sgn[j] == 0.0:
            if 0 < j and sgn[j - 1] * sgn[j + 1] < 0:
                roots.append(times[j])
            continue
        if sgn[j + 1] == 0.0 or sgn[j] * sgn[j + 1] > 0:
            continue
        roots.append(times[j] - a * (times[j + 1] - times[j]) / (b - a))
    return np.array(roots)


def test_find_switch_times_matches_the_node_loop():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        times = np.sort(rng.uniform(0.0, 3.0, n))
        col = rng.choice([-1.0, 0.0, 1.0], n) * rng.uniform(0.1, 2.0, n)
        col[np.nonzero(col == 0.0)[0][2::3]] = 0.7  # keep zero runs short
        try:
            roots = find_switch_times(times, col)[0]
        except SingularArcError:
            continue
        assert np.array_equal(roots, _switch_times_by_node_loop(times, col))


def test_find_switch_times_handles_multiple_columns():
    times = np.linspace(0.0, 1.0, 11)
    vals = np.stack([times - 0.37, 0.83 - times], axis=1)
    roots = find_switch_times(times, vals)
    assert len(roots) == 2
    np.testing.assert_allclose(roots[0], [0.37], atol=1e-14)
    np.testing.assert_allclose(roots[1], [0.83], atol=1e-14)


def test_vertex_policy_wealth_sits_at_the_upper_bound(wealth_spec):
    policy, switches, khat_nodes, grid = vertex_policy(wealth_spec, TAU_REF, n_nodes=512)
    assert switches[0].size == 0
    assert np.all(khat_nodes > 0.0)
    assert float(policy.value(0.0)[0]) == 12.5
    assert float(policy.value(TAU_REF - 1e-3)[0]) == 12.5
    # held past tau so the policy stays evaluable on the full horizon
    assert policy.horizon == 20.0
    assert float(policy.value(15.0)[0]) == 12.5
    assert grid.horizon == TAU_REF


def test_vertex_policy_rejects_identically_zero_switching():
    spec = scalar_spec(e2=0.0, e4=0.0)
    with pytest.raises(SingularArcError):
        vertex_policy(spec, 1.0, n_nodes=64)


def test_synthesize_scalar_upper_then_lower():
    spec = scalar_spec()  # a=0.5, b=1, target rows give c1=-1, c2=0.5
    result = synthesize(spec, n_nodes=1024)
    assert result.case_label == "i"
    assert result.slope_at_tau < 0.0
    assert result.iterations >= 1
    switches = result.switch_times[0]
    assert len(switches) == 1

    report = scalar_switch_structure(0.5, 1.0, -1.0, 0.5, result.tau)
    assert report.structure == "upper-then-lower"
    assert abs(switches[0] - report.switch_time) < 1e-8

    t0 = switches[0]
    assert float(result.policy.value(0.5 * t0)[0]) == 1.5
    assert float(result.policy.value(0.5 * (t0 + result.tau))[0]) == 0.2
    assert float(result.policy.value(result.tau, side=-1)[0]) == 0.2

    # the converged tau is a fixed point: re-detect on a finer grid
    mp = solve_mean_path(spec, result.policy, SimGrid(spec.horizon, 8192))
    assert mp.case_label == "i"
    assert abs(mp.tau - result.tau) < 1e-3


def test_synthesize_scalar_converges_in_few_passes():
    result = synthesize(scalar_spec(), n_nodes=1024)
    assert result.iterations <= 8
    assert len(result.history) == result.iterations + 1


def test_synthesize_infeasible_when_the_target_is_out_of_reach():
    with pytest.raises(InfeasibleError):
        synthesize(never_crossing_spec(), n_nodes=128)


def test_synthesize_reports_history_on_exhaustion():
    spec = scalar_spec()
    with pytest.raises(NonConvergenceError) as err:
        synthesize(spec, n_nodes=256, max_iter=1, tol=0.0)
    assert len(err.value.history) == 2
    assert err.value.cycle is False


def test_scalar_structure_constant_upper():
    report = scalar_switch_structure(0.5, 1.0, -1.0, -0.3, 3.0)
    assert report.structure == "constant-upper"
    assert report.switch_time is None
    assert report.realizable


def test_scalar_structure_upper_then_lower_switch_formula():
    report = scalar_switch_structure(0.5, 1.0, -1.0, 0.5, 3.0)
    assert report.structure == "upper-then-lower"
    assert report.realizable
    # t0 = tau - ln(1 - a c2 / (b c1)) / a
    assert abs(report.switch_time - 2.5537128973715806) < 1e-12
    assert report.khat_at_tau == -0.5


def test_scalar_structure_switch_outside_window_degrades_to_constant():
    report = scalar_switch_structure(0.5, 1.0, -1.0, 1.5, 1.0)
    assert report.switch_time is None
    assert report.structure == "constant-lower"
    assert report.realizable


def test_scalar_structure_constant_khat_when_state_row_vanishes():
    report = scalar_switch_structure(0.5, 1.0, 0.0, 0.8, 3.0)
    assert report.structure == "constant-lower"
    assert report.switch_time is None
    assert report.realizable


def test_scalar_structure_lower_then_upper_is_flagged_unrealizable():
    report = scalar_switch_structure(0.5, 1.0, 1.0, -0.5, 3.0)
    assert report.structure == "lower-then-upper"
    assert abs(report.switch_time - 2.5537128973715806) < 1e-12
    assert not report.realizable
    assert report.note != ""


def test_scalar_structure_guards():
    with pytest.raises(SingularArcError):
        scalar_switch_structure(0.5, 1.0, 0.0, 0.0, 3.0)
    with pytest.raises(ValueError):
        scalar_switch_structure(0.0, 1.0, -1.0, 0.5, 3.0)
    with pytest.raises(ValueError):
        scalar_switch_structure(0.5, 1.0, -1.0, 0.5, 0.0)
