import numpy as np
import pytest

from helpers import scalar_spec
from meantau.errors import SpecValidationError
from meantau.problem import (
    CombinedPolicy,
    ControlPolicy,
    ControlSegment,
    ControlSet,
    CostSpec,
    LinearDynamics,
    TargetCoefficients,
    perturbed_policy,
    policy_eval,
    target_control_row,
    target_state_row,
    validate,
)


def test_dimension_inference():
    dyn = LinearDynamics(
        A=[[0.0, 1.0], [-1.0, 0.0]],
        B=[[0.0], [1.0]],
        C=[[[0.1, 0.0], [0.0, 0.1]]],
        D=[[[0.0], [0.2]]],
        x0=[1.0, 0.0],
    )
    assert (dyn.m, dyn.k, dyn.d) == (2, 1, 1)


def test_drift_and_diffusion_path_shapes():
    dyn = LinearDynamics(
        A=[[0.5, 0.0], [0.0, -0.3]],
        B=[[1.0], [2.0]],
        C=[[[0.1, 0.0], [0.0, 0.1]], [[0.0, 0.2], [0.0, 0.0]]],
        D=[[[0.0], [0.0]], [[0.3], [0.0]]],
        x0=[1.0, 1.0],
    )
    X = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
    u = np.array([0.5])
    b = dyn.drift(X, u)
    assert b.shape == (3, 2)
    np.testing.assert_allclose(b[0], [0.5 * 1 + 0.5, -0.3 * 2 + 1.0])
    sig = dyn.diffusion(X, u)
    assert sig.shape == (3, 2, 2)
    np.testing.assert_allclose(sig[1, :, 0], [0.3, 0.4])
    np.testing.assert_allclose(sig[1, :, 1], [0.2 * 4 + 0.3 * 0.5, 0.0])


def test_target_rows():
    spec = scalar_spec(a=0.4, e1=0.2, e2=-1.0, e3=0.5, e4=0.3, b=2.0)
    np.testing.assert_allclose(
        target_state_row(spec.target, spec.dynamics), [0.2 - 1.0 + 0.5 * 0.4]
    )
    np.testing.assert_allclose(
        target_control_row(spec.target, spec.dynamics), [0.5 * 2.0 + 0.3]
    )


def test_cost_values_and_gradients():
    cost = CostSpec(kappa=1.0, c_lin=[0.5], Lambda=[[2.0]], psi_lin=[1.0], psi_quad=[[4.0]])
    x = np.array([[2.0], [0.0]])
    u = np.array([3.0])
    np.testing.assert_allclose(cost.running(x, u), [1 + 1.0 + 9.0, 1 + 9.0])
    np.testing.assert_allclose(cost.running_grad_u(u), [6.0])
    np.testing.assert_allclose(cost.terminal(x), [2.0 + 8.0, 0.0])
    np.testing.assert_allclose(cost.terminal_grad(x), [[9.0], [1.0]])
    assert not cost.is_time_optimal
    assert CostSpec.time_optimal(2, 1).is_time_optimal


def test_control_set_membership():
    box = ControlSet([0.0, -1.0], [1.0, 1.0])
    assert box.contains([0.5, 0.0])
    assert not box.contains([1.5, 0.0])
    assert box.contains([1.0 + 1e-12, 0.0], tol=1e-9)
    np.testing.assert_allclose(box.midpoint(), [0.5, 0.0])


def test_control_set_maximizer_takes_the_lower_bound_on_a_tie():
    box = ControlSet([0.0, -1.0], [1.0, 1.0])
    np.testing.assert_array_equal(box.maximizer([2.0, -3.0]), [1.0, -1.0])
    np.testing.assert_array_equal(
        box.maximizer([[0.0, 0.5], [-0.0, -1e-300]]), [[0.0, 1.0], [0.0, -1.0]]
    )


def test_policy_eval_matches_hand_computed_exponential():
    # one falling-exponential segment, anchored so u(t) = 8.5 e^{0.05 (10.92 - t)}
    seg = ControlSegment(0.0, 10.92, [0.0], [8.5 * np.exp(0.05 * 10.92)], [-0.05])
    policy = ControlPolicy([seg])
    val = float(policy_eval(policy, 5.0)[0])
    assert abs(val - 11.42799633307245) < 1e-12
    assert abs(val - 11.428) < 5e-4


def broadcast_values(policy, ts, side=+1):
    """The reference formula: (n, 1) x (n, k) broadcasts over gathered (n, k) rows."""
    ts = np.asarray(ts, dtype=float)
    tarr = np.atleast_1d(ts)
    g0 = np.stack([s.gamma0 for s in policy.segments])
    g1 = np.stack([s.gamma1 for s in policy.segments])
    g2 = np.stack([s.gamma2 for s in policy.segments])
    idx = policy._segment_index(tarr, side)
    out = g0[idx] + g1[idx] * np.exp(g2[idx] * tarr[:, None])
    return out[0] if ts.ndim == 0 else out


VALUE_POLICIES = {
    "constant": ControlPolicy.constant([1.5, -0.25], 6.0),
    "multi-segment constant": ControlPolicy(
        [
            ControlSegment.constant(0.0, 1.0, [1.0, 2.0]),
            ControlSegment.constant(1.0, 2.5, [-0.5, 0.0]),
            ControlSegment.constant(2.5, 6.0, [3.0, 1.0]),
        ]
    ),
    "with exponentials": ControlPolicy(
        [
            ControlSegment.constant(0.0, 1.0, [1.0, 2.0]),
            ControlSegment(1.0, 2.0, [0.5, -1.0], [0.3, 2.0], [-0.7, 0.2]),
            ControlSegment(2.0, 6.0, [0.0, 1.0], [1e-3, -2.0], [1.1, 0.0]),
        ]
    ),
}


@pytest.mark.parametrize("name", list(VALUE_POLICIES))
@pytest.mark.parametrize("side", [+1, -1])
def test_policy_values_equal_the_broadcast_formula(name, side):
    policy = VALUE_POLICIES[name]
    ts = np.concatenate([np.linspace(0.0, 6.0, 40_001), policy.breakpoints, [0.0, 6.0]])
    got = policy.values(ts, side=side)
    assert got.shape == (len(ts), 2) and got.flags.c_contiguous
    np.testing.assert_array_equal(got, broadcast_values(policy, ts, side))
    strided = ts[::-3]
    np.testing.assert_array_equal(
        policy.values(strided, side=side), broadcast_values(policy, strided, side)
    )
    for t in (0.0, 1.0, 2.0, 2.5, 3.7, 6.0):
        got = policy.values(t, side=side)
        assert got.shape == (2,)
        np.testing.assert_array_equal(got, broadcast_values(policy, t, side))
        np.testing.assert_array_equal(policy.value(t, side=side), got)
    assert policy.values(np.empty(0), side=side).shape == (0, 2)


def test_policy_eval_constant_and_bounds():
    policy = ControlPolicy.constant([3.0], 2.0)
    np.testing.assert_allclose(policy_eval(policy, 1.3), [3.0])
    np.testing.assert_allclose(policy_eval(policy, 0.0), [3.0])
    np.testing.assert_allclose(policy_eval(policy, 2.0), [3.0])
    with pytest.raises(ValueError):
        policy_eval(policy, 2.0 + 1e-9)
    with pytest.raises(ValueError):
        policy_eval(policy, -0.1)


def test_policy_side_semantics_at_breakpoints():
    policy = ControlPolicy(
        [ControlSegment.constant(0.0, 1.0, [2.0]), ControlSegment.constant(1.0, 3.0, [5.0])]
    )
    np.testing.assert_allclose(policy.value(1.0, side=+1), [5.0])
    np.testing.assert_allclose(policy.value(1.0, side=-1), [2.0])
    np.testing.assert_allclose(policy_eval(policy, 1.0), [5.0])
    # at the horizon only the left limit exists
    np.testing.assert_allclose(policy_eval(policy, 3.0), [5.0])
    np.testing.assert_allclose(policy.breakpoints, [0.0, 1.0, 3.0])


def test_policy_values_vectorized():
    policy = ControlPolicy(
        [ControlSegment.constant(0.0, 1.0, [2.0]), ControlSegment.constant(1.0, 2.0, [4.0])]
    )
    out = policy.values(np.array([0.0, 0.5, 1.0, 1.5]), side=+1)
    np.testing.assert_allclose(out[:, 0], [2.0, 2.0, 4.0, 4.0])
    out = policy.values(np.array([1.0, 2.0]), side=-1)
    np.testing.assert_allclose(out[:, 0], [2.0, 4.0])
    with pytest.raises(ValueError):
        policy.values(np.array([0.0, 2.5]))


def test_policy_partition_checks():
    with pytest.raises(SpecValidationError):
        ControlPolicy([])
    bad = ControlPolicy(
        [ControlSegment.constant(0.5, 1.0, [1.0]), ControlSegment.constant(1.2, 2.0, [1.0])]
    )
    msgs = bad.check(horizon=3.0)
    assert any("t_start: must be 0" in s for s in msgs)
    assert any("gap or overlap" in s for s in msgs)
    assert any("horizon" in s for s in msgs)


def test_combined_policy_and_perturbation():
    base = ControlPolicy.constant([1.0], 2.0)
    direction = ControlPolicy(
        [ControlSegment.constant(0.0, 1.0, [0.5]), ControlSegment.constant(1.0, 2.0, [-0.5])]
    )
    pert = perturbed_policy(base, direction, 0.1)
    np.testing.assert_allclose(pert.value(0.5), [1.05])
    np.testing.assert_allclose(pert.value(1.5), [0.95])
    np.testing.assert_allclose(pert.value(1.0, side=-1), [1.05])
    np.testing.assert_allclose(pert.breakpoints, [0.0, 1.0, 2.0])
    with pytest.raises(SpecValidationError):
        CombinedPolicy([base, ControlPolicy.constant([1.0], 3.0)], [1.0, 1.0])
    with pytest.raises(SpecValidationError):
        CombinedPolicy([base], [1.0, 2.0])


def test_validate_accepts_wealth_problem(wealth_spec):
    report = validate(wealth_spec)
    assert report.ok and report.violations == []


def test_validate_flags_control_matrix_shape():
    spec = scalar_spec()
    spec.dynamics.B = np.array([[1.0, 0.0]])  # one control, two columns
    spec.dynamics.k = 1
    report = validate(spec)
    assert not report.ok
    assert any(v.startswith("dynamics.B") for v in report.violations)


def test_validate_flags_box_order():
    spec = scalar_spec(lower=2.0, upper=1.0)
    report = validate(spec)
    assert not report.ok
    assert any("control_set" in v and "box order" in v for v in report.violations)


def test_validate_flags_asymmetric_quadratic_weights():
    spec = scalar_spec()
    spec.cost.Lambda = np.array([[1.0]])
    spec.cost.psi_quad = np.array([[1.0]])
    ok = validate(spec)
    assert ok.ok
    spec2 = scalar_spec()
    spec2.dynamics = LinearDynamics(
        A=np.zeros((2, 2)), B=[[1.0], [0.0]], C=[], D=[], x0=[0.0, 0.0]
    )
    spec2.target = TargetCoefficients(
        E1=[0.0, 0.0], E2=[-1.0, 0.0], E3=[0.0, 0.0], E4=[0.0], y0=1.0
    )
    spec2.cost = CostSpec(
        kappa=1.0,
        c_lin=np.zeros(2),
        Lambda=[[0.0]],
        psi_lin=np.zeros(2),
        psi_quad=[[1.0, 0.5], [0.0, 1.0]],
    )
    report = validate(spec2)
    assert any("psi_quad" in v and "symmetric" in v for v in report.violations)


def test_validate_collects_policy_violations():
    spec = scalar_spec()
    policy = ControlPolicy([ControlSegment.constant(0.0, 5.0, [1.0, 2.0])])
    report = validate(spec, policy)
    assert not report.ok
    assert any("control dimension" in v for v in report.violations)


def test_require_valid_raises_with_paths():
    spec = scalar_spec(horizon=-1.0)
    with pytest.raises(SpecValidationError) as err:
        spec.require_valid()
    assert any("horizon" in v for v in err.value.violations)
