import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import scalar_spec
from meantau.errors import SpecValidationError
from meantau.problem import (
    ControlPolicy,
    ControlSegment,
    ControlSet,
    CostSpec,
    LinearDynamics,
    TargetCoefficients,
    perturbed_policy,
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
    np.testing.assert_allclose(cost.terminal(x), [2.0 + 8.0, 0.0])


def test_control_set_midpoint():
    box = ControlSet([0.0, -1.0], [1.0, 1.0])
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
    val = float(policy.values(5.0)[0])
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
            ControlSegment(0.0, 1.0, [1.0, 2.0]),
            ControlSegment(1.0, 2.5, [-0.5, 0.0]),
            ControlSegment(2.5, 6.0, [3.0, 1.0]),
        ]
    ),
    "with exponentials": ControlPolicy(
        [
            ControlSegment(0.0, 1.0, [1.0, 2.0]),
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
    assert policy.values(np.empty(0), side=side).shape == (0, 2)


def test_policy_eval_constant_and_bounds():
    policy = ControlPolicy.constant([3.0], 2.0)
    np.testing.assert_allclose(policy.values(1.3), [3.0])
    np.testing.assert_allclose(policy.values(0.0), [3.0])
    np.testing.assert_allclose(policy.values(2.0), [3.0])
    with pytest.raises(ValueError):
        policy.values(2.0 + 1e-9)
    with pytest.raises(ValueError):
        policy.values(-0.1)


def test_policy_side_semantics_at_breakpoints():
    policy = ControlPolicy(
        [ControlSegment(0.0, 1.0, [2.0]), ControlSegment(1.0, 3.0, [5.0])]
    )
    np.testing.assert_allclose(policy.values(1.0, side=+1), [5.0])
    np.testing.assert_allclose(policy.values(1.0, side=-1), [2.0])
    np.testing.assert_allclose(policy.values(1.0), [5.0])
    # at the horizon only the left limit exists, and either side takes it
    np.testing.assert_allclose(policy.values(3.0), [5.0])
    np.testing.assert_allclose(policy.values(3.0, side=-1), [5.0])
    np.testing.assert_allclose(policy.breakpoints, [0.0, 1.0, 3.0])


def test_policy_values_reject_nan_times():
    policy = ControlPolicy(
        [ControlSegment(0.0, 1.0, [2.0]), ControlSegment(1.0, 3.0, [5.0])]
    )
    combined = perturbed_policy(policy, ControlPolicy.constant([1.0], 3.0), 0.5)
    for p in (policy, combined):
        with pytest.raises(ValueError, match="time outside"):
            p.values(float("nan"))
        with pytest.raises(ValueError, match="time outside"):
            p.values([0.5, float("nan")])
        with pytest.raises(ValueError, match="time outside"):
            p.values(np.array([np.nan]), side=-1)
    np.testing.assert_array_equal(policy.values([0.5, 3.0]), [[2.0], [5.0]])
    np.testing.assert_array_equal(combined.values([0.5, 3.0]), [[2.5], [5.5]])


def test_policy_values_vectorized():
    policy = ControlPolicy(
        [ControlSegment(0.0, 1.0, [2.0]), ControlSegment(1.0, 2.0, [4.0])]
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
        [ControlSegment(0.5, 1.0, [1.0]), ControlSegment(1.2, 2.0, [1.0])]
    )
    msgs = bad.check(horizon=3.0)
    assert any("t_start: must be 0" in s for s in msgs)
    assert any("gap or overlap" in s for s in msgs)
    assert any("horizon" in s for s in msgs)


def test_combined_policy_and_perturbation():
    base = ControlPolicy.constant([1.0], 2.0)
    direction = ControlPolicy(
        [ControlSegment(0.0, 1.0, [0.5]), ControlSegment(1.0, 2.0, [-0.5])]
    )
    pert = perturbed_policy(base, direction, 0.1)
    np.testing.assert_allclose(pert.values(0.5), [1.05])
    np.testing.assert_allclose(pert.values(1.5), [0.95])
    np.testing.assert_allclose(pert.values(1.0, side=-1), [1.05])
    np.testing.assert_allclose(pert.breakpoints, [0.0, 1.0, 2.0])
    with pytest.raises(SpecValidationError):
        perturbed_policy(base, ControlPolicy.constant([1.0], 3.0), 1.0)


@st.composite
def perturbations(draw):
    """A base policy, a direction on its horizon, a rho and the times to compare at."""
    horizon = draw(st.floats(0.5, 10.0))
    k = draw(st.integers(1, 3))

    def entries(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=k, max_size=k))

    def policy():
        inner = st.floats(0.0, horizon, exclude_min=True, exclude_max=True)
        edges = [0.0, *sorted(set(draw(st.lists(inner, max_size=4)))), horizon]
        segments = []
        for a, b in zip(edges[:-1], edges[1:]):
            if draw(st.booleans()):
                segments.append(ControlSegment(a, b, entries(-5.0, 5.0)))
            else:
                segments.append(
                    ControlSegment(a, b, entries(-5.0, 5.0), entries(-5.0, 5.0), entries(-2.0, 2.0))
                )
        return ControlPolicy(segments)

    base, direction = policy(), policy()
    rho = draw(st.floats(-1e3, 1e3))
    ts = draw(st.lists(st.floats(0.0, horizon), max_size=20))
    return base, direction, rho, np.concatenate([ts, base.breakpoints, direction.breakpoints])


@settings(max_examples=100, deadline=None)
@given(perturbations())
def test_perturbed_policy_values_are_base_plus_rho_direction_bit_for_bit(case):
    base, direction, rho, ts = case
    pert = perturbed_policy(base, direction, rho)
    np.testing.assert_array_equal(
        pert.breakpoints, np.union1d(base.breakpoints, direction.breakpoints)
    )
    for side in (+1, -1):
        want = base.values(ts, side=side) + rho * direction.values(ts, side=side)
        got = pert.values(ts, side=side)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for t in np.union1d(base.breakpoints, direction.breakpoints):
            want = base.values(t, side=side) + rho * direction.values(t, side=side)
            assert pert.values(t, side=side).tobytes() == want.tobytes()


def test_validate_accepts_wealth_problem(wealth_spec):
    assert validate(wealth_spec) == []


def test_validate_flags_control_matrix_shape():
    spec = scalar_spec()
    spec.dynamics.B = np.array([[1.0, 0.0]])  # one control, two columns
    spec.dynamics.k = 1
    assert any(v.startswith("dynamics.B") for v in validate(spec))


def test_validate_flags_box_order():
    spec = scalar_spec(lower=2.0, upper=1.0)
    assert any("control_set" in v and "box order" in v for v in validate(spec))


def test_validate_flags_asymmetric_quadratic_weights():
    spec = scalar_spec()
    spec.cost.Lambda = np.array([[1.0]])
    spec.cost.psi_quad = np.array([[1.0]])
    assert validate(spec) == []
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
    assert any("psi_quad" in v and "symmetric" in v for v in validate(spec2))


def test_require_valid_raises_with_paths():
    spec = scalar_spec(horizon=-1.0)
    with pytest.raises(SpecValidationError) as err:
        spec.require_valid()
    assert any("horizon" in v for v in err.value.violations)
