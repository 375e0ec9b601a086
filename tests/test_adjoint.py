import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import scalar_spec
from meantau.adjoint import (
    _exp_with_integral_powers,
    _refine,
    exp_with_integral,
    hamiltonian,
    hamiltonian_du,
    solve_adjoints,
    solve_cost_adjoint,
    solve_time_adjoint,
    target_hamiltonian_du,
    target_slope_at_tau,
    time_adjoint_closed_form,
)
from meantau.errors import AssumptionViolationError, NumericalConsistencyError
from meantau.problem import CostSpec, LinearDynamics, TargetCoefficients
from meantau.simulate import SimGrid, _run_starts


def test_exp_with_integral_scalar_identities():
    E, I = exp_with_integral(np.array([[0.3]]), 2.0)
    assert E[0, 0] == pytest.approx(np.exp(0.6), rel=1e-14)
    assert I[0, 0] == pytest.approx((np.exp(0.6) - 1.0) / 0.3, rel=1e-14)
    E0, I0 = exp_with_integral(np.zeros((2, 2)), 1.5)
    np.testing.assert_allclose(E0, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(I0, 1.5 * np.eye(2), atol=1e-15)


def test_time_adjoint_scalar_closed_form():
    a, e1, e2, e3 = 0.4, 0.1, -1.0, 0.2
    spec = scalar_spec(a=a, e1=e1, e2=e2, e3=e3)
    tau = 2.5
    ts = np.linspace(0.0, tau, 11)
    p0 = time_adjoint_closed_form(spec.dynamics, spec.target, tau, ts)
    row = e1 + e2 + e3 * a
    expect = (row / a) * (1.0 - np.exp(a * (tau - ts)))
    np.testing.assert_allclose(p0[:, 0], expect, rtol=0, atol=1e-12)
    assert p0[-1, 0] == 0.0


def test_time_adjoint_wealth_coefficients(wealth_spec, tau_solution):
    tau = tau_solution.tau
    ts = np.linspace(0.0, tau, 9)
    p0 = time_adjoint_closed_form(wealth_spec.dynamics, wealth_spec.target, tau, ts)
    np.testing.assert_allclose(p0[:, 0], np.exp(0.05 * (tau - ts)) - 1.0, atol=1e-12)


def test_time_adjoint_zero_feedback_is_linear_ramp():
    spec = scalar_spec(a=0.0, e1=0.2, e2=-0.5, e3=0.0)
    tau = 3.0
    ts = np.linspace(0.0, tau, 7)
    p0 = time_adjoint_closed_form(spec.dynamics, spec.target, tau, ts)
    np.testing.assert_allclose(p0[:, 0], -(0.2 - 0.5) * (tau - ts), atol=1e-13)


def test_solve_time_adjoint_cross_checks_routes():
    spec = scalar_spec(a=0.7)
    sol = solve_time_adjoint(spec.dynamics, spec.target, 2.0, SimGrid(2.0, 64))
    assert sol.q0_is_zero and sol.q_is_zero
    assert sol.tau_anchor == 2.0
    assert sol.p0[-1, 0] == 0.0
    np.testing.assert_allclose(sol.p, 0.0)
    # demanding exact agreement between the two routes must fail
    with pytest.raises(NumericalConsistencyError):
        solve_time_adjoint(spec.dynamics, spec.target, 2.0, SimGrid(2.0, 64), cross_check_tol=0.0)


def test_refine_splits_long_intervals_only():
    fine, idx = _refine(np.array([0.0, 0.25, 1.0]), 0.3)
    np.testing.assert_array_equal(fine, [0.0, 0.25, 0.5, 0.75, 1.0])
    np.testing.assert_array_equal(idx, [0, 1, 4])
    # the backward route's grid: steps within rounding of max_h stay whole,
    # so the backward RK4 solve is one run of the prefix scan
    tau = 1.2447813331938
    grid = SimGrid(tau, 2048)
    s_nodes = tau - grid.times()[::-1]
    fine, idx = _refine(s_nodes, grid.dt)
    np.testing.assert_array_equal(fine, s_nodes)
    np.testing.assert_array_equal(idx, np.arange(len(s_nodes)))
    assert len(_run_starts(fine)) == 1


def test_solve_time_adjoint_rejects_grid_past_tau():
    spec = scalar_spec()
    with pytest.raises(ValueError):
        solve_time_adjoint(spec.dynamics, spec.target, 1.0, SimGrid(2.0, 10))


def test_cost_adjoint_time_optimal_vanishes(wealth_spec, tau_solution):
    grid = SimGrid(tau_solution.tau, 32)
    sol = solve_adjoints(wealth_spec, tau_solution.tau, grid)
    np.testing.assert_allclose(sol.p, 0.0)


def test_cost_adjoint_scalar_closed_form():
    # p' = -a p + c with p(tau) = -(psi1 + psi2 xbar)
    a, c, psi1, psi2, xbar = 0.3, 0.4, 0.7, 0.2, 1.5
    dyn = LinearDynamics(A=[[a]], B=[[1.0]], C=[], D=[], x0=[1.0])
    cost = CostSpec(kappa=0.0, c_lin=[c], Lambda=[[0.0]], psi_lin=[psi1], psi_quad=[[psi2]])
    tau = 2.0
    grid = SimGrid(tau, 8)
    p = solve_cost_adjoint(dyn, cost, tau, grid, np.array([xbar]))
    ts = grid.times()
    p_tau = -(psi1 + psi2 * xbar)
    expect = np.exp(a * (tau - ts)) * p_tau - (np.exp(a * (tau - ts)) - 1.0) / a * c
    np.testing.assert_allclose(p[:, 0], expect, atol=1e-12)


def test_solve_adjoints_needs_terminal_mean_for_state_costs():
    cost = CostSpec(kappa=0.0, c_lin=[0.0], Lambda=[[0.0]], psi_lin=[1.0], psi_quad=[[0.0]])
    spec = scalar_spec(cost=cost)
    with pytest.raises(ValueError):
        solve_adjoints(spec, 1.0, SimGrid(1.0, 8))


def test_hamiltonian_gradient_matches_finite_differences():
    dyn = LinearDynamics(
        A=[[0.2, 0.1], [0.0, -0.3]],
        B=[[1.0, 0.0], [0.5, 1.0]],
        C=[[[0.1, 0.0], [0.0, 0.1]]],
        D=[[[0.2, 0.0], [0.0, 0.3]]],
        x0=[1.0, 1.0],
    )
    cost = CostSpec(
        kappa=1.0,
        c_lin=[0.3, -0.2],
        Lambda=[[2.0, 0.5], [0.5, 1.0]],
        psi_lin=[0.0, 0.0],
        psi_quad=np.zeros((2, 2)),
    )
    x = np.array([0.7, -0.4])
    u = np.array([0.3, 0.9])
    p = np.array([1.1, -0.6])
    q = np.array([[0.2], [0.4]])
    grad = hamiltonian_du(x, u, p, q, dyn, cost)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (hamiltonian(x, u + e, p, q, dyn, cost) - hamiltonian(x, u - e, p, q, dyn, cost)) / (
            2 * h
        )
        assert abs(grad[i] - fd) < 1e-6 * max(1.0, abs(fd))


def test_hamiltonian_gradient_zero_cases(wealth_spec):
    dyn = wealth_spec.dynamics
    lam = wealth_spec.cost.Lambda[0, 0]
    out = hamiltonian_du(np.array([1.0]), np.array([3.0]), np.zeros(1), None, dyn, wealth_spec.cost)
    assert out[0] == pytest.approx(-lam * 3.0, rel=1e-14)
    free = CostSpec(kappa=1.0, c_lin=[0.0], Lambda=[[0.0]], psi_lin=[0.0], psi_quad=[[0.0]])
    out = hamiltonian_du(np.array([1.0]), np.array([3.0]), np.zeros(1), None, dyn, free)
    assert out[0] == 0.0


def test_hamiltonian_gradient_is_affine_in_control():
    spec = scalar_spec(
        cost=CostSpec(kappa=1.0, c_lin=[0.0], Lambda=[[2.0]], psi_lin=[0.0], psi_quad=[[0.0]])
    )
    base = hamiltonian_du(np.zeros(1), np.zeros(1), np.array([0.5]), None, spec.dynamics, spec.cost)
    for alpha in (0.5, 1.0, 2.0, -3.0):
        out = hamiltonian_du(
            np.zeros(1), alpha * np.ones(1), np.array([0.5]), None, spec.dynamics, spec.cost
        )
        assert out[0] - base[0] == pytest.approx(alpha * -2.0, rel=1e-12)


def test_target_gradient_wealth_closed_form(wealth_spec, tau_solution):
    tau = tau_solution.tau
    ts = np.linspace(0.0, tau, 33)
    p0 = time_adjoint_closed_form(wealth_spec.dynamics, wealth_spec.target, tau, ts)
    khat = target_hamiltonian_du(p0, wealth_spec.dynamics, wealth_spec.target)
    np.testing.assert_allclose(khat[:, 0], 0.05 * np.exp(0.05 * (tau - ts)), atol=1e-12)


def test_target_gradient_terminal_value_is_control_row():
    rng = np.random.default_rng(17)
    for _ in range(10):
        a, b = rng.normal(), rng.normal()
        e3, e4 = rng.normal(), rng.normal()
        spec = scalar_spec(a=a, b=b, e3=e3, e4=e4)
        khat_tau = target_hamiltonian_du(
            np.zeros(1), spec.dynamics, spec.target
        )
        assert khat_tau[0] == pytest.approx(-(e3 * b + e4), rel=1e-13, abs=1e-13)


def test_target_slope_values_and_guards(wealth_spec):
    slope = target_slope_at_tau(
        wealth_spec.target, wealth_spec.dynamics, np.array([10.0]), np.array([10.0])
    )
    assert slope == pytest.approx(-1.0, rel=1e-14)
    # direct arithmetic case
    spec = scalar_spec(a=0.0, e1=1.0, e2=0.0, e3=0.0, e4=0.0)
    assert target_slope_at_tau(spec.target, spec.dynamics, [2.0], [0.0]) == pytest.approx(2.0)
    # all rows zero: the hit cannot be transversal
    flat = scalar_spec(e1=0.0, e2=0.0, e3=0.0, e4=0.0)
    with pytest.raises(AssumptionViolationError):
        target_slope_at_tau(flat.target, flat.dynamics, [1.0], [1.0])


def test_target_slope_regularization_warns_instead_of_raising():
    spec = scalar_spec(e1=0.0, e2=1.0, e3=0.0, e4=0.0)
    with pytest.warns(RuntimeWarning):
        g = target_slope_at_tau(
            spec.target, spec.dynamics, [-1e-6], [0.0], eps_regularize=1e-6
        )
    assert g == pytest.approx(0.0, abs=1e-18)


def test_randomized_closed_form_vs_backward_integration():
    rng = np.random.default_rng(42)
    for _ in range(5):
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(m, m))
        norm = np.linalg.norm(A, 2)
        target_norm = rng.uniform(0.2, 5.0)
        A *= target_norm / norm
        tau = rng.uniform(0.5, min(8.0, 6.0 / target_norm))
        dyn = LinearDynamics(A=A, B=rng.normal(size=(m, 1)), C=[], D=[], x0=np.zeros(m))
        tgt = TargetCoefficients(
            E1=rng.normal(size=m),
            E2=rng.normal(size=m),
            E3=rng.normal(size=m),
            E4=rng.normal(size=1),
            y0=1.0,
        )
        sol = solve_time_adjoint(dyn, tgt, tau, SimGrid(tau, 64), cross_check_tol=1e-8)
        assert np.all(np.abs(sol.p0[-1]) == 0.0)


def test_solve_time_adjoint_keeps_the_route_gap():
    spec = scalar_spec(a=0.7)
    sol = solve_time_adjoint(spec.dynamics, spec.target, 2.0, SimGrid(2.0, 64))
    assert 0.0 < sol.cross_check_gap < 1e-6 * max(1.0, float(np.max(np.abs(sol.p0))))


def test_grid_ending_before_tau_adds_the_lead():
    spec = scalar_spec(a=0.7)
    grid = SimGrid(1.3, 16)
    on_grid = time_adjoint_closed_form(spec.dynamics, spec.target, 2.0, grid)
    per_node = time_adjoint_closed_form(spec.dynamics, spec.target, 2.0, grid.times())
    np.testing.assert_allclose(on_grid, per_node, rtol=0.0, atol=1e-13)


# Randomized systems for the grid route: m in {1, 2, 3}, entries in [-2, 2]
# and grids of n steps spanning at most 2 time units, so that |A| * span
# stays below 12 and the per-node expm used as the reference is accurate
# to well below the tolerance.  A grid node j*h is one augmented
# exponential raised to the power j; the tolerance 1e-12 * max(1, |block|)
# allows the j-fold growth of that exponential's double round-off.
_SIZES = st.sampled_from([1, 2, 3])
_STEPS = st.sampled_from([1, 2, 3, 7, 64, 4097])
_SPAN = st.floats(min_value=1e-3, max_value=2.0)


def _entries(shape):
    return arrays(np.float64, shape, elements=st.floats(min_value=-2.0, max_value=2.0))


def _system(data, m):
    A = data.draw(_entries((m, m)))
    dyn = LinearDynamics(A=A, B=data.draw(_entries((m, 1))), C=[], D=[], x0=np.zeros(m))
    tgt = TargetCoefficients(
        E1=data.draw(_entries(m)), E2=data.draw(_entries(m)), E3=data.draw(_entries(m)),
        E4=data.draw(_entries(1)), y0=1.0,
    )
    return dyn, tgt


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=_SIZES, n=_STEPS, span=_SPAN)
def test_grid_powers_match_per_node_exponentials(data, m, n, span):
    A = data.draw(_entries((m, m)))
    h = span / n
    E, I = _exp_with_integral_powers(A, h, n)
    assert E.shape == I.shape == (n + 1, m, m)
    for j in range(n + 1):
        e_ref, i_ref = exp_with_integral(A, j * h)
        for block, ref in ((E[j], e_ref), (I[j], i_ref)):
            tol = 1e-12 * max(1.0, float(np.linalg.norm(ref)))
            assert np.max(np.abs(block - ref)) <= tol, (j, block, ref)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), m=_SIZES, n=_STEPS, span=_SPAN)
def test_grid_adjoints_match_the_per_node_route(data, m, n, span):
    dyn, tgt = _system(data, m)
    cost = CostSpec(
        kappa=0.0, c_lin=data.draw(_entries(m)), Lambda=[[0.0]],
        psi_lin=data.draw(_entries(m)), psi_quad=data.draw(_entries((m, m))),
    )
    mean_x_tau = data.draw(_entries(m))
    tau = span
    grid = SimGrid(tau, n)
    times = grid.times()
    # the per-node route of solve_cost_adjoint: blocks of A', one per node
    blocks = [exp_with_integral(dyn.A.T, tau - t) for t in times]
    size = max(1.0, max(float(np.linalg.norm(b)) for pair in blocks for b in pair))

    # bound each route's difference by the block tolerance times the weights
    row = tgt.E1 + tgt.E2 + tgt.E3 @ dyn.A
    p0 = time_adjoint_closed_form(dyn, tgt, tau, grid)
    p0_ref = time_adjoint_closed_form(dyn, tgt, tau, times)
    assert np.max(np.abs(p0 - p0_ref)) <= 1e-12 * size * max(1.0, np.sum(np.abs(row)))

    p = solve_cost_adjoint(dyn, cost, tau, grid, mean_x_tau)
    p_tau = -(cost.psi_lin + cost.psi_quad @ mean_x_tau)
    p_ref = np.array([e_t @ p_tau - i_t @ cost.c_lin for e_t, i_t in blocks])
    weight = max(1.0, np.sum(np.abs(p_tau)) + np.sum(np.abs(cost.c_lin)))
    assert np.max(np.abs(p - p_ref)) <= 1e-12 * size * weight
