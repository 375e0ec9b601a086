import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import hamiltonian, scalar_spec, time_adjoint_at
from meantau import adjoint, simulate
from meantau.adjoint import (
    _backward_affine,
    exp_with_integral,
    hamiltonian_du,
    khat_evaluator,
    solve_cost_adjoint,
    solve_time_adjoint,
    target_hamiltonian_du,
    target_slope_at_tau,
    time_adjoint_closed_form,
)
from meantau.errors import AssumptionViolationError, NumericalConsistencyError
from meantau.problem import ControlPolicy, CostSpec, LinearDynamics, TargetCoefficients
from meantau.simulate import SimGrid, _affine_path, _run_starts


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
    grid = SimGrid(tau, 10)
    ts = grid.times()
    row = e1 + e2 + e3 * a
    expect = (row / a) * (1.0 - np.exp(a * (tau - ts)))
    for p0 in (
        time_adjoint_closed_form(spec.dynamics, spec.target, grid),
        time_adjoint_at(spec.dynamics, spec.target, tau, np.linspace(0.0, tau, 11)),
    ):
        np.testing.assert_allclose(p0[:, 0], expect, rtol=0, atol=1e-12)
        assert p0[-1, 0] == 0.0


def test_time_adjoint_wealth_coefficients(wealth_spec, tau_solution):
    tau = tau_solution.tau
    grid = SimGrid(tau, 8)
    p0 = time_adjoint_closed_form(wealth_spec.dynamics, wealth_spec.target, grid)
    np.testing.assert_allclose(p0[:, 0], np.exp(0.05 * (tau - grid.times())) - 1.0, atol=1e-12)


def test_time_adjoint_zero_feedback_is_linear_ramp():
    spec = scalar_spec(a=0.0, e1=0.2, e2=-0.5, e3=0.0)
    tau = 3.0
    grid = SimGrid(tau, 6)
    p0 = time_adjoint_closed_form(spec.dynamics, spec.target, grid)
    np.testing.assert_allclose(p0[:, 0], -(0.2 - 0.5) * (tau - grid.times()), atol=1e-13)


def test_khat_at_one_time_is_the_pointwise_adjoint():
    # Khat(t) = p0(t)'B - (E3 B + E4), p0 from one augmented exponential at t
    spec = scalar_spec(a=0.7, b=1.3, e1=0.1, e2=-1.0, e3=0.2, e4=0.5)
    dyn, tgt = spec.dynamics, spec.target
    khat = khat_evaluator(dyn, tgt, 2.0)
    for t in (0.0, 0.37, 1.0, 1.999, 2.0):
        p0 = time_adjoint_at(dyn, tgt, 2.0, [t])[0]
        np.testing.assert_array_equal(khat(t), target_hamiltonian_du(p0, dyn, tgt))


def test_solve_time_adjoint_cross_checks_routes(monkeypatch):
    spec = scalar_spec(a=0.7)
    p0, _ = solve_time_adjoint(spec.dynamics, spec.target, SimGrid(2.0, 64))
    assert p0[-1, 0] == 0.0
    # demanding exact agreement between the two routes must fail
    monkeypatch.setattr(adjoint, "_CROSS_CHECK_TOL", 0.0)
    with pytest.raises(NumericalConsistencyError):
        solve_time_adjoint(spec.dynamics, spec.target, SimGrid(2.0, 64))


def reference_constant_forcing(M, c, edges):
    """RK4 forcing rows of z' = M z + c over the sub-intervals of `edges`.

    Every stage reads the constant c itself: the reference for a constant
    source that the kernel takes as a policy through a matrix F.
    """
    hs = np.diff(edges)[:, None]
    f = np.broadcast_to(c, (len(hs), len(c)))
    k2 = 0.5 * hs * (f @ M.T) + f
    k3 = 0.5 * hs * (k2 @ M.T) + f
    k4 = hs * (k3 @ M.T) + f
    return (hs / 6.0) * (f + 2.0 * k2 + 2.0 * k3 + k4)


def test_refine_splits_long_intervals_only(monkeypatch):
    seen = []  # the fine grids `_backward_affine` hands to `_affine_path`

    def spy(M, F, policy, times, z0):
        seen.append(times)
        return _affine_path(M, F, policy, times, z0)

    monkeypatch.setattr(adjoint, "_affine_path", spy)
    A, source, terminal = np.array([[0.3, 1.0], [-0.5, -0.2]]), np.array([0.7, -0.4]), np.zeros(2)
    # r = 1: the backward route's grid is the grid itself, so the backward
    # RK4 solve is one run of the prefix scan
    tau = 1.2447813331938
    grid = SimGrid(tau, 2048)
    times = grid.times()
    s_nodes = tau - times[::-1]
    got = _backward_affine(A, source, terminal, times, 1)
    (fine,) = seen
    np.testing.assert_array_equal(fine, s_nodes)
    assert len(_run_starts(fine)) == 1
    # the constant source, driven through F = -I, is the forcing -source
    # to the bit: products with -1 and 0 are exact
    minus_eye = -np.eye(2)
    direct = _affine_path(A.T, minus_eye, ControlPolicy.constant(source, tau), s_nodes, terminal)
    np.testing.assert_array_equal(got, direct[::-1])
    r = simulate._stage_forcing(A.T, minus_eye, ControlPolicy.constant(source, tau), s_nodes)
    np.testing.assert_array_equal(r, reference_constant_forcing(A.T, -source, s_nodes))
    # r = 3 cuts every step into the same 3 pieces, and the coarse nodes
    # are those of a solve on the fine grid
    grid = SimGrid(2.0, 16)
    times = grid.times()
    got = _backward_affine(A, source, terminal, times, 3)
    fine = seen[-1]
    assert len(fine) == 3 * 16 + 1
    np.testing.assert_array_equal(fine[::3], 2.0 - times[::-1])
    direct = _affine_path(A.T, minus_eye, ControlPolicy.constant(source, 2.0),
                          2.0 - SimGrid(2.0, 48).times()[::-1], terminal)
    np.testing.assert_allclose(got, direct[::3][::-1], rtol=0, atol=1e-14)


def test_cost_adjoint_time_optimal_vanishes(wealth_spec, tau_solution):
    grid = SimGrid(tau_solution.tau, 32)
    p = solve_cost_adjoint(wealth_spec.dynamics, wealth_spec.cost, grid, np.array([10.0]))
    np.testing.assert_allclose(p, 0.0)


def test_cost_adjoint_scalar_closed_form():
    # p' = -a p + c with p(tau) = -(psi1 + psi2 xbar)
    a, c, psi1, psi2, xbar = 0.3, 0.4, 0.7, 0.2, 1.5
    dyn = LinearDynamics(A=[[a]], B=[[1.0]], C=[], D=[], x0=[1.0])
    cost = CostSpec(kappa=0.0, c_lin=[c], Lambda=[[0.0]], psi_lin=[psi1], psi_quad=[[psi2]])
    tau = 2.0
    grid = SimGrid(tau, 8)
    p = solve_cost_adjoint(dyn, cost, grid, np.array([xbar]))
    ts = grid.times()
    p_tau = -(psi1 + psi2 * xbar)
    expect = np.exp(a * (tau - ts)) * p_tau - (np.exp(a * (tau - ts)) - 1.0) / a * c
    np.testing.assert_allclose(p[:, 0], expect, atol=1e-12)


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
    grad = hamiltonian_du(u, p, dyn, cost)
    h = 1e-6
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (hamiltonian(x, u + e, p, dyn, cost) - hamiltonian(x, u - e, p, dyn, cost)) / (2 * h)
        assert abs(grad[i] - fd) < 1e-6 * max(1.0, abs(fd))
    # rows of u and p, one per time node, as check_candidate passes them
    rows = hamiltonian_du(np.stack([u, -u]), np.stack([p, 2.0 * p]), dyn, cost)
    np.testing.assert_allclose(rows, [grad, hamiltonian_du(-u, 2.0 * p, dyn, cost)], rtol=1e-15)


def test_hamiltonian_gradient_zero_cases(wealth_spec):
    dyn = wealth_spec.dynamics
    lam = wealth_spec.cost.Lambda[0, 0]
    out = hamiltonian_du(np.array([3.0]), np.zeros(1), dyn, wealth_spec.cost)
    assert out[0] == pytest.approx(-lam * 3.0, rel=1e-14)
    free = CostSpec(kappa=1.0, c_lin=[0.0], Lambda=[[0.0]], psi_lin=[0.0], psi_quad=[[0.0]])
    out = hamiltonian_du(np.array([3.0]), np.zeros(1), dyn, free)
    assert out[0] == 0.0


def test_hamiltonian_gradient_is_affine_in_control():
    spec = scalar_spec(
        cost=CostSpec(kappa=1.0, c_lin=[0.0], Lambda=[[2.0]], psi_lin=[0.0], psi_quad=[[0.0]])
    )
    base = hamiltonian_du(np.zeros(1), np.array([0.5]), spec.dynamics, spec.cost)
    for alpha in (0.5, 1.0, 2.0, -3.0):
        out = hamiltonian_du(alpha * np.ones(1), np.array([0.5]), spec.dynamics, spec.cost)
        assert out[0] - base[0] == pytest.approx(alpha * -2.0, rel=1e-12)


def test_target_gradient_wealth_closed_form(wealth_spec, tau_solution):
    tau = tau_solution.tau
    grid = SimGrid(tau, 32)
    p0 = time_adjoint_closed_form(wealth_spec.dynamics, wealth_spec.target, grid)
    khat = target_hamiltonian_du(p0, wealth_spec.dynamics, wealth_spec.target)
    np.testing.assert_allclose(khat[:, 0], 0.05 * np.exp(0.05 * (tau - grid.times())), atol=1e-12)


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


def test_target_slope_floor_is_1e_8():
    # only u(tau) drives the slope here: E4 u = E4
    steep, flat = scalar_spec(e2=0.0, e4=-1e-6), scalar_spec(e2=0.0, e4=-1e-9)
    assert target_slope_at_tau(steep.target, steep.dynamics, [0.0], [1.0]) == -1e-6
    with pytest.raises(AssumptionViolationError, match="within 1e-08 of zero"):
        target_slope_at_tau(flat.target, flat.dynamics, [0.0], [1.0])


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
        p0, gap = solve_time_adjoint(dyn, tgt, SimGrid(tau, 64))
        assert gap <= 1e-8 * max(1.0, float(np.max(np.abs(p0))))
        assert np.all(np.abs(p0[-1]) == 0.0)


def test_solve_time_adjoint_keeps_the_route_gap():
    spec = scalar_spec(a=0.7)
    p0, gap = solve_time_adjoint(spec.dynamics, spec.target, SimGrid(2.0, 64))
    assert 0.0 < gap < 1e-6 * max(1.0, float(np.max(np.abs(p0))))


@pytest.mark.parametrize("horizon", [1.3, 2.5])
def test_the_adjoints_are_anchored_at_the_end_of_their_grid(horizon):
    # tau is the grid's end: p0 vanishes there, and p takes its terminal value
    a, c, psi1 = 0.7, 0.4, 0.3
    spec = scalar_spec(a=a)
    cost = CostSpec(kappa=0.0, c_lin=[c], Lambda=[[0.0]], psi_lin=[psi1], psi_quad=[[0.0]])
    grid = SimGrid(horizon, 16)
    ts = grid.times()
    p0 = time_adjoint_closed_form(spec.dynamics, spec.target, grid)
    np.testing.assert_allclose(p0, time_adjoint_at(spec.dynamics, spec.target, horizon, ts),
                               rtol=0, atol=1e-12)
    assert p0[-1, 0] == 0.0
    p = solve_cost_adjoint(spec.dynamics, cost, grid, spec.dynamics.x0)
    expect = -np.exp(a * (horizon - ts)) * psi1 - (np.exp(a * (horizon - ts)) - 1.0) / a * c
    np.testing.assert_allclose(p[:, 0], expect, rtol=0, atol=1e-12)
    assert p[-1, 0] == -psi1


# Randomized systems for the grid route: m in {1, 2, 3}, entries in [-2, 2]
# and grids of n steps spanning at most 2 time units, so that |A| * span
# stays below 12 and the per-node expm used as the reference is accurate
# to well below the tolerance.  The grid route scans one step's
# exponential, and node j before tau carries the round-off of its j-th
# power; the tolerance 1e-12 * max(1, |block|) allows that j-fold growth.
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
    # the per-node routes: blocks of A', one per node, for solve_cost_adjoint,
    # and `time_adjoint_at`, one block of A per node, for the time adjoint
    blocks = [exp_with_integral(dyn.A.T, tau - t) for t in times]
    size = max(1.0, max(float(np.linalg.norm(b)) for pair in blocks for b in pair))

    # bound each route's difference by the block tolerance times the weights
    row = tgt.E1 + tgt.E2 + tgt.E3 @ dyn.A
    p0 = time_adjoint_closed_form(dyn, tgt, grid)
    p0_ref = time_adjoint_at(dyn, tgt, tau, times)
    assert np.max(np.abs(p0 - p0_ref)) <= 1e-12 * size * max(1.0, np.sum(np.abs(row)))

    p = solve_cost_adjoint(dyn, cost, grid, mean_x_tau)
    p_tau = -(cost.psi_lin + cost.psi_quad @ mean_x_tau)
    p_ref = np.array([e_t @ p_tau - i_t @ cost.c_lin for e_t, i_t in blocks])
    weight = max(1.0, np.sum(np.abs(p_tau)) + np.sum(np.abs(cost.c_lin)))
    assert np.max(np.abs(p - p_ref)) <= 1e-12 * size * weight
