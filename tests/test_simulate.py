import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from helpers import never_crossing_spec, piecewise_constant, scalar_spec
from meantau.errors import DivergenceError
from meantau.problem import (
    ControlPolicy,
    ControlSet,
    CostSpec,
    LinearDynamics,
    ProblemSpec,
    TargetCoefficients,
    TargetDiffusion,
)
from meantau.simulate import (
    HookDynamics,
    SimGrid,
    _affine_path,
    _rk4_transfer,
    _run_starts,
    detect_min_time,
    estimate_cost,
    mean_ode_solve,
    mean_target_solve,
    simulate_ensemble,
    solve_mean_path,
    step_noise,
)


def test_grid_nodes_hit_endpoint_exactly():
    grid = SimGrid(0.7, 7)
    ts = grid.times()
    assert ts[0] == 0.0 and ts[-1] == 0.7
    assert len(ts) == 8
    assert grid.dt == pytest.approx(0.1)
    with pytest.raises(ValueError):
        SimGrid(1.0, 0)
    with pytest.raises(ValueError):
        SimGrid(-1.0, 5)


def test_mean_ode_pure_integrator_is_exact():
    # A = 0, B = 1, u constant 1: the mean is just elapsed time
    spec = scalar_spec(a=0.0, b=1.0, x0=0.0)
    grid = SimGrid(2.0, 64)
    mx = mean_ode_solve(spec.dynamics, ControlPolicy.constant([1.0], 6.0), grid)
    np.testing.assert_allclose(mx[:, 0], grid.times(), rtol=0, atol=1e-14)


def test_mean_ode_splits_at_policy_breakpoints():
    # piecewise-constant input integrated through an off-grid breakpoint
    spec = scalar_spec(a=0.0, b=1.0, x0=0.0, horizon=1.0)
    policy = piecewise_constant([1.0, 3.0], [0.0, 0.4, 1.0])
    grid = SimGrid(1.0, 7)  # nodes never land on 0.4
    mx = mean_ode_solve(spec.dynamics, policy, grid)
    assert abs(mx[-1, 0] - (0.4 + 3.0 * 0.6)) < 1e-13


def test_mean_ode_matches_matrix_exponential():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(2, 2))
    A = A - 1.5 * np.eye(2)  # keep it stable
    B = rng.normal(size=(2, 1))
    x0 = rng.normal(size=2)
    u = np.array([0.7])
    dyn = LinearDynamics(A=A, B=B, C=[], D=[], x0=x0)
    grid = SimGrid(1.0, 400)
    mx = mean_ode_solve(dyn, ControlPolicy.constant(u, 1.0), grid)
    t = 1.0
    exact = expm(A * t) @ x0 + np.linalg.solve(A, (expm(A * t) - np.eye(2)) @ (B @ u))
    np.testing.assert_allclose(mx[-1], exact, rtol=0, atol=1e-10)


def test_mean_ode_matches_fine_step_euler_recursion():
    # explicit Euler at dt = 1e-6, summed in closed form via matrix powers
    rng = np.random.default_rng(11)
    A = rng.normal(size=(2, 2)) - 1.2 * np.eye(2)
    B = rng.normal(size=(2, 1))
    x0 = rng.normal(size=2)
    u = np.array([0.5])
    dyn = LinearDynamics(A=A, B=B, C=[], D=[], x0=x0)
    grid = SimGrid(1.0, 500)
    mx = mean_ode_solve(dyn, ControlPolicy.constant(u, 1.0), grid)
    n = 1_000_000
    h = 1.0 / n
    P = np.eye(2) + h * A
    Pn = np.linalg.matrix_power(P, n)
    euler = Pn @ x0 + np.linalg.solve(A, (Pn - np.eye(2)) @ (B @ u))
    np.testing.assert_allclose(mx[-1], euler, rtol=0, atol=1e-7)


def reference_affine_path(M, F, c0, policy, times, z0):
    """The step-by-step RK4 loop that the prefix scan of `_affine_path` replaced.

    Same sub-intervals and stage forcing; one transfer per distinct float
    step length, applied one sub-interval at a time.
    """
    times = np.asarray(times, dtype=float)
    p = M.shape[0]
    z0 = np.asarray(z0, dtype=float).reshape(p)
    if len(times) == 1:
        return z0[None, :].copy()
    if policy is not None:
        bp = policy.breakpoints
        edges = np.union1d(times, bp[(bp > times[0]) & (bp < times[-1])])
    else:
        edges = times
    s0, s1 = edges[:-1], edges[1:]
    hs = s1 - s0
    if policy is not None and F is not None:
        f0 = policy.values(s0, side=+1) @ F.T + c0
        fm = policy.values(0.5 * (s0 + s1), side=+1) @ F.T + c0
        f1 = policy.values(s1, side=-1) @ F.T + c0
    else:
        f0 = fm = f1 = np.broadcast_to(c0, (len(s0), p))
    half = 0.5 * hs[:, None]
    k1 = f0
    k2 = half * (k1 @ M.T) + fm
    k3 = half * (k2 @ M.T) + fm
    k4 = hs[:, None] * (k3 @ M.T) + f1
    r = (hs[:, None] / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    uniq_h, inv = np.unique(hs, return_inverse=True)
    transfers = [_rk4_transfer(M, h) for h in uniq_h]
    rec = np.full(len(s1), -1, dtype=np.int64)
    pos = np.searchsorted(times, s1)
    hit = (pos < len(times)) & (times[np.minimum(pos, len(times) - 1)] == s1)
    rec[hit] = pos[hit]
    out = np.empty((len(times), p))
    out[0] = z0
    z = z0
    for i in range(len(s0)):
        z = transfers[inv[i]] @ z + r[i]
        j = rec[i]
        if j >= 0:
            out[j] = z
    return out


def _entries(shape):
    return arrays(np.float64, shape, elements=st.floats(min_value=-2.0, max_value=2.0))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.integers(1, 4),
    k=st.integers(1, 2),
    n=st.sampled_from([1, 2, 3, 7, 64, 4097]),
    horizon=st.floats(min_value=1e-2, max_value=2.0),
    route=st.sampled_from(["grid", "cut_at_tau", "backward"]),
)
def test_prefix_scan_matches_the_step_loop(data, p, k, n, horizon, route):
    # random systems and piecewise policies; "cut_at_tau" builds the times
    # as _mean_and_response_at_tau does, "backward" drives a constant
    # forcing without a policy, as the backward adjoint route does
    M, c0, z0 = data.draw(_entries((p, p))), data.draw(_entries(p)), data.draw(_entries(p))
    times = SimGrid(horizon, n).times()
    off = horizon * np.array(data.draw(st.lists(st.floats(0.0, 1.0), max_size=12)))
    on = times[data.draw(st.lists(st.integers(0, n), max_size=4))]
    inner = np.unique(np.concatenate([off, on]))
    inner = inner[(inner > 0.0) & (inner < horizon)][:12]
    edges = np.concatenate([[0.0], inner, [horizon]])
    values = data.draw(arrays(np.float64, (len(edges) - 1, k), elements=st.floats(-2.0, 2.0)))
    policy, F = piecewise_constant(values, edges), data.draw(_entries((p, k)))
    if route == "cut_at_tau":
        tau = data.draw(st.floats(0.05, 1.0)) * horizon
        times = np.append(times[times < tau - 1e-15], tau)
    elif route == "backward":
        policy, F = None, None
    ref = reference_affine_path(M, F, c0, policy, times, z0)
    got = _affine_path(M, F, c0, policy, times, z0)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, float(np.max(np.abs(ref))))


def test_run_split_tolerates_time_stamp_rounding():
    times = SimGrid(6.0, 40000).times()
    assert len(np.unique(np.diff(times))) > 1  # an exact-equality split breaks this grid up
    assert len(_run_starts(times)) == 1
    j = 12345
    mid = 0.5 * (times[j] + times[j + 1])
    assert len(_run_starts(np.union1d(times, [mid]))) == 3  # h.., two halves, h..
    third = times[j] + (times[j + 1] - times[j]) / 3.0
    assert len(_run_starts(np.union1d(times, [third]))) == 4  # the pieces differ


def test_mean_solve_overflow_raises_at_the_first_bad_node():
    spec = scalar_spec(a=1e10, x0=1e300)
    with pytest.raises(DivergenceError) as err:
        solve_mean_path(spec, ControlPolicy.constant([1.0], 6.0), SimGrid(6.0, 64))
    assert (err.value.step, err.value.path) == (1, None)
    assert "mean solve" in str(err.value)


def test_mean_target_constant_when_rows_vanish():
    spec = scalar_spec(e1=0.0, e2=0.0, e3=0.0, e4=0.0, y0=3.5)
    grid = SimGrid(2.0, 50)
    policy = ControlPolicy.constant([1.0], 6.0)
    mx = mean_ode_solve(spec.dynamics, policy, grid)
    my = mean_target_solve(spec.target, spec.dynamics, mx, policy, grid)
    np.testing.assert_allclose(my, 3.5, rtol=0, atol=1e-14)


def test_mean_target_matches_affine_closed_form():
    # a = 0.1, constant u: E[X](t) and the integral of the target rate in
    # closed form, compared at every node
    a, b, u0 = 0.1, 0.8, 1.0
    e1, e2, e3, e4 = 0.3, -0.7, 0.2, 0.4
    spec = scalar_spec(a=a, b=b, e1=e1, e2=e2, e3=e3, e4=e4, y0=2.0, x0=1.0)
    grid = SimGrid(3.0, 300)
    policy = ControlPolicy.constant([u0], 6.0)
    mx = mean_ode_solve(spec.dynamics, policy, grid)
    my = mean_target_solve(spec.target, spec.dynamics, mx, policy, grid)
    ts = grid.times()
    c1 = e1 + e2 + e3 * a
    c2 = e3 * b + e4
    xf = b * u0 / a
    x = np.exp(a * ts) * (1.0 + xf) - xf
    integral = c1 * ((1.0 + xf) * (np.exp(a * ts) - 1.0) / a - xf * ts) + c2 * u0 * ts
    np.testing.assert_allclose(my, 2.0 + integral, rtol=0, atol=1e-8)
    np.testing.assert_allclose(mx[:, 0], x, rtol=0, atol=1e-10)


def test_mean_target_quadrature_consistency():
    # meanY(t) - y0 agrees with direct quadrature of the target rate
    spec = scalar_spec(a=0.3, e2=-1.0, e4=0.2, y0=4.0, horizon=2.0)
    grid = SimGrid(2.0, 4000)
    policy = ControlPolicy.constant([0.9], 2.0)
    mp = solve_mean_path(spec, policy, grid)
    rate = -1.0 * mp.mean_x[:, 0] + 0.2 * 0.9
    quad = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * grid.dt)])
    np.testing.assert_allclose(mp.mean_y, 4.0 + quad, rtol=0, atol=1e-5)


def test_mean_target_rejects_inconsistent_state_input():
    spec = scalar_spec()
    grid = SimGrid(1.0, 10)
    policy = ControlPolicy.constant([1.0], 6.0)
    wrong = np.ones((11, 1)) * 5.0
    with pytest.raises(ValueError):
        mean_target_solve(spec.target, spec.dynamics, wrong, policy, grid)
    with pytest.raises(ValueError):
        mean_target_solve(spec.target, spec.dynamics, np.ones((4, 1)), policy, grid)


def test_detect_min_time_trivial_start():
    grid = SimGrid(2.0, 4)
    tau, label = detect_min_time([-1.0, -1.0, -1.0, -1.0, -1.0], grid)
    assert (tau, label) == (0.0, "i")


def test_detect_min_time_linear_interpolation():
    grid = SimGrid(2.0, 2)
    tau, label = detect_min_time([1.0, 0.0, -1.0], grid)
    assert label == "i"
    assert tau == pytest.approx(1.0, abs=1e-15)


def test_detect_min_time_no_crossing_is_capped():
    grid = SimGrid(2.0, 4)
    tau, label = detect_min_time([1.0, 0.9, 0.8, 0.7, 0.6], grid)
    assert (tau, label) == (2.0, "ii")


def test_detect_min_time_hit_exactly_at_horizon():
    grid = SimGrid(2.0, 8)
    y = 1.0 - grid.times() / 2.0
    tau, label = detect_min_time(y, grid)
    assert (tau, label) == (2.0, "iii")


def test_detect_min_time_first_touch_wins():
    grid = SimGrid(3.0, 3)
    tau, label = detect_min_time([1.0, 0.0, 1.0, -1.0], grid)
    assert label == "i"
    assert tau == pytest.approx(1.0, abs=1e-15)


def test_detect_min_time_monotone_consistency():
    grid = SimGrid(2.0, 200)
    ts = grid.times()
    lo = 1.0 - ts
    hi = 1.2 - ts
    tau_lo, _ = detect_min_time(lo, grid)
    tau_hi, _ = detect_min_time(hi, grid)
    assert tau_hi >= tau_lo
    assert tau_lo == pytest.approx(1.0, abs=1e-12)
    assert tau_hi == pytest.approx(1.2, abs=1e-12)


def test_step_noise_is_a_pure_function_of_keys():
    a = step_noise(7, 3, 10, 2)
    b = step_noise(7, 3, 10, 2)
    assert np.array_equal(a, b)
    assert a.shape == (10, 2)
    assert not np.array_equal(a, step_noise(7, 4, 10, 2))
    assert not np.array_equal(a, step_noise(8, 3, 10, 2))
    # a longer batch starts with the shorter one's rows
    wide = step_noise(7, 3, 20, 2)
    assert np.array_equal(wide[:10], a)


def test_ensemble_requires_two_paths():
    spec = scalar_spec()
    with pytest.raises(ValueError):
        simulate_ensemble(spec, ControlPolicy.constant([1.0], 6.0), 1, SimGrid(1.0, 10), 0)


def test_ensemble_noiseless_reduces_to_mean_ode():
    spec = scalar_spec(a=0.5, b=1.0, d_coef=0.0, y0=50.0, horizon=2.0)
    grid = SimGrid(2.0, 200)
    policy = ControlPolicy.constant([1.0], 2.0)
    res = simulate_ensemble(spec, policy, 8, grid, seed=0)
    mx = mean_ode_solve(spec.dynamics, policy, grid)
    bound = 5.0 * grid.dt * np.max(np.abs(mx))
    assert np.max(np.abs(res.mean_x - mx)) <= bound
    # with zero diffusion every path is the same trajectory
    assert res.paths_x is not None
    assert np.max(np.abs(res.paths_x - res.paths_x[:1])) == 0.0


def test_ensemble_mean_matches_geometric_brownian_motion():
    # dX = 0.1 X dt + 0.3 X dW, x0 = 1: E[X(1)] = e^{0.1}
    dyn = LinearDynamics(A=[[0.1]], B=[[0.0]], C=[[[0.3]]], D=[[[0.0]]], x0=[1.0])
    spec = scalar_spec(y0=50.0, horizon=1.0)
    spec.dynamics = dyn
    grid = SimGrid(1.0, 256)
    n = 20_000
    res = simulate_ensemble(spec, ControlPolicy.constant([0.0], 1.0), n, grid, seed=5)
    se = float(res.std_x[-1, 0]) / np.sqrt(n)
    assert abs(res.mean_x[-1, 0] - np.exp(0.1)) < 3.0 * se


def test_ensemble_bitwise_deterministic():
    spec = scalar_spec(g_state=0.05)
    grid = SimGrid(1.5, 120)
    policy = ControlPolicy.constant([0.8], 6.0)
    r1 = simulate_ensemble(spec, policy, 64, grid, seed=9)
    r2 = simulate_ensemble(spec, policy, 64, grid, seed=9)
    assert np.array_equal(r1.mean_x, r2.mean_x)
    assert np.array_equal(r1.mean_y, r2.mean_y)
    assert np.array_equal(r1.std_x, r2.std_x)
    assert r1.tau == r2.tau


def test_scalar_fast_path_agrees_with_general_stepper():
    # the one-state shortcut must produce the same bytes as the general code;
    # force the general branch with a hook that wraps the linear drift
    spec = scalar_spec(a=0.4, b=1.0, c_coef=0.2, d_coef=0.1, g_state=0.03, g_control=0.01)
    dyn = spec.dynamics
    hook = HookDynamics(
        m=1,
        k=1,
        d=1,
        x0=dyn.x0,
        drift=dyn.drift,
        diffusion=dyn.diffusion,
    )
    grid = SimGrid(1.0, 80)
    policy = ControlPolicy.constant([0.7], 6.0)
    fast = simulate_ensemble(spec, policy, 32, grid, seed=2)
    general = simulate_ensemble(spec, policy, 32, grid, seed=2, dynamics=hook)
    assert np.array_equal(fast.mean_x, general.mean_x)
    assert np.array_equal(fast.mean_y, general.mean_y)


def _two_state_spec(d_scale):
    dynamics = LinearDynamics(
        A=[[-0.3, 0.2], [0.1, -0.5]],
        B=[[1.0], [0.5]],
        C=[[[0.1, 0.0], [0.0, 0.05]], [[0.0, 0.02], [0.0, 0.0]]],
        D=[[[0.2 * d_scale], [0.1]], [[0.0], [0.3 * d_scale]]],
        x0=[1.0, 0.5],
    )
    target = TargetCoefficients(
        E1=[0.1, 0.0],
        E2=[-1.0, -0.5],
        E3=[0.2, 0.0],
        E4=[0.3],
        y0=2.0,
        diffusion=TargetDiffusion(
            coef_mean=[[0.1, 0.0], [0.0, 0.0]],
            coef_state=[[0.05, 0.02], [0.0, 0.01]],
            coef_control=[[0.01 * d_scale], [0.0]],
        ),
    )
    return ProblemSpec(
        dynamics, target, CostSpec.time_optimal(2, 1), ControlSet([0.2], [1.5]), 6.0, 0.01
    )


@pytest.mark.parametrize(
    "specs",
    [
        [
            scalar_spec(d_coef=0.1, g_control=0.01),
            scalar_spec(d_coef=0.3, e3=0.2, g_control=0.05),
            scalar_spec(a=0.4, c_coef=0.2, e1=0.3, g_state=0.03, y0=1.5, eps=0.02),
        ],
        [_two_state_spec(1.0), _two_state_spec(2.0)],
    ],
    ids=["scalar", "two_state"],
)
def test_batched_columns_equal_single_spec_runs(specs):
    grid = SimGrid(1.5, 120)
    policy = ControlPolicy.constant([0.8], 6.0)
    batch = simulate_ensemble(specs, policy, 200, grid, seed=4)
    assert len(batch) == len(specs)
    for spec, col in zip(specs, batch):
        alone = simulate_ensemble(spec, policy, 200, grid, seed=4)
        assert np.array_equal(col.mean_x, alone.mean_x)
        assert np.array_equal(col.std_x, alone.std_x)
        assert np.array_equal(col.mean_y, alone.mean_y)
        assert np.array_equal(col.paths_x, alone.paths_x)
        assert col.tau == alone.tau


def test_batch_rejects_mixed_dimensions():
    with pytest.raises(ValueError):
        simulate_ensemble(
            [scalar_spec(), _two_state_spec(1.0)],
            ControlPolicy.constant([0.8], 6.0),
            8,
            SimGrid(1.0, 10),
            0,
        )


def test_ensemble_divergence_names_step_and_path():
    hook = HookDynamics(
        m=1,
        k=1,
        d=0,
        x0=[1e200],
        drift=lambda X, u: X * X,
        diffusion=lambda X, u: np.zeros((X.shape[0], 1, 0)),
    )
    spec = scalar_spec(d_coef=0.0, y0=50.0, horizon=1.0)
    with pytest.raises(DivergenceError) as err:
        simulate_ensemble(
            spec, ControlPolicy.constant([0.0], 1.0), 4, SimGrid(1.0, 10), 0, dynamics=hook
        )
    assert err.value.step == 1
    assert err.value.path == 0


def test_estimate_cost_pure_time_objective():
    spec = scalar_spec(a=0.0, b=1.0, x0=1.0, d_coef=0.0, e2=-1.0, e4=0.0, y0=2.0, horizon=6.0)
    grid = SimGrid(6.0, 600)
    policy = ControlPolicy.constant([1.0], 6.0)
    res = simulate_ensemble(spec, policy, 4, grid, seed=0)
    j, se = estimate_cost(res, spec.cost, policy)
    assert j == pytest.approx(res.tau, abs=1e-12)
    assert se == 0.0


def test_estimate_cost_terminal_only_noiseless():
    # Psi(x) = x with zero noise reduces the objective to the mean at tau
    cost = CostSpec(kappa=0.0, c_lin=[0.0], Lambda=[[0.0]], psi_lin=[1.0], psi_quad=[[0.0]])
    spec = scalar_spec(a=0.2, b=1.0, d_coef=0.0, e2=-1.0, e4=0.0, y0=2.0, horizon=6.0, cost=cost)
    grid = SimGrid(6.0, 2000)
    policy = ControlPolicy.constant([1.0], 6.0)
    res = simulate_ensemble(spec, policy, 4, grid, seed=0)
    # the estimator interpolates its own paths, so the reference is the
    # ensemble mean interpolated at the detected hit (linear Psi commutes)
    j_lo = int(np.floor(res.tau / grid.dt))
    lam = (res.tau - grid.dt * j_lo) / grid.dt
    mean_at_tau = (1.0 - lam) * res.mean_x[j_lo, 0] + lam * res.mean_x[j_lo + 1, 0]
    j, se = estimate_cost(res, cost, policy)
    assert abs(j - mean_at_tau) < 1e-10
    assert se == pytest.approx(0.0, abs=1e-12)


def test_estimate_cost_requires_paths():
    spec = never_crossing_spec()
    res = simulate_ensemble(
        spec, ControlPolicy.constant([0.5], 1.0), 8, SimGrid(1.0, 8), 0, store_paths=False
    )
    with pytest.raises(ValueError):
        estimate_cost(res, spec.cost, ControlPolicy.constant([0.5], 1.0))
