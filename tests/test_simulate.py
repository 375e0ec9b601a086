import sys
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from helpers import never_crossing_spec, piecewise_constant, scalar_spec
from meantau import simulate
from meantau.errors import DivergenceError
from meantau.portfolio import PortfolioParams, mc_validate
from meantau.problem import ControlPolicy, CostSpec, LinearDynamics
from meantau.simulate import (
    _PREFETCH_MIN_DRAW,
    SimGrid,
    _affine_path,
    _Column,
    _run_columns,
    _rk4_transfer,
    _run_starts,
    detect_min_time,
    estimate_cost,
    mean_ode_solve,
    simulate_ensemble,
    solve_mean_path,
    step_noise,
)
from meantau.variational import fd_state_check


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
    my = solve_mean_path(spec, policy, grid).mean_y
    np.testing.assert_allclose(my, 3.5, rtol=0, atol=1e-14)


def test_mean_target_matches_affine_closed_form():
    # a = 0.1, constant u: E[X](t) and the integral of the target rate in
    # closed form, compared at every node
    a, b, u0 = 0.1, 0.8, 1.0
    e1, e2, e3, e4 = 0.3, -0.7, 0.2, 0.4
    spec = scalar_spec(a=a, b=b, e1=e1, e2=e2, e3=e3, e4=e4, y0=2.0, x0=1.0)
    grid = SimGrid(3.0, 300)
    policy = ControlPolicy.constant([u0], 6.0)
    mp = solve_mean_path(spec, policy, grid)
    mx, my = mp.mean_x, mp.mean_y
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


def fresh_noise(seed, step, n_paths, d):
    """The draw `step_noise` must reproduce: a new seed sequence and generator per step."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(step,))
    return np.random.Generator(np.random.Philox(seq)).standard_normal((n_paths, d))


# seeds of one to six 32-bit words (from four on, no zero padding) and steps
# on both sides of the key-block edges and of a second 32-bit word
KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128, 2**160 + 12345]
KEY_STEPS = [0, 1, 1023, 1024, 1025, 2047, 2048, 2**32 - 1, 2**32, 2**64 + 3]


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_step_noise_equals_a_fresh_generator_at_word_and_block_edges(seed):
    for step in KEY_STEPS:
        assert np.array_equal(step_noise(seed, step, 5, 2), fresh_noise(seed, step, 5, 2))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**64), st.integers(0, 2**200)),
    step=st.one_of(st.integers(0, 8191), st.integers(0, 2**70)),
    n_paths=st.integers(0, 9),
    d=st.integers(0, 3),
)
def test_step_noise_equals_a_fresh_generator(seed, step, n_paths, d):
    assert np.array_equal(step_noise(seed, step, n_paths, d), fresh_noise(seed, step, n_paths, d))


def test_step_noise_in_shuffled_order_with_two_seeds_equals_fresh_draws():
    keys = [(seed, step) for seed in (5, 2**64 + 9) for step in range(1000, 1100)]
    order = np.random.default_rng(0).permutation(len(keys))
    for i in order:
        seed, step = keys[i]
        assert np.array_equal(step_noise(seed, step, 7, 2), fresh_noise(seed, step, 7, 2))


def test_step_noise_on_concurrent_threads_equals_a_serial_run():
    # more threads than a two-CPU host has, switching often, so draws
    # interleave mid-call and every thread derives and reads key blocks
    keys = [(seed, step) for seed in (3, 4) for step in range(0, 3000, 7)]
    serial = [step_noise(seed, step, 16, 2) for seed, step in keys]
    simulate._block_keys.cache_clear()
    drawn = {}
    start = threading.Barrier(4)

    def draw(t):
        start.wait(timeout=60)
        drawn[t] = [step_noise(seed, step, 16, 2) for seed, step in keys[t:] + keys[:t]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=draw, args=(t,)) for t in range(4)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for t in range(4):
        expected = serial[t:] + serial[:t]
        assert len(drawn[t]) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(drawn[t], expected))


@pytest.mark.parametrize("seed, step", [(-1, 0), (0, -1), (-(2**40), 3)])
def test_step_noise_rejects_a_negative_seed_or_step(seed, step):
    with pytest.raises(ValueError):
        step_noise(seed, step, 4, 1)


def test_step_noise_returns_a_fresh_array_each_call():
    a = step_noise(7, 3, 10, 2)
    a *= 0.0
    assert np.array_equal(step_noise(7, 3, 10, 2), fresh_noise(7, 3, 10, 2))


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


def reference_scalar_ensemble(spec, policy, n_paths, grid, seed):
    """Ensemble of an m = k = d = 1 spec from a hand-written in-place step.

    Runs, element by element, the ufunc sequence the linear kernel must run
    at these dimensions, so the kernel has to reproduce it bit for bit.
    Returns (mean_x, std_x, mean_y, paths).
    """
    dyn, tgt, eps = spec.dynamics, spec.target, spec.eps_regularize
    a, b, c, dd = dyn.A[0, 0], dyn.B[0, 0], dyn.C[0, 0, 0], dyn.D[0, 0, 0]
    times, dt = grid.times(), grid.dt
    u_nodes = policy.values(times, side=+1).reshape(len(times))
    x = np.full(n_paths, dyn.x0[0])
    y = np.full(n_paths, tgt.y0)
    t1, t2, xn = np.empty(n_paths), np.empty(n_paths), np.empty(n_paths)
    mean_x, std_x = np.empty((len(times), 1)), np.empty((len(times), 1))
    mean_y, paths = np.empty(len(times)), np.empty((n_paths, len(times), 1))

    def record(j):
        paths[:, j, 0] = x
        mean_x[j] = x.sum() / n_paths
        dev = x - mean_x[j]
        std_x[j] = np.sqrt((dev * dev).sum() / (n_paths - 1))
        mean_y[j] = y.sum() / n_paths if j else tgt.y0

    record(0)
    for j in range(grid.n_steps):
        u, mx = u_nodes[j], mean_x[j, 0]
        w = step_noise(seed, j, n_paths, 1)[:, 0] * np.sqrt(dt)
        bu = b * u
        np.multiply(x, a, out=t1)  # drift a x + b u
        np.add(t1, bu, out=t1)
        np.multiply(t1, dt, out=t1)
        np.add(x, t1, out=t1)
        np.multiply(x, c, out=t2)  # diffusion c x + d u
        np.add(t2, dd * u, out=t2)
        np.multiply(t2, w, out=t2)
        np.add(t1, t2, out=xn)
        hconst = tgt.E1[0] * mx + tgt.E3[0] * (a * mx + bu) + tgt.E4[0] * u + eps
        np.multiply(x, tgt.E2[0], out=t1)
        np.add(t1, hconst, out=t1)
        np.multiply(t1, dt, out=t1)
        np.add(y, t1, out=y)
        g = tgt.diffusion
        if g is not None:
            np.multiply(x, g.coef_state[0, 0], out=t1)
            np.add(t1, g.coef_mean[0, 0] * mx + g.coef_control[0, 0] * u, out=t1)
            np.multiply(t1, w, out=t1)
            np.add(y, t1, out=y)
        x, xn = xn, x
        record(j + 1)
    return mean_x, std_x, mean_y, paths


@st.composite
def scalar_specs(draw):
    """An m = k = d = 1 spec with optional target noise, C, E3 and eps."""
    coef = st.floats(-1.0, 1.0)
    maybe = st.one_of(st.just(0.0), coef)
    return scalar_spec(
        a=draw(coef), b=draw(coef), c_coef=draw(maybe), d_coef=draw(maybe),
        x0=draw(coef), e1=draw(maybe), e2=draw(coef), e3=draw(maybe), e4=draw(coef),
        y0=draw(st.floats(0.1, 2.0)), g_state=draw(maybe), g_control=draw(maybe),
        eps=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.1))),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(scalar_specs(), min_size=1, max_size=3),
    st.floats(0.2, 1.5),
    st.floats(0.2, 1.5),
    st.integers(1, 40),
    st.sampled_from([2, 3, 17]),
    st.integers(0, 1000),
)
def test_scalar_kernel_matches_the_in_place_reference(specs, u0, u1, n_steps, n_paths, seed):
    grid = SimGrid(1.0, n_steps)
    policy = piecewise_constant([u0, u1], [0.0, 0.43, 6.0])
    for spec in specs:
        res = simulate_ensemble(spec, policy, n_paths, grid, seed)
        mean_x, std_x, mean_y, paths = reference_scalar_ensemble(
            spec, policy, n_paths, grid, seed
        )
        assert np.array_equal(res.mean_x, mean_x)
        assert np.array_equal(res.std_x, std_x)
        assert np.array_equal(res.mean_y, mean_y)
        assert np.array_equal(res.paths_x, paths)
        assert res.tau == detect_min_time(mean_y, grid)[0]


@st.composite
def lane_cases(draw):
    """A stable linear system (m, k in 1..3, d in 0..3) with c in 1..5 distinct lanes."""
    m, k, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    c, n_steps = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = rng.uniform(-1.0, 1.0, (m, m))
    dyn = LinearDynamics(
        A=R - (np.linalg.norm(R, 2) + 0.5) * np.eye(m),
        B=rng.uniform(-1.0, 1.0, (m, k)),
        C=list(rng.uniform(-0.5, 0.5, (d, m, m))),
        D=list(rng.uniform(-0.5, 0.5, (d, m, k))),
        x0=np.zeros(m),
        m=m,
        k=k,
        d=d,
    )
    x0 = rng.uniform(-1.0, 1.0, (c, m))
    u_nodes = rng.uniform(-1.0, 1.0, (n_steps + 1, c, k))
    n_paths = draw(st.sampled_from([2, 3, 17]))
    return dyn, x0, u_nodes, SimGrid(1.0, n_steps), n_paths, draw(st.integers(0, 1000))


@settings(max_examples=60, deadline=None)
@given(lane_cases())
def test_each_lane_equals_a_one_lane_column_run_alone(case):
    dyn, x0, u_nodes, grid, n_paths, seed = case
    col = _Column(dyn, u_nodes, n_paths, grid.n_steps, x0=x0)
    _run_columns([col], grid, seed, n_paths)
    assert col.paths.shape == (len(x0), n_paths, grid.n_steps + 1, dyn.m)
    for lane in range(len(x0)):
        alone = _Column(replace(dyn, x0=x0[lane]), u_nodes[:, lane].copy(), n_paths, grid.n_steps)
        _run_columns([alone], grid, seed, n_paths)
        assert alone.paths.shape == (n_paths, grid.n_steps + 1, dyn.m)
        assert np.array_equal(col.paths[lane], alone.paths)


def test_ensemble_divergence_names_step_and_path():
    # x0 = 1e200 with drift rate 1e300: every path overflows at step 1
    spec = scalar_spec(d_coef=0.0, y0=50.0, horizon=1.0)
    spec.dynamics = LinearDynamics(A=[[1e300]], B=[[0.0]], C=[[[0.0]]], D=[[[0.0]]], x0=[1e200])
    with pytest.raises(DivergenceError) as err:
        simulate_ensemble(spec, ControlPolicy.constant([0.0], 1.0), 4, SimGrid(1.0, 10), 0)
    assert err.value.step == 1
    assert err.value.path == 0


# -- the noise worker thread ----------------------------------------------------


def call_within(seconds, fn, *args, **kwargs):
    """fn's result or its exception; the test fails if fn still runs after `seconds`."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn(*args, **kwargs)
        except BaseException as exc:
            outcome["error"] = exc

    caller = threading.Thread(target=target, daemon=True)
    caller.start()
    caller.join(seconds)
    if caller.is_alive():
        pytest.fail(f"{fn.__name__} still running after {seconds} s")
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def test_the_worker_thread_never_changes_a_result():
    n_paths = _PREFETCH_MIN_DRAW  # one noise channel: the smallest draw a worker makes
    params = PortfolioParams()
    spec = scalar_spec(c_coef=0.2, g_state=0.05)
    policy = ControlPolicy.constant([0.8], 6.0)
    direction = ControlPolicy.constant([0.5], 6.0)
    grid = SimGrid(1.0, 40)
    # frequent thread switches give a block rewritten while it is read every chance to show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        serial, threaded = (
            mc_validate(params, n_paths=n_paths, dt=0.0625, seed=3, vol_pair=(0.2, 0.4), threads=t)
            for t in (1, 2)
        )
        assert serial == threaded

        serial, threaded = (
            simulate_ensemble(spec, policy, n_paths, grid, 5, store_paths=True, threads=t)
            for t in (1, 2)
        )
        for field in fields(serial):
            a, b = getattr(serial, field.name), getattr(threaded, field.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name

        serial, threaded = (
            fd_state_check(spec, policy, direction, (1e-2, 1e-3), SimGrid(1.0, 20), 7, n_paths, t)
            for t in (1, 2)
        )
        assert serial == threaded
    finally:
        sys.setswitchinterval(interval)


def test_a_diverging_run_stops_and_joins_its_noise_worker(monkeypatch):
    # x' = x + 1e5 x dW from 1e200: the paths overflow one by one
    dyn = LinearDynamics(A=[[0.0]], B=[[0.0]], C=[[[1e5]]], D=[[[0.0]]], x0=[1e200])
    grid, seed, n_paths = SimGrid(1.0, 60), 11, _PREFETCH_MIN_DRAW
    u_nodes = np.zeros((grid.n_steps + 1, 1))

    def run(threads):
        col = _Column(dyn, u_nodes, n_paths, grid.n_steps, store_paths=False)
        with pytest.raises(DivergenceError) as err:
            _run_columns([col], grid, seed, n_paths, threads)
        return err.value.step, err.value.path

    serial = run(1)
    assert 1 < serial[0] < grid.n_steps and serial[1] > 0

    # slow draws keep the worker busy when the loop fails, so a worker that
    # is not joined is still alive when the call returns
    def slow(seed, step, n_paths, d):
        time.sleep(0.01)
        return step_noise(seed, step, n_paths, d)

    monkeypatch.setattr(simulate, "step_noise", slow)
    before = threading.active_count()
    assert run(2) == serial
    assert threading.active_count() == before


def test_a_failed_draw_on_the_noise_worker_reaches_the_caller(monkeypatch):
    drawn = []

    def failing(seed, step, n_paths, d):
        drawn.append(step)
        if step == 3:
            raise RuntimeError("draw 3 failed")
        return step_noise(seed, step, n_paths, d)

    monkeypatch.setattr(simulate, "step_noise", failing)
    spec = scalar_spec()
    policy = ControlPolicy.constant([0.8], 6.0)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="draw 3 failed"):
        call_within(
            60, simulate_ensemble, spec, policy, _PREFETCH_MIN_DRAW, SimGrid(1.0, 20), 0,
            threads=2,
        )
    assert drawn == [0, 1, 2, 3]
    assert threading.active_count() == before


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
