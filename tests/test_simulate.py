import sys
import threading
import time
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from helpers import (
    StoredColumn,
    ensemble_column,
    estimate_cost,
    jump_at_tau_spec,
    mean_ode_solve,
    piecewise_constant,
    scalar_spec,
)
from meantau import simulate
from meantau.config import load_config, parse_policy, parse_problem
from meantau.errors import DivergenceError
from meantau.portfolio import (
    PortfolioParams,
    mc_validate,
    optimal_policy,
    solve_tau,
    to_problem_spec,
)
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
    _PREFETCH_MIN_DRAW,
    SimGrid,
    _affine_path,
    _Column,
    _run_columns,
    _rk4_transfer,
    _first_hit,
    _run_starts,
    simulate_ensemble,
    solve_mean_path,
    step_noise,
)
from meantau.variational import fd_state_check

ROOT = Path(__file__).resolve().parents[1]


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


def reference_affine_path(M, F, policy, times, z0):
    """The step-by-step RK4 loop that the prefix scan of `_affine_path` replaced.

    Same sub-intervals and stage forcing; one transfer per distinct float
    step length, applied one sub-interval at a time.
    """
    times = np.asarray(times, dtype=float)
    p = M.shape[0]
    z0 = np.asarray(z0, dtype=float).reshape(p)
    bp = policy.breakpoints
    edges = np.union1d(times, bp[(bp > times[0]) & (bp < times[-1])])
    s0, s1 = edges[:-1], edges[1:]
    hs = s1 - s0
    f0 = policy.values(s0, side=+1) @ F.T
    fm = policy.values(0.5 * (s0 + s1), side=+1) @ F.T
    f1 = policy.values(s1, side=-1) @ F.T
    half = 0.5 * hs[:, None]
    k1 = f0
    k2 = half * (k1 @ M.T) + fm
    k3 = half * (k2 @ M.T) + fm
    k4 = hs[:, None] * (k3 @ M.T) + f1
    r = (hs[:, None] / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    uniq_h, inv = np.unique(hs, return_inverse=True)
    transfers = [_rk4_transfer(M, h) for h in uniq_h]
    states = np.empty((len(edges), p))
    states[0] = z0
    for i in range(len(s0)):
        states[i + 1] = transfers[inv[i]] @ states[i] + r[i]
    # a requested time repeated, as a hit rounded onto a node repeats it, reads one edge
    return states[np.searchsorted(edges, times)]


def _entries(shape):
    return arrays(np.float64, shape, elements=st.floats(min_value=-2.0, max_value=2.0))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.integers(1, 4),
    k=st.integers(1, 2),
    n=st.sampled_from([1, 2, 3, 7, 64, 4097]),
    horizon=st.floats(min_value=1e-2, max_value=2.0),
    route=st.sampled_from(["grid", "cut_at_tau", "bracket", "backward"]),
)
def test_prefix_scan_matches_the_step_loop(data, p, k, n, horizon, route):
    # random systems and piecewise policies; "cut_at_tau" builds the times
    # as the response solve at a hit does, the nodes before tau and then
    # tau, and "bracket" as the step to E[X](tau) does, one node and then a
    # tau after it in the same grid step; "backward" drives a constant
    # forcing c through F = -I, as the backward adjoint route does
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
        times = np.append(times[times < tau], tau)
    elif route == "bracket":
        i = data.draw(st.integers(0, n - 1))
        frac = data.draw(st.floats(0.0, 1.0))
        times = np.array([times[i], times[i] + frac * (times[i + 1] - times[i])])
    elif route == "backward":
        policy, F = ControlPolicy.constant(c0, horizon), -np.eye(p)
    ref = reference_affine_path(M, F, policy, times, z0)
    got = _affine_path(M, F, policy, times, z0)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-10 * max(1.0, float(np.max(np.abs(ref))))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.integers(1, 4),
    rows=st.integers(1, 4097),
    span=st.floats(min_value=1e-3, max_value=1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_matches_the_sequential_recursion(data, p, rows, span, seed):
    # transfers as the package builds them, one step of a flow over a span:
    # phi = e^{X h} with rows - 1 steps of h covering `span`.  The doubling
    # squares phi about log2(rows) times, so its round-off grows with the
    # row index and with the growth of phi^rows; |X| <= 1 over a span <= 1
    # keeps that within 1e-12 of the loop
    X = arrays(np.float64, (p, p), elements=st.floats(-1.0, 1.0))
    phi = expm(data.draw(X) * span / max(1, rows - 1))
    w = np.random.default_rng(seed).uniform(-2.0, 2.0, (rows, p))
    ref = w.copy()
    for i in range(rows - 1):
        ref[i + 1] = ref[i] @ phi + w[i + 1]
    simulate._scan(w, phi)
    assert np.max(np.abs(w - ref)) <= 1e-12 * max(1.0, float(np.max(np.abs(ref))))


def _stable(data, p):
    """A random p x p matrix whose Gershgorin discs lie in the left half-plane."""
    A = data.draw(_entries((p, p)))
    return A - (np.max(np.sum(np.abs(A), axis=1)) + 0.1) * np.eye(p)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    p=st.integers(1, 4),
    k=st.integers(1, 2),
    n=st.sampled_from(
        [1, 2, simulate._FIRST_PREFIX - 1, simulate._FIRST_PREFIX, simulate._FIRST_PREFIX + 1, 4097]
    ),
    horizon=st.floats(min_value=1e-2, max_value=2.0),
    stop=st.sampled_from(["start", "early", "late", "none"]),
)
def test_a_stopped_solve_returns_the_first_nodes_of_the_full_solve(data, p, k, n, horizon, stop):
    # 0-12 breakpoints on and off the grid.  The stop row is decoupled
    # from the others and, but for `stop` "start" (a value <= 0 at node
    # 0), falls through 0 at a chosen fraction of the horizon: before
    # 0.2 ("early", inside the first prefix), in (0.3, 0.95) ("late",
    # past it once n > 4 * _FIRST_PREFIX), or after it ("none")
    M = _stable(data, p)
    times = SimGrid(horizon, n).times()
    off = horizon * np.array(data.draw(st.lists(st.floats(0.0, 1.0), max_size=8)))
    on = times[data.draw(st.lists(st.integers(0, n), max_size=4))]
    inner = np.unique(np.concatenate([off, on]))
    inner = inner[(inner > 0.0) & (inner < horizon)][:12]
    edges = np.concatenate([[0.0], inner, [horizon]])
    values = data.draw(arrays(np.float64, (len(edges) - 1, k), elements=st.floats(-2.0, 2.0)))
    # a last control component of 1 carries the constant forcing c0
    policy = piecewise_constant(np.hstack([values, np.ones((len(values), 1))]), edges)
    F = data.draw(_entries((p, k)))
    c0, z0 = data.draw(_entries(p)), data.draw(_entries(p))
    row = data.draw(st.integers(0, p - 1))
    M[row, np.arange(p) != row] = 0.0
    F[row] = 0.0
    if stop == "start":
        z0[row] = data.draw(st.sampled_from([-0.5, 0.0]))
    else:
        # z' = m z + c from z0 = 1 reaches 0 at t_hit when q = e^(m t_hit)
        lo, hi = {"early": (1e-3, 0.2), "late": (0.3, 0.95), "none": (1.5, 3.0)}[stop]
        q = np.exp(M[row, row] * data.draw(st.floats(lo, hi)) * horizon)
        z0[row], c0[row] = 1.0, M[row, row] * q / (1.0 - q)
    F = np.hstack([F, c0[:, None]])
    full = _affine_path(M, F, policy, times, z0)
    stopped = _affine_path(M, F, policy, times, z0, stop_row=row)
    below = np.flatnonzero(full[:, row] <= 0.0)
    assert len(stopped) == (below[0] + 1 if below.size else len(full))
    assert np.array_equal(stopped, full[: len(stopped)])


def _falling_spec(y0, rate, horizon, m):
    """m states; the mean target starts at y0 and falls at about `rate` per unit time."""
    if m == 1:
        return scalar_spec(a=-0.5, x0=1.0, e2=-0.1, e4=-rate, y0=y0, horizon=horizon)
    spec = scalar_spec(y0=y0, horizon=horizon)
    A = np.array([[-0.5, 0.3], [-0.2, -1.0]])
    dyn = LinearDynamics(A=A, B=[[1.0], [0.5]], C=np.zeros((1, 2, 2)), D=np.zeros((1, 2, 1)),
                         x0=[1.0, 0.5])
    tgt = replace(spec.target, E1=np.zeros(2), E2=np.array([-0.1, 0.05]), E3=np.zeros(2),
                  E4=np.array([-rate]), diffusion=None)
    return replace(spec, dynamics=dyn, target=tgt)


@settings(max_examples=40, deadline=None)
@given(
    y0=st.floats(-0.5, 3.0),
    rate=st.floats(0.0, 4.0),
    m=st.integers(1, 2),
    n=st.sampled_from(
        [1, 2, simulate._FIRST_PREFIX - 1, simulate._FIRST_PREFIX, simulate._FIRST_PREFIX + 1, 4097]
    ),
)
def test_hit_time_is_the_detected_hit_of_the_full_path(y0, rate, m, n):
    spec = _falling_spec(y0, rate, 1.0, m)
    policy, grid = ControlPolicy.constant([1.0], 1.0), SimGrid(1.0, n)
    assert simulate.hit_time(spec, policy, grid) == _first_hit(
        solve_mean_path(spec, policy, grid).mean_y, grid.times()
    )


@pytest.mark.parametrize(
    "y0, rate, n, label, after_first_prefix",
    [
        (-0.5, 1.0, 4096, "i", False),  # y0 <= 0: tau = 0
        (0.1, 1.0, 4096, "i", False),  # a hit inside the first prefix
        (1.5, 2.0, 4096, "i", True),  # a later hit
        (3.0, 1.0, 4096, "ii", True),  # no hit
    ],
    ids=["y0_nonpositive", "early_hit", "late_hit", "no_hit"],
)
@pytest.mark.parametrize("m", [1, 2])
def test_hit_time_in_each_regime(y0, rate, n, label, after_first_prefix, m):
    spec = _falling_spec(y0, rate, 1.0, m)
    policy, grid = ControlPolicy.constant([1.0], 1.0), SimGrid(1.0, n)
    mp = solve_mean_path(spec, policy, grid)
    assert simulate.hit_time(spec, policy, grid) == (mp.tau, mp.case_label)
    assert mp.case_label == label
    assert (mp.tau * n > simulate._FIRST_PREFIX) == after_first_prefix


def test_hit_time_on_the_horizon():
    # y = 1 - t exactly in binary on a dyadic grid: the hit lands on T
    spec = scalar_spec(a=0.0, e2=0.0, e4=-1.0, y0=1.0, horizon=1.0)
    policy, grid = ControlPolicy.constant([1.0], 1.0), SimGrid(1.0, 4096)
    mp = solve_mean_path(spec, policy, grid)
    assert mp.mean_y[-1] == 0.0 and mp.mean_y[-2] > 0.0
    assert simulate.hit_time(spec, policy, grid) == (mp.tau, mp.case_label) == (1.0, "iii")


@pytest.mark.parametrize("config", ["docs/examples/scalar.json", "perfbench/configs/two_state.json"])
@pytest.mark.parametrize("n_steps", [4096, 40_000, 65_536])
def test_hit_time_is_the_mean_solve_tau_on_the_shipped_configs(config, n_steps):
    cfg = load_config(str(ROOT / config))
    spec = parse_problem(cfg["problem"])
    policy = parse_policy(cfg["policy"], horizon=spec.horizon)
    grid = SimGrid(spec.horizon, n_steps)
    mp = solve_mean_path(spec, policy, grid)
    assert mp.case_label == "i"
    assert simulate.hit_time(spec, policy, grid) == (mp.tau, mp.case_label)


def test_hit_time_is_the_mean_solve_tau_under_the_exponential_portfolio_policy():
    # g0 + g1 exp(g2 t) segments whose breakpoints fall inside grid steps
    params = PortfolioParams()
    spec, policy = to_problem_spec(params), optimal_policy(params, solve_tau(params))
    grid = SimGrid(spec.horizon, 20_000)
    mp = solve_mean_path(spec, policy, grid)
    assert mp.tau * grid.n_steps / spec.horizon > simulate._FIRST_PREFIX
    assert simulate.hit_time(spec, policy, grid) == (mp.tau, mp.case_label)


def test_hit_time_ignores_an_overflow_after_the_hit():
    # x grows like e^(1000 t) and overflows at node 2908; the mean target,
    # which falls at rate x, reaches zero near node 28
    spec = scalar_spec(a=1000.0, e2=-1.0, e4=0.0, y0=1.0, horizon=1.0)
    policy = ControlPolicy.constant([0.8], 1.0)
    grid = SimGrid(1.0, 4096)
    with pytest.raises(DivergenceError) as err:
        solve_mean_path(spec, policy, grid)
    assert err.value.step == 2908
    # the same step length on a shorter horizon never overflows
    short = solve_mean_path(spec, policy, SimGrid(0.5, 2048))
    assert simulate.hit_time(spec, policy, grid) == (short.tau, "i")
    assert 0.0 < short.tau < 30 * grid.dt


@pytest.mark.parametrize(
    "e2, y0", [(1.0, 1.0), (-1.0, 1e306)], ids=["no_hit", "overflow_before_the_hit"]
)
def test_hit_time_raises_at_the_full_solve_step_when_the_overflow_comes_first(e2, y0):
    # past the first prefix, so the stop rule has doubled before it raises
    spec = scalar_spec(a=1000.0, e2=e2, e4=0.0, y0=y0, horizon=1.0)
    policy = ControlPolicy.constant([0.8], 1.0)
    grid = SimGrid(1.0, 4096)
    with pytest.raises(DivergenceError) as full:
        solve_mean_path(spec, policy, grid)
    with pytest.raises(DivergenceError) as stopped:
        simulate.hit_time(spec, policy, grid)
    assert full.value.step == stopped.value.step == 2908 > simulate._FIRST_PREFIX
    assert stopped.value.path is None


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
    tau, label = _first_hit(np.array([-1.0, -1.0, -1.0, -1.0, -1.0]), grid.times())
    assert (tau, label) == (0.0, "i")


def test_detect_min_time_linear_interpolation():
    grid = SimGrid(2.0, 2)
    tau, label = _first_hit(np.array([1.0, 0.0, -1.0]), grid.times())
    assert label == "i"
    assert tau == pytest.approx(1.0, abs=1e-15)


def test_detect_min_time_no_crossing_is_capped():
    grid = SimGrid(2.0, 4)
    tau, label = _first_hit(np.array([1.0, 0.9, 0.8, 0.7, 0.6]), grid.times())
    assert (tau, label) == (2.0, "ii")


def test_detect_min_time_hit_exactly_at_horizon():
    grid = SimGrid(2.0, 8)
    y = 1.0 - grid.times() / 2.0
    tau, label = _first_hit(y, grid.times())
    assert (tau, label) == (2.0, "iii")


def test_detect_min_time_first_touch_wins():
    grid = SimGrid(3.0, 3)
    tau, label = _first_hit(np.array([1.0, 0.0, 1.0, -1.0]), grid.times())
    assert label == "i"
    assert tau == pytest.approx(1.0, abs=1e-15)


def test_detect_min_time_monotone_consistency():
    grid = SimGrid(2.0, 200)
    ts = grid.times()
    lo = 1.0 - ts
    hi = 1.2 - ts
    tau_lo, _ = _first_hit(lo, ts)
    tau_hi, _ = _first_hit(hi, ts)
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


def test_a_policy_that_ends_before_the_grid_is_refused():
    with pytest.raises(ValueError, match="time outside"):
        simulate_ensemble(scalar_spec(), ControlPolicy.constant([0.8], 0.5), 4, SimGrid(1.0, 10), 0)


def test_ensemble_noiseless_reduces_to_mean_ode():
    spec = scalar_spec(a=0.5, b=1.0, d_coef=0.0, y0=50.0, horizon=2.0)
    grid = SimGrid(2.0, 200)
    policy = ControlPolicy.constant([1.0], 2.0)
    res = simulate_ensemble(spec, policy, 8, grid, seed=0)
    mx = mean_ode_solve(spec.dynamics, policy, grid)
    bound = 5.0 * grid.dt * np.max(np.abs(mx))
    assert np.max(np.abs(res.mean_x - mx)) <= bound
    # with zero diffusion every path is the same trajectory
    paths = ensemble_column(spec, policy, 8, grid, seed=0).paths
    assert np.max(np.abs(paths - paths[:1])) == 0.0


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
    dyn, tgt = spec.dynamics, spec.target
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
        hconst = tgt.E1[0] * mx + tgt.E3[0] * (a * mx + bu) + tgt.E4[0] * u
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
    """An m = k = d = 1 spec with optional target noise, C and E3."""
    coef = st.floats(-1.0, 1.0)
    maybe = st.one_of(st.just(0.0), coef)
    return scalar_spec(
        a=draw(coef), b=draw(coef), c_coef=draw(maybe), d_coef=draw(maybe),
        x0=draw(coef), e1=draw(maybe), e2=draw(coef), e3=draw(maybe), e4=draw(coef),
        y0=draw(st.floats(0.1, 2.0)), g_state=draw(maybe), g_control=draw(maybe),
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
        assert np.array_equal(ensemble_column(spec, policy, n_paths, grid, seed).paths, paths)
        assert res.tau == _first_hit(mean_y, grid.times())[0]


@st.composite
def column_cases(draw):
    """A stable linear system (m, k in 1..3, d in 0..3) with c in 1..5 distinct runs.

    Each run's policy holds one drawn constant per grid step, so its node
    controls are arbitrary at every node a step reads.
    """
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
    )
    x0 = rng.uniform(-1.0, 1.0, (c, m))
    grid = SimGrid(1.0, n_steps)
    policies = [
        piecewise_constant(u, grid.times()) for u in rng.uniform(-1.0, 1.0, (c, n_steps, k))
    ]
    n_paths = draw(st.sampled_from([2, 3, 17]))
    return dyn, x0, policies, grid, n_paths, draw(st.integers(0, 1000))


@settings(max_examples=60, deadline=None)
@given(column_cases())
def test_each_column_of_one_loop_equals_the_column_run_alone(case):
    dyn, x0, policies, grid, n_paths, seed = case
    runs = [(replace(dyn, x0=start), policy) for start, policy in zip(x0, policies)]
    cols = [StoredColumn(run_dyn, policy, n_paths, grid) for run_dyn, policy in runs]
    _run_columns(cols, seed)
    for col, (run_dyn, policy) in zip(cols, runs):
        alone = StoredColumn(run_dyn, policy, n_paths, grid)
        _run_columns([alone], seed)
        assert alone.paths.shape == (n_paths, grid.n_steps + 1, dyn.m)
        assert np.array_equal(col.paths, alone.paths)


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
            mc_validate(params, solve_tau(params), n_paths=n_paths, dt=0.0625, seed=3,
                        vol_pair=(0.2, 0.4), threads=t)
            for t in (1, 2)
        )
        assert serial == threaded

        serial, threaded = (
            simulate_ensemble(spec, policy, n_paths, grid, 5, threads=t)
            for t in (1, 2)
        )
        for field in fields(serial):
            a, b = getattr(serial, field.name), getattr(threaded, field.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name

        serial, threaded = (
            fd_state_check(spec, direction, SimGrid(1.0, 20), 7, n_paths, t)
            for t in (1, 2)
        )
        assert serial == threaded
    finally:
        sys.setswitchinterval(interval)


def test_a_diverging_run_stops_and_joins_its_noise_worker(monkeypatch):
    # x' = x + 1e5 x dW from 1e200: the paths overflow one by one
    dyn = LinearDynamics(A=[[0.0]], B=[[0.0]], C=[[[1e5]]], D=[[[0.0]]], x0=[1e200])
    grid, seed, n_paths = SimGrid(1.0, 60), 11, _PREFETCH_MIN_DRAW
    policy = ControlPolicy.constant([0.0], 1.0)

    def run(threads):
        col = _Column(dyn, policy, n_paths, grid)
        with pytest.raises(DivergenceError) as err:
            _run_columns([col], seed, threads)
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
    assert res.cost == pytest.approx(res.tau, abs=1e-12)
    assert res.cost_stderr == 0.0


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
    assert abs(res.cost - mean_at_tau) < 1e-10
    assert res.cost_stderr == pytest.approx(0.0, abs=1e-12)


# where `cost_cases` puts the mean's first hit; "generic" draws target rows
_REGIMES = ("tau = 0", "between nodes", "on a node", "ii", "iii", "generic")


def _psd(rng, n):
    R = rng.uniform(-1.0, 1.0, (n, n))
    return R @ R.T / n


def cost_case(m, k, d, regime, state_term, rng_seed, n_steps, q, n_paths, seed):
    """A stable system (m, k, d in 1..3) with nonzero cost terms, in one hit regime.

    Every regime but "generic" makes the monitoring signal path-free,
    y0 - t on a grid of `n_steps` steps per unit time, so that it hits
    zero exactly where the regime puts it, with q in 1..n_steps - 1: at
    node 0, strictly inside a panel, on an interior node, never, or on T
    itself.  The first control is 1 on every segment of a
    piecewise-constant policy; the others change at breakpoints inside
    the horizon.  With `state_term` false, c_lin is zero.  Everything
    else comes from `default_rng(rng_seed)`.
    """
    rng = np.random.default_rng(rng_seed)
    R = rng.uniform(-1.0, 1.0, (m, m))
    dyn = LinearDynamics(
        A=R - (np.linalg.norm(R, 2) + 0.5) * np.eye(m),
        B=rng.uniform(-1.0, 1.0, (m, k)),
        C=list(rng.uniform(-0.5, 0.5, (d, m, m))),
        D=list(rng.uniform(-0.5, 0.5, (d, m, k))),
        x0=rng.uniform(-1.0, 1.0, m),
    )
    if regime == "generic":
        target = TargetCoefficients(
            E1=rng.uniform(-1.0, 1.0, m), E2=rng.uniform(-1.0, 1.0, m),
            E3=rng.uniform(-1.0, 1.0, m), E4=rng.uniform(-1.0, 1.0, k) - 1.0,
            y0=rng.uniform(0.2, 1.0),
            diffusion=TargetDiffusion(
                coef_mean=rng.uniform(-0.3, 0.3, (d, m)),
                coef_state=rng.uniform(-0.3, 0.3, (d, m)),
                coef_control=rng.uniform(-0.3, 0.3, (d, k)),
            ),
        )
    else:
        # Y' = E4 . u = -1, whatever the state and the other controls
        e4 = np.zeros(k)
        e4[0] = -1.0
        y0 = {
            "tau = 0": 1 - q, "between nodes": q - 0.5, "on a node": q,
            "ii": 2 * n_steps, "iii": n_steps,
        }[regime] / n_steps
        target = TargetCoefficients(E1=np.zeros(m), E2=np.zeros(m), E3=np.zeros(m), E4=e4, y0=y0)
    cost = CostSpec(
        kappa=rng.uniform(1.0, 2.0),
        c_lin=rng.uniform(-0.2, 0.2, m) if state_term else np.zeros(m),
        Lambda=_psd(rng, k),
        psi_lin=rng.uniform(-0.2, 0.2, m),
        psi_quad=_psd(rng, m),
    )
    spec = ProblemSpec(dyn, target, cost, ControlSet(-2.0 * np.ones(k), 2.0 * np.ones(k)), 1.0)
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 3)), [1.0]])
    values = rng.uniform(-1.0, 1.0, (4, k))
    values[:, 0] = 1.0
    policy = piecewise_constant(values, edges)
    return regime, spec, policy, SimGrid(1.0, n_steps), n_paths, seed


@st.composite
def cost_cases(draw):
    """`cost_case` over its whole range."""
    m, k, d = (draw(st.integers(1, 3)) for _ in range(3))
    regime = draw(st.sampled_from(_REGIMES))
    state_term = draw(st.booleans())
    rng_seed = draw(st.integers(0, 2**32 - 1))
    n_steps = draw(st.sampled_from([8, 16, 32]))
    q = None if regime == "generic" else draw(st.integers(1, n_steps - 1))
    n_paths = draw(st.sampled_from([2, 3, 17, 200]))
    seed = draw(st.integers(0, 1000))
    return cost_case(m, k, d, regime, state_term, rng_seed, n_steps, q, n_paths, seed)


def check_folded_cost(case):
    regime, spec, policy, grid, n_paths, seed = case
    res = simulate_ensemble(spec, policy, n_paths, grid, seed)
    col = ensemble_column(spec, policy, n_paths, grid, seed)
    j, stderr = estimate_cost(col.paths, grid, res.tau, spec.cost, policy)
    times = grid.times()
    expected = {
        "tau = 0": (0.0, "i"), "ii": (1.0, "ii"), "iii": (1.0, "iii"),
    }.get(regime)
    if expected is not None:
        assert (res.tau, res.case_label) == expected
    elif regime == "on a node":
        assert res.tau in times[1:-1]
    elif regime == "between nodes":
        assert res.tau not in times and 0.0 < res.tau < 1.0
    assert res.cost == pytest.approx(j, rel=1e-12, abs=0.0)
    assert abs(res.cost_stderr - stderr) <= 1e-12 * max(1.0, abs(j))
    if not spec.cost.c_lin.any():
        # without a state term the fold takes the reference's own sums
        assert (res.cost, res.cost_stderr) == (j, stderr)


@settings(max_examples=80, deadline=None)
@given(cost_cases())
def test_the_folded_cost_equals_the_two_pass_estimate_over_stored_paths(case):
    check_folded_cost(case)


def test_the_folded_cost_sums_the_shared_part_over_the_nodes_it_closes_on():
    # u'Lambda u / 2 over all nine nodes read 1 ulp off its value over the
    # two nodes up to the hit at node 1, and so did the cost's standard error
    check_folded_cost(cost_case(1, 2, 2, "on a node", False, 1057, 8, 1, 2, 1))


def test_the_folded_cost_reads_the_control_before_a_jump_at_tau():
    # the noiseless mean target 1 - 2^-11 - t hits at tau = 2 047 / 2 048, in
    # the middle of the panel to node 1 024; a policy that jumps there from 1
    # to 3 costs what the constant 1 does, (1 + 1 / 2) tau, exactly
    cost = CostSpec(kappa=1.0, c_lin=[0.0], Lambda=[[1.0]], psi_lin=[0.0], psi_quad=[[0.0]])
    spec, grid = jump_at_tau_spec(1.0 - 2.0**-11, cost), SimGrid(8.0, 8192)
    tau = 2047.0 / 2048.0
    flat = simulate_ensemble(spec, ControlPolicy.constant([1.0], 8.0), 2, grid, 0)
    jump = simulate_ensemble(spec, piecewise_constant([1.0, 3.0], [0.0, tau, 8.0]), 2, grid, 0)
    assert flat.tau == jump.tau == tau
    assert jump.cost == flat.cost == 1.5 * tau == 1.499267578125


def test_a_hit_that_rounds_onto_the_node_before_closes_the_cost_there():
    # E[Y] falls to 2^-54 at node 2, then the first control jumps to 2^40, so
    # the interpolated hit 0.25 + 2^-94 rounds onto node 2 itself: the cost
    # ends at node 2, without the panel to node 3 and at node 2's state
    dyn = LinearDynamics(
        A=[[-0.5]], B=[[0.0, 1.0]], C=[[[0.2]]], D=[[[0.0, 0.1]]], x0=[1.0]
    )
    target = TargetCoefficients(E1=[0.0], E2=[0.0], E3=[0.0], E4=[-1.0, 0.0], y0=0.25 + 2.0**-54)
    cost = CostSpec(
        kappa=1.0, c_lin=[0.3], Lambda=[[0.0, 0.0], [0.0, 0.5]], psi_lin=[0.2],
        psi_quad=[[0.4]],
    )
    spec = ProblemSpec(dyn, target, cost, ControlSet([-1.0, -1.0], [1.0, 1.0]), 1.0)
    policy = piecewise_constant([[1.0, 0.3], [2.0**40, -0.4]], [0.0, 0.25, 1.0])
    grid = SimGrid(1.0, 8)
    res = simulate_ensemble(spec, policy, 17, grid, 4)
    assert res.mean_y[2] == 2.0**-54 and res.mean_y[3] < 0.0
    assert (res.tau, res.case_label) == (0.25, "i")
    paths = ensemble_column(spec, policy, 17, grid, 4).paths
    j, stderr = estimate_cost(paths, grid, res.tau, cost, policy)
    assert res.cost == pytest.approx(j, rel=1e-12, abs=0.0)
    assert abs(res.cost_stderr - stderr) <= 1e-12 * max(1.0, abs(j))


def test_simulate_ensemble_memory_does_not_grow_with_the_steps():
    cfg = load_config(str(ROOT / "perfbench" / "configs" / "two_state.json"))
    spec = parse_problem(cfg["problem"])
    policy = parse_policy(cfg["policy"], horizon=spec.horizon)
    peaks = {}
    for n_steps in (500, 4000):
        tracemalloc.start()
        try:
            simulate_ensemble(spec, policy, 2000, SimGrid(spec.horizon, n_steps), 0, threads=1)
            peaks[n_steps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # stored paths and the two-pass estimate over them read about 45 MB at
    # 1 000 steps; the fold keeps a few rows of 2 000 paths and per-node
    # statistics
    assert max(peaks.values()) < 4e6, peaks
