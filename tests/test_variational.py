import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import never_crossing_spec, piecewise_constant, scalar_spec
from meantau import simulate, variational
from meantau.config import load_config, parse_policy, parse_problem
from meantau.errors import DivergenceError
from meantau.problem import (
    ControlPolicy,
    ControlSet,
    CostSpec,
    LinearDynamics,
    ProblemSpec,
    TargetCoefficients,
    perturbed_policy,
)
from meantau.simulate import SimGrid, simulate_ensemble, step_noise
from meantau.variational import (
    PerturbationSpec,
    dual_identity_check,
    fd_state_check,
    fd_tau_check,
    hit_time_derivative,
    mean_target_response,
    simulate_state_sensitivity,
)

ROOT = Path(__file__).resolve().parents[1]


def test_zero_direction_gives_zero_sensitivity():
    spec = scalar_spec(c_coef=0.2, d_coef=0.1)
    grid = SimGrid(1.0, 50)
    res = simulate_state_sensitivity(
        spec,
        ControlPolicy.constant([0.8], 6.0),
        ControlPolicy.constant([0.0], 6.0),
        grid,
        seed=3,
        n_paths=16,
    )
    assert np.max(np.abs(res.paths)) == 0.0
    np.testing.assert_allclose(res.mean_exact, 0.0)


def test_linear_dynamics_make_the_quotient_exact():
    # for linear coefficients the perturbed path is the base path plus
    # rho times the sensitivity, pathwise, so the gap is pure round-off
    spec = scalar_spec(a=0.5, b=1.0, c_coef=0.3, d_coef=0.2)
    grid = SimGrid(1.0, 100)
    policy = ControlPolicy.constant([0.8], 6.0)
    direction = piecewise_constant([0.5, -0.3], [0.0, 0.5, 6.0])
    rows = fd_state_check(
        spec, policy, direction, rhos=(1e-2, 1e-3), grid=grid, seed=11, n_paths=32
    )
    for row in rows:
        assert row.sup_err < 1e-9


def test_decoupled_noise_destroys_the_quotient():
    # the convergence above depends on shared Brownian increments; with
    # fresh noise for the perturbed ensemble the quotient blows up as 1/rho
    spec = scalar_spec(a=0.5, b=1.0, c_coef=0.3, d_coef=0.2)
    grid = SimGrid(1.0, 100)
    policy = ControlPolicy.constant([0.8], 6.0)
    rho = 1e-3
    direction = ControlPolicy.constant([0.5], 6.0)
    perturbed = perturbed_policy(policy, direction, rho)

    def paths(pol, seed):
        return simulate_ensemble(spec, pol, 32, grid, seed, store_paths=True).paths_x

    base = paths(policy, 11)
    pert_same = paths(perturbed, 11)
    pert_other = paths(perturbed, 99)
    coupled = np.max(np.abs(pert_same - base)) / rho
    decoupled = np.max(np.abs(pert_other - base)) / rho
    assert decoupled > 50.0 * coupled


def test_mean_target_response_wealth_coefficients(wealth_spec):
    # with E2 = -r and E4 = -(growth - rate) the response is -r E[y] - (growth - rate)
    ey = np.array([[0.0], [1.0], [2.0]])
    v = np.array([[1.0], [1.0], [1.0]])
    out = mean_target_response(ey, v, wealth_spec.target, wealth_spec.dynamics)
    np.testing.assert_allclose(out, -0.05 * ey[:, 0] - 0.05, atol=1e-15)


def test_response_matches_finite_difference_of_the_mean_rate():
    spec = scalar_spec(a=0.3, b=0.9, e1=0.1, e2=-0.8, e3=0.2, e4=0.3, y0=2.0)
    grid = SimGrid(2.0, 2000)
    policy = ControlPolicy.constant([0.8], 6.0)
    direction = ControlPolicy.constant([0.4], 6.0)
    from meantau.simulate import mean_ode_solve
    from meantau.problem import perturbed_policy, target_control_row, target_state_row

    ts = grid.times()
    rho = 1e-6
    row_x = target_state_row(spec.target, spec.dynamics)
    row_u = target_control_row(spec.target, spec.dynamics)

    def rate(pol):
        mx = mean_ode_solve(spec.dynamics, pol, grid)
        return mx @ row_x + pol.values(ts, side=+1) @ row_u

    fd = (rate(perturbed_policy(policy, direction, rho)) - rate(policy)) / rho
    ey = simulate_state_sensitivity(spec, policy, direction, grid, 0, 2).mean_exact
    formula = mean_target_response(ey, direction.values(ts, side=+1), spec.target, spec.dynamics)
    assert np.max(np.abs(fd - formula)) < 1e-6


def test_hit_time_derivative_interior_case():
    spec = scalar_spec(a=0.3, b=1.0, e2=-1.0, e4=0.4, y0=2.0, horizon=6.0)
    grid = SimGrid(6.0, 30_000)
    policy = ControlPolicy.constant([0.8], 6.0)
    direction = ControlPolicy.constant([0.5], 6.0)
    deriv = hit_time_derivative(spec, policy, direction, grid)
    assert deriv.case_label == "i"
    assert deriv.slope_at_tau < 0.0
    assert np.isfinite(deriv.value)
    report = fd_tau_check(spec, policy, direction, rhos=(1e-2, 1e-3), grid=grid)
    gaps = [r.rel_gap for r in report.rows]
    assert gaps[1] < gaps[0]
    assert gaps[1] < 5e-3


def test_hit_time_derivative_at_the_cap_is_zero():
    spec = never_crossing_spec(horizon=1.0)
    grid = SimGrid(1.0, 500)
    policy = ControlPolicy.constant([0.5], 1.0)
    direction = ControlPolicy.constant([0.2], 1.0)
    deriv = hit_time_derivative(spec, policy, direction, grid)
    assert deriv.case_label == "ii"
    assert deriv.value == 0.0
    assert np.isnan(deriv.slope_at_tau)
    report = fd_tau_check(spec, policy, direction, rhos=(1e-2, 1e-3), grid=grid)
    for row in report.rows:
        assert row.quotient == 0.0
        assert row.abs_gap == 0.0


def test_dual_identity_on_scalar_problem():
    spec = scalar_spec(a=0.3, b=1.0, e2=-1.0, e4=0.4, y0=2.0, horizon=6.0)
    grid = SimGrid(6.0, 6000)
    policy = piecewise_constant([0.8, 1.2], [0.0, 2.0, 6.0])
    direction = piecewise_constant([0.5, -0.2, 0.1], [0.0, 1.0, 3.0, 6.0])
    report = dual_identity_check(spec, policy, direction, grid)
    assert report.rel_gap < 1e-6
    assert report.response_integral != 0.0


def test_dual_identity_zero_direction():
    spec = scalar_spec(a=0.3, b=1.0, e2=-1.0, e4=0.4, y0=2.0, horizon=6.0)
    grid = SimGrid(6.0, 4000)
    policy = ControlPolicy.constant([0.8], 6.0)
    report = dual_identity_check(spec, policy, ControlPolicy.constant([0.0], 6.0), grid)
    assert report.response_integral == pytest.approx(0.0, abs=1e-15)
    assert report.adjoint_integral == pytest.approx(0.0, abs=1e-15)
    assert report.rel_gap == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("config", ["docs/examples/scalar.json", "perfbench/configs/two_state.json"])
def test_dual_identity_reuses_the_tau_derivative(config):
    cfg = load_config(str(ROOT / config))
    spec = parse_problem(cfg["problem"])
    policy = parse_policy(cfg["policy"], horizon=spec.horizon)
    direction = parse_policy(cfg["direction"], path="direction", horizon=spec.horizon)
    grid = SimGrid(spec.horizon, 40_000)
    derivative = hit_time_derivative(spec, policy, direction, grid)
    alone = dual_identity_check(spec, policy, direction, grid)
    reused = dual_identity_check(spec, policy, direction, grid, derivative=derivative)
    assert reused == alone


def test_dual_identity_requires_an_interior_hit():
    spec = never_crossing_spec()
    with pytest.raises(ValueError):
        dual_identity_check(
            spec,
            ControlPolicy.constant([0.5], 1.0),
            ControlPolicy.constant([0.1], 1.0),
            SimGrid(1.0, 100),
        )


# Random stable systems with m, k, d in {1, 2, 3} and an interior
# transversal hit under a constant control u0.  A = R - (|R|_2 + delta) I
# has log-norm <= -delta, so |E[X](t)| <= r = |x0| + |B u0| / delta on the
# whole horizon.  E4 is then shifted along u0 so that the mean target rate
# is at most -margin, with margin >= 1 + |E1 + E2 + E3 A| r: Y falls with
# slope <= -margin, and y0 <= 0.8 margin T puts the hit inside (0, T).
# 10 000 steps keep the interpolated hit's O(h) error in the quotient
# below 3e-4 (worst seen over 1 200 draws).
_HIT_HORIZON = 4.0
_HIT_GRID = SimGrid(_HIT_HORIZON, 10_000)


def _unit_entries(shape):
    return arrays(np.float64, shape, elements=st.floats(-1.0, 1.0))


@st.composite
def hitting_problems(draw):
    """(spec, constant policy u0, two-piece direction) with an interior transversal hit."""
    m, k, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    R = draw(_unit_entries((m, m)))
    delta = draw(st.floats(0.2, 1.0))
    A = R - (np.linalg.norm(R, 2) + delta) * np.eye(m)
    B, x0 = draw(_unit_entries((m, k))), draw(_unit_entries(m))
    dyn = LinearDynamics(
        A=A, B=B, C=draw(_unit_entries((d, m, m))), D=draw(_unit_entries((d, m, k))), x0=x0
    )
    u0 = draw(arrays(np.float64, k, elements=st.floats(0.5, 1.5)))
    E1, E2, E3, E4 = (draw(_unit_entries(n)) for n in (m, m, m, k))
    r = np.linalg.norm(x0) + np.linalg.norm(B @ u0) / delta
    bound = np.linalg.norm(E1 + E2 + E3 @ A) * r
    margin = draw(st.floats(0.5, 2.0)) * (1.0 + bound)
    E4 = E4 - (bound + margin + (E3 @ B + E4) @ u0) * u0 / (u0 @ u0)
    target = TargetCoefficients(
        E1=E1, E2=E2, E3=E3, E4=E4, y0=draw(st.floats(0.2, 0.8)) * margin * _HIT_HORIZON
    )
    spec = ProblemSpec(
        dyn, target, CostSpec.time_optimal(m, k), ControlSet(u0 - 1.0, u0 + 1.0), _HIT_HORIZON
    )
    edge = draw(st.floats(0.2, _HIT_HORIZON - 0.2))
    direction = piecewise_constant(
        [draw(_unit_entries(k)), draw(_unit_entries(k))], [0.0, edge, _HIT_HORIZON]
    )
    return spec, ControlPolicy.constant(u0, _HIT_HORIZON), direction


@settings(max_examples=20, deadline=None)
@given(hitting_problems())
def test_duality_identity_holds_on_random_stable_systems(problem):
    spec, policy, direction = problem
    report = dual_identity_check(spec, policy, direction, _HIT_GRID)
    assert 0.0 < report.tau < _HIT_HORIZON
    assert report.rel_gap < 1e-6


@settings(max_examples=20, deadline=None)
@given(hitting_problems())
def test_hit_time_derivative_matches_fd_on_random_stable_systems(problem):
    spec, policy, direction = problem
    report = fd_tau_check(spec, policy, direction, PerturbationSpec(direction).rhos, _HIT_GRID)
    assert report.derivative.case_label == "i"
    assert report.derivative.slope_at_tau < 0.0
    finest = min(report.rows, key=lambda row: row.rho)
    assert finest.rel_gap < 1e-3


def test_perturbation_admissibility():
    spec = scalar_spec(lower=0.2, upper=1.5)
    interior = ControlPolicy.constant([0.8], 6.0)
    at_edge = ControlPolicy.constant([1.5], 6.0)
    up = ControlPolicy.constant([1.0], 6.0)
    pert = PerturbationSpec(direction=up, rhos=(1e-2, 1e-3))
    assert pert.validate(spec, interior).ok
    bad = pert.validate(spec, at_edge)
    assert not bad.ok
    assert any("leaves the box" in v for v in bad.violations)


def test_perturbation_rejects_horizon_mismatch_and_bad_steps():
    spec = scalar_spec()
    policy = ControlPolicy.constant([0.8], 6.0)
    short = ControlPolicy.constant([0.1], 3.0)
    report = PerturbationSpec(direction=short).validate(spec, policy)
    assert not report.ok and any("horizon" in v for v in report.violations)
    report = PerturbationSpec(
        direction=ControlPolicy.constant([0.0], 6.0), rhos=(1e-2, -1.0)
    ).validate(spec, policy)
    assert not report.ok and any("positive" in v for v in report.violations)


@pytest.mark.parametrize("check", ["fd_tau_check", "fd_state_check"])
@pytest.mark.parametrize(
    "rho", [0.0, -1e-3, float("inf"), float("nan")], ids=["zero", "negative", "inf", "nan"]
)
def test_fd_checks_reject_a_step_size_that_is_not_finite_and_positive(monkeypatch, check, rho):
    def no_solve(*args):
        raise AssertionError("solved before the step sizes were checked")

    monkeypatch.setattr(variational, "solve_mean_path", no_solve)
    monkeypatch.setattr(variational, "_fd_paths", no_solve)
    spec, grid = scalar_spec(), SimGrid(6.0, 50)
    args = (spec, ControlPolicy.constant([0.8], 6.0), ControlPolicy.constant([0.1], 6.0))
    with pytest.raises(ValueError, match=r"^rhos\[1\]: "):
        if check == "fd_tau_check":
            fd_tau_check(*args, (1e-2, rho), grid)
        else:
            fd_state_check(*args, (1e-2, rho), grid, seed=0, n_paths=4)


# ---------------------------------------------------------------------------
# The one Euler-Maruyama loop against separately stepped reference loops


def reference_state_paths(dyn, policy, grid, seed, n_paths, x0=None):
    """State paths of one ensemble stepped on its own, redrawing the noise.

    The sensitivity along v is the same SDE started at x0 = 0 and driven by v.
    """
    times = grid.times()
    dt = grid.dt
    sq = np.sqrt(dt)
    d = dyn.d
    u_nodes = np.atleast_2d(policy.values(times, side=+1))
    X = np.tile(dyn.x0 if x0 is None else x0, (n_paths, 1))
    out = np.empty((n_paths, grid.n_steps + 1, dyn.m))
    out[:, 0, :] = X
    for j in range(grid.n_steps):
        u = u_nodes[j]
        Xn = X + dyn.drift(X, u) * dt
        if d > 0:
            dW = step_noise(seed, j, n_paths, d) * sq
            Xn = Xn + np.einsum("nmj,nj->nm", dyn.diffusion(X, u), dW)
        X = Xn
        out[:, j + 1, :] = X
    return out


def fd_state_paths(*args, **kwargs):
    """The (base, sens, perturbed) paths of each loop fd_state_check(*args, **kwargs) ran."""
    calls = []
    kernel = variational._fd_paths

    def record(*a):
        calls.append(kernel(*a))
        return calls[-1]

    variational._fd_paths = record
    try:
        fd_state_check(*args, **kwargs)
    finally:
        variational._fd_paths = kernel
    return calls


def assert_kernel_matches(paths, ref, dyn):
    """The linear kernel's rule against a reference loop.

    Its operation order differs from the reference loop's except at
    m = k = 1 and d <= 1, where the paths must be equal.
    """
    if dyn.m == dyn.k == 1 and dyn.d <= 1:
        assert np.array_equal(paths, ref)
    else:
        assert np.max(np.abs(paths - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


@st.composite
def linear_cases(draw):
    """A stable linear system with m, k in 1..3 and d in 0..3, plus the run sizes."""
    m, k, d = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R = rng.uniform(-1.0, 1.0, (m, m))
    dyn = LinearDynamics(
        A=R - (np.linalg.norm(R, 2) + 0.5) * np.eye(m),
        B=rng.uniform(-1.0, 1.0, (m, k)),
        C=list(rng.uniform(-0.5, 0.5, (d, m, m))),
        D=list(rng.uniform(-0.5, 0.5, (d, m, k))),
        x0=rng.uniform(-1.0, 1.0, m),
        m=m,
        k=k,
        d=d,
    )
    spec = ProblemSpec(
        dyn,
        TargetCoefficients(
            E1=np.zeros(m), E2=-np.ones(m), E3=np.zeros(m), E4=np.zeros(k), y0=1.0
        ),
        CostSpec.time_optimal(m, k),
        ControlSet(-2.0 * np.ones(k), 2.0 * np.ones(k)),
        1.0,
    )
    policy = piecewise_constant(rng.uniform(-1.0, 1.0, (2, k)), [0.0, 0.37, 1.0])
    direction = piecewise_constant(rng.uniform(-1.0, 1.0, (2, k)), [0.0, 0.61, 1.0])
    grid = SimGrid(1.0, draw(st.integers(1, 12)))
    n_paths = draw(st.sampled_from([2, 3, 17]))
    return spec, policy, direction, grid, draw(st.integers(0, 1000)), n_paths


@settings(max_examples=60, deadline=None)
@given(linear_cases())
def test_kernel_columns_equal_separately_stepped_loops(case):
    spec, policy, direction, grid, seed, n_paths = case
    dyn, rhos = spec.dynamics, (1e-2, 1e-3)
    ref_base = reference_state_paths(dyn, policy, grid, seed, n_paths)
    ref_sens = reference_state_paths(dyn, direction, grid, seed, n_paths, x0=np.zeros(dyn.m))

    sens = simulate_state_sensitivity(spec, policy, direction, grid, seed, n_paths)
    assert_kernel_matches(sens.paths, ref_sens, dyn)
    assert_kernel_matches(sens.mean_mc, ref_sens.mean(axis=0), dyn)

    calls = fd_state_paths(spec, policy, direction, rhos, grid, seed, n_paths)
    assert len(calls) == 1
    base, sens_paths, perturbed = calls[0]
    assert_kernel_matches(base, ref_base, dyn)
    assert_kernel_matches(sens_paths, ref_sens, dyn)
    assert len(perturbed) == len(rhos)
    for rho, pert in zip(rhos, perturbed):
        ref = reference_state_paths(
            dyn, perturbed_policy(policy, direction, rho), grid, seed, n_paths
        )
        assert_kernel_matches(pert, ref, dyn)


def test_fd_state_check_draws_the_noise_once_per_step(monkeypatch):
    draws, drawn_by = [], set()

    def counting(seed, step, n_paths, d):
        draws.append(step)
        drawn_by.add(threading.current_thread())
        return step_noise(seed, step, n_paths, d)

    monkeypatch.setattr(simulate, "step_noise", counting)
    spec = scalar_spec(c_coef=0.2, d_coef=0.1)
    grid = SimGrid(1.0, 25)
    policy = ControlPolicy.constant([0.8], 6.0)
    direction = ControlPolicy.constant([0.5], 6.0)
    # below the draw size a worker takes, every step draws in the loop
    fd_state_check(spec, policy, direction, (1e-2, 1e-3, 1e-4), grid, 1, 8, threads=2)
    assert draws == list(range(grid.n_steps))
    assert drawn_by == {threading.current_thread()}
    draws.clear()
    simulate_state_sensitivity(spec, policy, direction, grid, seed=1, n_paths=8)
    assert draws == list(range(grid.n_steps))
    # above it, one worker thread makes every draw, in order, and no more
    draws.clear()
    drawn_by.clear()
    n_paths = simulate._PREFETCH_MIN_DRAW
    fd_state_check(spec, policy, direction, (1e-2,), grid, 1, n_paths, threads=2)
    assert draws == list(range(grid.n_steps))
    assert len(drawn_by) == 1 and threading.current_thread() not in drawn_by


def test_diverging_linear_fd_state_check_names_the_path_within_its_lane():
    # base and perturbed runs start at 0 with u = 0; the sensitivity lane,
    # driven by a huge v through state-proportional noise, overflows first
    dyn = LinearDynamics(A=[[0.0]], B=[[1.0]], C=[[[10.0]]], D=[[[0.0]]], x0=[0.0])
    spec = ProblemSpec(
        dyn, scalar_spec().target, CostSpec.time_optimal(1, 1), ControlSet([-1.0], [1.0]), 1.0
    )
    policy = ControlPolicy.constant([0.0], 1.0)
    direction = ControlPolicy.constant([1e306], 1.0)
    grid, seed, n_paths = SimGrid(1.0, 10), 5, 8
    # reference: S' = S + dt v + 10 S dW, stepped alone on the same noise
    S = np.zeros(n_paths)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(grid.n_steps):
            dW = step_noise(seed, j, n_paths, 1)[:, 0] * np.sqrt(grid.dt)
            S = S + grid.dt * 1e306 + 10.0 * S * dW
            bad = np.flatnonzero(~np.isfinite(S))
            if bad.size:
                break
    assert bad.size and bad[0] > 0
    with pytest.raises(DivergenceError) as err:
        fd_state_check(spec, policy, direction, (1e-2,), grid, seed, n_paths)
    assert (err.value.step, err.value.path) == (j + 1, int(bad[0]))
