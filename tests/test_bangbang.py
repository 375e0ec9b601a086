from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.optimize import brentq

from helpers import (
    TAU_REF,
    adjoint_switch_times,
    exact_hit,
    never_crossing_spec,
    scalar_spec,
    scalar_switch_structure,
    time_optimal_cost,
)
from meantau import bangbang
from meantau.bangbang import (
    find_switch_times,
    khat_evaluator,
    minimum_time,
    synthesize,
    vertex_policy,
)
from meantau.config import load_config, parse_problem
from meantau.errors import (
    AssumptionViolationError,
    InfeasibleError,
    NumericalConsistencyError,
    RegimeError,
    SingularArcError,
)
from meantau.problem import (
    ControlPolicy,
    ControlSet,
    CostSpec,
    LinearDynamics,
    ProblemSpec,
    TargetCoefficients,
)
from meantau.simulate import SimGrid, hit_time, solve_mean_path

EPS = np.finfo(float).eps
SCALAR = Path(__file__).resolve().parents[1] / "docs" / "examples" / "scalar.json"
TWO_STATE = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "two_state.json"


def scalar_khat(a, b, c1, c2, tau, t):
    return -(c1 * b / a) * (np.exp(a * (tau - t)) - 1.0) - c2


def test_khat_evaluator_matches_scalar_closed_form():
    spec = scalar_spec(a=0.5, b=1.0, e2=-1.0, e4=0.5)
    khat = khat_evaluator(spec.dynamics, spec.target, 3.0)
    for t in (0.0, 1.2, 2.5537128973715806, 3.0):
        expected = scalar_khat(0.5, 1.0, -1.0, 0.5, 3.0, t)
        assert abs(float(khat(t)[0]) - expected) < 1e-12
    assert float(khat(3.0)[0]) == -0.5


def test_minimum_time_refines_every_zero_through_the_module_brentq(monkeypatch):
    # perfbench/tracing.py counts refinements by replacing bangbang.brentq, so
    # minimum_time must look it up at call time.  Its one find_switch_times
    # pass is the only refinement of the zeros of k: synthesis refines nothing
    # after it, and builds no Khat node table
    spec = parse_problem(load_config(str(SCALAR))["problem"])
    roots, passes = [], []

    def counting_brentq(*args, **kwargs):
        roots.append(original(*args, **kwargs))
        return roots[-1]

    def counting_find_switch_times(*args, **kwargs):
        passes.append(len(roots))
        return find_switch_times(*args, **kwargs)

    assert not {"time_adjoint_closed_form", "target_hamiltonian_du"} & set(vars(bangbang))
    original = bangbang.brentq
    monkeypatch.setattr(bangbang, "brentq", counting_brentq)
    monkeypatch.setattr(bangbang, "find_switch_times", counting_find_switch_times)
    tau_star, zeros = minimum_time(spec)
    found = np.concatenate(zeros)
    # one pass: the zeros of k on [0, horizon], in order, then the root of v at tau*
    assert (passes, len(found)) == ([0], 1)
    assert roots == [*found, tau_star]

    roots.clear()
    passes.clear()
    result = synthesize(spec)
    assert (roots, passes) == ([*found, tau_star], [0])
    (switch,) = result.switch_times[0]
    assert switch == tau_star - found[0]


def node_line(times, vals):
    """`refine` for the curve through the node values, linear between nodes."""
    return lambda t, i: float(np.interp(t, times, vals[:, i]))


def test_find_switch_times_refines_with_brentq():
    times = np.linspace(0.0, 3.0, 7)
    vals = np.cos(times)[:, None]
    roots = find_switch_times(times, vals, refine=lambda t, i: np.cos(t), xtol=1e-12)
    assert len(roots[0]) == 1
    assert abs(roots[0][0] - np.pi / 2.0) < 1e-10


def test_find_switch_times_node_zero_counts_once():
    times = np.linspace(0.0, 1.0, 5)
    vals = np.array([[1.0], [0.5], [0.0], [-0.5], [-1.0]])
    roots = find_switch_times(times, vals, refine=node_line(times, vals))
    np.testing.assert_allclose(roots[0], [0.5])


def test_find_switch_times_rejects_values_without_a_node_axis():
    times = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="per time node"):
        find_switch_times(times, np.linspace(-1.0, 1.0, 12).reshape(3, 4), refine=lambda t, i: t)


def test_find_switch_times_takes_values_only_as_nodes_by_components():
    times = np.linspace(0.0, 1.0, 5)
    line = 0.37 - times
    for vals in (line, line[None, :]):
        with pytest.raises(ValueError, match="per time node"):
            find_switch_times(times, vals, refine=lambda t, i: 0.37 - t)


def test_find_switch_times_zero_plateau_is_singular():
    times = np.linspace(0.0, 1.0, 5)
    vals = np.array([[1.0], [0.0], [0.0], [0.0], [-1.0]])
    with pytest.raises(SingularArcError):
        find_switch_times(times, vals, refine=node_line(times, vals))


def test_find_switch_times_exact_zero_between_opposite_signs_is_that_node():
    times = np.linspace(0.0, 1.0, 6)
    vals = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0], [0.5]])
    calls = []

    def refine(t, i):
        calls.append(t)
        return 0.0

    roots = find_switch_times(times, vals, refine=refine)
    assert roots[0].tolist() == [times[2]]
    assert calls == []  # a node root needs no polish


def test_find_switch_times_zero_at_node_zero_is_no_root():
    times = np.linspace(0.0, 1.0, 5)
    for col in ([0.0, -1.0, -2.0, -1.0, -0.5], [0.0, 1.0, 2.0, 1.0, 0.0]):
        vals = np.array(col)[:, None]
        assert find_switch_times(times, vals, refine=node_line(times, vals))[0].size == 0


def test_find_switch_times_three_node_near_zero_plateau_raises():
    times = np.linspace(0.0, 1.0, 7)
    two = np.array([1.0, 0.5, 1e-14, -1e-14, -0.5, -1.0, -1.5])[:, None]
    assert len(find_switch_times(times, two, refine=node_line(times, two))[0]) == 1
    three = np.array([1.0, 0.5, 1e-14, -1e-14, 1e-14, -1.0, -1.5])
    vals = np.stack([times - 0.5, three], axis=1)
    with pytest.raises(SingularArcError) as err:
        find_switch_times(times, vals, refine=node_line(times, vals))
    assert err.value.component == 1


def _switch_times_by_node_loop(times, col, refine):
    """The node-by-node scan, kept as the reference for the vectorized one."""
    roots = []
    sgn = np.sign(col)
    for j in range(len(times) - 1):
        if sgn[j] == 0.0:
            if 0 < j and sgn[j - 1] * sgn[j + 1] < 0:
                roots.append(times[j])
            continue
        if sgn[j + 1] == 0.0 or sgn[j] * sgn[j + 1] > 0:
            continue
        roots.append(bangbang.brentq(lambda t: refine(t, 0), times[j], times[j + 1], xtol=1e-10))
    return np.array(roots)


def test_find_switch_times_matches_the_node_loop():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        times = np.sort(rng.uniform(0.0, 3.0, n))
        col = rng.choice([-1.0, 0.0, 1.0], n) * rng.uniform(0.1, 2.0, n)
        col[np.nonzero(col == 0.0)[0][2::3]] = 0.7  # keep zero runs short
        refine = node_line(times, col[:, None])
        try:
            roots = find_switch_times(times, col[:, None], refine=refine)[0]
        except SingularArcError:
            continue
        assert np.array_equal(roots, _switch_times_by_node_loop(times, col, refine))


def test_find_switch_times_handles_multiple_columns():
    times = np.linspace(0.0, 1.0, 11)
    vals = np.stack([times - 0.37, 0.83 - times], axis=1)
    roots = find_switch_times(times, vals, refine=node_line(times, vals))
    assert len(roots) == 2
    np.testing.assert_allclose(roots[0], [0.37], atol=1e-14)
    np.testing.assert_allclose(roots[1], [0.83], atol=1e-14)


def test_vertex_policy_wealth_sits_at_the_upper_bound(wealth_spec):
    switches = adjoint_switch_times(wealth_spec, TAU_REF, n_nodes=512)
    assert switches[0].size == 0
    policy = vertex_policy(wealth_spec, TAU_REF, switches)
    khat = khat_evaluator(wealth_spec.dynamics, wealth_spec.target, TAU_REF)
    assert all(float(khat(t)[0]) > 0.0 for t in np.linspace(0.0, TAU_REF, 9))
    assert float(policy.values(0.0)[0]) == 12.5
    assert float(policy.values(TAU_REF - 1e-3)[0]) == 12.5
    # held past tau so the policy stays evaluable on the full horizon
    assert policy.horizon == 20.0
    assert float(policy.values(15.0)[0]) == 12.5


def test_vertex_policy_rejects_identically_zero_switching():
    # Khat vanishes at every midpoint; the adjoint route sees the plateau
    spec = scalar_spec(e2=0.0, e4=0.0)
    with pytest.raises(SingularArcError):
        vertex_policy(spec, 1.0, [np.array([])])
    with pytest.raises(SingularArcError):
        adjoint_switch_times(spec, 1.0, n_nodes=64)


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
    assert float(result.policy.values(0.5 * t0)[0]) == 1.5
    assert float(result.policy.values(0.5 * (t0 + result.tau))[0]) == 0.2
    assert float(result.policy.values(result.tau, side=-1)[0]) == 0.2

    # tau* is a fixed point of the hit map: re-detect on a finer grid
    mp = solve_mean_path(spec, result.policy, SimGrid(spec.horizon, 8192))
    assert mp.case_label == "i"
    assert abs(mp.tau - result.tau) < 1e-3


def test_vertex_policy_keeps_a_switch_just_before_tau():
    # Khat(t) = 2 (e^{(tau - t) / 2} - 1) - c2 on scalar_spec's rows vanishes
    # at tau - t = 5e-4 when c2 = -2 (1 - e^{2.5e-4})
    c2 = -2.0 * (1.0 - np.exp(2.5e-4))
    spec = scalar_spec(e4=c2)
    switches = adjoint_switch_times(spec, 1.0)
    np.testing.assert_allclose(switches[0], [0.9995], rtol=0.0, atol=1e-10)
    policy = vertex_policy(spec, 1.0, switches)
    assert len(policy.segments) == 3
    np.testing.assert_allclose(policy.breakpoints, [0.0, 0.9995, 1.0, 6.0], rtol=0.0, atol=1e-10)


def test_synthesize_infeasible_when_the_target_is_out_of_reach():
    # v falls from 50 at rate 0.015 at best: its least value is at the horizon
    with pytest.raises(InfeasibleError, match="least value is 49.985, at t = 1$"):
        synthesize(never_crossing_spec(), n_nodes=128)


def test_synthesize_infeasible_when_no_control_moves_a_resting_target():
    # E2 = E4 = 0: the mean target rests at y0 and k vanishes throughout,
    # which makes v constant, not a singular arc
    with pytest.raises(InfeasibleError, match="least value is 2, at t = 0$"):
        synthesize(scalar_spec(e2=0.0, e4=0.0), n_nodes=128)


def horizon_two_spec():
    """scalar.json on a horizon of 2 with y0 = 6.3215, which no constant policy reaches."""
    cfg = load_config(str(SCALAR))["problem"]
    cfg["horizon"] = 2.0
    cfg["target"]["diffusion"]["coef_state"] = [[0.0]]
    cfg["target"]["y0"] = 6.3215
    return parse_problem(cfg)


def test_synthesize_reaches_a_target_that_no_constant_policy_reaches():
    # upper until the switch and lower after it hits at 1.9894 < 2; the
    # midpoint and both vertices held constant never do
    spec = horizon_two_spec()
    for u in (0.85, 0.2, 1.5):
        assert hit_time(spec, ControlPolicy.constant([u], 2.0), SimGrid(2.0, 4096))[1] == "ii"
    assert abs(minimum_time(spec)[0] - 1.9894017763440415) < 1e-12
    result = synthesize(spec)
    assert result.iterations == 1
    assert result.tau == result.tau_certified == minimum_time(spec)[0]
    # the exact mean under the returned policy first reaches zero at tau*, to
    # the resolution of exact_hit's brentq (xtol 1e-15 plus 4 eps tau).  Bit
    # equality here is rounding luck: the switch exact to the bit reads 6 ulp
    # off, and switches 2.5e-15 apart around it pass it about 3 times in 5
    assert abs(exact_hit(spec, result.policy) - result.tau) <= 1e-15 + 4 * EPS * result.tau


@pytest.mark.parametrize(
    "path, tau_star, gap",
    [(SCALAR, 1.1334866124776, -1.0e-7), (TWO_STATE, 0.9614536008812, 2.3e-8)],
    ids=["scalar", "two_state"],
)
def test_minimum_time_on_the_shipped_configs(path, tau_star, gap):
    spec = parse_problem(load_config(str(path))["problem"])
    assert abs(minimum_time(spec)[0] - tau_star) < 1e-12
    # synthesis answers tau* in one hit pass; the exact mean under its policy
    # first reaches zero there, to the resolution of exact_hit's brentq
    # (xtol 1e-15 plus 4 eps tau: bit equality would hold by rounding), and
    # tau_gap is the RK4 hit's offset from it
    result = synthesize(spec)
    assert result.tau == result.tau_certified == minimum_time(spec)[0]
    assert result.iterations == 1
    assert abs(exact_hit(spec, result.policy) - result.tau) <= 1e-15 + 4 * EPS * result.tau
    # the policy is anchored at tau: its last vertex is held from tau on
    assert result.policy.segments[-1].t_start == result.tau
    rk4_hit, label = hit_time(spec, result.policy, SimGrid(spec.horizon, 4096))
    assert (label, result.case_label) == ("i", "i")
    assert result.tau_gap == rk4_hit - result.tau
    assert abs(result.tau_gap - gap) < 0.1 * abs(gap)
    if path == SCALAR:
        # a = 0.5, b = 1, c1 = -1, c2 = 0.5: the one switch sits at its closed form to rounding
        (switch,) = result.switch_times[0]
        report = scalar_switch_structure(0.5, 1.0, -1.0, 0.5, result.tau)
        assert abs(switch - report.switch_time) <= 1e-15
    # the switches mirrored from the zeros of k are the adjoint route's
    reference = adjoint_switch_times(spec, result.tau)
    assert [len(s) for s in result.switch_times] == [len(s) for s in reference]
    assert [len(s) for s in reference] == [1] * spec.dynamics.k
    np.testing.assert_allclose(
        np.concatenate(result.switch_times), np.concatenate(reference), rtol=0.0, atol=1e-10
    )


def oscillator_spec(y0):
    """E[Y] = y0 - sin t on [0, 6] whatever the control: box [0, 0], B = (0, 1)'."""
    dynamics = LinearDynamics(A=[[0.0, 1.0], [-1.0, 0.0]], B=[[0.0], [1.0]], C=[], D=[],
                              x0=[1.0, 0.0])
    target = TargetCoefficients(E1=[0.0, 0.0], E2=[-1.0, 0.0], E3=[0.0, 0.0], E4=[0.0], y0=y0)
    return ProblemSpec(dynamics, target, time_optimal_cost(2, 1), ControlSet([0.0], [0.0]), 6.0)


def test_minimum_time_finds_a_dip_between_two_nodes():
    # y0 - sin t is below zero on 8.9e-4 around pi / 2, less than the step
    # 6 / 4096, and every node stays above zero: the slope screen finds it
    spec = oscillator_spec(1.0 - 1e-7)
    times = SimGrid(6.0, 4096).times()
    assert np.all(1.0 - 1e-7 - np.sin(times) > 0.0)
    assert abs(minimum_time(spec)[0] - np.arcsin(1.0 - 1e-7)) < 1e-12


def test_synthesis_refuses_a_hit_pass_that_misses_the_certified_dip():
    # the RK4 hit pass reads nodes only, so it misses the dip that
    # minimum_time certifies and reads "ii" at the horizon: the cross-check
    # fails.  The first hit between nodes (ROADMAP item 13) turns this into
    # a pass, and this test with it
    with pytest.raises(NumericalConsistencyError) as err:
        synthesize(oscillator_spec(1.0 - 1e-7))
    assert str(err.value) == (
        "the hit pass reads no hit before the horizon, 4.43 after the certified "
        "minimum time 1.570349113196: it reads case ii at tau = 6"
    )


def test_synthesis_refuses_a_horizon_just_past_the_minimum_time():
    # on scalar.json with the horizon 1e-8 past tau*, the RK4 hit pass on 8
    # steps lags the exact mean by more than the 1e-8 left, so it reads no
    # hit before the horizon although tau* < T.  Synthesis answers only a
    # tau* that its hit pass confirms, so it refuses here instead of
    # returning tau* with label "ii" and a NaN slope
    cfg = load_config(str(SCALAR))["problem"]
    cfg["horizon"] = 1.1334866225
    spec = parse_problem(cfg)
    tau_star = minimum_time(spec, n_nodes=8)[0]
    assert 0.0 < spec.horizon - tau_star < 1.1e-8
    assert hit_time(spec, vertex_policy(spec, tau_star, adjoint_switch_times(spec, tau_star)),
                    SimGrid(spec.horizon, 8))[1] == "ii"
    with pytest.raises(NumericalConsistencyError) as err:
        synthesize(spec, n_nodes=8)
    assert str(err.value) == (
        "the hit pass reads no hit before the horizon, 1e-08 after the certified "
        "minimum time 1.133486612478: it reads case ii at tau = 1.1334866225"
    )


def test_an_infeasible_target_names_the_least_value_between_nodes():
    with pytest.raises(InfeasibleError, match="least value is 0.001, at t = 1.5708$"):
        minimum_time(oscillator_spec(1.0 + 1e-3))


def scipy_minimum_time(spec, scan=64):
    """tau* by scipy alone: expm for I(h), brentq for the zeros of k and of v,
    and quad for int_0^t sum_i min(k_i lower_i, k_i upper_i) over the pieces
    between the zeros, on a scan of `scan` + 1 points over [0, horizon]."""
    dyn, tgt, box = spec.dynamics, spec.target, spec.control_set
    m = dyn.m
    c_x = tgt.E1 + tgt.E2 + tgt.E3 @ dyn.A
    c_u = tgt.E3 @ dyn.B + tgt.E4
    aug = np.zeros((2 * m, 2 * m))
    aug[:m, :m] = dyn.A
    aug[:m, m:] = np.eye(m)

    def integral(h):
        return expm(aug * h)[:m, m:]

    def k(h):
        return c_x @ integral(h) @ dyn.B + c_u

    def least(h):
        kh = k(h)
        return float(np.minimum(kh * box.lower, kh * box.upper).sum())

    hs = np.linspace(0.0, spec.horizon, 1025)
    ks = np.array([k(h) for h in hs])
    zeros = sorted(
        brentq(lambda h: k(h)[i], hs[j], hs[j + 1], xtol=1e-15)
        for i in range(dyn.k)
        for j in np.nonzero(ks[:-1, i] * ks[1:, i] < 0.0)[0]
    )

    def pieces(a, b):
        cuts = [a] + [z for z in zeros if a < z < b] + [b]
        return sum(quad(least, lo, hi, epsabs=1e-14, epsrel=1e-13)[0]
                   for lo, hi in zip(cuts[:-1], cuts[1:]))

    def v(t):
        return tgt.y0 + c_x @ integral(t) @ dyn.x0 + pieces(0.0, t)

    ts = np.linspace(0.0, spec.horizon, scan + 1)
    v_prev = tgt.y0
    for a, b in zip(ts[:-1], ts[1:]):
        v_b = v_prev + c_x @ (integral(b) - integral(a)) @ dyn.x0 + pieces(a, b)
        if v_b <= 0.0:
            return brentq(v, a, b, xtol=1e-15)
        v_prev = v_b
    return None


@st.composite
def stable_time_optimal_specs(draw):
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, 0.6, (m, m))
    A -= (max(np.linalg.eigvals(A).real) + rng.uniform(0.1, 1.0)) * np.eye(m)
    lower = rng.uniform(-1.0, 0.5, k)
    dynamics = LinearDynamics(A=A, B=rng.normal(0.0, 1.0, (m, k)), C=[], D=[],
                              x0=rng.normal(0.0, 1.0, m))
    target = TargetCoefficients(
        E1=rng.normal(0.0, 1.0, m), E2=rng.normal(0.0, 1.0, m), E3=rng.normal(0.0, 0.5, m),
        E4=rng.normal(0.0, 0.5, k), y0=rng.uniform(0.1, 1.5),
    )
    box = ControlSet(lower, lower + rng.uniform(0.2, 2.0, k))
    return ProblemSpec(dynamics, target, time_optimal_cost(m, k), box, 3.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(spec=stable_time_optimal_specs())
def test_minimum_time_agrees_with_scipy_and_no_synthesized_policy_beats_it(spec):
    try:
        tau_star = minimum_time(spec, n_nodes=1024)[0]
        result = synthesize(spec, n_nodes=1024)
    except (InfeasibleError, AssumptionViolationError):
        assume(False)
    assert abs(tau_star - scipy_minimum_time(spec)) <= 1e-9
    # one pass: tau is the certificate itself, and the exact mean under the
    # vertex policy of Khat anchored at tau* first reaches zero there
    assert result.tau == result.tau_certified == tau_star
    assert abs(exact_hit(spec, result.policy) - result.tau) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(spec=stable_time_optimal_specs())
def test_synthesized_switch_times_are_the_adjoint_routes(spec):
    # the zeros of k mirrored through tau* against Khat's zeros from the
    # closed-form time adjoint's node table on [0, tau*]
    try:
        result = synthesize(spec, n_nodes=1024)
    except (InfeasibleError, AssumptionViolationError):
        assume(False)
    reference = adjoint_switch_times(spec, result.tau, n_nodes=1024)
    assert [len(s) for s in result.switch_times] == [len(s) for s in reference]
    for got, want in zip(result.switch_times, reference):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("e4", [0.5, -0.5])
@pytest.mark.parametrize("y0", [0.0, -1.0])
def test_synthesize_at_or_below_the_level_holds_the_vertex_past_tau(y0, e4):
    # tau = 0 with no pass: the policy holds, over the whole horizon, the
    # vertex of Khat(tau) = -(E3 B + E4), which vertex_policy holds past tau
    spec = scalar_spec(y0=y0, e4=e4)
    result = synthesize(spec)
    assert (result.tau, result.case_label, result.iterations) == (0.0, "i", 0)
    assert (result.tau_certified, result.tau_gap) == (0.0, 0.0)
    assert [s.size for s in result.switch_times] == [0]
    assert np.isnan(result.slope_at_tau)
    (segment,) = result.policy.segments
    assert (segment.t_start, segment.t_end) == (0.0, spec.horizon)
    past_tau = vertex_policy(spec, 1.0, adjoint_switch_times(spec, 1.0, 64)).segments[-1]
    np.testing.assert_array_equal(segment.gamma0, past_tau.gamma0)
    assert segment.gamma0[0] == (0.2 if e4 > 0.0 else 1.5)


def test_synthesize_at_the_level_has_no_switch_per_control():
    cfg = load_config(str(TWO_STATE))["problem"]
    cfg["target"]["y0"] = 0.0
    result = synthesize(parse_problem(cfg))
    assert result.tau == 0.0
    assert [s.size for s in result.switch_times] == [0, 0]


def test_synthesize_at_the_level_still_refuses_other_costs():
    cost = CostSpec(kappa=1.0, c_lin=[0.0], Lambda=[[1.0]], psi_lin=[0.0], psi_quad=[[0.0]])
    with pytest.raises(RegimeError, match="problem.cost.Lambda"):
        synthesize(scalar_spec(y0=0.0, cost=cost))


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
