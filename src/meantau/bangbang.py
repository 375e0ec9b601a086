"""Bang-bang synthesis for box-constrained time-optimal problems.

When the objective is the elapsed time kappa * tau (kappa >= 0, no other
cost term), maximizing the combined Hamiltonian over a box decouples per
component and lands on a vertex wherever the switching function

    S(t) = -Khat(t) / slope_at_tau,    Khat(t) = p0(t)'B - (E3 B + E4),

is nonzero: component i sits at the lower bound where S_i < 0 and at the
upper bound where S_i > 0.  At a transversal interior hit the terminal
slope is negative (the mean target crosses zero from above), so the sign
pattern of S equals that of Khat; synthesis exploits this and never needs
the slope's magnitude until it certifies the answer.

For this objective the least time has a closed form: it is the first
zero of v(t), the least mean target over the box at t, the support
function of the reachable set (Hermes and LaSalle, 1969).
`minimum_time` computes that tau* exactly, and with it whether the target
is reachable at all.

The candidate policy and the hitting time determine each other: tau is a
fixed point of T, where T(tau) is the first hit of the mean target under
the vertex policy of Khat anchored at tau.  The exact map fixes tau*.
There Khat(t) = -k(tau* - t), with k the kernel of `minimum_time`, so the
zeros of k that it refines on its way to tau* are, mirrored, the switch
times: synthesis finds them once.  One RK4 hit pass of the vertex policy
gives the label and the terminal slope, and cross-checks the certificate:
its hit differs from tau* by the RK4 hit's error alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import brentq
from .adjoint import _target_blocks, _target_row, exp_with_integral, khat_evaluator
from .errors import (
    AssumptionViolationError,
    InfeasibleError,
    NumericalConsistencyError,
    RegimeError,
    SingularArcError,
)
from .problem import (
    ControlPolicy,
    ControlSegment,
    ProblemSpec,
    target_control_row,
    target_state_row,
)
from .simulate import SimGrid, _scan
from .variational import hit_time_derivative

__all__ = [
    "find_switch_times",
    "khat_evaluator",
    "vertex_policy",
    "minimum_time",
    "SynthesisResult",
    "synthesize",
]


# A value is near zero at most this times max(1, the largest |value|).
_ZERO_TOL = 1e-12


def _plateau_runs(values: np.ndarray, zero_tol: float) -> int:
    """Longest run of consecutive near-zero entries."""
    edges = np.diff(np.concatenate(([0], np.abs(values) <= zero_tol, [0])).astype(np.int8))
    starts, ends = np.nonzero(edges == 1)[0], np.nonzero(edges == -1)[0]
    return int(np.max(ends - starts, initial=0))


def find_switch_times(
    times,
    values,
    refine: Callable,
    xtol: float = 1e-10,
) -> list:
    """Zero crossings of each column of `values`, a (nodes, k) array, over the node grid.

    Sign changes between adjacent nodes are bracketed and polished with
    Brent's method (`_numerics.brentq`) to `xtol` on `refine`, a callable
    t, i -> the value of component i at t.  A run of three or more
    consecutive near-zero nodes in one component is a zero plateau,
    reported as SingularArcError since no vertex is selected there.  An
    exact zero at an interior node between nodes of opposite sign is a
    root at that node; an exact zero at either end node is none.
    `values` of any other shape raises ValueError.
    """
    times = np.asarray(times, dtype=float)
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != len(times):
        raise ValueError(f"values of shape {vals.shape} need one row per time node")
    scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    out = []
    for i in range(vals.shape[1]):
        col = vals[:, i]
        if _plateau_runs(col, _ZERO_TOL * scale) >= 3:
            raise SingularArcError(component=i)
        sgn = np.sign(col)
        at_node = np.nonzero((sgn[1:-1] == 0.0) & (sgn[:-2] * sgn[2:] < 0))[0] + 1
        across = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        inside = [
            brentq(lambda t: refine(t, i), times[j], times[j + 1], xtol=xtol) for j in across
        ]
        # a node root and a bracket never share an index: order by index
        order = np.argsort(np.concatenate([at_node, across]), kind="stable")
        out.append(np.concatenate([times[at_node], np.asarray(inside, dtype=float)])[order])
    return out


def vertex_policy(spec: ProblemSpec, tau: float, switch_times) -> ControlPolicy:
    """Vertex policy of Khat anchored at tau, switching at the zeros `switch_times[i]` of Khat_i.

    Each piece sits at the vertex of Khat at its midpoint, and a component
    of Khat that vanishes there raises SingularArcError.  The policy covers
    [0, horizon]: past tau the last vertex is held, since the target has
    already been reached and the value there never enters the objective.
    """
    khat = khat_evaluator(spec.dynamics, spec.target, tau)
    cuts = np.unique(np.concatenate(switch_times))
    cuts = cuts[(cuts > 1e-12) & (cuts < tau - 1e-12)]
    edges = np.concatenate([[0.0], cuts, [tau]])

    k_mid = np.array([khat(0.5 * (a + b)) for a, b in zip(edges[:-1], edges[1:])])
    zero = np.abs(k_mid) <= _ZERO_TOL * max(1.0, float(np.max(np.abs(k_mid))))
    if np.any(zero):
        raise SingularArcError(component=int(np.argwhere(zero)[0, 1]))
    segments = [
        ControlSegment(a, b, spec.control_set.maximizer(k))
        for a, b, k in zip(edges[:-1], edges[1:], k_mid)
    ]
    if tau < spec.horizon:
        segments.append(ControlSegment(tau, spec.horizon, segments[-1].gamma0))
    return ControlPolicy(segments)


def minimum_time(spec: ProblemSpec, n_nodes: int = 4096) -> tuple:
    """(tau*, zeros): the least time at which some policy in the box brings the
    mean target to zero, and the zeros of its kernel k on [0, horizon].

    With c_x = E1 + E2 + E3 A, c_u = E3 B + E4, I(h) = int_0^h e^{As} ds and
    k(h) = c_x I(h) B + c_u, the mean target under u is y0 + c_x I(t) x0 +
    int_0^t k(t - s) u(s) ds, so its least value over the box at t is

        v(t) = y0 + c_x I(t) x0 + int_0^t sum_i min(k_i(h) lower_i, k_i(h) upper_i) dh,

    which the vertex policy read off k(t - .) reaches, and tau* = inf{t <= T :
    v(t) <= 0} (the support function of the reachable set: Hermes and
    LaSalle, "Functional Analysis and Time Optimal Control", 1969).  Between
    the zeros of k_i the integral is c_x J(h) B_i + c_u,i h with J(h) =
    int_0^h I, and one three-block exponential of [[A, I, 0], [0, 0, I],
    [0, 0, 0]] h (`adjoint._target_row`) gives e^{Ah}, I(h) and J(h).

    On the n_nodes steps of [0, horizon] the rows c_x I and c_x J come from
    one doubling scan, the zeros of k from `find_switch_times` refined on the
    exact k, and v is exact at the nodes.  A step whose exact slope
    v' = c_x e^{At} x0 + sum_i min(k_i lower_i, k_i upper_i) goes from <= 0
    to >= 0 holds a minimum of v, located by a root of the slope, so a dip
    below zero between two nodes is not missed.  tau* is the root of the
    exact v on the first step, or up to the first such minimum, where v <= 0;
    it is (0.0, []) when y0 <= 0.  zeros[i] are those of k_i, refined to 1e-15,
    none if k_i vanishes at every node.  InfeasibleError, naming the least v
    found and its time, when v stays above zero on [0, horizon];
    SingularArcError when k_i vanishes on three nodes in a row but not on all.
    """
    dyn, tgt, box = spec.dynamics, spec.target, spec.control_set
    if tgt.y0 <= 0.0:
        return 0.0, []
    A, B, m = dyn.A, dyn.B, dyn.m
    c_x, c_u = target_state_row(tgt, dyn), target_control_row(tgt, dyn)
    lo, hi = box.lower, box.upper

    def least(k, i=slice(None)):
        """min(k lower_i, k upper_i): the least of k_i u_i over the box, per component."""
        return np.minimum(lo[i] * k, hi[i] * k)

    # the node rows [c_x I, c_x J]: [a, b](t + h) = [a, b](t) [[e^{Ah}, I(h)], [0, Id]]
    # + c_x [I(h), J(h)], since I(t + h) = I(t) e^{Ah} + I(h), J(t + h) = J(t) + I(t) I(h) + J(h)
    grid = SimGrid(spec.horizon, n_nodes)
    times = grid.times()
    top = _target_row(A, grid.dt)
    rows = np.empty((len(times), 2 * m))
    rows[0] = 0.0
    rows[1:] = c_x @ top[:, m:]
    _scan(rows, np.block([[top[:, : 2 * m]], [np.zeros((m, m)), np.eye(m)]]))
    cI, cJ = rows[:, :m], rows[:, m:]
    k_nodes = cI @ B + c_u
    # a component of k that vanishes at every node adds nothing to v: no zeros, no singular arc
    dead = np.all(np.abs(k_nodes) <= _ZERO_TOL * max(1.0, float(np.max(np.abs(k_nodes)))), axis=0)
    zeros = find_switch_times(
        times, np.where(dead, 1.0, k_nodes),
        refine=lambda h, i: float(c_x @ exp_with_integral(A, h)[1] @ B[:, i] + c_u[i]),
        xtol=1e-15,
    )

    # per component: the knots 0 and the zeros of k_i, int_0^t k_i at the knots and the
    # least integral up to them; each piece between knots and nodes adds its vertex's share
    K_nodes = cJ @ B + np.outer(times, c_u)
    v_nodes = tgt.y0 + cI @ dyn.x0
    knots = []
    for i, z in enumerate(zeros):
        K_z = np.array([_target_blocks(c_x, A, t)[2] @ B[:, i] + c_u[i] * t for t in z])
        order = np.argsort(np.concatenate([times, z]), kind="stable")
        dK = np.diff(np.concatenate([K_nodes[:, i], K_z])[order])
        cum = np.empty(len(order))
        cum[order] = np.concatenate([[0.0], np.cumsum(least(dK, i))])
        v_nodes += cum[: len(times)]
        knots.append((np.append(0.0, z), np.append(0.0, K_z), np.append(0.0, cum[len(times) :])))

    def v(t):
        _, cI_t, cJ_t = _target_blocks(c_x, A, t)
        K_t = cJ_t @ B + c_u * t
        out = tgt.y0 + cI_t @ dyn.x0
        for i, (z, K_z, cum_z) in enumerate(knots):
            p = np.searchsorted(z, t, side="right") - 1
            out += cum_z[p] + least(K_t[i] - K_z[p], i)
        return float(out)

    def slope(t):
        cE_t, cI_t, _ = _target_blocks(c_x, A, t)
        k_t = cI_t @ B + c_u
        return float(cE_t @ dyn.x0 + least(k_t).sum())

    # c_x e^{At} = c_x (A I(t) + Id)
    slopes = (cI @ A + c_x) @ dyn.x0 + least(k_nodes).sum(axis=1)
    hit = np.nonzero(v_nodes <= 0.0)[0]
    end = hit[0] if hit.size else len(times)
    dips = np.nonzero((slopes[:-1] <= 0.0) & (slopes[1:] >= 0.0))[0]
    low_t, low_v = times[np.argmin(v_nodes)], float(np.min(v_nodes))
    for j in dips[dips < end]:
        t_min = brentq(slope, times[j], times[j + 1])
        v_min = v(t_min)
        if v_min <= 0.0:
            return brentq(v, times[j], t_min, xtol=1e-15), zeros
        if v_min < low_v:
            low_t, low_v = t_min, v_min
    if not hit.size:
        raise InfeasibleError(
            f"mean target stays above zero under every policy in the box: its least "
            f"value is {low_v:.6g}, at t = {low_t:.6g}"
        )
    return brentq(v, times[end - 1], times[end], xtol=1e-15), zeros


def _cost_violations(cost) -> list:
    """One `problem.cost.<field>: ...` entry per term that leaves kappa * tau, kappa >= 0."""
    out = [
        f"problem.cost.{name}: must be 0, got a nonzero entry"
        for name in ("c_lin", "Lambda", "psi_lin", "psi_quad")
        if getattr(cost, name).any()
    ]
    if not cost.kappa >= 0.0:
        out.append(f"problem.cost.kappa: must be >= 0, got {cost.kappa}")
    return out


@dataclass
class SynthesisResult:
    """Bang-bang candidate at the minimum time and its certification data.

    `tau` is `minimum_time`'s tau*, and `tau_certified` is the same number,
    below which no policy in the box hits.  `tau_gap` is T(tau*) - tau*,
    the hit that the RK4 mean solve detects under `policy` minus tau*.
    """

    policy: ControlPolicy
    tau: float
    tau_certified: float
    tau_gap: float
    case_label: str
    switch_times: list
    slope_at_tau: float
    # hit passes run (1, or 0 when y0 <= 0); the benchmark's trace counts them
    iterations: int


def synthesize(spec: ProblemSpec, n_nodes: int = 4096) -> SynthesisResult:
    """The bang-bang candidate: the vertex policy at the exact minimum time.

    tau is tau* of `minimum_time` on n_nodes steps of [0, horizon], whose
    zeros z of k in (0, tau*) give the switch times tau* - z of `vertex_policy`
    there.  One hit pass of that policy on the same grid
    (`hit_time_derivative`) gives the case label and the terminal slope, and
    its hit T(tau*) gives `tau_gap` = T(tau*) - tau*, the RK4 hit's error.

    The vertex rule reads the sign of Khat alone, which is the whole
    first-order condition only when the objective is the elapsed time
    kappa * tau with kappa >= 0; any other cost raises RegimeError naming
    each `problem.cost` field that leaves it, before any solve.

    A target that starts at or below the level (y0 <= 0) has tau = 0:
    the result has label "i", no hit pass, no switch times and a NaN
    slope, and its policy holds the vertex of Khat(0) = -(E3 B + E4) over
    [0, horizon], the vertex `vertex_policy` holds past tau.  Otherwise it
    raises InfeasibleError when the least mean target over the box stays
    above zero on [0, horizon] (naming that least value and its time),
    SingularArcError if the switching function vanishes on an interval,
    NumericalConsistencyError if the hit pass reads no hit before T although
    tau* < T, and
    AssumptionViolationError if the terminal slope of the hit is positive.
    """
    spec.require_valid()
    bad = _cost_violations(spec.cost)
    if bad:
        raise RegimeError(
            "bang-bang synthesis solves only the elapsed-time objective "
            "kappa * tau with kappa >= 0: " + "; ".join(bad)
        )
    T = spec.horizon
    if spec.target.y0 <= 0.0:
        # tau = 0, where Khat = -(E3 B + E4)
        vertex = spec.control_set.maximizer(-target_control_row(spec.target, spec.dynamics))
        return SynthesisResult(
            policy=ControlPolicy([ControlSegment(0.0, T, vertex)]),
            tau=0.0,
            tau_certified=0.0,
            tau_gap=0.0,
            case_label="i",
            switch_times=[np.array([]) for _ in vertex],
            slope_at_tau=float("nan"),
            iterations=0,
        )

    tau_star, zeros = minimum_time(spec, n_nodes)
    switch_times = [np.sort(tau_star - z[(z > 0.0) & (z < tau_star)]) for z in zeros]
    policy = vertex_policy(spec, tau_star, switch_times)
    hit = hit_time_derivative(spec, policy, None, SimGrid(T, n_nodes))
    if hit.case_label == "ii" and tau_star < T:
        raise NumericalConsistencyError(
            f"the hit pass reads no hit before the horizon, {T - tau_star:.3g} after the "
            f"certified minimum time {tau_star:.13g}: it reads case {hit.case_label} "
            f"at tau = {hit.tau:.13g}"
        )
    if hit.slope_at_tau > 0.0:
        raise AssumptionViolationError(
            f"terminal target slope {hit.slope_at_tau:.3e} is positive at a first "
            "down-crossing; the hit is not transversal from above"
        )
    return SynthesisResult(
        policy=policy,
        tau=tau_star,
        tau_certified=tau_star,
        tau_gap=hit.tau - tau_star,
        case_label=hit.case_label,
        switch_times=switch_times,
        slope_at_tau=hit.slope_at_tau,
        iterations=1,
    )
