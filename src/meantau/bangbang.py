"""Bang-bang synthesis for box-constrained problems.

When the running cost has no control curvature, maximizing the combined
Hamiltonian over a box decouples per component and lands on a vertex
wherever the switching function

    S(t) = -Khat(t) / slope_at_tau,    Khat(t) = p0(t)'B - (E3 B + E4),

is nonzero: component i sits at the lower bound where S_i < 0 and at the
upper bound where S_i > 0.  At a transversal interior hit the terminal
slope is negative (the mean target crosses zero from above), so the sign
pattern of S equals that of Khat; synthesis exploits this and never needs
the slope's magnitude until it certifies the converged answer.

The candidate policy and the hitting time determine each other, so the
synthesizer solves g(tau) = T(tau) - tau by the secant method, where T(tau)
is the hit detected under the vertex policy read off the time adjoint
anchored at tau.  The first step, and any secant step that is not finite
or leaves (0, horizon], is a damped fixed-point step instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .adjoint import (
    khat_evaluator,
    target_hamiltonian_du,
    target_slope_at_tau,
    time_adjoint_closed_form,
)
from .errors import (
    AssumptionViolationError,
    InfeasibleError,
    NonConvergenceError,
    SingularArcError,
)
from .problem import ControlPolicy, ControlSegment, ProblemSpec
from .simulate import SimGrid, solve_mean_path
from .variational import _mean_and_response_at_tau

__all__ = [
    "switching_function",
    "find_switch_times",
    "khat_evaluator",
    "vertex_policy",
    "SynthesisResult",
    "synthesize",
    "ScalarSwitchReport",
    "scalar_switch_structure",
]


def switching_function(khat_values, slope_at_tau: float) -> np.ndarray:
    """S = -Khat / slope; `khat_values` may be a vector or a stack of rows."""
    if slope_at_tau == 0.0:
        raise AssumptionViolationError("switching function undefined: slope at tau is zero")
    return -np.asarray(khat_values, dtype=float) / slope_at_tau


def _plateau_runs(values: np.ndarray, zero_tol: float) -> int:
    """Longest run of consecutive near-zero entries."""
    edges = np.diff(np.concatenate(([0], np.abs(values) <= zero_tol, [0])).astype(np.int8))
    starts, ends = np.nonzero(edges == 1)[0], np.nonzero(edges == -1)[0]
    return int(np.max(ends - starts, initial=0))


def find_switch_times(
    times,
    values,
    refine: Optional[Callable] = None,
    xtol: float = 1e-10,
    zero_tol: float = 1e-12,
) -> list:
    """Zero crossings of each column of `values` over the node grid.

    Sign changes between adjacent nodes are bracketed and, when `refine`
    (a callable t, i -> value) is given, polished with Brent's method to
    `xtol`; otherwise linear interpolation is used.  A run of three or
    more consecutive near-zero nodes in one component is a zero plateau,
    reported as SingularArcError since no vertex is selected there.  An
    exact zero at an interior node between nodes of opposite sign is a
    root at that node; an exact zero at either end node is none.
    """
    times = np.asarray(times, dtype=float)
    vals = np.atleast_2d(np.asarray(values, dtype=float))
    if vals.ndim == 2 and vals.shape[0] != len(times) and vals.shape[1] == len(times):
        vals = vals.T
    if vals.ndim != 2 or vals.shape[0] != len(times):
        raise ValueError(f"values of shape {vals.shape} need one row or column per time node")
    scale = max(1.0, float(np.max(np.abs(vals), initial=0.0)))
    out = []
    for i in range(vals.shape[1]):
        col = vals[:, i]
        if _plateau_runs(col, zero_tol * scale) >= 3:
            raise SingularArcError(component=i)
        sgn = np.sign(col)
        at_node = np.nonzero((sgn[1:-1] == 0.0) & (sgn[:-2] * sgn[2:] < 0))[0] + 1
        across = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
        if refine is not None:
            inside = [
                brentq(lambda t: refine(t, i), times[j], times[j + 1], xtol=xtol)
                for j in across
            ]
        else:
            a, b = col[across], col[across + 1]
            inside = times[across] - a * (times[across + 1] - times[across]) / (b - a)
        # a node root and a bracket never share an index: order by index
        order = np.argsort(np.concatenate([at_node, across]), kind="stable")
        out.append(np.concatenate([times[at_node], np.asarray(inside, dtype=float)])[order])
    return out


def vertex_policy(
    spec: ProblemSpec, tau: float, n_nodes: int = 4096
) -> tuple:
    """Vertex policy induced by the time adjoint anchored at tau.

    Returns (policy, switch_times, khat_nodes, grid).  The policy covers
    [0, horizon]: past tau the last vertex is held, since the target has
    already been reached and the value there never enters the objective.
    Khat at the nodes comes from the grid form of the closed-form time
    adjoint; switch times are refined on the closed-form Khat to 1e-10.
    """
    dyn, tgt, box = spec.dynamics, spec.target, spec.control_set
    grid = SimGrid(tau, n_nodes)
    times = grid.times()
    khat = khat_evaluator(dyn, tgt, tau)
    khat_nodes = target_hamiltonian_du(time_adjoint_closed_form(dyn, tgt, tau, grid), dyn, tgt)
    switch_times = find_switch_times(
        times, khat_nodes, refine=lambda t, i: float(khat(t)[i])
    )

    cuts = np.concatenate([s for s in switch_times] + [np.array([0.0, tau])])
    cuts = np.unique(np.clip(cuts, 0.0, tau))
    cuts = cuts[(cuts > 1e-12) & (cuts < tau - 1e-12)]
    edges = np.concatenate([[0.0], cuts, [tau]])

    segments = []
    for a, b in zip(edges[:-1], edges[1:]):
        k_mid = khat(0.5 * (a + b))
        value = box.maximizer(k_mid)
        zero = np.abs(k_mid) <= 1e-12 * max(1.0, float(np.max(np.abs(khat_nodes))))
        if np.any(zero):
            raise SingularArcError(component=int(np.argmax(zero)))
        segments.append(ControlSegment.constant(a, b, value))
    if tau < spec.horizon:
        segments.append(
            ControlSegment.constant(tau, spec.horizon, segments[-1].gamma0)
        )
    return ControlPolicy(segments), switch_times, khat_nodes, grid


@dataclass
class SynthesisResult:
    """Converged bang-bang candidate and its certification data."""

    policy: ControlPolicy
    tau: float
    case_label: str
    switch_times: list
    slope_at_tau: float
    iterations: int
    history: list = field(default_factory=list)


def synthesize(
    spec: ProblemSpec,
    n_nodes: int = 4096,
    max_iter: int = 100,
    damping: float = 0.5,
    tol: float = 1e-10,
) -> SynthesisResult:
    """Secant synthesis of the bang-bang candidate.

    Solves g(tau) = T(tau) - tau, where T(tau) is the hit detected under the
    vertex policy anchored at tau.  The first step is the damped step
    tau + damping * g(tau); later steps are secant steps, and `damping`
    weights the damped step that replaces a secant step which is not finite
    or leaves (0, horizon].  `history` holds tau before each pass and the
    converged tau.

    Raises InfeasibleError when no constant scan (box midpoint or either
    vertex) ever drives the mean target to zero, NonConvergenceError when
    the tau iteration exhausts `max_iter` (with the tau history and a
    flag for a detected two-cycle), and SingularArcError if the switching
    function vanishes on an interval.  A damping outside (0, 1] or a
    max_iter below 1 raises ValueError.
    """
    if not (0.0 < damping <= 1.0 and max_iter >= 1):
        raise ValueError(f"need damping in (0, 1] and max_iter >= 1, got {damping}, {max_iter}")
    spec.require_valid()
    T = spec.horizon
    box = spec.control_set
    coarse = SimGrid(T, n_nodes)

    tau = None
    for u0 in (box.midpoint(), box.lower, box.upper):
        mp = solve_mean_path(spec, ControlPolicy.constant(u0, T), coarse)
        if mp.case_label == "i" and mp.tau > 0.0:
            tau = mp.tau
            break
    if tau is None:
        raise InfeasibleError(
            "mean target never reaches zero under constant scans of the box"
        )

    history = [float(tau)]
    converged = False
    iterations = 0
    prev = None  # (tau, g) of the previous pass
    for iterations in range(1, max_iter + 1):
        policy, _, _, _ = vertex_policy(spec, tau, n_nodes)
        mp = solve_mean_path(spec, policy, coarse)
        tau_image = mp.tau
        g = tau_image - tau
        if abs(g) <= tol * max(1.0, tau):
            tau = tau_image
            history.append(float(tau))
            converged = True
            break
        step = float("nan")
        if prev is not None and g != prev[1]:
            step = tau - g * (tau - prev[0]) / (g - prev[1])
        prev = (tau, g)
        if np.isfinite(step) and 0.0 < step <= T:
            tau = step
        else:
            tau = (1.0 - damping) * tau + damping * tau_image
        history.append(float(tau))

    if not converged:
        cycle = (
            len(history) >= 4
            and abs(history[-1] - history[-3]) <= 1e-9 * max(1.0, history[-1])
            and abs(history[-1] - history[-2]) > tol * max(1.0, history[-1])
        )
        raise NonConvergenceError(
            f"tau iteration did not settle in {max_iter} steps",
            history=history,
            cycle=cycle,
        )

    policy, switch_times, _, _ = vertex_policy(spec, tau, n_nodes)
    mp = solve_mean_path(spec, policy, coarse)
    slope = float("nan")
    if mp.case_label == "i" and mp.tau > 0.0:
        mean_x_tau, _ = _mean_and_response_at_tau(spec, policy, None, mp.tau, coarse)
        slope = target_slope_at_tau(
            spec.target,
            spec.dynamics,
            mean_x_tau,
            policy.value(mp.tau, side=-1),
            eps_regularize=spec.eps_regularize,
        )
        if slope > 0.0:
            raise AssumptionViolationError(
                f"terminal target slope {slope:.3e} is positive at a first "
                "down-crossing; the hit is not transversal from above"
            )
    return SynthesisResult(
        policy=policy,
        tau=float(mp.tau),
        case_label=mp.case_label,
        switch_times=[np.asarray(s) for s in switch_times],
        slope_at_tau=slope,
        iterations=iterations,
        history=history,
    )


@dataclass
class ScalarSwitchReport:
    """Vertex structure of the scalar one-noise family on [0, tau].

    `structure` is one of "constant-upper", "constant-lower",
    "upper-then-lower", "lower-then-upper"; `switch_time` is the interior
    zero of Khat when one exists.  `realizable` records whether the
    structure is compatible with a genuine first down-crossing of the
    mean target at tau (slope from above requires c1 x + c2 u < 0 there).
    """

    structure: str
    switch_time: Optional[float]
    khat_at_tau: float
    realizable: bool
    note: str


def scalar_switch_structure(
    a: float, b: float, c1: float, c2: float, tau: float
) -> ScalarSwitchReport:
    """Classify the scalar switching structure with closed forms.

    The scalar family has state drift a x + b u (a > 0, b > 0), mean
    target rate c1 E[X] + c2 u, and Khat(t) = -(c1 b / a)(e^{a(tau-t)}-1)
    - c2, which is monotone in t; the unique interior zero, when it
    exists, is

        t0 = tau - ln(1 - a c2 / (b c1)) / a.
    """
    if not (a > 0 and b > 0 and tau > 0):
        raise ValueError("requires a > 0, b > 0, tau > 0")
    khat_tau = -c2
    if c1 == 0.0:
        if c2 == 0.0:
            raise SingularArcError(component=0)
        structure = "constant-upper" if khat_tau > 0 else "constant-lower"
        return ScalarSwitchReport(
            structure, None, khat_tau, realizable=c2 > 0,
            note="Khat is constant when c1 = 0",
        )

    arg = 1.0 - a * c2 / (b * c1)
    t0 = tau - np.log(arg) / a if arg > 0.0 else None
    if t0 is not None and not (1e-12 < t0 < tau - 1e-12):
        t0 = None

    if t0 is None:
        # no interior zero: the sign anywhere inside decides
        k_mid = -(c1 * b / a) * (np.exp(a * tau * 0.5) - 1.0) - c2
        probe = k_mid if k_mid != 0.0 else khat_tau
        structure = "constant-upper" if probe > 0 else "constant-lower"
    elif c1 < 0.0:
        # Khat decreases in t: positive before t0, negative after
        structure = "upper-then-lower"
    else:
        structure = "lower-then-upper"

    # the hit at tau comes from above only if the mean rate is negative
    # there, which requires c1 < 0 (positive mean state) or c2 u(tau) < 0
    if structure in ("constant-upper", "upper-then-lower"):
        realizable = c1 < 0.0 or c2 < 0.0
    else:
        realizable = c1 < 0.0 or c2 > 0.0
    note = ""
    if c1 > 0.0:
        note = (
            "with c1 > 0 and a growing positive mean state the mean target "
            "rate is pushed upward; a first down-crossing needs the control "
            "term to dominate at tau"
        )
    return ScalarSwitchReport(structure, t0, khat_tau, realizable, note)
