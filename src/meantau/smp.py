"""Pointwise first-order optimality check for candidate controls.

A candidate is tested through the sign of the combined variation

    residual(t, w) = G(t) . (w - u(t)),
    G(t) = H_u(t) - weight * Khat(t) / slope_at_tau,

where H_u = B'p - Lambda u is the control gradient of the cost
Hamiltonian, Khat = p0'B - (E3 B + E4) the control derivative of the
target pairing, and weight the expected drift of the terminal cost plus
the running cost at the hit, psi_lin.(A xbar + B u) + f(xbar, u) with
xbar = E[X](tau) and u = u(tau-).  That is exact while the terminal cost
has no quadratic part, and a quadratic part is refused with RegimeError
before the weight is needed.  The time adjoint p0 and the cost adjoint p
each come from their own solver, `solve_time_adjoint` and
`solve_cost_adjoint`; p is solved for every candidate, and is exact
zeros when the cost has no state terms (c_lin, psi_lin, psi_quad).
At a minimizer the residual is <= 0 for every admissible w at almost
every t.  The residual is affine in w, so its maximum over the box sits
at the vertex `ControlSet.maximizer(G(t))`; the checker reports the
largest vertex value over a time grid, with the witness where it occurs.

At an interior hit the full residual applies; when the mean target never
reaches zero the time term drops (the cap is locally insensitive to the
control) and only the Hamiltonian part is tested; a hit exactly at the
cap is a boundary case, so both variants are evaluated and the candidate
passes if either does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .adjoint import (
    hamiltonian_du,
    solve_cost_adjoint,
    solve_time_adjoint,
    target_hamiltonian_du,
    target_slope_at_tau,
)
from .errors import RegimeError
from .problem import ProblemSpec
from .simulate import SimGrid, hit_time, solve_mean_path

__all__ = [
    "control_samples",
    "SmpReport",
    "check_candidate",
]


def control_samples(control_set, per_axis: int = 101) -> np.ndarray:
    """Deterministic sample of the admissible box, shape (s, k).

    Full lattice for one or two axes; above that the vertex set plus
    per-axis sweeps through the midpoint, which still touches every face.
    """
    if per_axis < 2:
        raise ValueError(f"per_axis must be at least 2 to hold the box vertices, got {per_axis}")
    low, high = control_set.lower, control_set.upper
    k = len(low)
    axes = [np.linspace(low[i], high[i], per_axis) for i in range(k)]
    if k <= 2:
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=-1)
    corners = np.stack(
        np.meshgrid(*[(low[i], high[i]) for i in range(k)], indexing="ij"), axis=-1
    ).reshape(-1, k)
    mid = control_set.midpoint()
    sweeps = []
    for i in range(k):
        block = np.tile(mid, (per_axis, 1))
        block[:, i] = axes[i]
        sweeps.append(block)
    return np.unique(np.vstack([corners] + sweeps), axis=0)


@dataclass
class SmpReport:
    """Outcome of the first-order check.

    `max_residual` is the deciding value (for a cap-boundary hit, the
    better of the two variants); `variants` holds the per-variant maxima
    and witnesses under keys "full" and "drift_only".  `adjoint_gap` is the
    sup-norm gap between the closed-form and backward-RK4 time adjoints
    (nan when tau = 0 and no adjoint is solved).
    """

    tau: float
    case_label: str
    tol: float
    max_residual: float
    witness_t: float
    witness_u: np.ndarray
    passed: bool
    terminal_weight: float
    slope_at_tau: float
    n_time_nodes: int
    n_control_samples: int
    variants: dict = field(default_factory=dict)
    adjoint_gap: float = float("nan")


def _vertex_maximum(box, g: np.ndarray, u_bar: np.ndarray, times: np.ndarray) -> dict:
    """Largest g(t) . (w - u_bar(t)) over box and nodes, at the first node attaining it."""
    w_star = box.maximizer(g)
    residual = np.einsum("tk,tk->t", g, w_star - u_bar)
    i = int(np.argmax(residual))
    return {
        "max_residual": float(residual[i]),
        "witness_t": float(times[i]),
        "witness_u": w_star[i],
    }


# Steps of the mean solve that detects tau when the caller does not supply it.
_DETECTION_STEPS = 65536


def check_candidate(
    spec: ProblemSpec,
    policy,
    tau: Optional[float] = None,
    case_label: Optional[str] = None,
    t_grid_size: int = 2048,
    tol: float = 1e-8,
) -> SmpReport:
    """Maximize the first-order residual over a time grid and the control box.

    The witness is the first node attaining the maximum, at the vertex
    `ControlSet.maximizer` picks.  It is also the maximum over
    `control_samples(spec.control_set)`, 101 points per axis, whose size the
    report gives as `n_control_samples`.

    tau and its regime label are detected from a mean solve of
    `_DETECTION_STEPS` steps unless supplied by the caller (pass both
    together when the hitting time is known in closed form).  The weight
    is psi_lin.(A xbar + B u) + kappa + c_lin.xbar + u'Lambda u / 2, from
    the mean state xbar at tau and u = u(tau-).  A terminal cost with a
    quadratic part, whose expected drift needs second moments, raises
    RegimeError naming `problem.cost.psi_quad` when the hit brings in the
    time term, before the mean and the adjoints are solved.
    The vertex maximum is >= 0 whenever u(t) lies in the box, so a `tol`
    that is not finite and >= 0 raises ValueError before any solve.
    """
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    spec.require_valid()
    dyn, tgt, cost = spec.dynamics, spec.target, spec.cost
    if (tau is None) != (case_label is None):
        raise ValueError("pass tau and case_label together or neither")
    samples = control_samples(spec.control_set)
    if tau is None:
        tau, case_label = hit_time(spec, policy, SimGrid(spec.horizon, _DETECTION_STEPS))
    if tau <= 0.0:
        # started at or below the level: no time elapses, nothing to test
        return SmpReport(
            tau=0.0, case_label=case_label, tol=tol, max_residual=0.0,
            witness_t=0.0, witness_u=np.array([]), passed=True,
            terminal_weight=float("nan"), slope_at_tau=float("nan"),
            n_time_nodes=0, n_control_samples=0,
        )
    if case_label in ("i", "iii") and cost.psi_quad.any():
        raise RegimeError(
            "problem.cost.psi_quad: a quadratic terminal cost is outside the "
            "checked regime; the mean of its drift at tau needs second moments "
            "of the state, which this check does not solve for"
        )

    grid = SimGrid(tau, t_grid_size)
    times = grid.times()
    mean_x_tau = solve_mean_path(spec, policy, grid).mean_x[-1]
    p0, gap = solve_time_adjoint(dyn, tgt, grid)
    p = solve_cost_adjoint(dyn, cost, grid, mean_x_tau)

    u_bar = np.atleast_2d(policy.values(times, side=+1))
    u_bar[-1] = policy.values(times[-1], side=-1)  # final node: value inside [0, tau]
    hu = hamiltonian_du(u_bar, p, dyn, cost)

    slope = float("nan")
    weight = float("nan")
    khat = None
    if case_label in ("i", "iii"):
        khat = target_hamiltonian_du(p0, dyn, tgt)
        u_tau = policy.values(tau, side=-1)
        slope = target_slope_at_tau(tgt, dyn, mean_x_tau, u_tau)
        # psi_lin.(A x + B u) + f(x, u) at the mean state x: the expected drift of
        # the terminal cost plus the running cost, exact since psi_quad is refused above
        xrow = mean_x_tau[None, :]
        drift = np.einsum("nm,nm->n", cost.psi_lin[None, :], xrow @ dyn.A.T + dyn.B @ u_tau)
        weight = float(drift[0] + cost.running(xrow, u_tau)[0])

    variants = {}
    names = {"i": ("full",), "ii": ("drift_only",), "iii": ("full", "drift_only")}[case_label]
    for name in names:
        g = hu - (weight / slope) * khat if name == "full" else hu
        variants[name] = _vertex_maximum(spec.control_set, g, u_bar, times)

    best = min(variants.values(), key=lambda v: v["max_residual"])
    return SmpReport(
        tau=float(tau),
        case_label=case_label,
        tol=tol,
        max_residual=best["max_residual"],
        witness_t=best["witness_t"],
        witness_u=best["witness_u"],
        passed=bool(best["max_residual"] <= tol),
        terminal_weight=weight,
        slope_at_tau=slope,
        n_time_nodes=len(times),
        n_control_samples=len(samples),
        variants=variants,
        adjoint_gap=gap,
    )
