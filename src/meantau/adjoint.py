"""Adjoint states and Hamiltonian derivatives for the linear family.

Two backward quantities anchor the optimality conditions at the detected
minimum time tau:

* the time adjoint p0, solving dp0'/dt = -p0' A + (E1 + E2 + E3 A) with
  p0(tau) = 0, whose closed form is p0(t)' = -(E1+E2+E3A) int_0^{tau-t}
  e^{A s} ds; and
* the cost adjoint p, solving dp/dt = -A' p + cLin with terminal value
  -Psi_x at the mean terminal state (the only regime where that terminal
  value is deterministic).

Both closed forms rest on the augmented block identity
expm([[A, I], [0, 0]] h) = [[e^{Ah}, int_0^h e^{As} ds], [0, I]].  At an
arbitrary time it costs one exponential; on a uniform grid with step h
the node values are the powers M^j = expm([[A, I], [0, 0]] j h) of one
exponential M, taken by repeated doubling, which is exact up to
round-off.  `solve_time_adjoint` cross-checks the time adjoint against an
independent backward 4th-order integration and keeps the gap.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .errors import AssumptionViolationError, NumericalConsistencyError
from .problem import (
    CostSpec,
    LinearDynamics,
    TargetCoefficients,
    target_control_row,
    target_state_row,
)
from .simulate import SimGrid, _affine_path

__all__ = [
    "AdjointSolution",
    "exp_with_integral",
    "time_adjoint_closed_form",
    "solve_time_adjoint",
    "solve_cost_adjoint",
    "solve_adjoints",
    "hamiltonian",
    "hamiltonian_du",
    "target_hamiltonian_du",
    "khat_evaluator",
    "target_slope_at_tau",
]


def _augmented(A: np.ndarray) -> np.ndarray:
    """[[A, I], [0, 0]], whose exponential carries e^{Ah} and its integral."""
    m = A.shape[0]
    blk = np.zeros((2 * m, 2 * m))
    blk[:m, :m] = A
    blk[:m, m:] = np.eye(m)
    return blk


def exp_with_integral(A: np.ndarray, h: float):
    """(e^{A h}, int_0^h e^{A s} ds) via one augmented matrix exponential."""
    m = A.shape[0]
    E = expm(_augmented(A) * h)
    return E[:m, :m], E[:m, m:]


def _exp_with_integral_powers(A: np.ndarray, h: float, n: int):
    """(e^{A jh}, int_0^{jh} e^{A s} ds) for j = 0..n, each of shape (n+1, m, m).

    The augmented exponential M = expm([[A, I], [0, 0]] h) satisfies
    M^j = expm([[A, I], [0, 0]] j h), so the powers give every node
    exactly; they are filled by doubling, P[k:2k] = P[:k] @ M^k, in about
    log2(n) batched products.
    """
    m = A.shape[0]
    P = np.empty((n + 1, 2 * m, 2 * m))
    P[0] = np.eye(2 * m)
    Mk = expm(_augmented(A) * h)  # M^k for k = filled nodes
    filled = 1
    while filled <= n:
        count = min(filled, n + 1 - filled)
        P[filled : filled + count] = P[:count] @ Mk
        filled += count
        Mk = Mk @ Mk
    return P[:, :m, :m], P[:, :m, m:]


def _anchored_blocks(A: np.ndarray, tau: float, grid: SimGrid):
    """(e^{A(tau-t_j)}, int_0^{tau-t_j} e^{A s} ds) at the nodes t_j of `grid`.

    Node j lies (n - j) steps before the grid's end; a grid ending short of
    tau adds the lead c = tau - horizon through the semigroup identities
    e^{A(c+s)} = e^{Ac} e^{As} and I(c+s) = I(c) + e^{Ac} I(s).
    """
    E, I = _exp_with_integral_powers(A, grid.dt, grid.n_steps)
    E, I = E[::-1], I[::-1]
    lead = tau - grid.horizon
    if lead != 0.0:
        E_c, I_c = exp_with_integral(A, lead)
        E, I = E_c @ E, I_c + E_c @ I
    return E, I


def time_adjoint_closed_form(
    dynamics: LinearDynamics, target: TargetCoefficients, tau: float, times
) -> np.ndarray:
    """p0 at the given times.

    `times` is either a SimGrid, whose nodes come from the powers of one
    augmented exponential, or any array of times, at one augmented
    exponential each.
    """
    row = target_state_row(target, dynamics)
    if isinstance(times, SimGrid):
        _, integral = _anchored_blocks(dynamics.A, tau, times)
        return -(row @ integral)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty((len(times), dynamics.m))
    for i, t in enumerate(times):
        _, integral = exp_with_integral(dynamics.A, tau - t)
        out[i] = -(row @ integral)
    return out


@dataclass
class AdjointSolution:
    """Adjoint trajectories on a grid over [0, tau].

    q0 and q vanish identically in the deterministic-coefficient regime
    handled here; the flags record that so downstream formulas can skip
    the corresponding terms.  `cross_check_gap` is the sup-norm gap between
    the closed-form and backward-RK4 time adjoints.
    """

    grid: SimGrid
    tau_anchor: float
    p0: np.ndarray
    p: np.ndarray
    q0_is_zero: bool = True
    q_is_zero: bool = True
    cross_check_gap: float = float("nan")


def _refine(times: np.ndarray, max_h: float):
    """Insert nodes so no interval exceeds max_h; returns (fine, original idx).

    An interval longer than max_h by rounding only (relative 1e-9) is
    kept whole, so a grid with max_h equal to its step stays one run of
    equal steps for the RK4 prefix scan.
    """
    lengths = np.diff(times)
    nsub = np.maximum(1, np.ceil(lengths / max_h - 1e-9)).astype(np.int64)
    idx = np.concatenate([[0], np.cumsum(nsub)])
    owner = np.repeat(np.arange(len(lengths)), nsub)
    k = np.arange(1, idx[-1] + 1) - idx[owner]
    fine = np.empty(idx[-1] + 1)
    fine[0] = times[0]
    fine[1:] = times[owner] + lengths[owner] * k / nsub[owner]
    fine[idx[1:]] = times[1:]
    return fine, idx


def _backward_affine(A, source, terminal, tau, times, max_h):
    """Backward RK4 for w' = -A' w + source, w(tau) = terminal, on `times`."""
    # reverse time: v(s) = w(tau - s) solves v' = A' v - source.
    s_nodes = tau - times[::-1]
    fine, idx = _refine(s_nodes, max_h)
    v = _affine_path(A.T, None, -source, None, fine, terminal)
    return v[idx][::-1]


def solve_time_adjoint(
    dynamics: LinearDynamics,
    target: TargetCoefficients,
    tau: float,
    grid: SimGrid,
    cross_check_tol: float = 1e-6,
) -> AdjointSolution:
    """Time adjoint on a grid spanning [0, tau], computed two ways.

    Route (a) is the exact closed form; route (b) integrates the backward
    ODE with sub-stepped RK4.  Disagreement beyond `cross_check_tol`
    (relative to max(1, |p0|)) raises NumericalConsistencyError; the
    returned values are route (a), and `cross_check_gap` holds the
    sup-norm gap between the routes.
    """
    times = grid.times()
    if times[-1] > tau + 1e-12 * max(1.0, tau):
        raise ValueError("adjoint grid must not extend past tau")
    closed = time_adjoint_closed_form(dynamics, target, tau, grid)

    row = target_state_row(target, dynamics)
    norm_a = float(np.linalg.norm(dynamics.A, 2))
    max_h = 0.003 / max(norm_a, 0.003 / grid.dt)  # never coarser than the grid
    ode = _backward_affine(dynamics.A, row, np.zeros(dynamics.m), tau, times, max_h)

    scale = max(1.0, float(np.max(np.abs(closed), initial=0.0)))
    gap = float(np.max(np.abs(closed - ode)))
    if gap > cross_check_tol * scale:
        raise NumericalConsistencyError(
            f"time adjoint closed form and backward integration disagree by {gap:.3e}"
        )
    return AdjointSolution(
        grid=grid, tau_anchor=tau, p0=closed, p=np.zeros_like(closed),
        cross_check_gap=gap,
    )


def solve_cost_adjoint(
    dynamics: LinearDynamics,
    cost: CostSpec,
    tau: float,
    grid: SimGrid,
    mean_x_tau: np.ndarray,
) -> np.ndarray:
    """Cost adjoint p(t) = e^{A'(tau-t)} p_tau - (int_0^{tau-t} e^{A's} ds) cLin.

    The terminal value p_tau = -Psi_x(mean state at tau) is deterministic
    for the parametric cost family, which keeps q identically zero.  The
    blocks of A serve transposed: e^{A's} = (e^{As})'.
    """
    p_tau = -(cost.psi_lin + cost.psi_quad @ np.asarray(mean_x_tau, dtype=float))
    E, I = _anchored_blocks(dynamics.A, tau, grid)
    return p_tau @ E - cost.c_lin @ I


def solve_adjoints(spec, tau: float, grid: SimGrid, mean_x_tau=None) -> AdjointSolution:
    """Both adjoints for a problem spec; mean_x_tau is needed only when
    the terminal cost is non-zero."""
    sol = solve_time_adjoint(spec.dynamics, spec.target, tau, grid)
    cost = spec.cost
    if cost.c_lin.any() or cost.psi_lin.any() or cost.psi_quad.any():
        if mean_x_tau is None:
            raise ValueError("mean_x_tau required when the cost has state terms")
        sol.p = solve_cost_adjoint(spec.dynamics, cost, tau, grid, mean_x_tau)
    return sol


def hamiltonian(x, u, p, q, dynamics: LinearDynamics, cost: CostSpec) -> float:
    """H(x, u, p, q) = b.p + sum_j sigma_j.q_j - f(x, u); q columns per channel."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    val = float((dynamics.A @ x + dynamics.B @ u) @ p)
    if q is not None:
        q = np.asarray(q, dtype=float)
        for j in range(dynamics.d):
            val += float((dynamics.C[j] @ x + dynamics.D[j] @ u) @ q[:, j])
    f = cost.kappa + float(cost.c_lin @ x) + 0.5 * float(u @ cost.Lambda @ u)
    return val - f


def hamiltonian_du(x, u, p, q, dynamics: LinearDynamics, cost: CostSpec) -> np.ndarray:
    """Control gradient of H.  For this family it is B'p + sum D_j'q_j - Lambda u
    (independent of x; the argument is kept for interface symmetry)."""
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    out = p @ dynamics.B if p.ndim > 1 else dynamics.B.T @ p
    if q is not None:
        q = np.asarray(q, dtype=float)
        for j in range(dynamics.d):
            out = out + dynamics.D[j].T @ q[:, j]
    return out - u @ cost.Lambda.T


def target_hamiltonian_du(p0, dynamics: LinearDynamics, target: TargetCoefficients):
    """Control derivative of the target-drift pairing after mean-field
    cancellation: p0'B - E3 B - E4.

    Accepts a single p0 vector or a stack of rows; the result has matching
    leading shape.  Its value at tau is always -(E3 B + E4).
    """
    p0 = np.asarray(p0, dtype=float)
    row_u = target_control_row(target, dynamics)
    return p0 @ dynamics.B - row_u


def khat_evaluator(dynamics, target, tau: float) -> Callable:
    """Closed-form Khat(t) = p0(t)'B - (E3 B + E4) as a callable, exact at every t in [0, tau].

    Each call costs one augmented exponential; `time_adjoint_closed_form`
    on a SimGrid gives the node values of p0 in one pass.
    """

    def khat(t: float) -> np.ndarray:
        p0 = time_adjoint_closed_form(dynamics, target, tau, float(t))[0]
        return target_hamiltonian_du(p0, dynamics, target)

    return khat


def target_slope_at_tau(
    target: TargetCoefficients,
    dynamics: LinearDynamics,
    mean_x_tau,
    mean_u_tau,
    eps: float = 1e-8,
    eps_regularize: float = 0.0,
) -> float:
    """Slope of the mean target at tau: (E1+E2+E3A).E[X](tau) + (E3B+E4).u(tau).

    This scalar is the single source of truth for every denominator that
    divides by the terminal target slope.  |slope| <= eps with no
    regularization active raises AssumptionViolationError (the hit is not
    transversal); with regularization the regularized slope is returned
    and a warning records the flag.
    """
    row_x = target_state_row(target, dynamics)
    row_u = target_control_row(target, dynamics)
    g = float(row_x @ np.asarray(mean_x_tau, dtype=float))
    g += float(row_u @ np.atleast_1d(np.asarray(mean_u_tau, dtype=float)))
    g += eps_regularize
    if abs(g) <= eps:
        if eps_regularize == 0.0:
            raise AssumptionViolationError(
                f"target slope at tau is {g:.3e}, within {eps:g} of zero"
            )
        warnings.warn(
            f"target slope at tau is {g:.3e} despite regularization {eps_regularize:g}",
            RuntimeWarning,
            stacklevel=2,
        )
    return g
