"""Adjoint states and Hamiltonian derivatives for the linear family.

Two backward quantities anchor the optimality conditions at the detected
minimum time tau, which is the end of the grid they are solved on:

* the time adjoint p0, solving dp0'/dt = -p0' A + (E1 + E2 + E3 A) with
  p0(tau) = 0, whose closed form is p0(t)' = -(E1+E2+E3A) int_0^{tau-t}
  e^{A s} ds; and
* the cost adjoint p, solving dp/dt = -A' p + cLin with terminal value
  -Psi_x at the mean terminal state (the only regime where that terminal
  value is deterministic).

Both closed forms rest on the augmented block identity
expm([[A, I], [0, 0]] h) = [[e^{Ah}, int_0^h e^{As} ds], [0, I]] (Van
Loan, "Computing integrals involving the matrix exponential", 1978).  At
an arbitrary time it costs one exponential.  `_van_loan` builds every such
block matrix in the package, a block upper-triangular one with identity
super-diagonal, and returns its exponential's first block row: this one,
the three-block [[A, I, 0], [0, 0, I], [0, 0, 0]] of the minimum time
(`bangbang.minimum_time`) and the exact duality integral
(`variational.dual_identity_check`).  On a uniform grid with step
h, I(kh + h) = I(kh) e^{Ah} + I(h) makes each adjoint, as a row, the
linear recursion w(t - h) = w(t) e^{Ah} + f I(h) from its value at tau,
exact up to round-off; one exponential gives e^{Ah} and I(h), and the
doubling scan of the mean solve (`simulate._scan`) gives the nodes.

Each adjoint has its own solver, and each returns what it solves:
`solve_time_adjoint` gives p0 and the gap to an independent backward
4th-order integration, which cross-checks it; `solve_cost_adjoint` gives
p, exact zeros when the cost has no state terms.  The diffusion adjoints
q0 and q vanish identically in this deterministic-coefficient regime, so
no formula carries them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._numerics import expm
from .errors import AssumptionViolationError, NumericalConsistencyError
from .problem import (
    ControlPolicy,
    CostSpec,
    LinearDynamics,
    TargetCoefficients,
    target_control_row,
    target_state_row,
)
from .simulate import SimGrid, _affine_path, _scan

__all__ = [
    "exp_with_integral",
    "time_adjoint_closed_form",
    "solve_time_adjoint",
    "solve_cost_adjoint",
    "hamiltonian_du",
    "target_hamiltonian_du",
    "khat_evaluator",
    "target_slope_at_tau",
]

# A hit whose mean target slope is this close to zero is not transversal.
_SLOPE_FLOOR = 1e-8
# Largest gap between the two time-adjoint routes, relative to max(1, |p0|).
_CROSS_CHECK_TOL = 1e-6


def _van_loan(diagonal, h: float) -> np.ndarray:
    """The first block row of expm(M h), M block upper-triangular with identity super-diagonal.

    `diagonal` holds M's diagonal blocks D_0, ..., D_{n-1}, each m x m; the
    block of M right of D_j is the identity and every other block is 0.
    Block j of the row is then the integral of e^{D_0 s_0} e^{D_1 s_1} ...
    e^{D_j s_j} over s_0 + ... + s_j = h, all s_i >= 0 (Van Loan,
    "Computing integrals involving the matrix exponential", 1978): for
    [A, 0] the row is (e^{Ah}, int_0^h e^{As} ds), and each further zero
    block adds one more integral in h.
    """
    m = diagonal[0].shape[0]
    blk = np.eye(len(diagonal) * m, k=m)
    for j, D in enumerate(diagonal):
        blk[j * m : (j + 1) * m, j * m : (j + 1) * m] = D
    return expm(blk * h)[:m]


def _target_row(A: np.ndarray, s: float) -> np.ndarray:
    """[e^{As}, I(s), J(s)] from one three-block `_van_loan` of [A, 0, 0].

    I(s) = int_0^s e^{Ar} dr and J(s) = int_0^s I.
    """
    m = A.shape[0]
    return _van_loan([A, np.zeros((m, m)), np.zeros((m, m))], s)


def _target_blocks(c_x: np.ndarray, A: np.ndarray, s: float):
    """(c_x e^{As}, c_x I(s), c_x J(s)): c_x times `_target_row`."""
    m = A.shape[0]
    row = c_x @ _target_row(A, s)
    return row[:m], row[m : 2 * m], row[2 * m :]


def exp_with_integral(A: np.ndarray, h: float):
    """(e^{A h}, int_0^h e^{A s} ds) via one augmented matrix exponential (`_van_loan`)."""
    m = A.shape[0]
    row = _van_loan([A, np.zeros((m, m))], h)
    return row[:, :m], row[:, m:]


def _anchored(A: np.ndarray, grid: SimGrid, w_tau, forcing) -> np.ndarray:
    """Rows w(t_j) at the nodes of `grid` of w(t - h) = w(t) e^{Ah} + forcing I(h).

    Here h is the grid step, I(h) = int_0^h e^{As} ds and w(tau) = w_tau
    at the grid's end tau, so w(t) = w_tau e^{A(tau-t)} + forcing I(tau - t)
    by I(kh + h) = I(kh) e^{Ah} + I(h): one augmented exponential and the
    doubling scan of the mean solve.
    """
    E, I = exp_with_integral(A, grid.dt)
    w = np.empty((grid.n_steps + 1, A.shape[0]))
    w[0] = w_tau
    w[1:] = forcing @ I
    _scan(w, E)
    return w[::-1]


def time_adjoint_closed_form(
    dynamics: LinearDynamics, target: TargetCoefficients, grid: SimGrid
) -> np.ndarray:
    """p0 at the nodes of `grid`, whose end is tau: one exponential and one doubling scan."""
    row = target_state_row(target, dynamics)
    return _anchored(dynamics.A, grid, np.zeros(dynamics.m), -row)


def _backward_affine(A, source, terminal, times, r):
    """Backward RK4 for w' = -A' w + source, w(tau) = terminal, on uniform `times` ending at tau.

    Every step is cut into the same r >= 1 pieces; with r = 1 the refined
    grid is `times` itself, one run of equal steps.
    """
    # reverse time: v(s) = w(tau - s) solves v' = A' v - source, a source through F = -I
    s_nodes = times[-1] - times[::-1]
    n = len(s_nodes) - 1
    fine = np.interp(np.arange(n * r + 1) / r, np.arange(n + 1), s_nodes)
    source_policy = ControlPolicy.constant(source, fine[-1])
    v = _affine_path(A.T, -np.eye(len(source)), source_policy, fine, terminal)
    return v[::r][::-1]


def solve_time_adjoint(
    dynamics: LinearDynamics, target: TargetCoefficients, grid: SimGrid
) -> tuple:
    """Time adjoint on a grid spanning [0, tau], tau its end, computed two ways.

    Route (a) is the exact closed form; route (b) integrates the backward
    ODE with sub-stepped RK4.  Returns (p0, gap): p0 is route (a), one row
    per node, and gap the sup-norm gap between the routes.  A gap beyond
    `_CROSS_CHECK_TOL` (relative to max(1, |p0|)) raises
    NumericalConsistencyError.
    """
    times = grid.times()
    closed = time_adjoint_closed_form(dynamics, target, grid)

    row = target_state_row(target, dynamics)
    norm_a = float(np.linalg.norm(dynamics.A, 2))
    # the fewest pieces per step that keep |A| h within 0.003; a step over it by
    # rounding only (relative 1e-9) stays whole.  No division by the step, which
    # may be subnormal
    r = max(1, int(np.ceil(norm_a * grid.dt / 0.003 - 1e-9)))
    ode = _backward_affine(dynamics.A, row, np.zeros(dynamics.m), times, r)

    scale = max(1.0, float(np.max(np.abs(closed), initial=0.0)))
    gap = float(np.max(np.abs(closed - ode)))
    if gap > _CROSS_CHECK_TOL * scale:
        raise NumericalConsistencyError(
            f"time adjoint closed form and backward integration disagree by {gap:.3e}"
        )
    return closed, gap


def solve_cost_adjoint(
    dynamics: LinearDynamics,
    cost: CostSpec,
    grid: SimGrid,
    mean_x_tau: np.ndarray,
) -> np.ndarray:
    """Cost adjoint p(t) = e^{A'(tau-t)} p_tau - (int_0^{tau-t} e^{A's} ds) cLin.

    The terminal value p_tau = -Psi_x(mean state at tau) is deterministic
    for the parametric cost family, which keeps q identically zero.  As a
    row, p(t)' = p_tau' e^{A(tau-t)} - cLin' int_0^{tau-t} e^{As} ds, since
    e^{A's} = (e^{As})'.  tau is the end of `grid`.
    """
    p_tau = -(cost.psi_lin + cost.psi_quad @ np.asarray(mean_x_tau, dtype=float))
    return _anchored(dynamics.A, grid, p_tau, -cost.c_lin)


def hamiltonian_du(u, p, dynamics: LinearDynamics, cost: CostSpec) -> np.ndarray:
    """Control gradient of H, B'p - Lambda u: q vanishes in this family, and H_u
    does not depend on the state.  `u` and `p` may be rows, one per time."""
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    return p @ dynamics.B - u @ cost.Lambda.T


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

    p0(t)' = -(E1+E2+E3A) int_0^{tau-t} e^{As} ds, so each call costs one
    augmented exponential; the two target rows are built once.
    `time_adjoint_closed_form` gives the node values of p0 in one pass.
    """
    row_x = target_state_row(target, dynamics)
    row_u = target_control_row(target, dynamics)

    def khat(t: float) -> np.ndarray:
        return -(row_x @ exp_with_integral(dynamics.A, tau - float(t))[1]) @ dynamics.B - row_u

    return khat


def target_slope_at_tau(
    target: TargetCoefficients,
    dynamics: LinearDynamics,
    mean_x_tau,
    mean_u_tau,
) -> float:
    """Slope of the mean target at tau: (E1+E2+E3A).E[X](tau) + (E3B+E4).u(tau).

    This scalar is the single source of truth for every denominator that
    divides by the terminal target slope.  |slope| <= `_SLOPE_FLOOR`
    raises AssumptionViolationError: the hit is not transversal.
    """
    row_x = target_state_row(target, dynamics)
    row_u = target_control_row(target, dynamics)
    g = float(row_x @ np.asarray(mean_x_tau, dtype=float))
    g += float(row_u @ np.atleast_1d(np.asarray(mean_u_tau, dtype=float)))
    if abs(g) <= _SLOPE_FLOOR:
        raise AssumptionViolationError(
            f"target slope at tau is {g:.3e}, within {_SLOPE_FLOOR:g} of zero"
        )
    return g
