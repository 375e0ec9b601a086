"""First-order expansions and the checks built on them.

Perturbing an admissible control along a direction v produces three
verifiable first-order objects:

* the state sensitivity process, driven by the coefficient derivatives
  frozen along the base trajectory, which finite differences of coupled
  path ensembles must match to O(rho);
* the mean target response (the linearized drift of E[Y] along v), whose
  integral over [0, tau] divided by the terminal target slope gives the
  derivative of the hitting time; and
* a duality identity tying that same integral to the time adjoint:
  int_0^tau response dt = -int_0^tau Khat(t) . v(t) dt.

The state sensitivity and the perturbed states come from the one
Euler-Maruyama loop of `simulate`: the base state and its sensitivity are
one augmented state of size 2m driven by (u, v), and each perturbed
control u + rho v is a further column on the same noise draw per step.

Everything here is diagnostic: these routines quantify agreement and
return tables rather than pass judgment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import quad

from .adjoint import khat_evaluator, target_slope_at_tau
from .problem import (
    LinearDynamics,
    ProblemSpec,
    ValidationReport,
    perturbed_policy,
    target_control_row,
    target_state_row,
)
from .simulate import (
    HookDynamics,
    SimGrid,
    _affine_path,
    _joint_matrices,
    _node_controls,
    _state_paths,
    solve_mean_path,
)

__all__ = [
    "PerturbationSpec",
    "SensitivityResult",
    "FdStateRow",
    "TauDerivative",
    "FdTauRow",
    "FdTauReport",
    "DualIdentityReport",
    "simulate_state_sensitivity",
    "fd_state_check",
    "mean_target_response",
    "hit_time_derivative",
    "fd_tau_check",
    "dual_identity_check",
]


@dataclass
class PerturbationSpec:
    """A direction policy together with the finite-difference step sizes.

    `validate` checks that every perturbed control u + rho v stays inside
    the admissible box, sampling both one-sided limits on a grid refined
    well past the segment breakpoints.
    """

    direction: object
    rhos: Sequence[float] = (1e-2, 1e-3, 1e-4)

    def validate(self, spec: ProblemSpec, policy, n_samples: int = 257) -> ValidationReport:
        out = []
        if self.direction.horizon != policy.horizon:
            out.append(
                "perturbation.direction: horizon "
                f"{self.direction.horizon} != policy horizon {policy.horizon}"
            )
            return ValidationReport(ok=False, violations=out)
        for i, rho in enumerate(self.rhos):
            if not rho > 0:
                out.append(f"perturbation.rhos[{i}]: must be positive, got {rho}")
        ts = np.union1d(
            np.linspace(0.0, policy.horizon, n_samples),
            np.union1d(policy.breakpoints, self.direction.breakpoints),
        )
        for i, rho in enumerate(self.rhos):
            if not rho > 0:
                continue
            pol = perturbed_policy(policy, self.direction, rho)
            for side in (+1, -1):
                vals = pol.values(ts, side=side)
                low = vals - spec.control_set.lower
                high = spec.control_set.upper - vals
                worst = min(float(low.min()), float(high.min()))
                if worst < -1e-12:
                    j = int(np.argmin(np.minimum(low, high).min(axis=1)))
                    out.append(
                        f"perturbation.rhos[{i}]: perturbed control leaves the box "
                        f"near t={ts[j]:.6g} (margin {worst:.3e})"
                    )
                    break
        return ValidationReport(ok=not out, violations=out)


def _sensitivity_column(dyn, policy, direction, times):
    """The pair (X, S) as one state of size 2m, driven by the control (u, v).

    S follows the sensitivity equation with every coefficient derivative
    taken at the base (X, u), which is what makes the expansion first
    order; the first m coordinates of a path are the base state path and
    the last m its sensitivity.  Returns the HookDynamics of the pair and
    its node controls, ready to be a column of the Euler-Maruyama loop.
    """
    m, k = dyn.m, dyn.k

    def split(Z, w):
        return Z[:, :m], Z[:, m:], w[:k], w[k:]

    def drift(Z, w):
        X, S, u, v = split(Z, w)
        dS = dyn.drift_dstate(X, u, S) + dyn.drift_dcontrol(X, u, v)
        return np.hstack([dyn.drift(X, u), dS])

    def diffusion(Z, w):
        X, S, u, v = split(Z, w)
        dsig = dyn.diffusion_dstate(X, u, S) + dyn.diffusion_dcontrol(X, u, v)[None, :, :]
        return np.concatenate([dyn.diffusion(X, u), dsig], axis=1)

    pair = HookDynamics(
        m=2 * m, k=2 * k, d=dyn.d, x0=np.concatenate([dyn.x0, np.zeros(m)]),
        drift=drift, diffusion=diffusion,
    )
    w_nodes = np.hstack([_node_controls(policy, times), _node_controls(direction, times)])
    return pair, w_nodes


@dataclass
class SensitivityResult:
    """Pathwise first-order state response to a control direction."""

    grid: SimGrid
    seed: int
    paths: np.ndarray            # (n_paths, n_steps + 1, m)
    mean_mc: np.ndarray          # (n_steps + 1, m)
    mean_exact: Optional[np.ndarray] = None  # closed mean, linear dynamics only


def simulate_state_sensitivity(
    spec: ProblemSpec,
    policy,
    direction,
    grid: SimGrid,
    seed: int,
    n_paths: int,
    dynamics=None,
) -> SensitivityResult:
    """Simulate the sensitivity SDE along the base trajectory.

    The base state and its sensitivity advance together as one column of
    the Euler-Maruyama loop; coefficient derivatives are always evaluated
    at the *base* (X, u), which is what makes the expansion first order.
    For linear dynamics the sensitivity mean also solves dE/dt = A E + B v
    exactly, returned as `mean_exact`.
    """
    dyn = dynamics if dynamics is not None else spec.dynamics
    times = grid.times()
    (pair,) = _state_paths(
        [_sensitivity_column(dyn, policy, direction, times)], grid, seed, n_paths
    )
    paths = np.ascontiguousarray(pair[:, :, dyn.m :])

    mean_exact = None
    if isinstance(dyn, LinearDynamics):
        mean_exact = _affine_path(
            dyn.A, dyn.B, np.zeros(dyn.m), direction, times, np.zeros(dyn.m)
        )
    return SensitivityResult(
        grid=grid,
        seed=seed,
        paths=paths,
        mean_mc=paths.mean(axis=0),
        mean_exact=mean_exact,
    )


@dataclass
class FdStateRow:
    """Sup-norm gap between (X^rho - X)/rho and the sensitivity paths."""

    rho: float
    sup_err: float
    t_at_sup: float
    stderr: float


def fd_state_check(
    spec: ProblemSpec,
    policy,
    direction,
    rhos: Sequence[float],
    grid: SimGrid,
    seed: int,
    n_paths: int,
    dynamics=None,
) -> list:
    """Coupled finite-difference check of the sensitivity equation.

    The base state with its sensitivity and one perturbed state per step
    size are columns of one Euler-Maruyama loop, so they share every
    Brownian increment (one draw per step); the pathwise quotient then
    converges at rate O(rho) and the reported sup error should shrink
    linearly in rho down to the discretization floor.
    """
    dyn = dynamics if dynamics is not None else spec.dynamics
    times = grid.times()
    columns = [_sensitivity_column(dyn, policy, direction, times)] + [
        (dyn, _node_controls(perturbed_policy(policy, direction, rho), times)) for rho in rhos
    ]
    pair, *perturbed = _state_paths(columns, grid, seed, n_paths)
    base, sens = pair[:, :, : dyn.m], pair[:, :, dyn.m :]
    rows = []
    for rho, pert in zip(rhos, perturbed):
        gap = (pert - base) / rho - sens
        errs = np.sqrt(np.sum(gap * gap, axis=2))  # (n_paths, nodes)
        mean_err = errs.mean(axis=0)
        i = int(np.argmax(mean_err))
        rows.append(
            FdStateRow(
                rho=float(rho),
                sup_err=float(mean_err[i]),
                t_at_sup=float(times[i]),
                stderr=float(errs[:, i].std(ddof=1) / np.sqrt(n_paths)),
            )
        )
    return rows


def mean_target_response(ey_values, v_values, target, dynamics) -> np.ndarray:
    """Linearized drift of E[Y] along a direction: (E1+E2+E3A).E[y] + (E3B+E4).v.

    `ey_values` holds the sensitivity mean (nodes, m) and `v_values` the
    direction (nodes, k); single vectors also work.
    """
    ey = np.asarray(ey_values, dtype=float)
    v = np.asarray(v_values, dtype=float)
    return ey @ target_state_row(target, dynamics) + v @ target_control_row(target, dynamics)


def _mean_and_response_at_tau(spec: ProblemSpec, policy, direction, tau: float, grid: SimGrid):
    """Exact-to-tau integration of the mean state and of int_0^tau response dt."""
    times = grid.times()
    cut = times[times < tau - 1e-15]
    times2 = np.append(cut, tau)
    M, F, c0 = _joint_matrices(spec.dynamics, spec.target, 0.0)
    z0 = np.concatenate([spec.dynamics.x0, [spec.target.y0]])
    mean_x_tau = _affine_path(M, F, c0, policy, times2, z0)[-1, : spec.dynamics.m]
    w0 = np.zeros(spec.dynamics.m + 1)
    if direction is not None:
        resp = _affine_path(M, F, np.zeros_like(c0), direction, times2, w0)[-1, -1]
    else:
        resp = 0.0
    return mean_x_tau, float(resp)


@dataclass
class TauDerivative:
    """Derivative of the capped hitting time along a direction.

    For an interior hit the value is response_integral / slope_at_tau;
    at the cap (labels "ii" and "iii") the hitting time is locally the
    constant T for admissible perturbations, so the derivative reported
    is zero and the interior quantities are NaN.
    """

    tau: float
    case_label: str
    slope_at_tau: float
    response_integral: float
    value: float


def hit_time_derivative(
    spec: ProblemSpec, policy, direction, grid: SimGrid
) -> TauDerivative:
    """Closed-form directional derivative (tau - tau^rho)/rho -> value."""
    mp = solve_mean_path(spec, policy, grid)
    if mp.case_label != "i" or mp.tau <= 0.0:
        return TauDerivative(mp.tau, mp.case_label, float("nan"), float("nan"), 0.0)
    mean_x_tau, resp = _mean_and_response_at_tau(spec, policy, direction, mp.tau, grid)
    u_tau = policy.value(mp.tau, side=-1)
    slope = target_slope_at_tau(
        spec.target,
        spec.dynamics,
        mean_x_tau,
        u_tau,
        eps_regularize=spec.eps_regularize,
    )
    return TauDerivative(mp.tau, mp.case_label, slope, resp, resp / slope)


@dataclass
class FdTauRow:
    rho: float
    quotient: float
    abs_gap: float
    rel_gap: float


@dataclass
class FdTauReport:
    """Finite-difference table for the hitting-time derivative."""

    derivative: TauDerivative
    rows: list = field(default_factory=list)


def fd_tau_check(
    spec: ProblemSpec, policy, direction, rhos: Sequence[float], grid: SimGrid
) -> FdTauReport:
    """Compare (tau - tau^rho)/rho against the closed-form derivative.

    Works in every regime: at the cap the reference value is zero and the
    quotients should vanish identically for small rho.  Relative gaps are
    measured against max(1, |derivative|).
    """
    deriv = hit_time_derivative(spec, policy, direction, grid)
    rows = []
    for rho in rhos:
        pol = perturbed_policy(policy, direction, rho)
        mp = solve_mean_path(spec, pol, grid)
        quot = (deriv.tau - mp.tau) / rho
        gap = abs(quot - deriv.value)
        rows.append(
            FdTauRow(
                rho=float(rho),
                quotient=float(quot),
                abs_gap=float(gap),
                rel_gap=float(gap / max(1.0, abs(deriv.value))),
            )
        )
    return FdTauReport(derivative=deriv, rows=rows)


@dataclass
class DualIdentityReport:
    tau: float
    response_integral: float
    adjoint_integral: float
    abs_gap: float
    rel_gap: float


def dual_identity_check(
    spec: ProblemSpec,
    policy,
    direction,
    grid: SimGrid,
    *,
    derivative: Optional[TauDerivative] = None,
) -> DualIdentityReport:
    """Verify int_0^tau response dt = -int_0^tau Khat(t).v(t) dt.

    The left side integrates the sensitivity-mean system to tau at 4th
    order; the right side pairs the closed-form time adjoint with the
    direction through adaptive quadrature split at direction breakpoints.
    Requires an interior hit.  `derivative`, the `hit_time_derivative` of
    the same inputs, supplies tau, the case label and the response
    integral instead of solving for them again.
    """
    if derivative is None:
        mp = solve_mean_path(spec, policy, grid)
        tau, label, lhs = mp.tau, mp.case_label, None
    else:
        tau, label, lhs = derivative.tau, derivative.case_label, derivative.response_integral
    if label != "i" or tau <= 0.0:
        raise ValueError(f"duality check needs an interior hit, got case {label}")
    if lhs is None:
        _, lhs = _mean_and_response_at_tau(spec, policy, direction, tau, grid)

    khat = khat_evaluator(spec.dynamics, spec.target, tau)

    def integrand(t: float) -> float:
        return float(khat(t) @ direction.value(t, side=+1))

    bp = direction.breakpoints
    edges = np.unique(np.clip(np.append(bp, [0.0, tau]), 0.0, tau))
    rhs = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            val, _ = quad(integrand, a, b, epsabs=1e-13, epsrel=1e-12, limit=200)
            rhs += val
    rhs = -rhs
    gap = abs(lhs - rhs)
    return DualIdentityReport(
        tau=tau,
        response_integral=float(lhs),
        adjoint_integral=float(rhs),
        abs_gap=float(gap),
        rel_gap=float(gap / max(1.0, abs(lhs), abs(rhs))),
    )
