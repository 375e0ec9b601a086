"""First-order expansions and the checks built on them.

Perturbing an admissible control along a direction v produces three
verifiable first-order objects:

* the state sensitivity process, the same linear SDE started at 0 and
  driven by v, whose Euler-Maruyama paths must match the scheme's exact
  moments: its terminal sample mean and variance are compared with the
  closed recursion of `simulate._em_moments`, so a kernel that applies
  B, C or D wrongly shows as a large z-score;
* the mean target response (the linearized drift of E[Y] along v), whose
  integral over [0, tau] divided by the terminal target slope gives the
  derivative of the hitting time, checked against finite differences of
  tau at each step size rho; and
* a duality identity tying that same integral to the time adjoint:
  int_0^tau response dt = -int_0^tau Khat(t) . v(t) dt.  The left side
  is the RK4 response integral; the right side is exact, a sum of Van
  Loan block exponentials over the pieces g0 + g1 e^{g2 t} of v, so the
  two sides share no code.

For linear dynamics the sensitivity does not involve the base state, so
the state check steps it alone, as one path column of the one
Euler-Maruyama loop of `simulate`, on one noise draw per step, and stores
none of its paths.

Everything here is diagnostic: these routines quantify agreement and
return tables rather than pass judgment.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .adjoint import _target_blocks, _van_loan, target_slope_at_tau
from .problem import ProblemSpec, perturbed_policy, target_control_row, target_state_row
from .simulate import SimGrid, _Column, _em_moments, _first_order_at_hit, _hit_nodes
from .simulate import _run_columns, hit_time

__all__ = [
    "PerturbationSpec",
    "StateMomentRow",
    "TauDerivative",
    "FdTauRow",
    "FdTauReport",
    "DualIdentityReport",
    "fd_state_check",
    "hit_time_derivative",
    "fd_tau_check",
    "dual_identity_check",
]


def _rho_violations(rhos) -> list:
    """One `rhos[i]: ...` message per entry that is not a finite positive step size."""
    return [
        f"rhos[{i}]: expected a finite positive step size, got {r!r}"
        for i, r in enumerate(rhos)
        if isinstance(r, bool) or not isinstance(r, numbers.Real)
        or not 0 < r <= sys.float_info.max
    ]


def _require_rhos(rhos) -> None:
    bad = _rho_violations(rhos)
    if bad:
        raise ValueError("; ".join(bad))


# Uniform times at which `PerturbationSpec.validate` checks the box, on
# top of every breakpoint of the policy and the direction.
_BOX_SAMPLES = 257


@dataclass
class PerturbationSpec:
    """A direction policy together with the finite-difference step sizes.

    `validate` checks that the direction spans the policy horizon, that
    every rho is a finite positive step size, and that every perturbed
    control u + rho v stays inside the admissible box, sampling both
    one-sided limits on a grid refined well past the segment breakpoints.
    It returns the violations, an empty list when the perturbation is
    admissible.
    """

    direction: object
    rhos: Sequence[float] = (1e-2, 1e-3, 1e-4)

    def validate(self, spec: ProblemSpec, policy) -> list:
        if self.direction.horizon != policy.horizon:
            out = [
                "perturbation.direction: horizon "
                f"{self.direction.horizon} != policy horizon {policy.horizon}"
            ]
        else:
            out = [f"perturbation.{v}" for v in _rho_violations(self.rhos)]
        if out:
            return out
        ts = np.union1d(
            np.linspace(0.0, policy.horizon, _BOX_SAMPLES),
            np.union1d(policy.breakpoints, self.direction.breakpoints),
        )
        for i, rho in enumerate(self.rhos):
            pol = perturbed_policy(policy, self.direction, rho)
            for side in (+1, -1):
                # a control that overflows is outside the box and reported so
                with np.errstate(over="ignore", invalid="ignore"):
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
        return out


@dataclass
class StateMomentRow:
    """Terminal sample moments of one sensitivity coordinate against the exact ones.

    `mean_z` is (mean - mean_exact) / (std / sqrt(N)) and `var_z` is (var -
    var_exact) / sqrt((m4 - var^2) / N), with var the sample variance and
    m4 the sample fourth central moment.  Each is NaN when its scale is
    not positive: when the sample spread is 0, no noise reaches the
    coordinate, and its gaps are exact up to rounding instead.
    """

    coord: int
    mean: float
    mean_exact: float
    mean_z: float
    var: float
    var_exact: float
    var_z: float


def fd_state_check(
    spec: ProblemSpec,
    direction,
    grid: SimGrid,
    seed: int,
    n_paths: int,
    threads: Optional[int] = None,
) -> list:
    """Check the simulated sensitivity against its exact Euler-Maruyama moments.

    For linear dynamics the sensitivity along v solves dS = (A S + B v) dt
    + sum_c (C_c S + D_c v) dW_c from S = 0, whatever the base state, so
    one path column steps it alone, on one noise draw per step.  At the
    last node each coordinate's sample mean and variance are compared with
    the scheme's exact moments (`_em_moments`), one `StateMomentRow` per
    coordinate: a kernel that applies B, C or D wrongly moves a z-score by
    far more than sampling error does.  The column stores no paths.
    `threads` is passed to `_run_columns` and never changes the rows.

    A correct kernel's |z| < 4 holds on the shipped configs, not on every
    system: strong state-multiplied noise makes the terminal state
    heavy-tailed.  Over 300 random stable systems (m, k, d in 1..3), |z|
    read up to 6.0 at 256 paths and 3.5 at 1 024 with C in [-0.5, 0.5],
    and 7.5 at 256 paths with C in [-1, 1].
    """
    dyn = replace(spec.dynamics, x0=np.zeros(spec.dynamics.m))
    col = _Column(dyn, direction, n_paths, grid)
    _run_columns([col], seed, threads)
    mean, second = _em_moments(dyn, col.u_nodes, grid.dt)
    rows = []
    for a, s in enumerate(col.Z):
        mean_exact = mean[-1, a]
        var_exact = second[-1, a, a] - mean_exact**2
        mu = s.mean()
        dev = s - mu
        var = dev @ dev / (n_paths - 1)
        # each z only where its scale is positive: no noise reaching a coordinate,
        # a few paths, two values (m4 < var^2) or an underflow give NaN, not a warning
        mean_z = var_z = np.nan
        mean_scale = var / n_paths
        var_scale = (np.mean(dev**4) - var**2) / n_paths
        if mean_scale > 0.0:
            mean_z = (mu - mean_exact) / np.sqrt(mean_scale)
        if var_scale > 0.0:
            var_z = (var - var_exact) / np.sqrt(var_scale)
        rows.append(StateMomentRow(
            coord=a, mean=float(mu), mean_exact=float(mean_exact), mean_z=float(mean_z),
            var=float(var), var_exact=float(var_exact), var_z=float(var_z),
        ))
    return rows


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
    """Closed-form directional derivative (tau - tau^rho)/rho -> value.

    The one route to tau, its label, the terminal slope and the response
    integral, all off one RK4 hit pass (`simulate._first_order_at_hit`).
    A `direction` of None has response 0, for a caller that needs only
    the hit and its slope.  A non-transversal interior hit raises
    AssumptionViolationError from `target_slope_at_tau`.
    """
    times, z, tau, label = _hit_nodes(spec, policy, grid)
    if label != "i" or tau <= 0.0:
        return TauDerivative(tau, label, float("nan"), float("nan"), 0.0)
    mean_x_tau, resp = _first_order_at_hit(spec, policy, direction, times, z, tau)
    u_tau = policy.values(tau, side=-1)
    slope = target_slope_at_tau(spec.target, spec.dynamics, mean_x_tau, u_tau)
    return TauDerivative(tau, label, slope, resp, resp / slope)


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
    _require_rhos(rhos)
    deriv = hit_time_derivative(spec, policy, direction, grid)
    rows = []
    for rho in rhos:
        pol = perturbed_policy(policy, direction, rho)
        tau_rho, _ = hit_time(spec, pol, grid)
        quot = (deriv.tau - tau_rho) / rho
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
    response_integral: float
    adjoint_integral: float
    abs_gap: float
    rel_gap: float


def dual_identity_check(
    spec: ProblemSpec, direction, derivative: TauDerivative
) -> DualIdentityReport:
    """Verify int_0^tau response dt = -int_0^tau Khat(t).v(t) dt.

    The left side is the response integral of `derivative`, the
    `hit_time_derivative` of the policy along `direction`, which also
    supplies tau and the case label; it integrates the sensitivity-mean
    system to tau at 4th order.  The right side is exact up to round-off.
    With k(s) = c_x I(s) B + c_u, I(s) = int_0^s e^{Ar} dr and J(s) =
    int_0^s I, -Khat(t) = k(tau - t).  On a piece [a, b] of the direction,
    its end clipped to tau, with h = b - a and v_i = g0_i + g1_i e^{g2_i t},
    the g0 part is c_x (J(tau - a) - J(tau - b)) B g0 + c_u.g0 h, and
    component i's g1 part is

        g1_i e^{g2_i a} [(c_x I(tau - b) B_i + c_u,i) S(h) + c_x e^{A(tau - b)} W(h) B_i],

    with S(h) = int_0^h e^{g2_i r} dr and W(h) = int_0^h e^{g2_i (h - q)} I(q)
    dq.  Each is a block of one Van Loan exponential (`adjoint._van_loan`):
    e^{As}, I(s) and J(s) of [[A, I, 0], [0, 0, I], [0, 0, 0]] s, S(h) of
    [[g2_i, 1], [0, 0]] h and W(h) of [[g2_i I, I, 0], [0, A, I], [0, 0, 0]] h,
    so g2_i = 0 takes no branch.  For g2_i > 0 both are taken with their
    diagonal lowered by g2_i, which divides S and W by e^{g2_i h}, and that
    factor joins e^{g2_i a}: scaling and squaring keeps its digits on a
    decaying exponential but not on a fast-growing one (`_numerics.expm`
    reads e^{300} 7e-13 off).  Each piece is anchored at its own start,
    and no e^{g2_i t} is formed on its own.  Requires an interior hit: any
    other case label, or tau <= 0, raises ValueError.
    """
    tau, label, lhs = derivative.tau, derivative.case_label, derivative.response_integral
    if label != "i" or tau <= 0.0:
        raise ValueError(f"duality check needs an interior hit, got case {label}")

    dyn = spec.dynamics
    A, B, m = dyn.A, dyn.B, dyn.m
    c_x, c_u = target_state_row(spec.target, dyn), target_control_row(spec.target, dyn)
    eye = np.eye(m)
    rhs = 0.0
    for seg in direction.segments:
        a, b = seg.t_start, min(seg.t_end, tau)
        if not b > a:
            continue
        h = b - a
        _, _, cJ_a = _target_blocks(c_x, A, tau - a)
        cE_b, cI_b, cJ_b = _target_blocks(c_x, A, tau - b)
        rhs += ((cJ_a - cJ_b) @ B + c_u * h) @ seg.gamma0
        k_b = cI_b @ B + c_u
        for i in np.flatnonzero(seg.gamma1):
            g2 = seg.gamma2[i]
            lift = max(g2, 0.0)
            S = _van_loan([np.array([[g2 - lift]]), np.array([[-lift]])], h)[0, 1]
            W = _van_loan([(g2 - lift) * eye, A - lift * eye, -lift * eye], h)[:, 2 * m :]
            rhs += seg.gamma1[i] * np.exp(g2 * a + lift * h) * (k_b[i] * S + cE_b @ W @ B[:, i])
    gap = abs(lhs - rhs)
    return DualIdentityReport(
        response_integral=float(lhs),
        adjoint_integral=float(rhs),
        abs_gap=float(gap),
        rel_gap=float(gap / max(1.0, abs(lhs), abs(rhs))),
    )
