"""First-order expansions and the checks built on them.

Perturbing an admissible control along a direction v produces three
verifiable first-order objects:

* the state sensitivity process, the same linear SDE started at 0 and
  driven by v, which finite differences of coupled path ensembles must
  match: for linear dynamics the quotient (X^rho - X)/rho equals it up
  to rounding, so this checks the linearity of the stepping kernel;
* the mean target response (the linearized drift of E[Y] along v), whose
  integral over [0, tau] divided by the terminal target slope gives the
  derivative of the hitting time; and
* a duality identity tying that same integral to the time adjoint:
  int_0^tau response dt = -int_0^tau Khat(t) . v(t) dt.

The base state, its sensitivity and the perturbed states come from the
one Euler-Maruyama loop of `simulate`, on one noise draw per step: the
base run (x0, u), the sensitivity (0, v) and each perturbed run
(x0, u + rho v) are lanes of one column, stepped by one array operation
per step.  The state table stores none of their paths: its column folds
each block of `_TABLE_BLOCK` nodes into the table as the loop records
them, so its memory does not grow with the step count.

Everything here is diagnostic: these routines quantify agreement and
return tables rather than pass judgment.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._scipy import quad
from .adjoint import khat_evaluator, target_slope_at_tau
from .problem import ProblemSpec, ValidationReport, perturbed_policy
from .simulate import SimGrid, _affine_path, _Column, _run_columns, hit_time, mean_at_tau

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
    """

    direction: object
    rhos: Sequence[float] = (1e-2, 1e-3, 1e-4)

    def validate(self, spec: ProblemSpec, policy) -> ValidationReport:
        if self.direction.horizon != policy.horizon:
            out = [
                "perturbation.direction: horizon "
                f"{self.direction.horizon} != policy horizon {policy.horizon}"
            ]
        else:
            out = [f"perturbation.{v}" for v in _rho_violations(self.rhos)]
        if out:
            return ValidationReport(ok=False, violations=out)
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
        return ValidationReport(ok=not out, violations=out)


def _fd_lanes(dyn, policy, direction, rhos, times):
    """Starts and node controls of the lanes (x0, u), (0, v) and (x0, u + rho v).

    Returns x0 of shape (2 + len(rhos), m) and the node controls of shape
    (len(times), 2 + len(rhos), k), in that lane order.
    """
    controls = [policy, direction] + [perturbed_policy(policy, direction, rho) for rho in rhos]
    x0 = np.tile(dyn.x0, (len(controls), 1))
    x0[1] = 0.0  # the sensitivity starts at 0
    return x0, np.stack([pol.values(times) for pol in controls], axis=1)


def _fd_paths(dyn, policy, direction, rhos, grid, seed, n_paths, threads=None):
    """Base, sensitivity and perturbed state paths on one noise draw per step.

    Returns (base, sens, perturbed): two (n_paths, n_steps + 1, m) views
    and a sequence of one such view per rho, the lanes of `_fd_lanes` in
    one column that stores every path (time-major, so the views are
    strided).  `simulate_state_sensitivity` reads its sensitivity lane;
    the state table steps the same lanes without storing them
    (`_TableColumn`).  A non-finite state raises DivergenceError.
    `threads` is passed to `_run_columns`.
    """
    x0, u_nodes = _fd_lanes(dyn, policy, direction, rhos, grid.times())
    col = _Column(dyn, u_nodes, n_paths, grid.n_steps, x0=x0)
    _run_columns([col], grid, seed, n_paths, threads)
    return col.paths[0], col.paths[1], col.paths[2:]


@dataclass
class SensitivityResult:
    """Pathwise first-order state response to a control direction."""

    grid: SimGrid
    seed: int
    paths: np.ndarray            # (n_paths, n_steps + 1, m)
    mean_mc: np.ndarray          # (n_steps + 1, m)
    mean_exact: np.ndarray       # (n_steps + 1, m), the closed mean


def simulate_state_sensitivity(
    spec: ProblemSpec,
    policy,
    direction,
    grid: SimGrid,
    seed: int,
    n_paths: int,
    threads: Optional[int] = None,
) -> SensitivityResult:
    """Simulate the sensitivity SDE along the base trajectory.

    The base state and its sensitivity advance together in the
    Euler-Maruyama loop (`_fd_paths` without perturbed runs).  The
    sensitivity mean also solves dE/dt = A E + B v exactly, returned as
    `mean_exact`.  `threads` is passed to `_run_columns` and never changes
    the result.
    """
    dyn = spec.dynamics
    times = grid.times()
    _, sens, _ = _fd_paths(dyn, policy, direction, (), grid, seed, n_paths, threads)
    paths = np.ascontiguousarray(sens)
    return SensitivityResult(
        grid=grid,
        seed=seed,
        paths=paths,
        mean_mc=paths.mean(axis=0),
        mean_exact=_affine_path(dyn.A, dyn.B, np.zeros(dyn.m), direction, times, np.zeros(dyn.m)),
    )


@dataclass
class FdStateRow:
    """Sup-norm gap between (X^rho - X)/rho and the sensitivity paths."""

    rho: float
    sup_err: float
    t_at_sup: float
    stderr: float


# Nodes of the state table reduced together; the table holds one block of
# every lane's paths, whatever the step count.
_TABLE_BLOCK = 64


class _TableColumn(_Column):
    """The lanes of `_fd_lanes`, reduced into the state table as the loop records them.

    The column stores no paths.  `record` copies each node of every lane
    into a time-major block of `_TABLE_BLOCK` nodes, and `reduce` folds a
    full block, or the last one, into the table.  The block does the
    arithmetic of reducing (n_paths, n_steps + 1) arrays of all the nodes
    in the same order, so the rows are those bit for bit:
    * per node, rho and path the gap (X^rho - X)/rho - S element by
      element, its squares summed over m along a contiguous last axis,
      then the square root;
    * the mean over paths as the axis-0 reduction of an (n_paths,
      _TABLE_BLOCK * len(rhos)) array, which numpy sums in path order.
      The whole width is reduced even when fewer nodes are filled, since
      a one-column reduction would sum pairwise instead;
    * the first node with the largest mean, by `argmax` within a block
      and by a strict `>` across blocks, and the standard error there.
    """

    def __init__(self, dyn, policy, direction, rhos, times, n_paths):
        x0, u_nodes = _fd_lanes(dyn, policy, direction, rhos, times)
        super().__init__(dyn, u_nodes, n_paths, len(times) - 1, store_paths=False, x0=x0)
        n_rho, m = len(rhos), dyn.m
        self.rhos, self.times = np.asarray(rhos, dtype=float), times
        self.block = np.empty((_TABLE_BLOCK, 2 + n_rho, n_paths, m))
        self.gap = np.empty((_TABLE_BLOCK, n_rho, n_paths, m))
        self.norms = np.empty((_TABLE_BLOCK, n_rho, n_paths))
        self.errs = np.zeros((n_paths, _TABLE_BLOCK, n_rho))
        self.sup = np.full(n_rho, -np.inf)
        self.at = np.zeros(n_rho, dtype=int)
        self.stderr = np.zeros(n_rho)

    def record(self, j):
        super().record(j)
        s = j % _TABLE_BLOCK
        node = self.block[s]
        for b, z in enumerate(self.Z):
            node[..., b] = z
        if s == _TABLE_BLOCK - 1 or j == len(self.times) - 1:
            self.reduce(j - s, s + 1)

    def reduce(self, first, n):
        """Fold the block's first n nodes, nodes first..first + n - 1, into the table."""
        lanes, gap, norms = self.block[:n], self.gap[:n], self.norms[:n]
        # gap = (pert - base) / rho - sens, then |gap| per node, rho and path
        np.subtract(lanes[:, 2:], lanes[:, :1], out=gap)
        np.divide(gap, self.rhos[:, None, None], out=gap)
        np.subtract(gap, lanes[:, 1:2], out=gap)
        np.multiply(gap, gap, out=gap)
        np.sum(gap, axis=3, out=norms)
        np.sqrt(norms, out=norms)
        errs = self.errs
        errs[:, :n] = norms.transpose(2, 0, 1)
        mean_err = errs.mean(axis=0)[:n]  # (n, n_rho)
        for r, i in enumerate(np.argmax(mean_err, axis=0)):
            if mean_err[i, r] > self.sup[r]:
                self.sup[r], self.at[r] = mean_err[i, r], first + i
                self.stderr[r] = errs[:, i, r].std(ddof=1) / np.sqrt(len(errs))

    def rows(self) -> list:
        return [
            FdStateRow(rho=float(rho), sup_err=float(sup), t_at_sup=float(self.times[i]),
                       stderr=float(se))
            for rho, sup, i, se in zip(self.rhos, self.sup, self.at, self.stderr)
        ]


def fd_state_check(
    spec: ProblemSpec,
    policy,
    direction,
    rhos: Sequence[float],
    grid: SimGrid,
    seed: int,
    n_paths: int,
    threads: Optional[int] = None,
) -> list:
    """Coupled finite-difference check of the sensitivity equation.

    The base state, its sensitivity and one perturbed state per step size
    run as lanes of one Euler-Maruyama column (`_TableColumn`), so they
    share every Brownian increment (one draw per step).  The dynamics are
    linear, so the pathwise quotient (X^rho - X)/rho equals the
    sensitivity up to rounding at every rho: the table checks that the
    stepping kernel is linear in (x0, u).  Each row is the largest mean
    over paths of |(X^rho - X)/rho - S| over the nodes, its time and the
    standard error there.  The column reduces its nodes block by block as
    the loop records them and stores no paths, so the table's memory is
    one block, not n_paths x (n_steps + 1) per lane.  `threads` is passed
    to `_run_columns` and never changes the table.
    """
    _require_rhos(rhos)
    col = _TableColumn(spec.dynamics, policy, direction, rhos, grid.times(), n_paths)
    _run_columns([col], grid, seed, n_paths, threads)
    return col.rows()


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
    integral.  A `direction` of None has response 0, for a caller that
    needs only the hit and its slope.  A non-transversal interior hit
    raises AssumptionViolationError from `target_slope_at_tau`.
    """
    tau, label = hit_time(spec, policy, grid)
    if label != "i" or tau <= 0.0:
        return TauDerivative(tau, label, float("nan"), float("nan"), 0.0)
    mean_x_tau, resp = mean_at_tau(spec, policy, direction, tau, grid)
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
    tau: float
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
    system to tau at 4th order.  The right side pairs the closed-form time
    adjoint with the direction through adaptive quadrature split at
    direction breakpoints.  Requires an interior hit: any other case label,
    or tau <= 0, raises ValueError.
    """
    tau, label, lhs = derivative.tau, derivative.case_label, derivative.response_integral
    if label != "i" or tau <= 0.0:
        raise ValueError(f"duality check needs an interior hit, got case {label}")

    khat = khat_evaluator(spec.dynamics, spec.target, tau)

    def integrand(t: float) -> float:
        return float(khat(t) @ direction.values(t, side=+1))

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
