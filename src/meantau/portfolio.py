"""Wealth-target application with a closed-form three-branch policy.

A single risky asset with return rate `growth`, volatility `vol`, and a
riskless rate `rate` drives the wealth

    dX = (rate X + (growth - rate) u) dt + vol u dW,

where u is the money in the risky asset, constrained to the box
[target_wealth, 1.25 target_wealth].  The run stops when the expected
wealth reaches `target_wealth`; the objective charges elapsed time plus
a quadratic penalty lam u^2 / 2 with lam = 1 / (beta target_wealth^2).

The minimizing control follows the pattern upper bound, then a falling
exponential, then lower bound:

    u(t) = clip(u_end e^{rate (tau - t)}, lower, upper),

with branch boundaries t1 (leaves the upper bound) and t2 (reaches the
lower bound).  u_end, the exponential's value at tau, comes from the
free-terminal-time condition H(tau) = 0 (Bryson & Ho, Applied Optimal
Control, 1975, sec. 2.7), which reads differently on either side of
beta = 1/2 + q, q = rate / (growth - rate):

* below it the control ends on the lower bound (three branches) and
  u_end is the paper's coefficient
      coef = (2 beta + 1)(growth - rate) target_wealth / (2 growth) < lower;
* from it on the exponential ends inside the box (t2 = tau) at
      K = target_wealth (-q + sqrt(q^2 + 2 beta)),
  the root of lam K^2 / 2 + lam K rate target_wealth / (growth - rate) = 1.
  K >= upper, that is beta >= 1.25^2 / 2 + 1.25 q, leaves the regime.

Both forms equal `target_wealth` at beta = 1/2 + q.  tau itself solves a
scalar equation stating that the mean wealth under this control reaches
the target exactly at tau.

`optimal_policy` is the one form of this control in the code: the Monte
Carlo check steps it, and the figure reads its mean wealth and, from the
left, its control.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._numerics import brentq
from .errors import InfeasibleError, RegimeError, SpecValidationError
from .problem import (
    ControlPolicy,
    ControlSegment,
    ControlSet,
    CostSpec,
    LinearDynamics,
    ProblemSpec,
    TargetCoefficients,
    TargetDiffusion,
)
from .simulate import SimGrid, _Column, _run_columns, solve_mean_path

__all__ = [
    "PortfolioParams",
    "branch_coefficient",
    "switch_times",
    "wealth_residual",
    "solve_tau",
    "TauSolution",
    "optimal_policy",
    "to_problem_spec",
    "McReport",
    "mc_validate",
    "figure_columns",
]


@dataclass(frozen=True)
class PortfolioParams:
    """Market and objective constants; defaults reproduce the worked case."""

    rate: float = 0.05
    growth: float = 0.10
    vol: float = 0.20
    target_wealth: float = 10.0
    initial_wealth: float = 1.0
    beta: float = 1.2
    horizon: float = 20.0

    def __post_init__(self):
        bad = []
        if not self.rate > 0:
            bad.append(f"params.rate: must be positive, got {self.rate}")
        if not self.growth > self.rate:
            bad.append(f"params.growth: must exceed rate {self.rate}, got {self.growth}")
        if not self.vol > 0:
            bad.append(f"params.vol: must be positive, got {self.vol}")
        if not 0 < self.initial_wealth < self.target_wealth:
            bad.append(
                "params.initial_wealth: must lie in (0, target_wealth), got "
                f"{self.initial_wealth}"
            )
        if not self.beta > 0:
            bad.append(f"params.beta: must be positive, got {self.beta}")
        if not self.horizon > 0:
            bad.append(f"params.horizon: must be positive, got {self.horizon}")
        if bad:
            raise SpecValidationError(bad)

    @property
    def control_penalty(self) -> float:
        """Quadratic control weight lam = 1 / (beta target^2)."""
        return 1.0 / (self.beta * self.target_wealth**2)

    @property
    def control_lower(self) -> float:
        return self.target_wealth

    @property
    def control_upper(self) -> float:
        return 1.25 * self.target_wealth


def branch_coefficient(params: PortfolioParams) -> float:
    """The paper's coef = (2 beta + 1)(growth - rate) target_wealth / (2 growth).

    It is the exponential's value at tau when the control ends on the
    lower bound (coef < lower, three branches); otherwise the exponential
    ends at K instead (see the module docstring).
    """
    c = (2.0 * params.beta + 1.0) * (params.growth - params.rate)
    return c * params.target_wealth / (2.0 * params.growth)


def _exp_end(params: PortfolioParams) -> float:
    """u_end in u(t) = clip(u_end e^{rate (tau - t)}, lower, upper): coef below lower, else K.

    K = target_wealth (-q + sqrt(q^2 + 2 beta)) is evaluated as
    2 beta target_wealth / (q + sqrt(q^2 + 2 beta)), which cancels nothing.
    u_end >= upper would hold the control at the upper bound throughout;
    that is outside this regime and raises RegimeError.
    """
    coef = branch_coefficient(params)
    if coef < params.control_lower:
        return coef
    q = params.rate / (params.growth - params.rate)
    end = 2.0 * params.beta * params.target_wealth / (q + np.sqrt(q * q + 2.0 * params.beta))
    if end >= params.control_upper:
        edge = 1.25**2 / 2.0 + 1.25 * q
        raise RegimeError(
            "the exponential branch sits above the admissible box "
            f"(its value at tau {end:g} >= upper {params.control_upper:g}: "
            f"beta {params.beta:g} >= 1.25^2 / 2 + 1.25 rate / (growth - rate) = {edge:g})"
        )
    return float(end)


def switch_times(params: PortfolioParams, tau: float) -> tuple:
    """Branch boundaries (t1, t2) for a given tau, clamped into [0, tau].

    Raw values are t_i = tau - ln(w_i) / rate with w1 = upper / u_end and
    w2 = lower / u_end.  With u_end = coef < lower a long enough tau gives
    all three branches: upper, exponential, lower.  With lower <= u_end =
    K < upper the exponential is still above the lower bound at tau, so
    t2 = tau and the control is upper then exponential.  u_end >= upper
    raises RegimeError.
    """
    end = _exp_end(params)
    if tau <= 0.0:
        return 0.0, 0.0
    w1 = params.control_upper / end
    w2 = params.control_lower / end
    t1 = tau - np.log(w1) / params.rate
    t2 = tau - np.log(w2) / params.rate
    t1 = float(min(max(t1, 0.0), tau))
    t2 = float(min(max(t2, 0.0), tau))
    return t1, max(t2, t1)


def wealth_residual(params: PortfolioParams, tau: float):
    """target - (mean wealth at tau under the three-branch control).

    Returns (residual, parts) where parts holds the three integral
    contributions (upper branch, exponential branch, lower branch) of
    int_0^tau e^{rate (tau-s)} u(s) ds / target.
    """
    r, mu, alpha = params.rate, params.growth, params.target_wealth
    t1, t2 = switch_times(params, tau)
    upper, lower = params.control_upper / alpha, params.control_lower / alpha
    weight = _exp_end(params) / (2.0 * r * alpha)
    l_upper = upper * (np.exp(r * tau) - np.exp(r * (tau - t1))) / r
    l_exp = weight * (np.exp(2.0 * r * (tau - t1)) - np.exp(2.0 * r * (tau - t2)))
    l_lower = lower * (np.exp(r * (tau - t2)) - 1.0) / r
    mean_tau = params.initial_wealth * np.exp(r * tau) + (mu - r) * alpha * (
        l_upper + l_exp + l_lower
    )
    return alpha - mean_tau, (float(l_upper), float(l_exp), float(l_lower))


@dataclass(frozen=True)
class TauSolution:
    tau: float
    t1: float
    t2: float
    residual: float


def solve_tau(params: PortfolioParams) -> TauSolution:
    """Root of the wealth residual on (0, horizon] by Brent's method, to 1e-12.

    The residual is positive at tau -> 0+ (wealth starts below target)
    and decreases as tau grows; no sign change by the horizon means the
    target is out of reach in time and raises InfeasibleError.
    """
    lo = 1e-9
    # e^{rate t} overflows once rate * t > 709.  The residual is then -inf,
    # whose sign still brackets the root; at the root x0 e^{rate tau} <=
    # target, so tau itself is computed without overflow
    with np.errstate(over="ignore"):
        f_lo, _ = wealth_residual(params, lo)
        f_hi, _ = wealth_residual(params, params.horizon)
        if f_lo <= 0.0:
            raise InfeasibleError("mean wealth is at the target from the start")
        if f_hi > 0.0:
            raise InfeasibleError(
                f"mean wealth stays below the target through the horizon "
                f"(residual {f_hi:.6g} at t = {params.horizon:g})"
            )
        tau = float(
            brentq(lambda t: wealth_residual(params, t)[0], lo, params.horizon, xtol=1e-12)
        )
    t1, t2 = switch_times(params, tau)
    res, _ = wealth_residual(params, tau)
    return TauSolution(tau=tau, t1=float(t1), t2=float(t2), residual=float(res))


def optimal_policy(params: PortfolioParams, solution: TauSolution) -> ControlPolicy:
    """The three-branch control of `solution` as a piecewise policy on [0, horizon].

    Past tau the lower-bound value is held; the hit has already happened
    there, so the hold only keeps the policy evaluable on the full
    horizon.  Degenerate branch orderings (t1 = 0 or t2 = tau) drop the
    corresponding segments.
    """
    tau, t1, t2 = solution.tau, solution.t1, solution.t2
    end = _exp_end(params)
    segments = []
    if t1 > 0.0:
        segments.append(ControlSegment(0.0, t1, [params.control_upper]))
    if t2 > t1:
        segments.append(
            ControlSegment(t1, t2, [0.0], [end * np.exp(params.rate * tau)], [-params.rate])
        )
    if tau > t2:
        segments.append(ControlSegment(t2, tau, [params.control_lower]))
    if params.horizon > tau:
        segments.append(ControlSegment(tau, params.horizon, [params.control_lower]))
    return ControlPolicy(segments)


def to_problem_spec(params: PortfolioParams) -> ProblemSpec:
    """Embed the wealth problem in the general scalar form.

    The monitoring process is the remaining gap Y = target - X, so its
    drift rows read the pathwise state with weight -rate and the control
    with -(growth - rate), and its noise row is -vol times the control.
    """
    r, mu = params.rate, params.growth
    dynamics = LinearDynamics(
        A=[[r]],
        B=[[mu - r]],
        C=[[[0.0]]],
        D=[[[params.vol]]],
        x0=[params.initial_wealth],
    )
    target = TargetCoefficients(
        E1=[0.0],
        E2=[-r],
        E3=[0.0],
        E4=[-(mu - r)],
        y0=params.target_wealth - params.initial_wealth,
        diffusion=TargetDiffusion(
            coef_mean=[[0.0]], coef_state=[[0.0]], coef_control=[[-params.vol]]
        ),
    )
    cost = CostSpec(
        kappa=1.0,
        c_lin=[0.0],
        Lambda=[[params.control_penalty]],
        psi_lin=[0.0],
        psi_quad=[[0.0]],
    )
    box = ControlSet([params.control_lower], [params.control_upper])
    return ProblemSpec(dynamics, target, cost, box, params.horizon)


@dataclass
class McReport:
    """Monte Carlo check that the mean wealth hits the target at tau.

    tau is that of the `TauSolution` that `mc_validate` is given, which
    the `portfolio` summary gives beside this report.  `n_paths`, `dt` and
    `seed` are the run's inputs, kept because the summary's `mc` object
    reports them.
    """

    n_paths: int
    dt: float
    seed: int
    mean_terminal: float
    stderr: float
    z_score: float
    vol_pair: Optional[tuple] = None
    vol_pair_means: Optional[tuple] = None
    vol_pair_stderrs: Optional[tuple] = None
    vol_pair_gap: Optional[float] = None


def mc_validate(
    params: PortfolioParams,
    solution: TauSolution,
    n_paths: int = 200_000,
    dt: float = 1.0 / 256.0,
    seed: int = 42,
    vol_pair: Optional[tuple] = None,
    threads: Optional[int] = None,
) -> McReport:
    """Ensemble check of E[X(tau)] = target, plus volatility invariance.

    `solution` is `solve_tau(params)`, which gives tau and, through
    `optimal_policy`, the control.  The grid step is tau / ceil(tau / dt),
    so the final node lands on tau exactly and no terminal interpolation
    enters.  When `vol_pair` is given, the run is repeated at both
    volatilities; the mean trajectory of the wealth does not involve the
    volatility, so the gap between the two terminal means isolates pure
    sampling correlation and discretization effects.

    All volatilities (`params.vol` and the pair, each distinct value
    once) are path columns of one Euler-Maruyama loop, so they share one
    Brownian draw per step.  Each steps only the wealth, stores no paths
    and is read once, at the last node.  A pair entry equal to
    `params.vol` reuses the base column, and its mean equals
    `mean_terminal` exactly.  `threads` (default: the CPUs available to
    the process) is passed to `_run_columns` and never changes the report.
    A dt or a `vol_pair` entry that is not finite and positive, or fewer
    than two paths, raise ValueError.
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    for i, v in enumerate(vol_pair or ()):
        if not (np.isfinite(v) and v > 0.0):
            raise ValueError(f"vol_pair[{i}] must be finite and positive, got {v}")
    vols = [params.vol]
    for v in vol_pair or ():
        if float(v) not in vols:
            vols.append(float(v))
    grid = SimGrid(solution.tau, max(2, int(np.ceil(solution.tau / dt))))
    policy = optimal_policy(params, solution)
    dyns = [to_problem_spec(replace(params, vol=v)).dynamics for v in vols]
    cols = [_Column(dyn, policy, n_paths, grid) for dyn in dyns]
    _run_columns(cols, seed, threads)
    stats = (col.row_stats(0) for col in cols)
    terminal = {v: (float(mu), float(sd / np.sqrt(n_paths))) for v, (mu, sd) in zip(vols, stats)}
    mean, stderr = terminal[params.vol]
    gap = mean - params.target_wealth
    report = McReport(
        n_paths=n_paths,
        dt=dt,
        seed=seed,
        mean_terminal=mean,
        stderr=stderr,
        z_score=float(gap / stderr) if stderr > 0 else float("inf"),
    )
    if vol_pair is not None:
        (m0, s0), (m1, s1) = (terminal[float(v)] for v in vol_pair)
        report.vol_pair = (float(vol_pair[0]), float(vol_pair[1]))
        report.vol_pair_means = (m0, m1)
        report.vol_pair_stderrs = (s0, s1)
        report.vol_pair_gap = float(abs(m0 - m1))
    return report


def figure_columns(params: PortfolioParams, solution: TauSolution) -> dict:
    """Plot-ready columns on 2 001 uniform nodes over [0, tau]: time, control, mean wealth.

    `solution` is `solve_tau(params)`, whose tau ends the grid.  Both the
    control and the mean wealth come from `optimal_policy`, the policy
    that `mc_validate` simulates.  The control is its left limit at each
    node, so the node at tau reads u(tau-), not the lower bound held past it.
    """
    grid = SimGrid(solution.tau, 2000)
    ts = grid.times()
    policy = optimal_policy(params, solution)
    mp = solve_mean_path(to_problem_spec(params), policy, grid)
    return {
        "t": ts,
        "control": policy.values(ts, side=-1)[:, 0],
        "mean_wealth": mp.mean_x[:, 0],
    }
