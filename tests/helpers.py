"""Shared builders and reference constants for the test suite."""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

from meantau.problem import (
    ControlPolicy,
    ControlSegment,
    ControlSet,
    CostSpec,
    LinearDynamics,
    ProblemSpec,
    TargetCoefficients,
    TargetDiffusion,
    target_control_row,
    target_state_row,
)
from meantau.adjoint import (
    exp_with_integral,
    khat_evaluator,
    target_hamiltonian_du,
    target_slope_at_tau,
    time_adjoint_closed_form,
)
from meantau.bangbang import find_switch_times
from meantau.errors import SingularArcError
from meantau.portfolio import _exp_end
from meantau.simulate import (
    SimGrid, _affine_path, _Column, _joint_matrices, _run_columns, hit_time,
)
from meantau.variational import TauDerivative

# Reference values for the default wealth-target parameters, frozen from an
# independent high-precision root solve of the mean-wealth equation.
TAU_REF = 10.922845913817808
T1_REF = 3.209596297578117
T2_REF = 7.672467323862309


def time_optimal_cost(m: int, k: int) -> CostSpec:
    """Pure elapsed-time cost: f = 1 and Psi = 0, so the objective is tau."""
    return CostSpec(np.zeros(m), np.zeros((k, k)), np.zeros(m), np.zeros((m, m)), kappa=1.0)


def scalar_spec(
    a=0.5,
    b=1.0,
    c_coef=0.0,
    d_coef=0.1,
    x0=1.0,
    e1=0.0,
    e2=-1.0,
    e3=0.0,
    e4=0.5,
    y0=2.0,
    g_state=0.0,
    g_control=0.0,
    lower=0.2,
    upper=1.5,
    horizon=6.0,
    cost=None,
) -> ProblemSpec:
    """One-state, one-control, one-noise problem with adjustable rows."""
    dynamics = LinearDynamics(A=[[a]], B=[[b]], C=[[[c_coef]]], D=[[[d_coef]]], x0=[x0])
    diffusion = None
    if g_state or g_control:
        diffusion = TargetDiffusion(
            coef_mean=[[0.0]], coef_state=[[g_state]], coef_control=[[g_control]]
        )
    target = TargetCoefficients(E1=[e1], E2=[e2], E3=[e3], E4=[e4], y0=y0, diffusion=diffusion)
    if cost is None:
        cost = time_optimal_cost(1, 1)
    return ProblemSpec(dynamics, target, cost, ControlSet([lower], [upper]), horizon)


def never_crossing_spec(horizon=1.0) -> ProblemSpec:
    """Monitoring level far above anything the drift can remove in time."""
    return scalar_spec(a=0.1, b=0.5, e2=0.0, e4=-0.01, y0=50.0, horizon=horizon)


def jump_at_tau_spec(y0, cost=None) -> ProblemSpec:
    """A mean target dY = -u dt with no state drive and no noise: box [0, 4], horizon 8.

    On `SimGrid(8.0, 8192)`, whose step is 2^-10, a control of 1 moves the
    target by 2^-10 a step, so its nodes, hits and costs are exact in
    binary, and a policy can jump exactly at tau.
    """
    dynamics = LinearDynamics(A=[[0.0]], B=[[0.0]], C=[], D=[], x0=[0.0])
    target = TargetCoefficients(E1=[0.0], E2=[0.0], E3=[0.0], E4=[-1.0], y0=y0)
    if cost is None:
        cost = time_optimal_cost(1, 1)
    return ProblemSpec(dynamics, target, cost, ControlSet([0.0], [4.0]), 8.0)


def piecewise_constant(values, edges) -> ControlPolicy:
    """Step policy taking values[i] on [edges[i], edges[i+1])."""
    segs = [
        ControlSegment(a, b, np.atleast_1d(v))
        for v, a, b in zip(values, edges[:-1], edges[1:])
    ]
    return ControlPolicy(segs)


def exact_hit(spec, policy, scan=64) -> float:
    """First time the exact mean target under a piecewise-constant `policy` reaches zero.

    On a segment [a, b) with control u the joint mean z = (E[X], E[Y]) solves
    z' = M z + F u, so expm([[M, F u], [0, 0]] (t - a)) carries z(a) to z(t)
    exactly (Van Loan).  `scan` + 1 points per segment bracket the first
    root, which scipy's brentq refines to 1e-15; the horizon when there is none.
    """
    dyn, tgt = spec.dynamics, spec.target
    m = dyn.m
    aug = np.zeros((m + 2, m + 2))
    aug[:m, :m] = dyn.A
    aug[m, :m] = tgt.E1 + tgt.E2 + tgt.E3 @ dyn.A
    z = np.concatenate([dyn.x0, [tgt.y0, 1.0]])
    for seg in policy.segments:
        assert not np.any(seg.gamma1), "piecewise-constant policies only"
        u = np.asarray(seg.gamma0, dtype=float)
        aug[:m, m + 1] = dyn.B @ u
        aug[m, m + 1] = (tgt.E3 @ dyn.B + tgt.E4) @ u
        z_a = z

        def y(t, a=seg.t_start):
            return float((expm(aug * (t - a)) @ z_a)[m])

        ts = np.linspace(seg.t_start, seg.t_end, scan + 1)
        ys = [y(t) for t in ts]
        below = np.nonzero(np.asarray(ys) <= 0.0)[0]
        if below.size:
            j = below[0]
            return ts[0] if j == 0 else brentq(y, ts[j - 1], ts[j], xtol=1e-15)
        z = expm(aug * (seg.t_end - seg.t_start)) @ z_a
    return spec.horizon


def mean_ode_solve(dynamics, policy, grid) -> np.ndarray:
    """Mean state trajectory on the grid nodes, shape (n_steps + 1, m).

    The state rows of the RK4 affine solve: the mean of a linear system is
    closed under the drift alone, so the diffusion coefficients never enter.
    """
    return _affine_path(dynamics.A, dynamics.B, policy, grid.times(), dynamics.x0)


def two_solve_tau_derivative(spec, policy, direction, grid) -> TauDerivative:
    """`variational.hit_time_derivative` by its two-solve route.

    tau and the label come from `hit_time`; E[X](tau) and the response
    come from a second RK4 solve of the joint mean from node 0 through the
    nodes of `grid` before tau, then to tau itself (nodes within 1e-15 of
    tau dropped).  The reference for the first-order data that the
    package reads off the hit pass's nodes instead.
    """
    tau, label = hit_time(spec, policy, grid)
    if label != "i" or tau <= 0.0:
        return TauDerivative(tau, label, float("nan"), float("nan"), 0.0)
    times = grid.times()
    times = np.append(times[times < tau - 1e-15], tau)
    m = spec.dynamics.m
    M, F = _joint_matrices(spec.dynamics, spec.target)
    z0 = np.append(spec.dynamics.x0, spec.target.y0)
    mean_x_tau = _affine_path(M, F, policy, times, z0)[-1, :m]
    resp = 0.0
    if direction is not None:
        resp = float(_affine_path(M, F, direction, times, np.zeros(m + 1))[-1, -1])
    u_tau = policy.values(tau, side=-1)
    slope = target_slope_at_tau(spec.target, spec.dynamics, mean_x_tau, u_tau)
    return TauDerivative(tau, label, slope, resp, resp / slope)


def hamiltonian(x, u, p, dynamics, cost) -> float:
    """H(x, u, p) = b(x, u).p - f(x, u); the q term vanishes in this family.

    The finite-difference reference for `adjoint.hamiltonian_du`.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    val = float((dynamics.A @ x + dynamics.B @ u) @ np.asarray(p, dtype=float))
    f = cost.kappa + float(cost.c_lin @ x) + 0.5 * float(u @ cost.Lambda @ u)
    return val - f


def time_adjoint_at(dynamics, target, tau, times) -> np.ndarray:
    """p0 at any times, anchored at tau: one augmented exponential per time.

    p0(t)' = -(E1+E2+E3A) int_0^{tau-t} e^{As} ds.  The pointwise reference
    for the grid form of `adjoint.time_adjoint_closed_form`, which scans
    one step's exponential instead.
    """
    row = target_state_row(target, dynamics)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty((len(times), dynamics.m))
    for i, t in enumerate(times):
        out[i] = -(row @ exp_with_integral(dynamics.A, tau - t)[1])
    return out


def adjoint_switch_times(spec, tau, n_nodes=4096) -> list:
    """Zeros of each Khat component on (0, tau) by the adjoint route.

    Khat at the n_nodes + 1 uniform nodes of [0, tau] from the closed-form
    time adjoint (`time_adjoint_closed_form`, `target_hamiltonian_du`), and
    `find_switch_times` refined on `khat_evaluator`: the reference for the
    switch times that `bangbang.synthesize` mirrors from `minimum_time`.
    """
    dyn, tgt = spec.dynamics, spec.target
    grid = SimGrid(tau, n_nodes)
    khat = khat_evaluator(dyn, tgt, tau)
    nodes = target_hamiltonian_du(time_adjoint_closed_form(dyn, tgt, grid), dyn, tgt)
    return find_switch_times(grid.times(), nodes, refine=lambda t, i: float(khat(t)[i]))


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


def mean_target_response(ey_values, v_values, target, dynamics) -> np.ndarray:
    """Linearized drift of E[Y] along a direction: (E1+E2+E3A).E[y] + (E3B+E4).v.

    `ey_values` holds the sensitivity mean (nodes, m) and `v_values` the
    direction (nodes, k); single vectors also work.
    """
    ey = np.asarray(ey_values, dtype=float)
    v = np.asarray(v_values, dtype=float)
    return ey @ target_state_row(target, dynamics) + v @ target_control_row(target, dynamics)


class StoredColumn(_Column):
    """A `_Column` that also keeps every node of its state paths.

    `record` copies each node into one time-major (n_steps + 1, n_paths,
    m) array, after the divergence check; `paths` is that array seen as
    (n_paths, n_steps + 1, m).
    """

    def __init__(self, dyn, policy, n_paths, grid, spec=None):
        super().__init__(dyn, policy, n_paths, grid, spec)
        self.nodes = np.empty((grid.n_steps + 1, n_paths, dyn.m))
        self.paths = self.nodes.transpose(1, 0, 2)

    def record(self, j):
        super().record(j)
        for b in range(self.dyn.m):
            self.nodes[j, :, b] = self.Z[b]


def ensemble_column(spec, policy, n_paths, grid, seed):
    """The ensemble column of `simulate_ensemble`, run with its paths stored.

    `col.paths` holds them as (n_paths, n_steps + 1, m); the statistics and
    the cost fold are those of `simulate_ensemble` on the same arguments.
    """
    col = StoredColumn(spec.dynamics, policy, n_paths, grid, spec=spec)
    _run_columns([col], seed)
    return col


@dataclass
class SensitivityResult:
    """Pathwise first-order state response to a control direction."""

    paths: np.ndarray            # (n_paths, n_steps + 1, m)
    mean_mc: np.ndarray          # (n_steps + 1, m)
    mean_exact: np.ndarray       # (n_steps + 1, m), the RK4 mean


def simulate_state_sensitivity(spec, direction, grid, seed, n_paths) -> SensitivityResult:
    """The sensitivity along `direction` as one path column that stores its paths.

    For linear dynamics it is the state SDE started at 0 and driven by v,
    whatever the base control.  Its mean solves dE/dt = A E + B v, which
    the RK4 mean solve gives as `mean_exact`.
    """
    dyn = replace(spec.dynamics, x0=np.zeros(spec.dynamics.m))
    col = StoredColumn(dyn, direction, n_paths, grid)
    _run_columns([col], seed)
    paths = np.ascontiguousarray(col.paths)
    return SensitivityResult(paths, paths.mean(axis=0), mean_ode_solve(dyn, direction, grid))


def em_moments_loop(dyn, u_nodes, x0, dt):
    """The mean and second moment E[X X'] of the Euler-Maruyama iterates, step by step.

    The reference for `simulate._em_moments`: one plain update of the
    moment recursion per step, with the control at the step's left node.
    """
    F = np.eye(dyn.m) + dt * dyn.A
    mean = np.asarray(x0, dtype=float)
    second = np.outer(mean, mean)
    means, seconds = [mean], [second]
    for u in np.asarray(u_nodes, dtype=float)[:-1]:
        b, Fm = dt * (dyn.B @ u), F @ mean
        nxt = F @ second @ F.T + np.outer(Fm, b) + np.outer(b, Fm) + np.outer(b, b)
        for C, D in zip(dyn.C, dyn.D):
            e, Cm = D @ u, C @ mean
            nxt += dt * (C @ second @ C.T + np.outer(Cm, e) + np.outer(e, Cm) + np.outer(e, e))
        mean, second = Fm + b, nxt
        means.append(mean)
        seconds.append(second)
    return np.array(means), np.array(seconds)


def estimate_cost(paths, grid, tau, cost, policy):
    """Two-pass Monte Carlo objective over [0, tau] from stored paths.

    The reference for the cost that `simulate_ensemble` folds into its
    time loop.  Per path, the running cost is integrated with the
    trapezoid rule up to the last node before tau plus a partial panel
    ending at tau, where the state at tau is linearly interpolated; the
    terminal cost is added at that interpolated state.  `paths` is
    (n_paths, n_steps + 1, m).  Returns (mean, standard error).
    """
    times = grid.times()
    dt = grid.dt
    n_paths = paths.shape[0]

    j_last = int(np.searchsorted(times, tau, side="right") - 1)
    j_last = min(j_last, len(times) - 1)
    partial = tau - times[j_last]

    u_nodes = policy.values(times[: j_last + 1])
    quad_u = 0.5 * np.einsum("tj,jk,tk->t", u_nodes, cost.Lambda, u_nodes)
    f_nodes = cost.kappa + paths[:, : j_last + 1, :] @ cost.c_lin + quad_u

    if j_last >= 1:
        run = np.trapezoid(f_nodes, dx=dt, axis=1)
    else:
        run = np.zeros(n_paths)

    if partial > 0.0 and j_last + 1 < len(times):
        lam = partial / dt
        x_tau = (1.0 - lam) * paths[:, j_last, :] + lam * paths[:, j_last + 1, :]
        u_tau = policy.values(tau, side=-1)
        f_tau = cost.kappa + x_tau @ cost.c_lin + 0.5 * float(u_tau @ cost.Lambda @ u_tau)
        run = run + 0.5 * (f_nodes[:, j_last] + f_tau) * partial
    else:
        x_tau = paths[:, j_last, :]

    total = run + cost.terminal(x_tau)
    j = float(np.mean(total))
    stderr = float(np.std(total, ddof=1) / np.sqrt(n_paths))
    return j, stderr


def clip_control(params, tau, t):
    """The wealth control u(t) = clip(u_end e^{rate (tau - t)}, lower, upper) at times t.

    The closed form of the `portfolio` module docstring, the reference that
    `optimal_policy`'s segments are checked against.
    """
    vals = _exp_end(params) * np.exp(params.rate * (tau - np.asarray(t, dtype=float)))
    return np.clip(vals, params.control_lower, params.control_upper)


def _wealth_pieces(params, nu, tau):
    """(E[X(tau)] - target, int_0^tau u^2 dt) under u = clip(nu e^{rate (tau - t)}, lower, upper).

    In s = tau - t the control is the lower bound on [0, a], the
    exponential on [a, b] and the upper bound on [b, tau]; each integral is
    in closed form.  The pieces are chosen on the real parts, so a complex
    nu or tau carries a complex-step derivative through the formulas.
    """
    r, lo, hi = params.rate, params.control_lower, params.control_upper
    a = np.log(lo / nu) / r
    a = 0.0 if a.real < 0.0 else tau if a.real > tau.real else a
    b = np.log(hi / nu) / r
    b = a if b.real < a.real else tau if b.real > tau.real else b
    ea, eb, et = np.exp(r * a), np.exp(r * b), np.exp(r * tau)
    gain = (lo * (ea - 1.0) + nu * (eb * eb - ea * ea) / 2.0 + hi * (et - eb)) / r
    excess = params.initial_wealth * et + (params.growth - r) * gain - params.target_wealth
    energy = lo**2 * a + nu**2 * (eb * eb - ea * ea) / (2.0 * r) + hi**2 * (tau - b)
    return excess, energy


def _wealth_multiplier(params, tau):
    """nu with E[X(tau)] = target: the root of a nondecreasing function of nu."""
    lo, hi = params.control_lower * np.exp(-params.rate * tau), params.control_upper
    return brentq(lambda nu: _wealth_pieces(params, nu, tau)[0], lo, hi,
                  xtol=1e-15, rtol=4 * np.finfo(float).eps)


def wealth_value(params, tau):
    """V(tau) = tau + min int_0^tau lam u^2 / 2 dt subject to E[X(tau)] = target, u in the box.

    The route of the wealth problem that uses neither the maximum principle
    nor the free-terminal-time condition.  For a fixed tau the constraint
    is linear in u, int_0^tau e^{rate (tau - t)} u dt, so the convex
    minimum is u = clip(nu e^{rate (tau - t)}, lower, upper) with one
    multiplier nu.  The mean wealth rises (u > 0, growth > rate), so
    E[X(tau)] = target is the first hit.  tau must lie strictly between the
    hits under the upper and under the lower bound (`wealth_value_minimizer`).
    """
    energy = _wealth_pieces(params, _wealth_multiplier(params, tau), tau)[1]
    return tau + 0.5 * params.control_penalty * energy


def _wealth_value_slope(params, tau):
    """dV/dtau by the implicit function theorem, each partial by a complex step.

    With G(nu, tau) = 0 the constraint and W(nu, tau) the energy, dV/dtau
    = 1 + lam / 2 (W_tau - W_nu G_tau / G_nu); a complex step of 1e-30
    gives each partial to round-off (Squire & Trapp, SIAM Rev. 40, 1998).
    """
    nu, h = _wealth_multiplier(params, tau), 1e-30
    g_nu, w_nu = (np.imag(v) / h for v in _wealth_pieces(params, nu + 1j * h, tau + 0j))
    g_tau, w_tau = (np.imag(v) / h for v in _wealth_pieces(params, nu + 0j, tau + 1j * h))
    return 1.0 + 0.5 * params.control_penalty * (w_tau - w_nu * g_tau / g_nu)


def wealth_value_minimizer(params):
    """The tau minimizing `wealth_value`: the root of its slope, or the end where it falls.

    V is finite from the hit under the upper bound to tau_L, the hit under
    the lower bound.  Where V still falls just before tau_L, the lower
    bound throughout is optimal and tau_L is the minimizer.
    """
    r = params.rate
    drive = (params.growth - r) / r  # u = c gives E[X(tau)] = (x0 + drive c) e^{r tau} - drive c
    tau_upper, tau_lower = (
        np.log((params.target_wealth + drive * c) / (params.initial_wealth + drive * c)) / r
        for c in (params.control_upper, params.control_lower)
    )
    inner = (tau_upper + 1e-9 * tau_upper, tau_lower - 1e-9 * tau_lower)
    if _wealth_value_slope(params, inner[1]) <= 0.0:
        return tau_lower
    return brentq(lambda tau: _wealth_value_slope(params, tau), *inner, xtol=1e-13)
