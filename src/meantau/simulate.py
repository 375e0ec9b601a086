"""Mean flows, minimum-time detection, and ensemble simulation.

Two deterministic solvers handle the means: the state mean follows the
linear ODE dE[X]/dt = A E[X] + B u(t), and the target mean follows
dE[Y]/dt = (E1 + E2 + E3 A) E[X] + (E3 B + E4) u(t) + eps.  Both are
integrated with one classical 4th-order step per sub-interval, where the
sub-intervals are the grid steps split at control breakpoints so that the
integrator never straddles a discontinuity of u.

Every path ensemble goes through one explicit Euler-Maruyama time loop
whose columns share each step's noise draw.  Noise for step j comes from
a counter-based generator keyed by (seed, j), so results are a pure
function of (spec, policy, N, grid, seed) regardless of how the loop is
scheduled.  An ensemble column also steps the monitoring process, with
the mean-field couplings (E[X] and E[b]) evaluated as ensemble averages
at the start of each step; the specs of a batch are such columns.  A
path column only stores its state paths: the variational checks step the
base state with its sensitivity, and each perturbed control, as path
columns of one loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DivergenceError
from .problem import (
    LinearDynamics,
    ProblemSpec,
    TargetCoefficients,
    target_control_row,
    target_state_row,
)

__all__ = [
    "SimGrid",
    "HookDynamics",
    "EnsembleResult",
    "MeanPath",
    "mean_ode_solve",
    "mean_target_solve",
    "solve_mean_path",
    "detect_min_time",
    "simulate_ensemble",
    "estimate_cost",
    "step_noise",
]


@dataclass(frozen=True)
class SimGrid:
    """Uniform time grid with nodes t_j = j * dt, j = 0..n_steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def times(self) -> np.ndarray:
        t = np.arange(self.n_steps + 1) * self.dt
        t[-1] = self.horizon  # guard the endpoint against rounding
        return t


# ---------------------------------------------------------------------------
# Affine RK4 engine


def _rk4_transfer(M: np.ndarray, h: float) -> np.ndarray:
    """One-step propagator of z' = M z under classical RK4."""
    p = M.shape[0]
    phi = np.eye(p)
    term = np.eye(p)
    for order in (1, 2, 3, 4):
        term = (h / order) * (M @ term)
        phi = phi + term
    return phi


def _affine_path(M, F, c0, policy, times, z0):
    """Integrate z' = M z + F u(t) + c0 through `times` with RK4.

    Each interval between consecutive requested times is split at control
    breakpoints; stage values of u at a sub-interval boundary use the
    one-sided limit from inside the sub-interval.
    """
    times = np.asarray(times, dtype=float)
    p = M.shape[0]
    z0 = np.asarray(z0, dtype=float).reshape(p)
    if len(times) == 1:
        return z0[None, :].copy()

    if policy is not None:
        bp = policy.breakpoints
        inner = bp[(bp > times[0]) & (bp < times[-1])]
        edges = np.union1d(times, inner)
    else:
        edges = times
    s0, s1 = edges[:-1], edges[1:]
    hs = s1 - s0

    # stage forcing values, vectorized over sub-intervals
    if policy is not None and F is not None:
        f0 = policy.values(s0, side=+1) @ F.T + c0
        fm = policy.values(0.5 * (s0 + s1), side=+1) @ F.T + c0
        f1 = policy.values(s1, side=-1) @ F.T + c0
    else:
        f0 = fm = f1 = np.broadcast_to(c0, (len(s0), p))

    half = 0.5 * hs[:, None]
    k1 = f0
    k2 = half * (k1 @ M.T) + fm
    k3 = half * (k2 @ M.T) + fm
    k4 = hs[:, None] * (k3 @ M.T) + f1
    r = (hs[:, None] / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    uniq_h, inv = np.unique(hs, return_inverse=True)
    transfers = [_rk4_transfer(M, h) for h in uniq_h]

    # indices of sub-intervals whose right edge is a requested node
    rec = np.full(len(s1), -1, dtype=np.int64)
    pos = np.searchsorted(times, s1)
    hit = (pos < len(times)) & (times[np.minimum(pos, len(times) - 1)] == s1)
    rec[hit] = pos[hit]

    out = np.empty((len(times), p))
    out[0] = z0
    z = z0
    for i in range(len(s0)):
        z = transfers[inv[i]] @ z + r[i]
        j = rec[i]
        if j >= 0:
            out[j] = z
    return out


def mean_ode_solve(dynamics: LinearDynamics, policy, grid: SimGrid) -> np.ndarray:
    """Mean state trajectory on the grid nodes, shape (n_steps + 1, m).

    Diffusion coefficients never enter: the mean of a linear system is
    closed under the drift alone.
    """
    return _affine_path(
        dynamics.A, dynamics.B, np.zeros(dynamics.m), policy, grid.times(), dynamics.x0
    )


def _joint_matrices(dynamics, target, eps_regularize):
    m = dynamics.m
    row_x = target_state_row(target, dynamics)
    row_u = target_control_row(target, dynamics)
    M = np.zeros((m + 1, m + 1))
    M[:m, :m] = dynamics.A
    M[m, :m] = row_x
    F = np.vstack([dynamics.B, row_u])
    c0 = np.zeros(m + 1)
    c0[m] = eps_regularize
    return M, F, c0


def mean_target_solve(
    target: TargetCoefficients,
    dynamics: LinearDynamics,
    mean_x: np.ndarray,
    policy,
    grid: SimGrid,
    eps_regularize: float = 0.0,
) -> np.ndarray:
    """Mean of the monitoring process on the grid nodes.

    Integrates E[Y](t) = y0 + int_0^t (G(s) + eps) ds jointly with the
    state mean at the same 4th order, then cross-checks the joint state
    column against the supplied `mean_x`.  The target diffusion plays no
    role here.
    """
    mean_x = np.atleast_2d(np.asarray(mean_x, dtype=float))
    times = grid.times()
    if mean_x.shape != (len(times), dynamics.m):
        raise ValueError(
            f"mean_x shape {mean_x.shape} does not match grid/state dimensions"
        )
    M, F, c0 = _joint_matrices(dynamics, target, eps_regularize)
    z0 = np.concatenate([dynamics.x0, [target.y0]])
    z = _affine_path(M, F, c0, policy, times, z0)
    scale = 1.0 + np.max(np.abs(mean_x), initial=0.0)
    gap = np.max(np.abs(z[:, : dynamics.m] - mean_x))
    if gap > 1e-9 * scale:
        raise ValueError(
            f"mean_x is inconsistent with dynamics/policy on this grid (gap {gap:.3e})"
        )
    return z[:, dynamics.m]


def detect_min_time(mean_y, grid: SimGrid):
    """First time the mean target is <= 0, with its regime label.

    Returns (tau, label): label "i" for an interior hit (including the
    trivial y0 <= 0 case, where tau = 0), "ii" when the level is never
    reached on [0, T] (tau = T), and "iii" when the first hit lands
    exactly on the horizon.  The crossing node is refined by linear
    interpolation; a tangential touch counts as a hit, and the first
    qualifying node wins.
    """
    y = np.asarray(mean_y, dtype=float)
    times = grid.times()
    if y.shape != times.shape:
        raise ValueError("mean_y length does not match the grid")
    if y[0] <= 0.0:
        return 0.0, "i"
    hits = np.nonzero(y <= 0.0)[0]
    if hits.size == 0:
        return grid.horizon, "ii"
    j = int(hits[0])
    tau = times[j - 1] + (times[j] - times[j - 1]) * y[j - 1] / (y[j - 1] - y[j])
    if tau >= grid.horizon:
        return grid.horizon, "iii"
    return float(tau), "i"


@dataclass
class MeanPath:
    """Joint mean solve plus its detected minimum time."""

    grid: SimGrid
    mean_x: np.ndarray
    mean_y: np.ndarray
    tau: float
    case_label: str


def solve_mean_path(spec: ProblemSpec, policy, grid: SimGrid) -> MeanPath:
    """One-pass mean state + target solve with hitting-time detection."""
    M, F, c0 = _joint_matrices(spec.dynamics, spec.target, spec.eps_regularize)
    z0 = np.concatenate([spec.dynamics.x0, [spec.target.y0]])
    z = _affine_path(M, F, c0, policy, grid.times(), z0)
    mean_x = z[:, : spec.dynamics.m]
    mean_y = z[:, spec.dynamics.m]
    tau, label = detect_min_time(mean_y, grid)
    return MeanPath(grid, mean_x, mean_y, tau, label)


# ---------------------------------------------------------------------------
# Path ensembles


@dataclass
class HookDynamics:
    """User-supplied state coefficients for nonlinear experiments.

    `drift(X, u)` and `diffusion(X, u)` act on path batches (X has shape
    (N, m)) and return (N, m) and (N, m, d).  The *_dstate / *_dcontrol
    entries are directional derivatives along a state batch Y or a
    control direction v, used by the first-order sensitivity equation.
    """

    m: int
    k: int
    d: int
    x0: np.ndarray
    drift: Callable
    diffusion: Callable
    drift_dstate: Optional[Callable] = None
    drift_dcontrol: Optional[Callable] = None
    diffusion_dstate: Optional[Callable] = None
    diffusion_dcontrol: Optional[Callable] = None

    def __post_init__(self):
        self.x0 = np.atleast_1d(np.asarray(self.x0, dtype=float))


def step_noise(seed: int, step: int, n_paths: int, d: int) -> np.ndarray:
    """Standard normal block for one step, keyed by (seed, step).

    Counter-based (Philox) streams make the draw independent of worker
    scheduling and of the surrounding call pattern.
    """
    bitgen = np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=(int(step),)))
    return np.random.Generator(bitgen).standard_normal((n_paths, d))


@dataclass
class EnsembleResult:
    """Euler-Maruyama ensemble summary.

    mean_x / std_x / mean_y hold per-node ensemble statistics; paths_x is
    kept only when path storage is on.  tau and case_label come from
    `detect_min_time` applied to the ensemble mean of Y.
    """

    grid: SimGrid
    n_paths: int
    seed: int
    mean_x: np.ndarray
    mean_y: np.ndarray
    std_x: np.ndarray
    tau: float
    case_label: str
    paths_x: Optional[np.ndarray] = None
    cost: Optional[float] = None
    cost_stderr: Optional[float] = None


_PATH_STORAGE_CAP = 10_000


def _node_controls(policy, times) -> np.ndarray:
    """Control values at the grid nodes, shape (n_steps + 1, k)."""
    u = policy.values(times, side=+1)
    return u[:, None] if u.ndim == 1 else u


class _Column:
    """One dynamics, its node controls and its paths inside the time loop.

    An ensemble column (`spec` given) also steps the monitoring process Y
    and records per-node statistics; a path column (`spec` None) only
    stores its state paths.  `X` and `Y` hold the current state of every
    path; `Xn` and the other buffers are scratch reused across steps, so
    the scalar path allocates no path-sized array inside the time loop.
    """

    def __init__(self, dyn, u_nodes, n_paths, n_steps, spec=None, store_paths=True, fast=False):
        m = dyn.m
        self.spec, self.dyn, self.u_nodes, self.fast = spec, dyn, u_nodes, fast
        self.X = np.tile(dyn.x0, (n_paths, 1))
        self.Y = None
        if fast:
            self.Xn = np.empty_like(self.X)
            self.t1 = np.empty(n_paths)
            self.t2 = np.empty(n_paths)
        if spec is not None:
            self.Y = np.full(n_paths, spec.target.y0)
            self.dev = np.empty_like(self.X)
            self.mean_x = np.empty((n_steps + 1, m))
            self.std_x = np.empty((n_steps + 1, m))
            self.mean_y = np.empty(n_steps + 1)
        self.paths = np.empty((n_paths, n_steps + 1, m)) if store_paths else None
        self.record(0)
        if spec is not None:
            self.mean_y[0] = spec.target.y0  # exact, not a sum of N copies over N

    def record(self, j):
        """Check the state at node j for divergence and store it.

        Any non-finite entry makes its column sum non-finite, so the sums
        that an ensemble column's means need anyway stand in for a full
        finiteness scan; the scan runs only when a sum is not finite.
        """
        X, Y = self.X, self.Y
        n_paths = X.shape[0]
        sx = X.sum(axis=0)
        sy = 0.0 if Y is None else Y.sum()
        if not (np.isfinite(sx).all() and np.isfinite(sy)):
            ok = np.isfinite(X).all(axis=1)
            if Y is not None:
                ok &= np.isfinite(Y)
            bad = np.nonzero(~ok)[0]
            if bad.size:
                raise DivergenceError(step=j, path=int(bad[0]))
        if self.paths is not None:
            self.paths[:, j, :] = X
        if Y is None:
            return
        mx = self.mean_x[j]
        np.divide(sx, n_paths, out=mx)
        # X.std(axis=0, ddof=1) with the mean above reused
        np.subtract(X, mx, out=self.dev)
        np.multiply(self.dev, self.dev, out=self.dev)
        self.std_x[j] = np.sqrt(self.dev.sum(axis=0) / (n_paths - 1))
        self.mean_y[j] = sy / n_paths

    def step(self, j, dW, dt):
        """Advance every path from node j to node j + 1 and record the new node."""
        Xn, Yn = self.step_scalar(j, dW, dt) if self.fast else self.step_general(j, dW, dt)
        self.X, self.Xn, self.Y = Xn, self.X, Yn
        self.record(j + 1)

    def step_scalar(self, j, dW, dt):
        """Euler-Maruyama step for linear m = d = 1 dynamics, in place."""
        dyn, tgt = self.dyn, self.spec.target
        u, mx = self.u_nodes[j], self.mean_x[j]
        x, y, t1, t2 = self.X[:, 0], self.Y, self.t1, self.t2
        w = dW[:, 0]
        a = dyn.A[0, 0]
        bu = float(dyn.B[0] @ u)
        mean_b = np.array([a * mx[0] + bu])
        np.multiply(x, a, out=t1)  # drift a x + B u
        np.add(t1, bu, out=t1)
        np.multiply(t1, dt, out=t1)
        np.add(x, t1, out=t1)
        np.multiply(x, dyn.C[0, 0, 0], out=t2)  # diffusion C x + D u
        np.add(t2, float(dyn.D[0, 0] @ u), out=t2)
        np.multiply(t2, w, out=t2)
        Xn = self.Xn
        np.add(t1, t2, out=Xn[:, 0])
        hconst = float(tgt.E1 @ mx + tgt.E3 @ mean_b + tgt.E4 @ u) + self.spec.eps_regularize
        np.multiply(x, tgt.E2[0], out=t1)
        np.add(t1, hconst, out=t1)
        np.multiply(t1, dt, out=t1)
        np.add(y, t1, out=y)
        gspec = tgt.diffusion
        if gspec is not None:
            np.multiply(x, gspec.coef_state[0, 0], out=t1)
            np.add(t1, float(gspec.coef_mean[0] @ mx + gspec.coef_control[0] @ u), out=t1)
            np.multiply(t1, w, out=t1)
            np.add(y, t1, out=y)
        return Xn, y

    def step_general(self, j, dW, dt):
        """Euler-Maruyama step for any dimensions or hook dynamics."""
        dyn, X, u = self.dyn, self.X, self.u_nodes[j]
        drift = dyn.drift(X, u)
        Xn = X + drift * dt
        if dyn.d > 0:
            Xn = Xn + np.einsum("nmj,nj->nm", dyn.diffusion(X, u), dW)
        if self.Y is None:
            return Xn, None
        tgt, eps, mx = self.spec.target, self.spec.eps_regularize, self.mean_x[j]
        mean_b = drift.mean(axis=0)
        hvals = float(tgt.E1 @ mx + tgt.E3 @ mean_b + tgt.E4 @ u) + eps + X @ tgt.E2
        Yn = self.Y + hvals * dt
        gspec = tgt.diffusion
        if gspec is not None and dyn.d > 0:
            grows = gspec.coef_mean @ mx + gspec.coef_control @ u + X @ gspec.coef_state.T
            Yn = Yn + np.einsum("nj,nj->n", grows, dW)
        return Xn, Yn


def _run_columns(cols, grid: SimGrid, seed: int, n_paths: int) -> None:
    """The Euler-Maruyama time loop over columns that share the noise dimension d.

    Each step draws its noise once, keyed by (seed, step), and every
    column steps on that draw, so all columns see the same Brownian
    increments whatever their dynamics and controls.
    """
    d, dt = cols[0].dyn.d, grid.dt
    sq = np.sqrt(dt)
    dW = np.empty((n_paths, d))
    for j in range(grid.n_steps):
        if d > 0:
            np.multiply(step_noise(seed, j, n_paths, d), sq, out=dW)
        for col in cols:
            col.step(j, dW, dt)


def _state_paths(columns, grid: SimGrid, seed: int, n_paths: int) -> list:
    """State paths of (dynamics, node controls) pairs stepped on one draw per step.

    Returns one (n_paths, n_steps + 1, m) array per pair; the pairs must
    share d.  A non-finite state raises DivergenceError.
    """
    cols = [_Column(dyn, u_nodes, n_paths, grid.n_steps) for dyn, u_nodes in columns]
    _run_columns(cols, grid, seed, n_paths)
    return [col.paths for col in cols]


def simulate_ensemble(
    spec: Union[ProblemSpec, Sequence[ProblemSpec]],
    policy,
    n_paths: int,
    grid: SimGrid,
    seed: int,
    store_paths: Optional[bool] = None,
    dynamics=None,
) -> Union[EnsembleResult, list]:
    """Simulate N coupled paths of (X, Y) and detect the mean hitting time.

    `spec` is one ProblemSpec, which returns one EnsembleResult, or a
    batch: a list or tuple of specs, which returns a list of results in
    the same order.  A batch is stepped as columns of one loop that share
    the policy, grid, seed, path count and each step's noise draw.  Every
    spec in it must have the same dimensions (m, k, d); coefficients,
    initial values and eps_regularize may differ.  Each column's result
    is bit-identical to a call with that spec alone.

    `dynamics` accepts a HookDynamics that replaces the state equation of
    every column, for nonlinear experiments; the command-line interface
    only exposes the linear family.

    Paths are stored when `store_paths` is true, defaulting to on for
    N <= 10^4 and off above that.
    """
    batched = isinstance(spec, (list, tuple))
    specs = list(spec) if batched else [spec]
    if not specs:
        raise ValueError("the spec batch is empty")
    for s in specs:
        s.require_valid()
    if n_paths < 2:
        raise ValueError("n_paths must be at least 2")
    dyns = [dynamics if dynamics is not None else s.dynamics for s in specs]
    m, k, d = dyns[0].m, dyns[0].k, dyns[0].d
    if any((dy.m, dy.k, dy.d) != (m, k, d) for dy in dyns):
        raise ValueError("batched specs must share the dimensions (m, k, d)")
    times = grid.times()
    if policy.horizon < times[-1]:
        raise ValueError("policy horizon does not cover the grid")
    if store_paths is None:
        store_paths = n_paths <= _PATH_STORAGE_CAP

    u_nodes = _node_controls(policy, times)
    scalar = m == 1 and d == 1
    cols = [
        _Column(
            dy, u_nodes, n_paths, grid.n_steps, spec=s, store_paths=store_paths,
            fast=scalar and isinstance(dy, LinearDynamics),
        )
        for s, dy in zip(specs, dyns)
    ]
    _run_columns(cols, grid, seed, n_paths)

    results = []
    for col in cols:
        tau, label = detect_min_time(col.mean_y, grid)
        result = EnsembleResult(
            grid=grid,
            n_paths=n_paths,
            seed=seed,
            mean_x=col.mean_x,
            mean_y=col.mean_y,
            std_x=col.std_x,
            tau=tau,
            case_label=label,
            paths_x=col.paths,
        )
        if store_paths and col.spec.cost is not None:
            result.cost, result.cost_stderr = estimate_cost(result, col.spec.cost, policy)
        results.append(result)
    return results if batched else results[0]


def estimate_cost(result: EnsembleResult, cost, policy):
    """Monte Carlo objective estimate over the detected [0, tau].

    Per path, the running cost is integrated with the trapezoid rule up
    to the last node before tau plus a partial panel ending at tau, where
    the state at tau is linearly interpolated; the terminal cost is added
    at that interpolated state.  Returns (mean, standard error).
    """
    if result.paths_x is None:
        raise ValueError("estimate_cost requires stored paths (store_paths=True)")
    times = result.grid.times()
    dt = result.grid.dt
    tau = result.tau
    paths = result.paths_x
    n_paths = paths.shape[0]

    j_last = int(np.searchsorted(times, tau, side="right") - 1)
    j_last = min(j_last, len(times) - 1)
    partial = tau - times[j_last]

    u_nodes = policy.values(times[: j_last + 1], side=+1)
    if u_nodes.ndim == 1:
        u_nodes = u_nodes[:, None]
    quad_u = 0.5 * np.einsum("tj,jk,tk->t", u_nodes, cost.Lambda, u_nodes)
    f_nodes = cost.kappa + paths[:, : j_last + 1, :] @ cost.c_lin + quad_u

    if j_last >= 1:
        run = np.trapezoid(f_nodes, dx=dt, axis=1)
    else:
        run = np.zeros(n_paths)

    if partial > 0.0 and j_last + 1 < len(times):
        lam = partial / dt
        x_tau = (1.0 - lam) * paths[:, j_last, :] + lam * paths[:, j_last + 1, :]
        u_tau = policy.value(tau, side=-1)
        f_tau = cost.kappa + x_tau @ cost.c_lin + 0.5 * float(u_tau @ cost.Lambda @ u_tau)
        run = run + 0.5 * (f_nodes[:, j_last] + f_tau) * partial
    else:
        x_tau = paths[:, j_last, :]

    total = run + cost.terminal(x_tau)
    j = float(np.mean(total))
    stderr = float(np.std(total, ddof=1) / np.sqrt(n_paths))
    return j, stderr
