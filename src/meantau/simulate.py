"""Mean flows, minimum-time detection, and ensemble simulation.

Two deterministic solvers handle the means: the state mean follows the
linear ODE dE[X]/dt = A E[X] + B u(t), and the target mean follows
dE[Y]/dt = (E1 + E2 + E3 A) E[X] + (E3 B + E4) u(t).  Both are
integrated with one classical 4th-order step per sub-interval, where the
sub-intervals are the grid steps split at control breakpoints so that the
integrator never straddles a discontinuity of u.  A step is an affine map
z -> Phi z + r, so the nodes of a run of equal steps come out of a
vectorised doubling prefix scan in about log2(steps) numpy passes, not
one Python iteration per step (`_affine_path`).  A mean that leaves the
float range raises DivergenceError instead of returning non-finite nodes.

The minimum time is the first moment the mean target reaches zero, so a
caller that needs only tau solves the mean path only up to that hit
(`hit_time`).  The solve then stops: it scans a prefix of the steps,
doubling it until a node has E[Y] <= 0 or the grid ends.  A node of the
doubling scan depends only on earlier nodes, and a row of a numpy matrix
product does not depend on the row count, so the nodes it returns, and
tau, are those of the full solve bit for bit.  The mean state at tau is
one more RK4 step from the last of those nodes before the hit
(`_first_order_at_hit`).

Every path ensemble goes through one explicit Euler-Maruyama time loop
whose columns share each step's noise draw.  Noise for step j comes from
a counter-based generator keyed by (seed, j), so results are a pure
function of (spec, policy, N, grid, seed) regardless of how the loop is
scheduled.  The key is the one numpy's SeedSequence(entropy=seed,
spawn_key=(j,)) gives a Philox generator; `step_noise` derives the keys
of 1024 steps in one vectorised pass of that hash and re-keys one Philox
per thread, instead of building a seed sequence and a generator for
every step, and draws the same bytes.  A column holds a dynamics, its
policy and the grid, which the loop reads from its first column, and
steps one row of paths per state coordinate with one affine kernel; an
ensemble column adds the monitoring process as a last row, with the
mean-field couplings (E[X] and E[b]) evaluated as ensemble averages at
the start of each step.  It stores no path: it folds each path's cost
into the loop as it records a node, a running trapezoid sum that it
closes at the ensemble mean's first hit, so the objective costs O(N)
memory at any path count.  A path column steps only the state: the
variational state table steps the sensitivity alone, and the wealth
Monte Carlo check steps one path column per volatility; both store no
path and read only the terminal state rows.

The scheme's own mean and second moment E[X X'] at every node follow
linear recursions with a constant map, so `_em_moments` gives them
exactly, through the doubling scan of the mean solves: an independent
route for a path column's sample moments, which then differ from them by
sampling error only.

The loop may use two threads.  When a step's draw holds at least 8192
normals (N times the noise dimension), one worker thread draws and
scales the blocks of the coming steps, at most two ahead and each in a
fresh array, while the calling thread steps the columns; the blocks are
the same draws either way, so the thread count never changes a byte.  A
smaller draw is made in the loop itself, since handing it to another
thread costs more than drawing it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import queue
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DivergenceError
from .problem import (
    ProblemSpec,
    target_control_row,
    target_state_row,
)

__all__ = [
    "SimGrid",
    "EnsembleResult",
    "MeanPath",
    "solve_mean_path",
    "hit_time",
    "simulate_ensemble",
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


# Two consecutive sub-interval lengths belong to one run when they differ
# by at most this many units of eps * max|t|: the rounding of the time
# stamps, which leaves the steps of one grid up to one such unit apart.
_RUN_TOL_ULPS = 4.0


def _run_starts(edges: np.ndarray) -> np.ndarray:
    """Indices of the sub-intervals of `edges` that start a run of one step length.

    A run is a maximal stretch of consecutive sub-intervals whose lengths
    agree up to the rounding of the time stamps.  A grid without interior
    breakpoints is one run; a breakpoint strictly inside a grid step cuts
    that step into two pieces, each its own run unless they are equal.
    """
    hs = np.diff(edges)
    tol = _RUN_TOL_ULPS * np.finfo(float).eps * np.max(np.abs(edges))
    return np.concatenate([[0], np.flatnonzero(np.abs(np.diff(hs)) > tol) + 1])


# Sub-intervals that a stopped solve integrates before it first looks for
# its hit; each look that finds none doubles the prefix.  On a 4 096-step
# grid a hit before node 1 024, such as `bangbang.synthesize`'s on the
# shipped scalar config near node 860, takes one attempt.
_FIRST_PREFIX = 1024


def _stage_forcing(M, F, policy, edges):
    """RK4 forcing r of the sub-intervals between consecutive `edges`, one row each.

    Every operation is row by row, so the rows of a stretch of
    sub-intervals do not depend on how many more are computed with it.
    """
    s0, s1 = edges[:-1], edges[1:]
    hs = s1 - s0
    f0 = policy.values(s0, side=+1) @ F.T
    fm = policy.values(0.5 * (s0 + s1), side=+1) @ F.T
    f1 = policy.values(s1, side=-1) @ F.T
    half = 0.5 * hs[:, None]
    k1 = f0
    k2 = half * (k1 @ M.T) + fm
    k3 = half * (k2 @ M.T) + fm
    k4 = hs[:, None] * (k3 @ M.T) + f1
    return (hs[:, None] / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _scan(w, phi_t):
    """Turn w = [w_0; r_1; r_2; ...] in place into the rows w_{i+1} = w_i @ phi_t + r_{i+1}.

    Pass s = 1, 2, 4, ... adds w[:-s] @ phi_t^s to w[s:], so n rows cost
    about log2(n) vectorised passes.  Row i is final after the passes with
    s <= i, and those are the same however many rows follow it.
    """
    phi_t = np.ascontiguousarray(phi_t)  # contiguous for fast row products
    s = 1
    while s < len(w):
        w[s:] += w[:-s] @ phi_t
        s *= 2
        if s < len(w):
            phi_t = phi_t @ phi_t


def _scan_runs(M, edges, starts, ends, z):
    """Turn z = [z_0; r_0; r_1; ...] into the nodes z_0, z_1, ... in place.

    Each run [a, b) of `edges` that starts inside z is scanned up to its
    end or the end of z, with Phi taken from the whole run's mean step;
    a row z' Phi' is (Phi z)'.
    """
    for a, b in zip(starts, ends):
        if a >= len(z) - 1:
            break
        _scan(z[a : b + 1], _rk4_transfer(M, (edges[b] - edges[a]) / (b - a)).T)


# no overflow warnings in the controls, forcing or scan: a bad node raises DivergenceError
@np.errstate(over="ignore", invalid="ignore")
def _affine_path(M, F, policy, times, z0, stop_row=None):
    """Integrate z' = M z + F u(t) through `times` with RK4.

    Each interval between consecutive requested times is split at control
    breakpoints; stage values of u at a sub-interval boundary use the
    one-sided limit from inside the sub-interval.  A constant forcing -c
    is `ControlPolicy.constant(c, times[-1])` through F = -I, to the bit.

    One RK4 step over a sub-interval is the affine map z -> Phi z + r,
    with r from the stage forcing.  Within a run of one step length
    (`_run_starts`) Phi is the same for every step, taken at the run's
    mean length, and the run's nodes come out of a doubling prefix scan:
    starting from w = [z_start; r_a; ...; r_{b-1}], pass s = 1, 2, 4, ...
    adds w[:-s] @ (Phi^s)' to w[s:].  A run of n steps costs about
    log2(n) vectorised passes of O(n p^2) flops, and the Python work is
    one iteration per pass and per run.  A grid without breakpoints
    strictly inside its steps is one run and needs no map from sub-interval
    edges to requested nodes.  A policy with a breakpoint inside every
    grid step makes every run one or two steps long, and then the cost is
    about that of a step-by-step loop; no shipped config or workload has
    one.

    With `stop_row` the solve stops at the first requested node whose
    entry in that row is <= 0, and returns the nodes up to and including
    it (all of them when there is none).  It integrates the first
    `_FIRST_PREFIX` sub-intervals, looks for that node, and doubles the
    prefix until it finds one or covers the grid; each attempt scans the
    prefix from node 0, and the forcing of a sub-interval is computed
    once.  The returned nodes are the full solve's, bit for bit: pass s
    changes only the nodes from s on, each by a product of an earlier
    node, so a node is final after the passes with s at most its index,
    and those passes are the same in a prefix as in the whole run.  Phi
    is still taken from the whole run's span, and a row of a matrix
    product or of the forcing does not depend on how many rows are
    computed with it.  The full solve is the same loop with the prefix
    set to the whole grid.

    Raises DivergenceError (path None) at the first requested node whose
    value is not finite; a stopped solve checks only the nodes it returns,
    so a mean that overflows after the stop does not raise.
    """
    times = np.asarray(times, dtype=float)
    p = M.shape[0]
    z0 = np.asarray(z0, dtype=float).reshape(p)

    # sub-interval edges: `times` plus the breakpoints strictly inside a
    # step, inserted in order; `is_node` marks the requested ones
    edges, is_node = times, None
    bp = policy.breakpoints
    inner = np.unique(bp[(bp > times[0]) & (bp < times[-1])])
    at = np.searchsorted(times, inner)
    off_grid = times[at] != inner
    if off_grid.any():
        at, inner = at[off_grid], inner[off_grid]
        edges = np.insert(times, at, inner)
        is_node = np.ones(len(edges), dtype=bool)
        is_node[at + np.arange(len(at))] = False
    n_sub = len(edges) - 1
    starts = _run_starts(edges)
    ends = np.append(starts[1:], n_sub)

    r = np.empty((n_sub, p))
    done = 0
    size = n_sub if stop_row is None else min(_FIRST_PREFIX, n_sub)
    while True:
        r[done:size] = _stage_forcing(M, F, policy, edges[done : size + 1])
        done = size
        # z[i] is the state at edges[i]
        z = np.empty((size + 1, p))
        z[0] = z0
        z[1:] = r[:size]
        _scan_runs(M, edges, starts, ends, z)
        out = z if is_node is None else z[is_node[: size + 1]]
        stop = None
        if stop_row is not None:
            below = np.flatnonzero(out[:, stop_row] <= 0.0)
            stop = int(below[0]) + 1 if below.size else None
        bad = np.flatnonzero(~np.isfinite(out[:stop]).all(axis=1))
        if bad.size:
            raise DivergenceError(step=int(bad[0]), path=None)
        if stop is not None or size == n_sub:
            return out[:stop]
        size = min(2 * size, n_sub)


def _joint_matrices(dynamics, target):
    m = dynamics.m
    M = np.zeros((m + 1, m + 1))
    M[:m, :m] = dynamics.A
    M[m, :m] = target_state_row(target, dynamics)
    F = np.vstack([dynamics.B, target_control_row(target, dynamics)])
    return M, F


def _first_hit(y, times):
    """First time the mean target y, given at the first len(y) nodes of
    `times`, is <= 0, with its regime label.

    Returns (tau, label) with T = times[-1]: label "i" for an interior hit
    (including the trivial y[0] <= 0 case, where tau = 0), "ii" when the
    level is never reached (tau = T), and "iii" when the first hit lands
    exactly on T.  The crossing is refined by linear interpolation between
    the two nodes that straddle it; a tangential touch counts as a hit,
    and the first qualifying node wins.  The nodes after that one never
    change the result, so a path that stops there gives the tau and label
    of the whole path.
    """
    horizon = float(times[-1])
    if y[0] <= 0.0:
        return 0.0, "i"
    hits = np.nonzero(y <= 0.0)[0]
    if hits.size == 0:
        return horizon, "ii"
    j = int(hits[0])
    tau = times[j - 1] + (times[j] - times[j - 1]) * y[j - 1] / (y[j - 1] - y[j])
    if tau >= horizon:
        return horizon, "iii"
    return float(tau), "i"


@dataclass
class MeanPath:
    """Joint mean solve plus its detected minimum time, one row per node of its grid."""

    mean_x: np.ndarray
    mean_y: np.ndarray
    tau: float
    case_label: str


def _joint_solve(spec: ProblemSpec, policy, times, stop_row=None) -> np.ndarray:
    """Nodes of the joint mean (E[X], E[Y]) through `times`; see `_affine_path`."""
    M, F = _joint_matrices(spec.dynamics, spec.target)
    z0 = np.concatenate([spec.dynamics.x0, [spec.target.y0]])
    return _affine_path(M, F, policy, times, z0, stop_row)


def solve_mean_path(spec: ProblemSpec, policy, grid: SimGrid) -> MeanPath:
    """One-pass mean state + target solve with hitting-time detection."""
    times = grid.times()
    z = _joint_solve(spec, policy, times)
    mean_x = z[:, : spec.dynamics.m]
    mean_y = z[:, spec.dynamics.m]
    tau, label = _first_hit(mean_y, times)
    return MeanPath(mean_x, mean_y, tau, label)


def _hit_nodes(spec: ProblemSpec, policy, grid: SimGrid):
    """`hit_time`'s stopped solve: (times, z, tau, label), z the joint mean nodes it returns."""
    times, m = grid.times(), spec.dynamics.m
    z = _joint_solve(spec, policy, times, stop_row=m)
    return (times, z) + _first_hit(z[:, m], times)


def hit_time(spec: ProblemSpec, policy, grid: SimGrid):
    """The (tau, label) of `solve_mean_path`, from the mean path up to its first hit.

    The joint solve stops at the first node where the mean target is
    <= 0 (`_affine_path` with the target as its stop row), so a caller
    that needs only the hitting time does not integrate the rest of the
    horizon.  Those nodes are the full solve's bit for bit, and tau and
    the label are too.  A mean that overflows only after the hit returns
    tau here, where `solve_mean_path` raises DivergenceError; an overflow
    at or before the hit raises at the same step in both.
    """
    return _hit_nodes(spec, policy, grid)[2:]


def _first_order_at_hit(spec: ProblemSpec, policy, direction, times, z, tau: float):
    """(E[X](tau), int_0^tau response dt) at an interior hit of `_hit_nodes`.

    The last node z[j] is the first at or below the level, so tau lies in
    (t_{j-1}, t_j].  E[X](tau) is one RK4 step of the joint mean from
    z[j-1] over [t_{j-1}, tau], split at a control breakpoint inside it,
    and a non-finite one raises DivergenceError.  The response is the last
    row of the same system on t_0, ..., t_{j-1}, tau, started at 0 and
    driven by `direction` alone; it is 0.0 when `direction` is None.
    """
    m, j = spec.dynamics.m, len(z) - 1
    M, F = _joint_matrices(spec.dynamics, spec.target)
    mean_x_tau = _affine_path(M, F, policy, [times[j - 1], tau], z[j - 1])[-1, :m]
    if direction is None:
        return mean_x_tau, 0.0
    resp = _affine_path(M, F, direction, np.append(times[:j], tau), np.zeros(m + 1))[-1, -1]
    return mean_x_tau, float(resp)


# ---------------------------------------------------------------------------
# Path ensembles


# numpy's SeedSequence (NEP 19): hash constants, word shift and pool size.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# Steps whose Philox keys are derived together.
_KEY_BLOCK = 1024


def _uint32_words(n: int) -> list:
    """The 32-bit words of a non-negative int, least significant first; [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


@functools.lru_cache(maxsize=8)
def _block_keys(seed: int, block: int) -> np.ndarray:
    """Philox keys of steps block * _KEY_BLOCK + i, i < _KEY_BLOCK, under `seed`.

    Row i is `SeedSequence(entropy=seed, spawn_key=(step,)).generate_state(2,
    np.uint64)`, the key that `Philox(SeedSequence(...))` takes, computed
    for the whole block at once: the sequence's hashes run on uint32 arrays
    with one entry per step, since every step of a block has one 32-bit
    word (the caller sends steps >= 2**32 elsewhere).  The entropy is the
    seed's words, zero-padded to the pool size, then the step's word.

    A time loop asks for its steps in order, so it needs one block at a
    time: a one-process run derives each of its blocks once, and the
    cache holds a few for callers that interleave seeds or threads.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> _XSHIFT)

    seed_words = _uint32_words(seed)
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    steps = np.arange(block * _KEY_BLOCK, (block + 1) * _KEY_BLOCK, dtype=np.uint32)
    entropy = [np.full(_KEY_BLOCK, w, dtype=np.uint32) for w in seed_words] + [steps]
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    # generate_state(2, uint64): four words cycled from the pool, paired little-endian
    state = np.empty((_KEY_BLOCK, 4), dtype="<u4")
    hash_const = _INIT_B
    for i in range(4):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> _XSHIFT)
    keys = state.view("<u8").astype(np.uint64)
    keys.flags.writeable = False
    return keys


_thread_rng = threading.local()


def step_noise(seed: int, step: int, n_paths: int, d: int) -> np.ndarray:
    """Standard normal block for one step, keyed by (seed, step).

    The draw is that of `Generator(Philox(SeedSequence(entropy=seed,
    spawn_key=(step,)))).standard_normal((n_paths, d))`, so it does not
    depend on worker scheduling or on the surrounding call pattern.  A
    counter-based generator needs only a new key per step, not a new
    generator: each thread keeps one Philox and re-keys it through its
    `state` setter (counter 0, empty buffer), and the key comes from
    `_block_keys` (or, for a step >= 2**32, from the SeedSequence
    itself).  The block is a fresh array.  A negative seed or step raises
    ValueError.
    """
    seed, step = int(seed), int(step)
    if seed < 0 or step < 0:
        raise ValueError(f"seed and step must be non-negative, got {seed} and {step}")
    if step <= _MASK32:
        key = _block_keys(seed, step // _KEY_BLOCK)[step % _KEY_BLOCK]
    else:
        key = np.random.SeedSequence(entropy=seed, spawn_key=(step,)).generate_state(2, np.uint64)
    rng = getattr(_thread_rng, "rng", None)
    if rng is None:
        # a fresh Philox's state (counter 0, buffer used up, no cached
        # half-word) serves as the template that each draw re-keys
        bitgen = np.random.Philox(0)
        rng = _thread_rng.rng = (bitgen, np.random.Generator(bitgen), bitgen.state)
    bitgen, gen, state = rng
    state["state"]["key"] = key
    bitgen.state = state
    return gen.standard_normal((n_paths, d))


@dataclass
class EnsembleResult:
    """Euler-Maruyama ensemble summary.

    mean_x / std_x / mean_y hold per-node ensemble statistics, one row
    per node of the grid passed to `simulate_ensemble`.  tau and
    case_label come from `_first_hit` applied to the ensemble mean of Y
    on the grid's nodes.  cost and cost_stderr are the Monte Carlo
    objective over [0, tau] and its standard error, folded into the time
    loop path by path (`_Column.fold_cost`); no path is stored.
    """

    mean_x: np.ndarray
    mean_y: np.ndarray
    std_x: np.ndarray
    tau: float
    case_label: str
    cost: float
    cost_stderr: float


def _affine_row(M_a, X, f_a, out, tmp):
    """out = M_a . X + f_a path by path, for X given as coordinate vectors."""
    np.multiply(X[0], M_a[0], out=out)
    for b in range(1, len(X)):
        np.multiply(X[b], M_a[b], out=tmp)
        np.add(out, tmp, out=out)
    np.add(out, f_a, out=out)


class _Column:
    """One dynamics, its policy and its paths inside the time loop on `grid`.

    The column evaluates its node controls `u_nodes`, the policy at the
    grid's nodes, itself.  An ensemble column (`spec` given) also steps
    the monitoring process Y, records per-node statistics, and folds the
    objective into `record` (`fold_cost`); a path column (`spec` None)
    steps only the state.  No column stores its paths.  The state lives
    in `Z`, one contiguous row of paths per coordinate and Y as an ensemble column's last row, and
    `step` advances every row with the same affine arithmetic; its
    buffers, one (N,) row each, are reused across steps, so the loop
    allocates no path-sized array.  The column starts at `dyn.x0`: a run
    from elsewhere, such as the sensitivity from 0, takes dynamics with
    that start.  Fewer than two paths, which have no sample variance,
    raise ValueError before any buffer exists.
    """

    # overflowing controls or forcing are not warned about: `record` raises DivergenceError
    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, dyn, policy, n_paths, grid, spec=None):
        if n_paths < 2:
            raise ValueError("n_paths must be at least 2")
        m, d, n_steps, times = dyn.m, dyn.d, grid.n_steps, grid.times()
        self.spec, self.dyn, self.policy, self.grid, self.dt = spec, dyn, policy, grid, grid.dt
        self.u_nodes = u_nodes = policy.values(times)
        z0 = dyn.x0
        # drift rows M = [A; E2] and noise rows N_c = [C_c; g_state_c]; d may be 0
        self.drift_rows = dyn.A
        self.noise_rows = dyn.C
        if spec is not None:
            tgt = spec.target
            g_state = np.zeros((d, m)) if tgt.diffusion is None else tgt.diffusion.coef_state
            z0 = np.append(dyn.x0, tgt.y0)
            self.drift_rows = np.vstack([dyn.A, tgt.E2])
            self.noise_rows = np.concatenate([self.noise_rows, g_state[:, None, :]], axis=1)
            self.mean_x = np.empty((n_steps + 1, m))
            self.std_x = np.empty((n_steps + 1, m))
            self.mean_y = np.empty(n_steps + 1)
            # the cost fold: per path the trapezoid sum of its state term
            # cLin.x and that term at the last node; tau stays None until
            # the fold closes
            self.times = times
            self.run = np.zeros(n_paths)
            self.g, self.g_prev = np.empty(n_paths), np.empty(n_paths)
            self.tau = self.case_label = self.cost = self.cost_stderr = None
        self.f_nodes = np.zeros((n_steps + 1, len(z0)))
        self.g_nodes = np.zeros((n_steps + 1, d, len(z0)))
        self.f_nodes[:, :m] = u_nodes @ dyn.B.T
        self.g_nodes[:, :, :m] = np.einsum("jk,cak->jca", u_nodes, dyn.D)
        # rows at nodes j and j + 1, a noise term, a spare for products
        self.Z = [np.full(n_paths, z) for z in z0]
        self.Zn = [np.empty(n_paths) for _ in self.Z]
        self.noise, self.tmp = np.empty(n_paths), np.empty(n_paths)

    def record(self, j):
        """Check the state at node j for divergence, and take an ensemble
        column's statistics and cost fold.

        Any non-finite entry makes its row sum non-finite, so the sums
        that an ensemble column's means need anyway stand in for a full
        finiteness scan; the scan runs only when a sum is not finite.
        DivergenceError names the first bad path.
        """
        Z = self.Z
        m, n_paths = self.dyn.m, len(Z[0])
        sums = np.array([z.sum() for z in Z])
        if not np.isfinite(sums).all():
            bad = np.flatnonzero(~np.all([np.isfinite(z) for z in Z], axis=0))
            if bad.size:
                raise DivergenceError(step=j, path=int(bad[0]))
        if self.spec is None:
            return
        for b in range(m):
            self.mean_x[j, b], self.std_x[j, b] = self.row_stats(b, sums[b])
        # at node 0 the exact y0, not a sum of N copies over N
        self.mean_y[j] = sums[m] / n_paths if j else self.spec.target.y0
        if self.tau is None:
            self.fold_cost(j)

    def fold_cost(self, j):
        """Add node j to each path's cost; at the mean's first hit, close it.

        The running cost splits into kappa + u'Lambda u / 2, which every
        path shares and which is summed once when the fold closes, and the
        state term cLin.x, whose trapezoid sum each path carries.  At the
        first node whose mean target is <= 0, or the last node, `_first_hit`
        gives tau: node j or a time on the panel that ends there.  That panel is added
        whole or cut at tau, with the state at tau interpolated between
        node j - 1, still in `Zn` after the step's swap, and node j.  The
        shared part's trapezoid sum and the terminal cost at tau join, the
        paths' mean and standard error become `cost` and `cost_stderr`,
        and the fold does nothing more.  Without a state term the cost has
        the bits of numpy's trapezoid rule over stored nodes; the state
        term's sum node by node may differ from its pairwise sum in the
        last digits.
        """
        m, Z, times = self.dyn.m, self.Z, self.times
        cost, run, g, g_prev, tmp = self.spec.cost, self.run, self.g, self.g_prev, self.tmp
        _affine_row(cost.c_lin, Z[:m], 0.0, g, tmp)
        hit = self.mean_y[j] <= 0.0 or j == len(times) - 1
        last = j  # the last node at or before tau: j, or j - 1 at the hit
        if hit:
            self.tau, self.case_label = _first_hit(self.mean_y[: j + 1], times)
            last = int(np.searchsorted(times, self.tau, side="right")) - 1
        if j and last == j:
            np.add(g_prev, g, out=tmp)
            np.multiply(tmp, self.dt, out=tmp)
            np.divide(tmp, 2.0, out=tmp)
            np.add(run, tmp, out=run)
        if not hit:
            self.g, self.g_prev = g_prev, g
            return
        # kappa + u'Lambda u / 2 over the nodes up to `last` only: einsum's
        # sum over other rows may round a row's value differently
        u = self.u_nodes[: last + 1]
        shared = cost.kappa + 0.5 * np.einsum("tj,jk,tk->t", u, cost.Lambda, u)
        run += np.trapezoid(shared, dx=self.dt) if last else 0.0
        partial = self.tau - times[last]
        if partial > 0.0:
            lam = partial / self.dt
            x_tau = np.stack([(1.0 - lam) * a + lam * b for a, b in zip(self.Zn[:m], Z[:m])], -1)
            f_tau = cost.running(x_tau, self.policy.values(self.tau, side=-1))
            run += 0.5 * ((shared[last] + g_prev) + f_tau) * partial
        else:
            x_tau = np.stack((Z if last == j else self.Zn)[:m], -1)
        total = run + cost.terminal(x_tau)
        self.cost = float(np.mean(total))
        self.cost_stderr = float(np.std(total, ddof=1) / np.sqrt(len(total)))
        self.run = self.g = self.g_prev = None

    def row_stats(self, b, total=None):
        """Mean and sample std (ddof=1) over the paths of linear state row b.

        `total` is the row's sum when the caller has it already.  The
        deviations go through the spare vector, so nothing is allocated.
        """
        z, dev = self.Z[b], self.tmp
        n_paths = len(z)
        mean = (z.sum() if total is None else total) / n_paths
        np.subtract(z, mean, out=dev)
        np.multiply(dev, dev, out=dev)
        return mean, np.sqrt(dev.sum() / (n_paths - 1))

    def step(self, j, dW):
        """Euler-Maruyama step of every path from node j to node j + 1.

        Row a gains dt (M_a . X + f_a) + sum_c dW_c
        (N_ca . X + g_ca), X being the state rows at node j.  The forcing
        f, g holds B u and D u, and for Y the mean-field terms E1 E[X] +
        E3 (A E[X] + B u) + E4 u and coef_mean E[X] + coef_control u.
        Each row gains its drift, then each channel's noise term in turn,
        in `Zn`, which then becomes `Z`.
        """
        dyn, Z = self.dyn, self.Z
        m = dyn.m
        X, f, g = Z[:m], self.f_nodes[j], self.g_nodes[j]
        if self.spec is not None:
            tgt, mx, u = self.spec.target, self.mean_x[j], self.u_nodes[j]
            mean_b = dyn.A @ mx + f[:m]
            f[m] = float(tgt.E1 @ mx + tgt.E3 @ mean_b + tgt.E4 @ u)
            if tgt.diffusion is not None:
                g[:, m] = tgt.diffusion.coef_mean @ mx + tgt.diffusion.coef_control @ u
        noise = self.noise
        for a, (z, zn) in enumerate(zip(Z, self.Zn)):
            _affine_row(self.drift_rows[a], X, f[a], zn, self.tmp)
            np.multiply(zn, self.dt, out=zn)
            np.add(z, zn, out=zn)
            for c in range(dyn.d):
                _affine_row(self.noise_rows[c, a], X, g[c, a], noise, self.tmp)
                np.multiply(noise, dW[:, c], out=noise)
                np.add(zn, noise, out=zn)
        self.Z, self.Zn = self.Zn, Z


def _em_moments(dyn, u_nodes, dt):
    """Exact mean and second moment E[X X'] of the Euler-Maruyama iterates.

    With F = I + A dt, b_j = B u_j dt and e_cj = D_c u_j, where u_j is the
    control at the left node of step j as `_Column.step` takes it, a step
    maps X to F X + b_j + sum_c (C_c X + e_cj) dW_c.  The increments have
    mean 0 and covariance dt I and are independent of X, so

        m' = F m + b
        P' = F P F' + F m b' + b m' F' + b b'
             + dt sum_c (C_c P C_c' + C_c m e_c' + e_c m' C_c' + e_c e_c'),

    the weak-order moment recursion of the scheme (Kloeden & Platen,
    Numerical Solution of SDEs, 1992).  Each is one `_scan`: the mean's
    rows are [x0; b_0'; b_1'; ...], x0 = `dyn.x0`, and vec(P), taken row-major so that
    vec(F P F') = (F kron F) vec(P), has the map F kron F + dt sum_c
    C_c kron C_c and a forcing built for every step at once from the
    scanned means.  Returns the mean, (n_steps + 1, m), and the second
    moment, (n_steps + 1, m, m), at the nodes of `u_nodes`.
    """
    m = dyn.m
    u = np.asarray(u_nodes, dtype=float)[:-1]
    F = np.eye(m) + dt * dyn.A
    b = dt * (u @ dyn.B.T)
    mean = np.empty((len(u) + 1, m))
    mean[0], mean[1:] = dyn.x0, b
    _scan(mean, F.T)

    def sym(x, y):  # x_j y_j' + y_j x_j' for every step j
        outer = x[:, :, None] * y[:, None, :]
        return outer + outer.transpose(0, 2, 1)

    mx = mean[:-1]
    forcing = sym(mx @ F.T, b) + b[:, :, None] * b[:, None, :]
    phi = np.kron(F, F)
    for C, D in zip(dyn.C, dyn.D):
        e = u @ D.T
        forcing += dt * (sym(mx @ C.T, e) + e[:, :, None] * e[:, None, :])
        phi += dt * np.kron(C, C)
    second = np.empty((len(u) + 1, m * m))
    second[0], second[1:] = np.outer(dyn.x0, dyn.x0).ravel(), forcing.reshape(len(u), m * m)
    _scan(second, phi.T)
    return mean, second.reshape(-1, m, m)


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# Smallest draw (n_paths * d normals per step) that a worker thread draws
# ahead of the loop.  Handing a block over costs more than drawing a small
# one: on a 2-vCPU host a worker for every draw made a 2 000-path ensemble
# plus a 256-path state check 1.4-2.0x slower, while at 8 192 normals the
# wealth check ran about 15% faster with the worker than without.
_PREFETCH_MIN_DRAW = 8192
# Blocks a worker may hold ready before the loop takes them.
_PREFETCH_DEPTH = 2


def _serial_noise(seed, n_steps, n_paths, d, sq):
    """Each step's scaled noise block, drawn when the loop asks for it.

    One buffer holds every block, so a block is valid until the next one.
    """
    dW = np.empty((n_paths, d))
    for j in range(n_steps):
        if d > 0:
            np.multiply(step_noise(seed, j, n_paths, d), sq, out=dW)
        yield dW


def _prefetched_noise(seed, n_steps, n_paths, d, sq):
    """The blocks of `_serial_noise`, drawn up to `_PREFETCH_DEPTH` steps ahead.

    One worker thread draws and scales the blocks of steps 0..n_steps - 1
    in order, each into a fresh array that it never touches again, and
    hands them over through a bounded queue.  The thread starts with the
    first block asked for.  An exception in the worker is raised here, in
    the loop's thread, at the step that needed the failed block.  However
    the loop ends (exhausted, an exception, or `close`), the worker is
    told to stop, the queue is drained so that a pending hand-off returns,
    and the worker is joined, so it never outlives the loop.
    """
    blocks = queue.Queue(maxsize=_PREFETCH_DEPTH)
    stop = threading.Event()

    def produce():
        try:
            for j in range(n_steps):
                if stop.is_set():
                    return
                block = step_noise(seed, j, n_paths, d)
                np.multiply(block, sq, out=block)
                blocks.put(block)
        except BaseException as exc:  # raised again by the loop's thread
            blocks.put(exc)

    worker = threading.Thread(target=produce, name="meantau-noise", daemon=True)
    worker.start()
    try:
        for _ in range(n_steps):
            block = blocks.get()
            if isinstance(block, BaseException):
                raise block
            yield block
    finally:
        # after `stop` the worker hands over at most one more block, so
        # one drain leaves it room and the join cannot wait on the queue
        stop.set()
        with contextlib.suppress(queue.Empty):
            while True:
                blocks.get_nowait()
        worker.join()


def _run_columns(cols, seed: int, threads: Optional[int] = None) -> None:
    """The Euler-Maruyama time loop over columns that share one grid, path
    count and noise dimension d, all read from the first column.

    Each step draws its noise once, keyed by (seed, step), and every
    column steps on that draw, so all columns see the same Brownian
    increments whatever their dynamics and controls.  `simulate_ensemble`
    runs one ensemble column, which folds each path's cost in as it
    records a node; the variational state table one path column, the
    sensitivity; and `portfolio.mc_validate` one path column per
    volatility.  The path columns read only the last node.  Overflow
    warnings are silenced: `_Column.record`, which takes node 0 and each
    stepped node, raises DivergenceError on non-finite values instead.

    `threads` (default: the CPUs available to the process) caps the
    threads the loop may use.  With two or more, and a draw of at least
    `_PREFETCH_MIN_DRAW` normals a step, one worker thread draws the noise
    ahead while this thread steps the columns (`_prefetched_noise`);
    otherwise each step draws in turn (`_serial_noise`).  A block is the
    same `step_noise` draw times sqrt(dt) either way, so the thread count
    never changes a result.  A threads value below 1 raises ValueError.
    """
    if threads is None:
        threads = _available_cpus()
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    grid, n_paths, d = cols[0].grid, len(cols[0].Z[0]), cols[0].dyn.d
    sq = np.sqrt(grid.dt)
    prefetch = threads >= 2 and d > 0 and n_paths * d >= _PREFETCH_MIN_DRAW
    noise = (_prefetched_noise if prefetch else _serial_noise)(seed, grid.n_steps, n_paths, d, sq)
    with np.errstate(over="ignore", invalid="ignore"), contextlib.closing(noise):
        for col in cols:
            col.record(0)
        for j, dW in enumerate(noise):
            for col in cols:
                col.step(j, dW)
                col.record(j + 1)


def simulate_ensemble(
    spec: ProblemSpec,
    policy,
    n_paths: int,
    grid: SimGrid,
    seed: int,
    threads: Optional[int] = None,
) -> EnsembleResult:
    """Simulate N coupled paths of (X, Y), detect the mean hitting time and
    estimate the objective.

    The objective is folded into the time loop path by path
    (`_Column.fold_cost`), so no path is stored and the memory is O(N) at
    any path count.  `threads` is passed to `_run_columns` and never
    changes the result.  A policy that ends before the grid raises
    ValueError.
    """
    spec.require_valid()
    col = _Column(spec.dynamics, policy, n_paths, grid, spec=spec)
    _run_columns([col], seed, threads)
    return EnsembleResult(
        mean_x=col.mean_x,
        mean_y=col.mean_y,
        std_x=col.std_x,
        tau=col.tau,
        case_label=col.case_label,
        cost=col.cost,
        cost_stderr=col.cost_stderr,
    )
