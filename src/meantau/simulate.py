"""Mean flows, minimum-time detection, and ensemble simulation.

Two deterministic solvers handle the means: the state mean follows the
linear ODE dE[X]/dt = A E[X] + B u(t), and the target mean follows
dE[Y]/dt = (E1 + E2 + E3 A) E[X] + (E3 B + E4) u(t) + eps.  Both are
integrated with one classical 4th-order step per sub-interval, where the
sub-intervals are the grid steps split at control breakpoints so that the
integrator never straddles a discontinuity of u.  A step is an affine map
z -> Phi z + r, so the nodes of a run of equal steps come out of a
vectorised doubling prefix scan in about log2(steps) numpy passes, not
one Python iteration per step (`_affine_path`).  A mean that leaves the
float range raises DivergenceError instead of returning non-finite nodes.

Every path ensemble goes through one explicit Euler-Maruyama time loop
whose columns share each step's noise draw.  Noise for step j comes from
a counter-based generator keyed by (seed, j), so results are a pure
function of (spec, policy, N, grid, seed) regardless of how the loop is
scheduled.  The key is the one numpy's SeedSequence(entropy=seed,
spawn_key=(j,)) gives a Philox generator; `step_noise` derives the keys
of 1024 steps in one vectorised pass of that hash and re-keys one Philox
per thread, instead of building a seed sequence and a generator for
every step, and draws the same bytes.  A column steps one row of paths
per state coordinate with one affine kernel; an ensemble column adds the
monitoring process as a last row, with the mean-field couplings (E[X]
and E[b]) evaluated as ensemble averages at the start of each step.  A
path column steps only the state, storing its paths or not.  A path
column may step c lanes, runs of one SDE that differ only in start and
node controls, as (c, N) rows: the variational checks step the base
state, its sensitivity and each perturbed control as the lanes of one
column, and the wealth Monte Carlo check steps one path column per
volatility and reads only the terminal state rows.

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
    LinearDynamics,
    ProblemSpec,
    target_control_row,
    target_state_row,
)

__all__ = [
    "SimGrid",
    "EnsembleResult",
    "MeanPath",
    "mean_ode_solve",
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


def _affine_path(M, F, c0, policy, times, z0):
    """Integrate z' = M z + F u(t) + c0 through `times` with RK4.

    Each interval between consecutive requested times is split at control
    breakpoints; stage values of u at a sub-interval boundary use the
    one-sided limit from inside the sub-interval.

    One RK4 step over a sub-interval is the affine map z -> Phi z + r,
    with r from the stage forcing.  Within a run of one step length
    (`_run_starts`) Phi is the same for every step, taken at the run's
    mean length, and the run's nodes come out of a doubling prefix scan:
    starting from w = [z_start; r_a; ...; r_{b-1}], pass s = 1, 2, 4, ...
    adds w[:-s] @ (Phi^s)' to w[s:].  A run of n steps costs about
    log2(n) vectorised passes of O(n p^2) flops, and the Python work is
    one iteration per pass and per run.  A grid without interior
    breakpoints is one run.  A policy with a breakpoint inside every grid
    step makes every run one or two steps long, and then the cost is about
    that of a step-by-step loop; no shipped config or workload has one.

    Raises DivergenceError (path None) at the first requested node whose
    value is not finite.
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

    # sub-intervals whose right edge is a requested node, and that node
    pos = np.searchsorted(times, s1)
    hit = (pos < len(times)) & (times[np.minimum(pos, len(times) - 1)] == s1)

    # z[i] is the state at edges[i]; each run is scanned in place
    z = np.empty((len(edges), p))
    z[0] = z0
    z[1:] = r
    starts = _run_starts(edges)
    ends = np.append(starts[1:], len(hs))
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in zip(starts, ends):
            w = z[a : b + 1]
            # (Phi^s)' = (Phi')^s, kept contiguous for fast row products
            phi_t = np.ascontiguousarray(_rk4_transfer(M, (s1[b - 1] - s0[a]) / (b - a)).T)
            s = 1
            while True:
                w[s:] += w[:-s] @ phi_t
                s *= 2
                if s >= len(w):
                    break
                phi_t = phi_t @ phi_t

    out = np.empty((len(times), p))
    out[0] = z0
    out[pos[hit]] = z[1:][hit]
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise DivergenceError(step=int(bad[0]), path=None)
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


def _affine_row(M_a, X, f_a, out, tmp):
    """out = M_a . X + f_a path by path, for X given as coordinate vectors."""
    np.multiply(X[0], M_a[0], out=out)
    for b in range(1, len(X)):
        np.multiply(X[b], M_a[b], out=tmp)
        np.add(out, tmp, out=out)
    np.add(out, f_a, out=out)


class _Column:
    """One dynamics, its node controls and its paths inside the time loop.

    An ensemble column (`spec` given) also steps the monitoring process Y
    and records per-node statistics; a path column (`spec` None) steps
    only the state, and stores its paths when `store_paths` is true.  The
    state lives in `Z`, one contiguous row of paths per coordinate and Y
    as an ensemble column's last row, and `step` advances every row with
    the same affine arithmetic; its buffers, one row each, are reused
    across steps, so the loop allocates no path-sized array.  Fewer than
    two paths, which have no sample variance, raise ValueError before any
    buffer exists.

    A path column may carry c lanes: runs of the same SDE that
    differ only in their start `x0`, of shape (c, m), and their node
    controls, of shape (n_steps + 1, c, k).  Each row is then a (c, N)
    array and the forcing has a trailing (c, 1) lane axis, so `step`
    broadcasts over the lanes and each lane does the element-wise
    operations of a one-lane column in the same order: a lane's paths
    equal, bit for bit, those of a one-lane column run alone on the same
    seed.  The paths are stored as one (c, N, n_steps + 1, m) array.
    Without `x0` the column starts at `dyn.x0` with one lane and (N,)
    rows.
    """

    def __init__(self, dyn, u_nodes, n_paths, n_steps, spec=None, store_paths=True, x0=None):
        if n_paths < 2:
            raise ValueError("n_paths must be at least 2")
        m, d = dyn.m, dyn.d
        self.spec, self.dyn, self.u_nodes = spec, dyn, u_nodes
        z0 = dyn.x0 if x0 is None else np.asarray(x0, dtype=float)
        lanes = z0.shape[:-1]  # () for one lane, (c,) for c lanes
        self.paths = np.empty(lanes + (n_paths, n_steps + 1, m)) if store_paths else None
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
        rows = z0.shape[-1]
        f = np.zeros((n_steps + 1, rows) + lanes)
        g = np.zeros((n_steps + 1, d, rows) + lanes)
        for lane in np.ndindex(lanes):
            # a contiguous copy makes a lane's B u and D u those of a one-lane column
            u = np.ascontiguousarray(u_nodes[(slice(None),) + lane])
            f[(slice(None), slice(m)) + lane] = u @ dyn.B.T
            g[(slice(None), slice(None), slice(m)) + lane] = np.einsum("jk,cak->jca", u, dyn.D)
        self.f_nodes = f.reshape(f.shape + (1,) * len(lanes))
        self.g_nodes = g.reshape(g.shape + (1,) * len(lanes))
        # rows at nodes j and j + 1, a noise term, a spare for products
        shape = lanes + (n_paths,)
        self.Z = [np.full(shape, z[..., None]) for z in np.moveaxis(z0, -1, 0)]
        self.Zn = [np.empty(shape) for _ in self.Z]
        self.noise, self.tmp = np.empty(shape), np.empty(shape)

    def record(self, j):
        """Check the state at node j for divergence and store it.

        Any non-finite entry makes its row sum non-finite, so the sums
        that an ensemble column's means need anyway stand in for a full
        finiteness scan; the scan runs only when a sum is not finite.
        DivergenceError names the first bad path of the first lane that
        has one, as an index within that lane.
        """
        Z = self.Z
        m, n_paths = self.dyn.m, Z[0].shape[-1]
        sums = np.array([z.sum() for z in Z])
        if not np.isfinite(sums).all():
            ok = np.all([np.isfinite(z) for z in Z], axis=0).reshape(-1, n_paths)
            bad = np.argwhere(~ok)  # (lane, path) pairs in lane order
            if bad.size:
                raise DivergenceError(step=j, path=int(bad[0, 1]))
        if self.paths is not None:
            for b in range(m):
                self.paths[..., j, b] = Z[b]
        if self.spec is None:
            return
        for b in range(m):
            self.mean_x[j, b], self.std_x[j, b] = self.row_stats(b, sums[b])
        # at node 0 the exact y0, not a sum of N copies over N
        self.mean_y[j] = sums[m] / n_paths if j else self.spec.target.y0

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

    def step(self, j, dW, dt):
        """Euler-Maruyama step of every path from node j to node j + 1.

        Row a gains dt (M_a . X + f_a) + sum_c dW_c
        (N_ca . X + g_ca), X being the state rows at node j.  The forcing
        f, g holds B u and D u, and for Y the mean-field terms E1 E[X] +
        E3 (A E[X] + B u) + E4 u + eps and coef_mean E[X] + coef_control u.
        Each row gains its drift, then each channel's noise term in turn,
        in `Zn`, which then becomes `Z`.
        """
        dyn, Z = self.dyn, self.Z
        m = dyn.m
        X, f, g = Z[:m], self.f_nodes[j], self.g_nodes[j]
        if self.spec is not None:
            tgt, mx, u = self.spec.target, self.mean_x[j], self.u_nodes[j]
            mean_b = dyn.A @ mx + f[:m]
            f[m] = float(tgt.E1 @ mx + tgt.E3 @ mean_b + tgt.E4 @ u) + self.spec.eps_regularize
            if tgt.diffusion is not None:
                g[:, m] = tgt.diffusion.coef_mean @ mx + tgt.diffusion.coef_control @ u
        noise = self.noise
        for a, (z, zn) in enumerate(zip(Z, self.Zn)):
            _affine_row(self.drift_rows[a], X, f[a], zn, self.tmp)
            np.multiply(zn, dt, out=zn)
            np.add(z, zn, out=zn)
            for c in range(dyn.d):
                _affine_row(self.noise_rows[c, a], X, g[c, a], noise, self.tmp)
                np.multiply(noise, dW[:, c], out=noise)
                np.add(zn, noise, out=zn)
        self.Z, self.Zn = self.Zn, Z


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


def _run_columns(
    cols, grid: SimGrid, seed: int, n_paths: int, threads: Optional[int] = None
) -> None:
    """The Euler-Maruyama time loop over columns that share the noise dimension d.

    Each step draws its noise once, keyed by (seed, step), and every
    column steps on that draw, so all columns see the same Brownian
    increments whatever their dynamics and controls.  `simulate_ensemble`
    runs one ensemble column, the variational checks one lane column, and
    `portfolio.mc_validate` path columns that store no paths,
    reading the last node through `_Column.row_stats`.  Overflow
    warnings are silenced: `_Column.record`, which stores node 0 and each
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
    d, dt = cols[0].dyn.d, grid.dt
    sq = np.sqrt(dt)
    prefetch = threads >= 2 and d > 0 and n_paths * d >= _PREFETCH_MIN_DRAW
    noise = (_prefetched_noise if prefetch else _serial_noise)(seed, grid.n_steps, n_paths, d, sq)
    with np.errstate(over="ignore", invalid="ignore"), contextlib.closing(noise):
        for col in cols:
            col.record(0)
        for j, dW in enumerate(noise):
            for col in cols:
                col.step(j, dW, dt)
                col.record(j + 1)


def simulate_ensemble(
    spec: ProblemSpec,
    policy,
    n_paths: int,
    grid: SimGrid,
    seed: int,
    store_paths: Optional[bool] = None,
    threads: Optional[int] = None,
) -> EnsembleResult:
    """Simulate N coupled paths of (X, Y) and detect the mean hitting time.

    Paths are stored when `store_paths` is true, defaulting to on for
    N <= 10^4 and off above that.  `threads` is passed to `_run_columns`
    and never changes the result.
    """
    spec.require_valid()
    times = grid.times()
    if policy.horizon < times[-1]:
        raise ValueError("policy horizon does not cover the grid")
    if store_paths is None:
        store_paths = n_paths <= _PATH_STORAGE_CAP

    u_nodes = policy.values(times)
    col = _Column(spec.dynamics, u_nodes, n_paths, grid.n_steps, spec=spec, store_paths=store_paths)
    _run_columns([col], grid, seed, n_paths, threads)

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
    if store_paths and spec.cost is not None:
        result.cost, result.cost_stderr = estimate_cost(result, spec.cost, policy)
    return result


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
        u_tau = policy.value(tau, side=-1)
        f_tau = cost.kappa + x_tau @ cost.c_lin + 0.5 * float(u_tau @ cost.Lambda @ u_tau)
        run = run + 0.5 * (f_nodes[:, j_last] + f_tau) * partial
    else:
        x_tau = paths[:, j_last, :]

    total = run + cost.terminal(x_tau)
    j = float(np.mean(total))
    stderr = float(np.std(total, ddof=1) / np.sqrt(n_paths))
    return j, stderr
