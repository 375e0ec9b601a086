"""Problem data for control up to a mean-field minimum-time target.

A problem couples a controlled linear state equation

    dX(t) = (A X + B u) dt + sum_j (C_j X + D_j u) dW_j,   X(0) = x0,

with a scalar monitoring process Y whose drift mixes the state, its mean,
the mean drift, and the control through four coefficient rows,

    dY(t) = (E1 E[X] + E2 X + E3 E[A X + B u] + E4 u) dt + g dW,  Y(0) = y0,

and a cost made of a running part f(x, u) = kappa + cLin.x + u'Lambda u / 2
plus a terminal part Psi(x) = psiLin.x + x'psiQuad x / 2.  The horizon of
interest is the first time the *mean* of Y reaches zero, capped at T.

Controls are deterministic piecewise curves; each segment component is
gamma0 + gamma1 * exp(gamma2 * t), which covers both constants and the
exponential arcs that arise in closed-form optimal policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import SpecValidationError

__all__ = [
    "LinearDynamics",
    "TargetDiffusion",
    "TargetCoefficients",
    "CostSpec",
    "ControlSet",
    "ControlSegment",
    "ControlPolicy",
    "CombinedPolicy",
    "ProblemSpec",
    "ValidationReport",
    "validate",
    "policy_eval",
    "perturbed_policy",
    "target_state_row",
    "target_control_row",
]


def _vector(x, n=None) -> np.ndarray:
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if n is not None and a.shape != (n,):
        a = a.reshape(n)
    return a


def _matrix(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


@dataclass
class LinearDynamics:
    """Coefficients of the controlled linear state equation.

    Parameters
    ----------
    A : (m, m) array
        State feedback matrix of the drift.
    B : (m, k) array
        Control matrix of the drift.
    C : sequence of (m, m) arrays, one per noise channel
        State coefficients of the diffusion.
    D : sequence of (m, k) arrays, one per noise channel
        Control coefficients of the diffusion.
    x0 : (m,) array
        Initial state.
    m, k, d : int, optional
        Declared dimensions; inferred from the arrays when omitted.
        `validate` cross-checks every array against them.
    """

    A: np.ndarray
    B: np.ndarray
    C: Sequence[np.ndarray]
    D: Sequence[np.ndarray]
    x0: np.ndarray
    m: Optional[int] = None
    k: Optional[int] = None
    d: Optional[int] = None

    def __post_init__(self):
        self.A = _matrix(self.A)
        self.B = _matrix(self.B)
        self.x0 = _vector(self.x0)
        if self.m is None:
            self.m = self.A.shape[0]
        if self.k is None:
            self.k = self.B.shape[1] if self.B.ndim == 2 else 1
        self.C = np.asarray([_matrix(c) for c in self.C], dtype=float)
        self.D = np.asarray([_matrix(dm) for dm in self.D], dtype=float)
        # no noise channel (d = 0): empty stacks of (m, m) and (m, k) matrices
        if len(self.C) == 0:
            self.C = self.C.reshape(0, self.m, self.m)
        if len(self.D) == 0:
            self.D = self.D.reshape(0, self.m, self.k)
        if self.d is None:
            self.d = len(self.C)

    # Path-space evaluators.  X has one row per path; u is deterministic.
    def drift(self, X: np.ndarray, u: np.ndarray) -> np.ndarray:
        return X @ self.A.T + (self.B @ u)

    def diffusion(self, X: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.einsum("jab,nb->naj", self.C, X)
        out += np.einsum("jak,k->aj", self.D, u)[None, :, :]
        return out


@dataclass
class TargetDiffusion:
    """Per-channel coefficient rows of the monitoring noise g.

    Channel j contributes (coefMean_j . E[X] + coefState_j . X +
    coefControl_j . u) dW_j to Y.  The mean of Y never depends on g.
    """

    coef_mean: np.ndarray    # (d, m)
    coef_state: np.ndarray   # (d, m)
    coef_control: np.ndarray  # (d, k)

    def __post_init__(self):
        self.coef_mean = _matrix(self.coef_mean)
        self.coef_state = _matrix(self.coef_state)
        self.coef_control = _matrix(self.coef_control)


@dataclass
class TargetCoefficients:
    """Drift rows of the monitoring process and its starting level y0.

    E1 weights the state mean, E2 the pathwise state, E3 the mean drift
    of the state, E4 the control.  y0 > 0 is required for the hitting
    problem to be non-trivial; y0 <= 0 makes the minimum time zero.
    """

    E1: np.ndarray
    E2: np.ndarray
    E3: np.ndarray
    E4: np.ndarray
    y0: float
    diffusion: Optional[TargetDiffusion] = None

    def __post_init__(self):
        self.E1 = _vector(self.E1)
        self.E2 = _vector(self.E2)
        self.E3 = _vector(self.E3)
        self.E4 = _vector(self.E4)
        self.y0 = float(self.y0)


def target_state_row(target: TargetCoefficients, dynamics: LinearDynamics) -> np.ndarray:
    """Row multiplying E[X] in the mean target drift: E1 + E2 + E3 A."""
    return target.E1 + target.E2 + target.E3 @ dynamics.A


def target_control_row(target: TargetCoefficients, dynamics: LinearDynamics) -> np.ndarray:
    """Row multiplying u in the mean target drift: E3 B + E4."""
    return target.E3 @ dynamics.B + target.E4


@dataclass
class CostSpec:
    """Running cost kappa + cLin.x + u'Lambda u / 2 and terminal cost
    psiLin.x + x'psiQuad x / 2."""

    kappa: float
    c_lin: np.ndarray
    Lambda: np.ndarray
    psi_lin: np.ndarray
    psi_quad: np.ndarray

    def __post_init__(self):
        self.kappa = float(self.kappa)
        self.c_lin = _vector(self.c_lin)
        self.Lambda = _matrix(self.Lambda)
        self.psi_lin = _vector(self.psi_lin)
        self.psi_quad = _matrix(self.psi_quad)

    @classmethod
    def time_optimal(cls, m: int, k: int) -> "CostSpec":
        """Pure elapsed-time cost: f = 1 and Psi = 0, so the objective is tau."""
        return cls(1.0, np.zeros(m), np.zeros((k, k)), np.zeros(m), np.zeros((m, m)))

    @property
    def is_time_optimal(self) -> bool:
        return (
            self.kappa == 1.0
            and not self.c_lin.any()
            and not self.Lambda.any()
            and not self.psi_lin.any()
            and not self.psi_quad.any()
        )

    def running(self, x, u) -> np.ndarray:
        """f(x, u) for x with paths along the first axis."""
        x = np.asarray(x, dtype=float)
        quad = 0.5 * float(u @ self.Lambda @ u)
        return self.kappa + x @ self.c_lin + quad

    def running_grad_u(self, u) -> np.ndarray:
        return self.Lambda @ u

    def terminal(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.psi_lin + 0.5 * np.einsum("...a,ab,...b->...", x, self.psi_quad, x)

    def terminal_grad(self, x) -> np.ndarray:
        return self.psi_lin + np.asarray(x, dtype=float) @ self.psi_quad


@dataclass
class ControlSet:
    """Axis-aligned box of admissible control values."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = _vector(self.lower)
        self.upper = _vector(self.upper)

    def contains(self, u, tol: float = 0.0) -> bool:
        u = np.asarray(u, dtype=float)
        return bool(np.all(u >= self.lower - tol) and np.all(u <= self.upper + tol))

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def maximizer(self, g) -> np.ndarray:
        """Vertex w maximizing g . w over the box, lower bound on a tie; g may be rows."""
        return np.where(np.asarray(g, dtype=float) > 0.0, self.upper, self.lower)


@dataclass
class ControlSegment:
    """One piece of a piecewise control: u_i(t) = gamma0_i + gamma1_i e^{gamma2_i t}."""

    t_start: float
    t_end: float
    gamma0: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray

    def __post_init__(self):
        self.t_start = float(self.t_start)
        self.t_end = float(self.t_end)
        self.gamma0 = _vector(self.gamma0)
        self.gamma1 = _vector(self.gamma1)
        self.gamma2 = _vector(self.gamma2)

    @classmethod
    def constant(cls, t_start, t_end, value) -> "ControlSegment":
        value = _vector(value)
        z = np.zeros_like(value)
        return cls(t_start, t_end, value, z, z)

    @classmethod
    def scaled_exp(cls, t_start, t_end, gamma0, gamma1, gamma2) -> "ControlSegment":
        return cls(t_start, t_end, gamma0, gamma1, gamma2)

    def value(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.gamma0 + self.gamma1 * np.exp(self.gamma2 * t[..., None])


class ControlPolicy:
    """Deterministic piecewise control on [0, horizon].

    Segments must tile the horizon without gaps.  Evaluation at an
    interior breakpoint takes the right-hand segment; evaluation at the
    horizon takes the final segment, so every time in [0, horizon] has a
    well-defined value.  Integrators evaluate one-sided limits through
    the `side` argument instead.
    """

    def __init__(self, segments: Sequence[ControlSegment]):
        if not segments:
            raise SpecValidationError("policy.segments: empty")
        self.segments = list(segments)
        self._starts = np.array([s.t_start for s in self.segments])
        self._ends = np.array([s.t_end for s in self.segments])
        self._g0 = np.stack([s.gamma0 for s in self.segments])
        self._g1 = np.stack([s.gamma1 for s in self.segments])
        self._g2 = np.stack([s.gamma2 for s in self.segments])

    @classmethod
    def constant(cls, value, horizon: float) -> "ControlPolicy":
        return cls([ControlSegment.constant(0.0, horizon, value)])

    @property
    def k(self) -> int:
        return self._g0.shape[1]

    @property
    def horizon(self) -> float:
        return float(self._ends[-1])

    @property
    def breakpoints(self) -> np.ndarray:
        """All segment boundaries, including 0 and the horizon."""
        return np.concatenate([self._starts, self._ends[-1:]])

    def check(self, horizon: Optional[float] = None, path: str = "policy"):
        """Collect partition violations as dotted-path strings."""
        out = []
        if self._starts[0] != 0.0:
            out.append(f"{path}.segments[0].t_start: must be 0, got {self._starts[0]}")
        for i in range(len(self.segments)):
            if not self._ends[i] > self._starts[i]:
                out.append(f"{path}.segments[{i}]: t_end must exceed t_start")
            if i and self._starts[i] != self._ends[i - 1]:
                out.append(f"{path}.segments[{i}].t_start: gap or overlap at {self._starts[i]}")
        if horizon is not None and self._ends[-1] != horizon:
            out.append(
                f"{path}.segments[-1].t_end: must equal horizon {horizon}, got {self._ends[-1]}"
            )
        ks = {len(s.gamma0) for s in self.segments}
        if len(ks) > 1:
            out.append(f"{path}.segments: inconsistent control dimension {sorted(ks)}")
        return out

    def _segment_index(self, ts: np.ndarray, side: int) -> np.ndarray:
        if side >= 0:
            idx = np.searchsorted(self._starts, ts, side="right") - 1
        else:
            idx = np.searchsorted(self._ends, ts, side="left")
        return np.clip(idx, 0, len(self.segments) - 1)

    def values(self, ts, side: int = +1) -> np.ndarray:
        """Control values at times `ts`; `side=-1` takes left limits at breakpoints."""
        ts = np.asarray(ts, dtype=float)
        scalar = ts.ndim == 0
        tarr = np.atleast_1d(ts)
        if tarr.size and (tarr.min() < 0.0 or tarr.max() > self.horizon):
            raise ValueError(
                f"time outside [0, {self.horizon}]: [{tarr.min()}, {tarr.max()}]"
            )
        idx = self._segment_index(tarr, side)
        out = self._g0[idx] + self._g1[idx] * np.exp(self._g2[idx] * tarr[:, None])
        return out[0] if scalar else out

    def value(self, t: float, side: int = +1) -> np.ndarray:
        return self.values(float(t), side=side)


class CombinedPolicy:
    """Weighted sum of policies sharing a horizon; used for perturbed controls."""

    def __init__(self, policies, weights):
        if len(policies) != len(weights) or not policies:
            raise SpecValidationError("combined policy: need matching policies and weights")
        horizons = {p.horizon for p in policies}
        if len(horizons) > 1:
            raise SpecValidationError(
                f"combined policy: horizons differ ({sorted(horizons)})"
            )
        self.policies = list(policies)
        self.weights = [float(w) for w in weights]

    @property
    def k(self) -> int:
        return self.policies[0].k

    @property
    def horizon(self) -> float:
        return self.policies[0].horizon

    @property
    def breakpoints(self) -> np.ndarray:
        pts = np.concatenate([p.breakpoints for p in self.policies])
        return np.unique(pts)

    def values(self, ts, side: int = +1) -> np.ndarray:
        acc = None
        for p, w in zip(self.policies, self.weights):
            term = w * p.values(ts, side=side)
            acc = term if acc is None else acc + term
        return acc

    def value(self, t: float, side: int = +1) -> np.ndarray:
        return self.values(float(t), side=side)


def perturbed_policy(base, direction, rho: float) -> CombinedPolicy:
    """The control base + rho * direction as an evaluable policy."""
    return CombinedPolicy([base, direction], [1.0, float(rho)])


def policy_eval(policy, t: float) -> np.ndarray:
    """Value of the control at time t in [0, horizon].

    Takes the right-hand segment at interior breakpoints and the final
    segment at the horizon.  Times outside the horizon raise ValueError.
    """
    t = float(t)
    if not 0.0 <= t <= policy.horizon:
        raise ValueError(f"t={t} outside [0, {policy.horizon}]")
    side = -1 if t == policy.horizon else +1
    return policy.value(t, side=side)


@dataclass
class ValidationReport:
    """Outcome of structural validation; violations are data, not exceptions."""

    ok: bool
    violations: list = field(default_factory=list)


@dataclass
class ProblemSpec:
    """A full problem: dynamics, target, cost, admissible box, horizon."""

    dynamics: LinearDynamics
    target: TargetCoefficients
    cost: CostSpec
    control_set: ControlSet
    horizon: float
    eps_regularize: float = 0.0

    def __post_init__(self):
        self.horizon = float(self.horizon)
        self.eps_regularize = float(self.eps_regularize)

    def require_valid(self):
        report = validate(self)
        if not report.ok:
            raise SpecValidationError(report.violations)
        return self


def _check_symmetric(name, M, out, tol=1e-12):
    if M.shape[0] != M.shape[1]:
        out.append(f"{name}: must be square, got {M.shape}")
    elif np.max(np.abs(M - M.T), initial=0.0) > tol:
        out.append(f"{name}: not symmetric within {tol}")


def validate(spec: ProblemSpec, policy=None) -> ValidationReport:
    """Check dimensions, symmetry, ordering, and partition structure.

    Returns every violation found, each tagged with the dotted path of
    the offending field.
    """
    v = []
    dyn, tgt, cost, box = spec.dynamics, spec.target, spec.cost, spec.control_set
    m, k, d = dyn.m, dyn.k, dyn.d
    for name, val in (("dynamics.m", m), ("dynamics.k", k)):
        if not (isinstance(val, (int, np.integer)) and val >= 1):
            v.append(f"{name}: must be a positive integer, got {val}")
    if not (isinstance(d, (int, np.integer)) and d >= 0):
        v.append(f"dynamics.d: must be a nonnegative integer, got {d}")

    if dyn.A.shape != (m, m):
        v.append(f"dynamics.A: expected shape {(m, m)}, got {dyn.A.shape}")
    if dyn.B.shape != (m, k):
        v.append(f"dynamics.B: expected {k} columns, got shape {dyn.B.shape}")
    if dyn.C.shape != (d, m, m):
        v.append(f"dynamics.C: expected {d} matrices of shape {(m, m)}, got {dyn.C.shape}")
    if dyn.D.shape != (d, m, k):
        v.append(f"dynamics.D: expected {d} matrices of shape {(m, k)}, got {dyn.D.shape}")
    if dyn.x0.shape != (m,):
        v.append(f"dynamics.x0: expected shape {(m,)}, got {dyn.x0.shape}")

    for name, row, n in (
        ("target.E1", tgt.E1, m),
        ("target.E2", tgt.E2, m),
        ("target.E3", tgt.E3, m),
        ("target.E4", tgt.E4, k),
    ):
        if row.shape != (n,):
            v.append(f"{name}: expected shape {(n,)}, got {row.shape}")
    if not np.isfinite(tgt.y0):
        v.append("target.y0: must be finite")
    if tgt.diffusion is not None:
        g = tgt.diffusion
        if g.coef_mean.shape != (d, m):
            v.append(f"target.diffusion.coef_mean: expected {(d, m)}, got {g.coef_mean.shape}")
        if g.coef_state.shape != (d, m):
            v.append(f"target.diffusion.coef_state: expected {(d, m)}, got {g.coef_state.shape}")
        if g.coef_control.shape != (d, k):
            v.append(
                f"target.diffusion.coef_control: expected {(d, k)}, got {g.coef_control.shape}"
            )

    if cost.c_lin.shape != (m,):
        v.append(f"cost.c_lin: expected shape {(m,)}, got {cost.c_lin.shape}")
    if cost.Lambda.shape != (k, k):
        v.append(f"cost.Lambda: expected shape {(k, k)}, got {cost.Lambda.shape}")
    else:
        _check_symmetric("cost.Lambda", cost.Lambda, v)
    if cost.psi_lin.shape != (m,):
        v.append(f"cost.psi_lin: expected shape {(m,)}, got {cost.psi_lin.shape}")
    if cost.psi_quad.shape != (m, m):
        v.append(f"cost.psi_quad: expected shape {(m, m)}, got {cost.psi_quad.shape}")
    else:
        _check_symmetric("cost.psi_quad", cost.psi_quad, v)

    if box.lower.shape != (k,):
        v.append(f"control_set.lower: expected shape {(k,)}, got {box.lower.shape}")
    if box.upper.shape != (k,):
        v.append(f"control_set.upper: expected shape {(k,)}, got {box.upper.shape}")
    if box.lower.shape == box.upper.shape:
        for i in range(box.lower.shape[0]):
            if box.lower[i] > box.upper[i]:
                v.append(f"control_set: lower[{i}] > upper[{i}] (box order)")

    if not spec.horizon > 0:
        v.append(f"horizon: must be positive, got {spec.horizon}")
    if spec.eps_regularize < 0:
        v.append(f"eps_regularize: must be >= 0, got {spec.eps_regularize}")

    if policy is not None:
        v.extend(policy.check(horizon=spec.horizon))
        if policy.k != k:
            v.append(f"policy: control dimension {policy.k} != k={k}")

    return ValidationReport(ok=not v, violations=v)
