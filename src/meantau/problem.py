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

`SECTIONS` declares each section of a problem once: the dataclass it
builds, whose fields are the section's config keys, and the shape of each
array field in the dimensions m, k and d.  `validate` checks every array
against that table and `config` reads the declared arrays as lists.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from operator import attrgetter
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
    "SECTIONS",
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
        Declared dimensions, kept as attributes; inferred from the arrays
        when omitted.  `validate` cross-checks every array against them.
    """

    A: np.ndarray
    B: np.ndarray
    C: Sequence[np.ndarray]
    D: Sequence[np.ndarray]
    x0: np.ndarray
    m: InitVar[Optional[int]] = None
    k: InitVar[Optional[int]] = None
    d: InitVar[Optional[int]] = None

    def __post_init__(self, m, k, d):
        self.A = _matrix(self.A)
        self.B = _matrix(self.B)
        self.x0 = _vector(self.x0)
        self.m = self.A.shape[0] if m is None else m
        self.k = (self.B.shape[1] if self.B.ndim == 2 else 1) if k is None else k
        self.C = np.asarray([_matrix(c) for c in self.C], dtype=float)
        self.D = np.asarray([_matrix(dm) for dm in self.D], dtype=float)
        # no noise channel (d = 0): empty stacks of (m, m) and (m, k) matrices
        if len(self.C) == 0:
            self.C = self.C.reshape(0, self.m, self.m)
        if len(self.D) == 0:
            self.D = self.D.reshape(0, self.m, self.k)
        self.d = len(self.C) if d is None else d

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
    psiLin.x + x'psiQuad x / 2; kappa defaults to 0."""

    c_lin: np.ndarray
    Lambda: np.ndarray
    psi_lin: np.ndarray
    psi_quad: np.ndarray
    kappa: float = 0.0

    def __post_init__(self):
        self.kappa = float(self.kappa)
        self.c_lin = _vector(self.c_lin)
        self.Lambda = _matrix(self.Lambda)
        self.psi_lin = _vector(self.psi_lin)
        self.psi_quad = _matrix(self.psi_quad)

    @classmethod
    def time_optimal(cls, m: int, k: int) -> "CostSpec":
        """Pure elapsed-time cost: f = 1 and Psi = 0, so the objective is tau."""
        return cls(np.zeros(m), np.zeros((k, k)), np.zeros(m), np.zeros((m, m)), kappa=1.0)

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
    """One piece of a piecewise control: u_i(t) = gamma0_i + gamma1_i e^{gamma2_i t}.

    gamma1 and gamma2 go together; without them the segment is constant.
    """

    t_start: float
    t_end: float
    gamma0: np.ndarray
    gamma1: Optional[np.ndarray] = None
    gamma2: Optional[np.ndarray] = None

    def __post_init__(self):
        if (self.gamma1 is None) != (self.gamma2 is None):
            raise ValueError("gamma1 and gamma2 must be given together")
        self.t_start = float(self.t_start)
        self.t_end = float(self.t_end)
        self.gamma0 = _vector(self.gamma0)
        if self.gamma1 is None:
            self.gamma1 = self.gamma2 = np.zeros_like(self.gamma0)
        self.gamma1 = _vector(self.gamma1)
        self.gamma2 = _vector(self.gamma2)

    @classmethod
    def constant(cls, t_start, t_end, value) -> "ControlSegment":
        return cls(t_start, t_end, value)


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
        # coefficients as contiguous (k, segments) rows, gathered along time
        self._g0, self._g1, self._g2 = (
            np.ascontiguousarray(np.stack([getattr(s, g) for s in self.segments]).T)
            for g in ("gamma0", "gamma1", "gamma2")
        )
        self._no_exp = not self._g2.any()  # every segment constant: exp(0 t) = 1

    @classmethod
    def constant(cls, value, horizon: float) -> "ControlPolicy":
        return cls([ControlSegment.constant(0.0, horizon, value)])

    @property
    def k(self) -> int:
        return self._g0.shape[0]

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
        """Control values at times `ts`; `side=-1` takes left limits at breakpoints.

        The result is a C-contiguous (len(ts), k) array, or (k,) for a
        scalar `ts`.  Each entry is g0 + g1 exp(g2 t) of its segment,
        computed along the time axis on (k, len(ts)) gathers; when every
        g2 is 0 the exponential is 1 exactly and the sum g0 + g1 stands in
        for it with the same bits.
        """
        ts = np.asarray(ts, dtype=float)
        scalar = ts.ndim == 0
        tarr = np.atleast_1d(ts)
        if tarr.size and (tarr.min() < 0.0 or tarr.max() > self.horizon):
            raise ValueError(
                f"time outside [0, {self.horizon}]: [{tarr.min()}, {tarr.max()}]"
            )
        idx = self._segment_index(tarr, side)
        out = np.take(self._g0, idx, axis=1)
        g1 = np.take(self._g1, idx, axis=1)
        if not self._no_exp:
            growth = np.take(self._g2, idx, axis=1)
            np.multiply(growth, tarr, out=growth)
            np.exp(growth, out=growth)
            np.multiply(g1, growth, out=g1)
        np.add(out, g1, out=out)
        out = np.ascontiguousarray(out.T)
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


# Each section of a problem config: its dataclass, whose fields are the
# section's keys, and the shape of each array field, one letter per axis
# from m (states), k (controls) and d (noise channels).
SECTIONS = {
    "dynamics": (LinearDynamics, {"A": "mm", "B": "mk", "C": "dmm", "D": "dmk", "x0": "m"}),
    "target": (TargetCoefficients, {"E1": "m", "E2": "m", "E3": "m", "E4": "k"}),
    "target.diffusion": (
        TargetDiffusion, {"coef_mean": "dm", "coef_state": "dm", "coef_control": "dk"}
    ),
    "cost": (CostSpec, {"c_lin": "m", "Lambda": "kk", "psi_lin": "m", "psi_quad": "mm"}),
    "control_set": (ControlSet, {"lower": "k", "upper": "k"}),
}
_SYMMETRIC = ("cost.Lambda", "cost.psi_quad")


def validate(spec: ProblemSpec, policy=None) -> ValidationReport:
    """Check dimensions, symmetry, ordering, and partition structure.

    Returns every violation found, each tagged with the dotted path of
    the offending field.
    """
    v = []
    dyn, tgt, box = spec.dynamics, spec.target, spec.control_set
    m, k, d = dyn.m, dyn.k, dyn.d
    for name, val in (("dynamics.m", m), ("dynamics.k", k)):
        if not (isinstance(val, (int, np.integer)) and val >= 1):
            v.append(f"{name}: must be a positive integer, got {val}")
    if not (isinstance(d, (int, np.integer)) and d >= 0):
        v.append(f"dynamics.d: must be a nonnegative integer, got {d}")

    sizes = {"m": m, "k": k, "d": d}
    for section, (_, shapes) in SECTIONS.items():
        obj = attrgetter(section)(spec)
        if obj is None:  # the optional target.diffusion
            continue
        for name, axes in shapes.items():
            path, a = f"{section}.{name}", getattr(obj, name)
            want = tuple(sizes[c] for c in axes)
            if a.shape != want:
                v.append(f"{path}: expected shape {want}, got {a.shape}")
            elif path in _SYMMETRIC and np.max(np.abs(a - a.T), initial=0.0) > 1e-12:
                v.append(f"{path}: not symmetric within 1e-12")
    if not np.isfinite(tgt.y0):
        v.append("target.y0: must be finite")

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
