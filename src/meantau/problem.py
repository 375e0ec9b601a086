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
against that table and `config` reads each declared array at its rank.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "ProblemSpec",
    "SECTIONS",
    "validate",
    "perturbed_policy",
    "target_state_row",
    "target_control_row",
]


def _vector(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


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

    The dimensions are read off the arrays and kept as attributes: m rows
    of A, k columns of B and d matrices in C.  `validate` checks every
    other array against them.
    """

    A: np.ndarray
    B: np.ndarray
    C: Sequence[np.ndarray]
    D: Sequence[np.ndarray]
    x0: np.ndarray

    def __post_init__(self):
        self.A = _matrix(self.A)
        self.B = _matrix(self.B)
        self.x0 = _vector(self.x0)
        self.m = self.A.shape[0]
        self.k = self.B.shape[1] if self.B.ndim == 2 else 1
        self.C = np.asarray([_matrix(c) for c in self.C], dtype=float)
        self.D = np.asarray([_matrix(dm) for dm in self.D], dtype=float)
        # no noise channel (d = 0): empty stacks of (m, m) and (m, k) matrices
        if len(self.C) == 0:
            self.C = self.C.reshape(0, self.m, self.m)
        if len(self.D) == 0:
            self.D = self.D.reshape(0, self.m, self.k)
        self.d = len(self.C)


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

    def running(self, x, u) -> np.ndarray:
        """f(x, u) for x with paths along the first axis."""
        x = np.asarray(x, dtype=float)
        quad = 0.5 * float(u @ self.Lambda @ u)
        return self.kappa + x @ self.c_lin + quad

    def terminal(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.psi_lin + 0.5 * np.einsum("...a,ab,...b->...", x, self.psi_quad, x)


@dataclass
class ControlSet:
    """Axis-aligned box of admissible control values."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = _vector(self.lower)
        self.upper = _vector(self.upper)

    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def maximizer(self, g) -> np.ndarray:
        """Vertex w maximizing g . w over the box, lower bound on a tie; g may be rows."""
        return np.where(np.asarray(g, dtype=float) > 0.0, self.upper, self.lower)


@dataclass
class ControlSegment:
    """One piece of a piecewise control: u_i(t) = gamma0_i + gamma1_i e^{gamma2_i t}.

    gamma1 and gamma2 go together; without them the segment is constant.
    All three have one length, the control dimension k.
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
        lengths = [len(self.gamma0), len(self.gamma1), len(self.gamma2)]
        if len(set(lengths)) > 1:
            raise ValueError(f"gamma0, gamma1 and gamma2 differ in length {lengths}")


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
            raise SpecValidationError(["policy.segments: empty"])
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
        return cls([ControlSegment(0.0, horizon, value)])

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

    def check(self, horizon: float, path: str = "policy"):
        """Collect partition violations as dotted-path strings."""
        out = []
        if self._starts[0] != 0.0:
            out.append(f"{path}.segments[0].t_start: must be 0, got {self._starts[0]}")
        for i in range(len(self.segments)):
            if not self._ends[i] > self._starts[i]:
                out.append(f"{path}.segments[{i}]: t_end must exceed t_start")
            if i and self._starts[i] != self._ends[i - 1]:
                out.append(f"{path}.segments[{i}].t_start: gap or overlap at {self._starts[i]}")
        if self._ends[-1] != horizon:
            out.append(
                f"{path}.segments[-1].t_end: must equal horizon {horizon}, got {self._ends[-1]}"
            )
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
        # written so that a NaN time fails it: every comparison with NaN is false
        if tarr.size and not (tarr.min() >= 0.0 and tarr.max() <= self.horizon):
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


class _PerturbedPolicy:
    """The control base + rho * direction, for policies that share a horizon."""

    def __init__(self, base: ControlPolicy, direction: ControlPolicy, rho: float):
        if base.horizon != direction.horizon:
            raise SpecValidationError(
                [f"perturbed policy: horizons differ ({base.horizon} != {direction.horizon})"]
            )
        self.base, self.direction, self.rho = base, direction, float(rho)

    @property
    def horizon(self) -> float:
        return self.base.horizon

    @property
    def breakpoints(self) -> np.ndarray:
        return np.union1d(self.base.breakpoints, self.direction.breakpoints)

    def values(self, ts, side: int = +1) -> np.ndarray:
        return self.base.values(ts, side=side) + self.rho * self.direction.values(ts, side=side)


def perturbed_policy(base: ControlPolicy, direction: ControlPolicy, rho: float) -> _PerturbedPolicy:
    """The control base + rho * direction as a policy with `horizon`, `breakpoints` and `values`.

    Its values are base.values + rho * direction.values, bit for bit, and
    its breakpoints are those of both.  Horizons that differ raise
    SpecValidationError.
    """
    return _PerturbedPolicy(base, direction, rho)


@dataclass
class ProblemSpec:
    """A full problem: dynamics, target, cost, admissible box, horizon."""

    dynamics: LinearDynamics
    target: TargetCoefficients
    cost: CostSpec
    control_set: ControlSet
    horizon: float

    def __post_init__(self):
        self.horizon = float(self.horizon)

    def require_valid(self):
        violations = validate(self)
        if violations:
            raise SpecValidationError(violations)
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


def validate(spec: ProblemSpec) -> list:
    """Check dimensions, symmetry and ordering.

    Returns every violation found, each tagged with the dotted path of
    the offending field; the list is empty when the spec is valid.
    """
    v = []
    dyn, tgt, box = spec.dynamics, spec.target, spec.control_set
    m, k, d = dyn.m, dyn.k, dyn.d
    for name, val in (("dynamics.m", m), ("dynamics.k", k)):
        if not val >= 1:
            v.append(f"{name}: must be a positive integer, got {val}")

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

    return v
