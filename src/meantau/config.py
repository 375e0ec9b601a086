"""JSON config parsing for the command-line interface.

Configs are plain JSON objects; parsing reports every structural problem
it can find with the dotted path of the offending field, then defers the
numeric cross-checks (shapes, symmetry, box order) to `validate`.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields

from .errors import SpecValidationError
from .portfolio import PortfolioParams
from .problem import (
    ControlPolicy,
    ControlSegment,
    ControlSet,
    CostSpec,
    LinearDynamics,
    ProblemSpec,
    TargetCoefficients,
    TargetDiffusion,
    validate,
)

__all__ = ["load_config", "parse_problem", "parse_policy", "parse_portfolio_params"]


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise SpecValidationError([f"config: file not found: {path}"])
    try:
        with open(path, "r") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecValidationError([f"config: invalid JSON ({exc})"]) from exc
    if not isinstance(obj, dict):
        raise SpecValidationError(["config: top level must be a JSON object"])
    return obj


def _get(obj: dict, key: str, path: str, kind, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise SpecValidationError([f"{path}.{key}: missing required field"])
        return default
    val = obj[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if kind is not None and not isinstance(val, kind):
        raise SpecValidationError(
            [f"{path}.{key}: expected {getattr(kind, '__name__', kind)}, got {type(val).__name__}"]
        )
    return val


def parse_problem(obj: dict, path: str = "problem") -> ProblemSpec:
    """Build and validate a ProblemSpec from a config sub-object."""
    dyn_obj = _get(obj, "dynamics", path, dict)
    tgt_obj = _get(obj, "target", path, dict)
    cost_obj = _get(obj, "cost", path, dict)
    box_obj = _get(obj, "control_set", path, dict)
    horizon = _get(obj, "horizon", path, float)
    eps = _get(obj, "eps_regularize", path, float, required=False, default=0.0)

    p = f"{path}.dynamics"
    try:
        dynamics = LinearDynamics(
            A=_get(dyn_obj, "A", p, list),
            B=_get(dyn_obj, "B", p, list),
            C=_get(dyn_obj, "C", p, list),
            D=_get(dyn_obj, "D", p, list),
            x0=_get(dyn_obj, "x0", p, list),
        )
    except SpecValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecValidationError([f"{p}: malformed arrays ({exc})"]) from exc

    p = f"{path}.target"
    diff_obj = _get(tgt_obj, "diffusion", p, dict, required=False)
    diffusion = None
    if diff_obj is not None:
        q = f"{p}.diffusion"
        diffusion = TargetDiffusion(
            coef_mean=_get(diff_obj, "coef_mean", q, list),
            coef_state=_get(diff_obj, "coef_state", q, list),
            coef_control=_get(diff_obj, "coef_control", q, list),
        )
    try:
        target = TargetCoefficients(
            E1=_get(tgt_obj, "E1", p, list),
            E2=_get(tgt_obj, "E2", p, list),
            E3=_get(tgt_obj, "E3", p, list),
            E4=_get(tgt_obj, "E4", p, list),
            y0=_get(tgt_obj, "y0", p, float),
            diffusion=diffusion,
        )
    except SpecValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecValidationError([f"{p}: malformed arrays ({exc})"]) from exc

    p = f"{path}.cost"
    cost = CostSpec(
        kappa=_get(cost_obj, "kappa", p, float, required=False, default=0.0),
        c_lin=_get(cost_obj, "c_lin", p, list),
        Lambda=_get(cost_obj, "Lambda", p, list),
        psi_lin=_get(cost_obj, "psi_lin", p, list),
        psi_quad=_get(cost_obj, "psi_quad", p, list),
    )

    p = f"{path}.control_set"
    box = ControlSet(
        lower=_get(box_obj, "lower", p, list),
        upper=_get(box_obj, "upper", p, list),
    )

    spec = ProblemSpec(dynamics, target, cost, box, horizon, eps)
    report = validate(spec)
    if not report.ok:
        raise SpecValidationError([f"{path}.{v}" for v in report.violations])
    return spec


def parse_policy(obj: dict, path: str = "policy", horizon: float = None) -> ControlPolicy:
    """Accepts {"constant": [...]} (horizon taken from the problem) or
    {"segments": [{t_start, t_end, gamma0, gamma1, gamma2}, ...]}."""
    if "constant" in obj:
        value = _get(obj, "constant", path, list)
        h = _get(obj, "horizon", path, float, required=False, default=horizon)
        if h is None:
            raise SpecValidationError(
                [f"{path}.horizon: required when no problem horizon is available"]
            )
        return ControlPolicy.constant(value, h)
    seg_list = _get(obj, "segments", path, list)
    if not seg_list:
        raise SpecValidationError([f"{path}.segments: must be a non-empty list"])
    segments = []
    for i, seg in enumerate(seg_list):
        q = f"{path}.segments[{i}]"
        if not isinstance(seg, dict):
            raise SpecValidationError([f"{q}: expected an object"])
        gamma1 = seg.get("gamma1")
        gamma2 = seg.get("gamma2")
        t0 = _get(seg, "t_start", q, float)
        t1 = _get(seg, "t_end", q, float)
        g0 = _get(seg, "gamma0", q, list)
        if gamma1 is None and gamma2 is None:
            segments.append(ControlSegment.constant(t0, t1, g0))
        else:
            segments.append(
                ControlSegment(
                    t0, t1, g0, _get(seg, "gamma1", q, list), _get(seg, "gamma2", q, list)
                )
            )
    policy = ControlPolicy(segments)
    bad = policy.check(horizon=horizon, path=path)
    if bad:
        raise SpecValidationError(bad)
    return policy


def parse_portfolio_params(obj: dict, path: str = "params") -> PortfolioParams:
    """Build PortfolioParams from an object whose keys are its field names."""
    keys = [f.name for f in fields(PortfolioParams)]
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise SpecValidationError([f"{path}.{k}: unknown field" for k in unknown])
    return PortfolioParams(**{k: _get(obj, k, path, float) for k in keys if k in obj})
