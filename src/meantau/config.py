"""JSON config parsing for the command-line interface.

Configs are plain JSON objects, and every object of one is closed: a key
it does not declare is reported as `<path>.<key>: unknown field`.  The
problem, each of its sections (`problem.SECTIONS`), each policy segment
and the portfolio `params` are built by `_build`, whose keys are the
fields of the dataclass it builds.  Parsing reports every structural
problem with the dotted path of the offending field, then defers the
numeric cross-checks (shapes, symmetry, box order) to `validate`.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, fields

from .errors import SpecValidationError
from .portfolio import PortfolioParams
from .problem import SECTIONS, ControlPolicy, ControlSegment, ProblemSpec, validate

__all__ = ["load_config", "parse_problem", "parse_policy", "parse_portfolio_params"]

# The keys of the objects that no dataclass declares: the top level and
# the two forms of a policy, told apart by their first key.
TOP_LEVEL_KEYS = ("problem", "policy", "direction", "rhos", "params")
POLICY_FORMS = (("constant", "horizon"), ("segments",))
_SEGMENT_ARRAYS = ("gamma0", "gamma1", "gamma2")


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
    _check_keys(obj, TOP_LEVEL_KEYS, "")
    return obj


def _check_keys(obj: dict, keys, path: str):
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        prefix = f"{path}." if path else ""
        raise SpecValidationError([f"{prefix}{k}: unknown field" for k in unknown])


# JSON's names for the Python types that json.load returns
_JSON_TYPES = (
    (bool, "boolean"),
    ((int, float), "number"),
    (str, "string"),
    (list, "array"),
    (dict, "object"),
    (type(None), "null"),
)


def json_type(val) -> str:
    """The JSON type name of a value read by json.load: bool before int, as JSON has it."""
    return next(name for kind, name in _JSON_TYPES if isinstance(val, kind))


def _get(obj: dict, key: str, path: str, kind, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise SpecValidationError([f"{path}.{key}: missing required field"])
        return default
    val = obj[key]
    if kind is float and isinstance(val, (int, float)) and not isinstance(val, bool):
        return float(val)
    if not isinstance(val, kind):
        # kind() is the empty value of the expected type, which json_type names
        raise SpecValidationError(
            [f"{path}.{key}: expected {json_type(kind())}, got {json_type(val)}"]
        )
    return val


def _build(cls, obj: dict, path: str, arrays=(), section: str = ""):
    """`cls` from the object at `path`, whose keys are the fields of `cls`.

    A field that `SECTIONS` lists under `section` is itself a section and
    is built the same way.  A field in `arrays` is read as a list and any
    other field as a number; a field without a default is required.  Arrays
    that the constructor cannot read are reported as `<path>: malformed arrays`.
    """
    _check_keys(obj, [f.name for f in fields(cls)], path)
    kwargs = {}
    for f in fields(cls):
        if f.name not in obj and f.default is not MISSING:
            continue
        sub = f"{section}.{f.name}".lstrip(".")
        if sub in SECTIONS:
            sub_cls, shapes = SECTIONS[sub]
            val = _get(obj, f.name, path, dict)
            kwargs[f.name] = _build(sub_cls, val, f"{path}.{f.name}", shapes, sub)
        else:
            kwargs[f.name] = _get(obj, f.name, path, list if f.name in arrays else float)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecValidationError([f"{path}: malformed arrays ({exc})"]) from exc


def parse_problem(obj: dict, path: str = "problem") -> ProblemSpec:
    """Build and validate a ProblemSpec from a config sub-object."""
    spec = _build(ProblemSpec, obj, path)
    report = validate(spec)
    if not report.ok:
        raise SpecValidationError([f"{path}.{v}" for v in report.violations])
    return spec


def parse_policy(obj: dict, path: str = "policy", horizon: float = None) -> ControlPolicy:
    """Accepts {"constant": [...]} (horizon taken from the problem) or
    {"segments": [{t_start, t_end, gamma0, gamma1, gamma2}, ...]}."""
    constant, segmented = POLICY_FORMS
    if "constant" in obj:
        _check_keys(obj, constant, path)
        value = _get(obj, "constant", path, list)
        h = _get(obj, "horizon", path, float, required=False, default=horizon)
        if h is None:
            raise SpecValidationError(
                [f"{path}.horizon: required when no problem horizon is available"]
            )
        return ControlPolicy.constant(value, h)
    _check_keys(obj, segmented, path)
    seg_list = _get(obj, "segments", path, list)
    if not seg_list:
        raise SpecValidationError([f"{path}.segments: must be a non-empty list"])
    segments = []
    for i, seg in enumerate(seg_list):
        q = f"{path}.segments[{i}]"
        if not isinstance(seg, dict):
            raise SpecValidationError([f"{q}: expected object, got {json_type(seg)}"])
        segments.append(_build(ControlSegment, seg, q, _SEGMENT_ARRAYS))
    policy = ControlPolicy(segments)
    bad = policy.check(horizon=horizon, path=path)
    if bad:
        raise SpecValidationError(bad)
    return policy


def parse_portfolio_params(obj: dict, path: str = "params") -> PortfolioParams:
    """Build PortfolioParams from an object whose keys are its field names."""
    return _build(PortfolioParams, obj, path)
