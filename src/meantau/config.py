"""JSON config parsing for the command-line interface.

Configs are plain JSON objects, and every object of one is closed: a key
it does not declare is reported as `<path>.<key>: unknown field`.  The
problem, each of its sections (`problem.SECTIONS`), each policy segment
and the portfolio `params` are built by `_build`, whose keys are the
fields of the dataclass it builds.  Parsing reports every structural
problem with the dotted path of the offending field, then defers the
numeric cross-checks (shapes, symmetry, box order) to `validate`.
Every number they read must be a finite float: Python's json accepts NaN,
Infinity and -Infinity, reads 1e999 as inf and keeps an integer of any
size, and `_get` reports each such number with its dotted path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, fields

from .errors import SpecValidationError
from .portfolio import PortfolioParams
from .problem import SECTIONS, ControlPolicy, ControlSegment, ProblemSpec, validate

__all__ = ["load_config", "parse_problem", "parse_policy", "parse_portfolio_params"]

# The keys of the objects that no dataclass declares: the top level and
# the two forms of a policy, told apart by their first key.
TOP_LEVEL_KEYS = ("problem", "policy", "direction", "rhos", "params")
POLICY_FORMS = (("constant",), ("segments",))
_SEGMENT_ARRAYS = ("gamma0", "gamma1", "gamma2")


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise SpecValidationError([f"config: file not found: {path}"]) from exc
    except OSError as exc:
        raise SpecValidationError([f"config: cannot read {path}: {exc.strerror}"]) from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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


def _nonfinite(val, path: str):
    """(path, value) of each number outside the finite floats, in a number or a nested list.

    The comparison holds for no NaN or infinity, and for no integer too
    large to become a float.
    """
    if isinstance(val, list):
        return [bad for i, v in enumerate(val) for bad in _nonfinite(v, f"{path}[{i}]")]
    if isinstance(val, (int, float)) and not -sys.float_info.max <= val <= sys.float_info.max:
        return [(path, val)]
    return []


def _get(obj: dict, key: str, path: str, kind, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise SpecValidationError([f"{path}.{key}: missing required field"])
        return default
    val = obj[key]
    if not (isinstance(val, kind) or kind is float and json_type(val) == "number"):
        # kind() is the empty value of the expected type, which json_type names
        raise SpecValidationError(
            [f"{path}.{key}: expected {json_type(kind())}, got {json_type(val)}"]
        )
    bad = _nonfinite(val, f"{path}.{key}")
    if bad:
        # json.dumps spells a value as the config does: NaN, Infinity, -Infinity
        raise SpecValidationError(
            [f"{p}: expected a finite number, got {json.dumps(v)}" for p, v in bad]
        )
    return float(val) if kind is float else val


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


def _check_controls(val, path: str):
    """Report each entry of the control list `val` at `path` that is not a number.

    A control list is the schema's `vector`, a flat array of numbers, so a
    nested array is reported here too.  A `val` that is not a list is left
    for `_get` to report.
    """
    if isinstance(val, list):
        bad = [
            f"{path}[{i}]: expected number, got {json_type(v)}"
            for i, v in enumerate(val)
            if json_type(v) != "number"
        ]
        if bad:
            raise SpecValidationError(bad)


def parse_policy(obj: dict, horizon: float, path: str = "policy") -> ControlPolicy:
    """The policy at `path` on [0, horizon], the problem's horizon.

    Accepts {"constant": [...]}, one segment that spans the horizon, or
    {"segments": [{t_start, t_end, gamma0, gamma1, gamma2}, ...]}, which
    must tile it.  Every control list must be a flat array of numbers.
    """
    constant, segmented = POLICY_FORMS
    if "constant" in obj:
        _check_keys(obj, constant, path)
        value = _get(obj, "constant", path, list)
        _check_controls(value, f"{path}.constant")
        seg_list = [{"t_start": 0.0, "t_end": horizon, "gamma0": value}]
    else:
        _check_keys(obj, segmented, path)
        seg_list = _get(obj, "segments", path, list)
        if not seg_list:
            raise SpecValidationError([f"{path}.segments: must be a non-empty list"])
    segments = []
    for i, seg in enumerate(seg_list):
        q = f"{path}.segments[{i}]"
        if not isinstance(seg, dict):
            raise SpecValidationError([f"{q}: expected object, got {json_type(seg)}"])
        for key in _SEGMENT_ARRAYS:
            _check_controls(seg.get(key), f"{q}.{key}")
        segments.append(_build(ControlSegment, seg, q, _SEGMENT_ARRAYS))
    policy = ControlPolicy(segments)
    bad = policy.check(horizon, path)
    if bad:
        raise SpecValidationError(bad)
    return policy


def parse_portfolio_params(obj: dict, path: str = "params") -> PortfolioParams:
    """Build PortfolioParams from an object whose keys are its field names."""
    return _build(PortfolioParams, obj, path)
