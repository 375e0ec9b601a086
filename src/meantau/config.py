"""JSON config parsing for the command-line interface.

Every value of a config has the type `docs/config-schema.json` gives it,
and a violation names the entry as jsonschema's `json_path` does
(`problem.control_set.lower[0]: expected number, got boolean`).  Objects
are closed (`<path>.<key>: unknown field`); any other value is read by
`_get` at its rank.  A number, rank 0, is finite and no boolean, though
Python's json reads NaN, Infinity, 1e999 and integers of any size; an
array of rank r holds entries of rank r - 1 in rows of equal length.
`_build` makes the problem, its sections (`problem.SECTIONS`, whose axes
give each array's rank), the policy segments and `params`; `validate`
makes the numeric cross-checks (shapes, symmetry, box order).
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, fields

from .errors import SpecValidationError
from .portfolio import PortfolioParams
from .problem import SECTIONS, ControlPolicy, ControlSegment, ProblemSpec, validate

__all__ = [
    "load_config", "read_section", "parse_problem", "parse_policy", "parse_portfolio_params"
]

# The top-level keys and how `read_section` reads each (see `_get`).
TOP_LEVEL_KEYS = {"problem": dict, "policy": dict, "direction": dict, "rhos": 1, "params": dict}
# The keys of the two forms of a policy, told apart by their first key.
POLICY_FORMS = (("constant",), ("segments",))
# The shape of each control list of a segment, as in `SECTIONS`.
SEGMENT_SHAPES = dict.fromkeys(("gamma0", "gamma1", "gamma2"), "k")


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


def read_section(cfg: dict, key: str):
    """The top-level value `key` of a loaded config, read as `TOP_LEVEL_KEYS` declares."""
    return _get(cfg, key, "", TOP_LEVEL_KEYS[key])


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


def _type_violations(val, rank: int, path: str) -> list:
    """One message per entry of `val` that is not of rank `rank`."""
    if rank == 0:
        if json_type(val) != "number":
            return [f"{path}: expected number, got {json_type(val)}"]
        # false for NaN, the infinities and integers too large for a float;
        # json.dumps spells a value as the config does: NaN, Infinity, -Infinity
        if not -sys.float_info.max <= val <= sys.float_info.max:
            return [f"{path}: expected a finite number, got {json.dumps(val)}"]
        return []
    if not isinstance(val, list):
        return [f"{path}: expected array, got {json_type(val)}"]
    return [m for i, v in enumerate(val) for m in _type_violations(v, rank - 1, f"{path}[{i}]")]


def _get(obj: dict, key: str, path: str, rank):
    """`obj[key]`, at `<path>.<key>`: an object (`rank` dict), the segment list
    (list), a number returned as a float (0) or an array of rank `rank`.

    At the top level (`path` empty) a missing key is a missing section.
    """
    where = f"{path}.{key}" if path else key
    if key not in obj:
        raise SpecValidationError([f"{where}: missing required {'field' if path else 'section'}"])
    val = obj[key]
    if rank in (dict, list):
        if not isinstance(val, rank):
            # rank() is the empty value of the expected type, which json_type names
            raise SpecValidationError(
                [f"{where}: expected {json_type(rank())}, got {json_type(val)}"]
            )
        return val
    bad = _type_violations(val, rank, where)
    rows = [] if bad else val
    for _ in range(rank - 1):  # the rows at each depth, in turn
        lengths = sorted({len(row) for row in rows})
        if len(lengths) > 1:
            bad = [f"{where}: rows of unequal length {lengths}"]
            break
        rows = [v for row in rows for v in row]
    if bad:
        raise SpecValidationError(bad)
    return val if rank else float(val)


def _build(cls, obj: dict, path: str, shapes=(), section: str = ""):
    """`cls` from the object at `path`, whose keys are the fields of `cls`.

    A field that `SECTIONS` lists under `section` is itself a section and
    is built the same way.  A field in `shapes` is an array of the rank of
    its shape and any other a number; a field without a default is
    required.  The constructor's own ValueError is `<path>: <message>`.
    """
    _check_keys(obj, [f.name for f in fields(cls)], path)
    kwargs = {}
    for f in fields(cls):
        if f.name not in obj and f.default is not MISSING:
            continue
        sub = f"{section}.{f.name}".lstrip(".")
        if sub in SECTIONS:
            sub_cls, sub_shapes = SECTIONS[sub]
            val = _get(obj, f.name, path, dict)
            kwargs[f.name] = _build(sub_cls, val, f"{path}.{f.name}", sub_shapes, sub)
        else:
            rank = len(shapes[f.name]) if f.name in shapes else 0
            kwargs[f.name] = _get(obj, f.name, path, rank)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SpecValidationError([f"{path}: {exc}"]) from exc


def parse_problem(obj: dict) -> ProblemSpec:
    """Build and validate a ProblemSpec from a config's `problem` object."""
    spec = _build(ProblemSpec, obj, "problem")
    violations = validate(spec)
    if violations:
        raise SpecValidationError([f"problem.{v}" for v in violations])
    return spec


def parse_policy(obj: dict, horizon: float, path: str = "policy") -> ControlPolicy:
    """The policy at `path` on [0, horizon], the problem's horizon.

    Accepts {"constant": [...]}, one segment that spans the horizon, or
    {"segments": [{t_start, t_end, gamma0, gamma1, gamma2}, ...]}, which
    must tile it.  Every control list of every segment has one length.
    """
    constant, segmented = POLICY_FORMS
    if "constant" in obj:
        _check_keys(obj, constant, path)
        value = _get(obj, "constant", path, len(SEGMENT_SHAPES["gamma0"]))
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
        segments.append(_build(ControlSegment, seg, q, SEGMENT_SHAPES))
        k, k0 = len(segments[-1].gamma0), len(segments[0].gamma0)
        if k != k0:
            raise SpecValidationError([f"{q}: control dimension {k} != {k0} of segments[0]"])
    policy = ControlPolicy(segments)
    bad = policy.check(horizon, path)
    if bad:
        raise SpecValidationError(bad)
    return policy


def parse_portfolio_params(obj: dict) -> PortfolioParams:
    """Build PortfolioParams from a config's `params` object, whose keys are its field names."""
    return _build(PortfolioParams, obj, "params")
