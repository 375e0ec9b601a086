"""docs/config-schema.json against the parser: the same keys and ranks, a valid
schema, a config the schema rejects exits 2 naming where, and one it accepts
exits 0, 3 or 4 without a traceback."""

import contextlib
import copy
import io
import json
import warnings
from dataclasses import fields
from functools import reduce
from operator import getitem
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meantau.cli import main
from meantau.config import POLICY_FORMS, SEGMENT_SHAPES, TOP_LEVEL_KEYS
from meantau.portfolio import PortfolioParams
from meantau.problem import SECTIONS, ControlSegment, ProblemSpec

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "config-schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)
ARRAY_RANK = {"#/$defs/vector": 1, "#/$defs/matrix": 2, "#/$defs/tensor3": 3}


def rank(prop):
    """The array rank of a schema property: a `$defs` array, or nested `items` of numbers."""
    if "$ref" in prop:
        return ARRAY_RANK[prop["$ref"]]
    return 1 + rank(prop["items"]) if prop.get("type") == "array" else 0


def closed_objects(node, path, out):
    """Map the path of every object with additionalProperties false to its property names."""
    if node.get("additionalProperties") is False:
        out[path] = set(node["properties"])
    for key, sub in node.get("properties", {}).items():
        closed_objects(sub, f"{path}.{key}".lstrip("."), out)
    for sub in node.get("oneOf", []):
        closed_objects(sub, f"{path}/{sub['required'][0]}", out)
    if isinstance(node.get("items"), dict):
        closed_objects(node["items"], f"{path}[]", out)
    return out


def names(cls):
    return {f.name for f in fields(cls)}


def test_every_closed_schema_object_accepts_exactly_the_parser_keys():
    schema = closed_objects(SCHEMA, "", {})
    closed_objects(SCHEMA["$defs"]["policy"], "policy", schema)
    parser = {
        "": set(TOP_LEVEL_KEYS),
        "problem": names(ProblemSpec),
        **{f"problem.{s}": names(cls) for s, (cls, _) in SECTIONS.items()},
        "params": names(PortfolioParams),
        "policy/constant": set(POLICY_FORMS[0]),
        "policy/segments": set(POLICY_FORMS[1]),
        "policy/segments.segments[]": names(ControlSegment),
    }
    assert schema == parser


@pytest.mark.parametrize("section", list(SECTIONS))
def test_the_schema_types_each_declared_array_with_its_rank(section):
    node = SCHEMA["properties"]["problem"]
    for part in section.split("."):
        node = node["properties"][part]
    _, shapes = SECTIONS[section]
    ranks = {key: rank(prop) for key, prop in node["properties"].items() if "$ref" in prop}
    assert ranks == {name: len(axes) for name, axes in shapes.items()}


def test_the_schema_types_the_segment_arrays_and_rhos_with_the_parser_rank():
    policy = SCHEMA["$defs"]["policy"]["oneOf"]
    constant = policy[0]["properties"]["constant"]
    segment = policy[1]["properties"]["segments"]["items"]["properties"]
    ranks = {key: rank(prop) for key, prop in segment.items() if "$ref" in prop}
    assert ranks == {name: len(axes) for name, axes in SEGMENT_SHAPES.items()}
    assert rank(constant) == len(SEGMENT_SHAPES["gamma0"])
    assert rank(SCHEMA["properties"]["rhos"]) == TOP_LEVEL_KEYS["rhos"]


def test_the_schema_is_draft_2020_12_and_the_shipped_configs_validate():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    shipped = sorted((ROOT / "docs" / "examples").glob("*.json"))
    for path in shipped + [ROOT / "perfbench" / "configs" / "two_state.json"]:
        VALIDATOR.validate(json.loads(path.read_text()))


# Each shipped config with a command that reads every section of it.
VERIFY = ["verify-variational", "--steps", "64", "--skip-state"]
MUTATED = [
    (ROOT / "docs" / "examples" / "scalar.json", VERIFY),
    (ROOT / "perfbench" / "configs" / "two_state.json", VERIFY),
    (ROOT / "docs" / "examples" / "portfolio.json", ["portfolio"]),
]
# One value of each JSON type, for a leaf that changes its type.
OF_TYPE = {"number": 1.0, "string": "a", "boolean": True, "null": None, "array": [], "object": {}}


def nodes(obj, at=()):
    """The key path of every value in a JSON document, itself included."""
    yield at
    if isinstance(obj, (dict, list)):
        for key, val in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from nodes(val, at + (key,))


@st.composite
def mutations(draw):
    """(cfg, argv): a shipped config with one value retyped, nested, dropped or given a key."""
    path, argv = draw(st.sampled_from(MUTATED))
    cfg = json.loads(path.read_text())
    at = draw(st.sampled_from(list(nodes(cfg))))
    node = reduce(getitem, at, cfg)
    parent = reduce(getitem, at[:-1], cfg) if at else None
    ops = ["extra"] if isinstance(node, dict) else []
    if at:
        ops += ["retype", "nest"] + (["drop"] if isinstance(parent, dict) else [])
    op = draw(st.sampled_from(ops))
    if op == "extra":
        node["extra"] = 1.0
    elif op == "drop":
        del parent[at[-1]]
    elif op == "nest":
        parent[at[-1]] = [node]
    else:
        checker = jsonschema.Draft202012Validator.TYPE_CHECKER
        kinds = [k for k in OF_TYPE if not checker.is_type(node, k)]
        parent[at[-1]] = copy.deepcopy(OF_TYPE[draw(st.sampled_from(kinds))])
    return cfg, argv


@settings(max_examples=200, deadline=None)
@given(mutations())
def test_a_value_the_schema_rejects_exits_2_naming_where(tmp_path_factory, case):
    cfg, argv = case
    errors = list(VALIDATOR.iter_errors(cfg))
    assume(errors)
    where = tuple(e.json_path.removeprefix("$").removeprefix(".") for e in errors)
    tmp = tmp_path_factory.mktemp("mutated")
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    out = tmp / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main(argv + ["--config", str(tmp / "cfg.json"), "--out", str(out)])
    assert code == 2
    (line,) = stderr.getvalue().splitlines()
    violations = json.loads(line)["violations"]
    assert violations and all(v.startswith(where) for v in violations), (violations, where)
    assert not out.exists()


# The problem configs, and each command at a size that keeps an example short.
PROBLEMS = [ROOT / "docs" / "examples" / "scalar.json", ROOT / "perfbench" / "configs" / "two_state.json"]
SMALL = [
    ["mean", "--steps", "64"],
    ["simulate", "--paths", "20", "--steps", "30"],
    ["check-smp", "--t-nodes", "32"],
    ["bangbang", "--nodes", "64"],
    ["verify-variational", "--steps", "64", "--paths", "8"],
]
SYMMETRIC = (("problem", "cost", "Lambda"), ("problem", "cost", "psi_quad"))


@st.composite
def perturbed(draw):
    """A problem config with every number moved, still valid by the schema.

    Each leaf gets an offset in [-1, 1], and each step size a factor in
    [0.1, 10]; then the symmetric weights are symmetrized, each pair of
    bounds is ordered and the horizon is kept positive.  Half the configs
    keep the shipped elapsed-time cost, which bangbang alone solves.
    """
    cfg = json.loads(draw(st.sampled_from(PROBLEMS)).read_text())
    keep_cost = draw(st.booleans())
    for at in list(nodes(cfg)):
        node = reduce(getitem, at, cfg)
        if isinstance(node, float) and not (keep_cost and at[:2] == ("problem", "cost")):
            parent = reduce(getitem, at[:-1], cfg)
            if at[0] == "rhos":
                parent[at[-1]] = node * 10.0 ** draw(st.floats(-1.0, 1.0))
            else:
                parent[at[-1]] = node + draw(st.floats(-1.0, 1.0))
    for at in SYMMETRIC:
        w = reduce(getitem, at[:-1], cfg)
        m = w[at[-1]]
        w[at[-1]] = [[(m[i][j] + m[j][i]) / 2 for j in range(len(m))] for i in range(len(m))]
    box = cfg["problem"]["control_set"]
    pairs = [sorted(pair) for pair in zip(box["lower"], box["upper"])]
    box["lower"], box["upper"] = [lo for lo, _ in pairs], [hi for _, hi in pairs]
    cfg["problem"]["horizon"] = max(cfg["problem"]["horizon"], 0.1)
    return cfg


@settings(max_examples=40, deadline=None)
@given(perturbed())
def test_a_config_the_schema_accepts_exits_0_3_or_4_with_one_line_diagnostics(
    tmp_path_factory, cfg
):
    VALIDATOR.validate(cfg)
    tmp = tmp_path_factory.mktemp("perturbed")
    (tmp / "cfg.json").write_text(json.dumps(cfg))
    for i, argv in enumerate(SMALL):
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = main(argv + ["--config", str(tmp / "cfg.json"), "--out", str(tmp / str(i))])
        # a warning would reach the CLI's stderr too
        assert not caught, (argv, [str(w.message) for w in caught])
        assert code in (0, 3, 4), (argv, code, stderr.getvalue())
        if code == 0:
            assert stderr.getvalue() == "", argv
        else:
            (line,) = stderr.getvalue().splitlines()
            assert {"error", "message"} <= set(json.loads(line)), argv
