"""docs/config-schema.json against the parser: the same keys, and a valid schema."""

import json
from dataclasses import fields
from pathlib import Path

import jsonschema
import pytest

from meantau.config import POLICY_FORMS, TOP_LEVEL_KEYS
from meantau.portfolio import PortfolioParams
from meantau.problem import SECTIONS, ControlSegment, ProblemSpec

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "config-schema.json").read_text())
ARRAY_RANK = {"#/$defs/vector": 1, "#/$defs/matrix": 2, "#/$defs/tensor3": 3}


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
    ranks = {
        key: ARRAY_RANK[prop["$ref"]]
        for key, prop in node["properties"].items()
        if "$ref" in prop
    }
    assert ranks == {name: len(axes) for name, axes in shapes.items()}


def test_the_schema_is_draft_2020_12_and_the_shipped_configs_validate():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    validator = jsonschema.Draft202012Validator(SCHEMA)
    shipped = sorted((ROOT / "docs" / "examples").glob("*.json"))
    for path in shipped + [ROOT / "perfbench" / "configs" / "two_state.json"]:
        validator.validate(json.loads(path.read_text()))
