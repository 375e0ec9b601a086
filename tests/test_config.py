import json
from pathlib import Path

import numpy as np
import pytest

from meantau.config import (
    load_config,
    parse_policy,
    parse_portfolio_params,
    parse_problem,
)
from meantau.errors import SpecValidationError

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(SpecValidationError, match="file not found"):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    with pytest.raises(SpecValidationError, match="invalid JSON"):
        load_config(str(path))


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(SpecValidationError, match="top level"):
        load_config(str(path))


def test_parse_problem_from_example_file():
    cfg = load_config(str(EXAMPLES / "scalar.json"))
    spec = parse_problem(cfg["problem"])
    assert spec.horizon == 6.0
    np.testing.assert_allclose(spec.dynamics.A, [[0.5]])
    np.testing.assert_allclose(spec.target.E2, [-1.0])
    np.testing.assert_allclose(spec.control_set.upper, [1.5])
    assert spec.cost.is_time_optimal


def test_parse_problem_missing_section_uses_dotted_paths():
    with pytest.raises(SpecValidationError, match="problem.dynamics"):
        parse_problem({})


def test_parse_problem_prefixes_validation_violations():
    cfg = load_config(str(EXAMPLES / "scalar.json"))
    obj = json.loads(json.dumps(cfg["problem"]))
    obj["control_set"] = {"lower": [2.0], "upper": [1.5]}
    with pytest.raises(SpecValidationError, match="problem.control_set"):
        parse_problem(obj)


def test_parse_problem_flags_wrong_types():
    cfg = load_config(str(EXAMPLES / "scalar.json"))
    obj = json.loads(json.dumps(cfg["problem"]))
    obj["horizon"] = "six"
    with pytest.raises(SpecValidationError, match="problem.horizon: expected number, got string"):
        parse_problem(obj)
    obj["horizon"], obj["dynamics"] = 6.0, 3
    with pytest.raises(SpecValidationError, match="problem.dynamics: expected object, got number"):
        parse_problem(obj)


def test_parse_policy_constant_needs_some_horizon():
    with pytest.raises(SpecValidationError, match="policy.horizon"):
        parse_policy({"constant": [0.5]})
    policy = parse_policy({"constant": [0.5]}, horizon=6.0)
    assert policy.horizon == 6.0
    assert float(policy.value(1.0)[0]) == 0.5
    explicit = parse_policy({"constant": [0.5], "horizon": 2.0})
    assert explicit.horizon == 2.0


def test_parse_policy_segment_forms():
    policy = parse_policy(
        {
            "segments": [
                {"t_start": 0.0, "t_end": 1.0, "gamma0": [0.2]},
                {
                    "t_start": 1.0,
                    "t_end": 3.0,
                    "gamma0": [0.0],
                    "gamma1": [2.0],
                    "gamma2": [-0.5],
                },
            ]
        },
        horizon=3.0,
    )
    assert float(policy.value(0.5)[0]) == 0.2
    assert float(policy.value(2.0)[0]) == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)


def test_parse_problem_defaults_kappa_to_zero():
    cfg = load_config(str(EXAMPLES / "scalar.json"))
    del cfg["problem"]["cost"]["kappa"]
    assert parse_problem(cfg["problem"]).cost.kappa == 0.0


def test_parse_policy_takes_gamma1_and_gamma2_together():
    seg = {"t_start": 0.0, "t_end": 1.0, "gamma0": [0.2], "gamma1": [1.0]}
    with pytest.raises(SpecValidationError, match=r"policy\.segments\[0\]: .*gamma1 and gamma2"):
        parse_policy({"segments": [seg]}, horizon=1.0)


def test_parse_policy_rejects_gaps():
    with pytest.raises(SpecValidationError, match="gap or overlap"):
        parse_policy(
            {
                "segments": [
                    {"t_start": 0.0, "t_end": 1.0, "gamma0": [0.2]},
                    {"t_start": 2.0, "t_end": 3.0, "gamma0": [0.4]},
                ]
            },
            horizon=3.0,
        )


def test_parse_policy_rejects_wrong_value_type():
    with pytest.raises(SpecValidationError, match="policy.constant: expected array, got number"):
        parse_policy({"constant": 0.5}, horizon=1.0)
    with pytest.raises(SpecValidationError, match="policy.horizon: expected number, got boolean"):
        parse_policy({"constant": [0.5], "horizon": True})
    not_an_object = r"policy.segments\[0\]: expected object, got null"
    with pytest.raises(SpecValidationError, match=not_an_object):
        parse_policy({"segments": [None]}, horizon=1.0)


def test_parse_portfolio_params_defaults_and_overrides():
    params = parse_portfolio_params({})
    assert params.rate == 0.05 and params.beta == 1.2
    params = parse_portfolio_params({"beta": 2.0, "horizon": 30})
    assert params.beta == 2.0 and params.horizon == 30.0


def test_parse_portfolio_params_unknown_field():
    with pytest.raises(SpecValidationError, match="params.gamma: unknown field"):
        parse_portfolio_params({"gamma": 1.0})


def test_parse_portfolio_params_type_error():
    with pytest.raises(SpecValidationError, match="params.rate"):
        parse_portfolio_params({"rate": "fast"})


def test_portfolio_example_file_round_trip():
    cfg = load_config(str(EXAMPLES / "portfolio.json"))
    params = parse_portfolio_params(cfg["params"])
    assert params.target_wealth == 10.0
