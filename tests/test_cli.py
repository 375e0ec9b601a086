import filecmp
import inspect
import json
import os
from pathlib import Path

import pytest

from meantau import cli, errors, smp
from meantau.bangbang import minimum_time, synthesize
from meantau.cli import build_parser, main
from meantau.config import load_config, parse_portfolio_params, parse_problem
from meantau.portfolio import mc_validate, solve_tau
from meantau.problem import SECTIONS
from meantau.smp import check_candidate

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"
SCALAR = str(EXAMPLES / "scalar.json")
TWO_STATE = str(Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "two_state.json")


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def infeasible_cfg(tmp_path):
    return write_cfg(
        tmp_path,
        {
            "problem": {
                "dynamics": {
                    "A": [[0.1]],
                    "B": [[0.5]],
                    "C": [[[0.0]]],
                    "D": [[[0.0]]],
                    "x0": [1.0],
                },
                "target": {
                    "E1": [0.0],
                    "E2": [0.0],
                    "E3": [0.0],
                    "E4": [-0.001],
                    "y0": 50.0,
                },
                "cost": {
                    "kappa": 1.0,
                    "c_lin": [0.0],
                    "Lambda": [[0.0]],
                    "psi_lin": [0.0],
                    "psi_quad": [[0.0]],
                },
                "control_set": {"lower": [0.2], "upper": [1.5]},
                "horizon": 1.0,
            }
        },
    )


def tangent_cfg(tmp_path):
    # the mean target grazes zero with slope below the transversality floor
    return write_cfg(
        tmp_path,
        {
            "problem": {
                "dynamics": {
                    "A": [[-1.0]],
                    "B": [[0.0]],
                    "C": [[[0.0]]],
                    "D": [[[0.0]]],
                    "x0": [1.0],
                },
                "target": {
                    "E1": [0.0],
                    "E2": [-1.0],
                    "E3": [0.0],
                    "E4": [0.0],
                    "y0": 0.9999999943972036,
                },
                "cost": {
                    "kappa": 1.0,
                    "c_lin": [0.0],
                    "Lambda": [[0.0]],
                    "psi_lin": [0.0],
                    "psi_quad": [[0.0]],
                },
                "control_set": {"lower": [0.0], "upper": [1.0]},
                "horizon": 25.0,
            },
            "policy": {"constant": [0.5]},
        },
    )


def test_simulate_writes_ensemble_and_summary(tmp_path):
    out = str(tmp_path / "out")
    code = main(
        [
            "simulate", "--config", SCALAR, "--out", out,
            "--paths", "200", "--steps", "400", "--seed", "1", "--store-paths",
        ]
    )
    assert code == 0
    summary = read_summary(out)
    assert summary["command"] == "simulate"
    assert summary["case_label"] == "i"
    assert 0.0 < summary["tau"] < 6.0
    assert "cost" in summary and "cost_stderr" in summary
    with open(os.path.join(out, "ensemble.csv")) as fh:
        header = fh.readline().strip().split(",")
    assert header == ["t", "mean_x_0", "std_x_0", "mean_y"]


def test_mean_writes_trajectory(tmp_path):
    out = str(tmp_path / "out")
    assert main(["mean", "--config", SCALAR, "--out", out, "--steps", "512"]) == 0
    summary = read_summary(out)
    assert summary["command"] == "mean"
    assert summary["case_label"] == "i"
    with open(os.path.join(out, "mean.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "t,mean_x_0,mean_y"
    assert len(lines) == 514


def test_portfolio_defaults_without_config(tmp_path):
    out = str(tmp_path / "out")
    assert main(["portfolio", "--out", out]) == 0
    summary = read_summary(out)
    assert summary["command"] == "portfolio"
    assert abs(summary["tau"] - 10.922845913817808) < 1e-9
    assert summary["control_at_0"] == 12.5
    assert summary["params"]["beta"] == 1.2
    for name in ("portfolio.csv", "portfolio.svg"):
        assert os.path.exists(os.path.join(out, name))


def test_portfolio_reads_params_config(tmp_path):
    out = str(tmp_path / "out")
    cfg = str(EXAMPLES / "portfolio.json")
    assert main(["portfolio", "--config", cfg, "--out", out]) == 0
    assert abs(read_summary(out)["tau"] - 10.922845913817808) < 1e-9


def test_portfolio_mc_summary_block(tmp_path):
    out = str(tmp_path / "out")
    code = main(
        [
            "portfolio", "--out", out, "--mc",
            "--paths", "2000", "--dt", "0.0625", "--seed", "3",
        ]
    )
    assert code == 0
    mc = read_summary(out)["mc"]
    assert mc["n_paths"] == 2000
    assert mc["stderr"] > 0.0
    assert abs(mc["z_score"]) < 6.0


def test_portfolio_mc_summary_reports_the_vol_pair_stderrs(tmp_path):
    out = str(tmp_path / "out")
    code = main(
        [
            "portfolio", "--out", out, "--mc", "--paths", "500", "--dt", "0.0625",
            "--seed", "3", "--vol-pair", "0.2", "0.4",
        ]
    )
    assert code == 0
    mc = read_summary(out)["mc"]
    params = parse_portfolio_params({})
    report = mc_validate(
        params, solve_tau(params), n_paths=500, dt=0.0625, seed=3, vol_pair=(0.2, 0.4)
    )
    assert mc["vol_pair_stderrs"] == list(report.vol_pair_stderrs)
    assert all(se > 0.0 for se in mc["vol_pair_stderrs"])


def test_bangbang_writes_policy(tmp_path):
    out = str(tmp_path / "out")
    code = main(["bangbang", "--config", SCALAR, "--out", out, "--nodes", "512"])
    assert code == 0
    summary = read_summary(out)
    assert summary["case_label"] == "i"
    assert summary["n_switches"] == [1]
    with open(os.path.join(out, "policy.json")) as fh:
        payload = json.load(fh)
    assert payload["slope_at_tau"] < 0.0
    assert len(payload["policy"]["segments"]) >= 2
    # the answer is the certificate tau*; the gap is the RK4 hit's, left as it is
    spec = parse_problem(load_config(SCALAR)["problem"])
    result = synthesize(spec, n_nodes=512)
    for report in (summary, payload):
        assert report["tau"] == report["tau_certified"] == result.tau_certified
        assert report["tau_gap"] == result.tau_gap


def test_check_smp_reports_residual(tmp_path):
    out = str(tmp_path / "out")
    code = main(["check-smp", "--config", SCALAR, "--out", out, "--t-nodes", "128"])
    assert code == 0
    with open(os.path.join(out, "smp.json")) as fh:
        payload = json.load(fh)
    assert payload["case_label"] == "i"
    assert payload["n_time_nodes"] == 129
    # a flat interior control is not the vertex policy, so the check fails
    assert payload["max_residual"] > 0.0
    assert read_summary(out)["passed"] is False
    # the closed-form time adjoint agrees with backward RK4
    assert 0.0 <= payload["adjoint_gap"] < 1e-6


def test_verify_variational_tables(tmp_path):
    out = str(tmp_path / "out")
    code = main(
        [
            "verify-variational", "--config", SCALAR, "--out", out,
            "--steps", "4000", "--paths", "32", "--seed", "2",
        ]
    )
    assert code == 0
    with open(os.path.join(out, "variational.json")) as fh:
        payload = json.load(fh)
    assert payload["admissible"] is True
    assert payload["case_label"] == "i"
    assert len(payload["tau_table"]) == 3
    # smallest rho sits on the grid detection floor, so no monotonicity claim
    assert all(row["rel_gap"] < 1e-3 for row in payload["tau_table"])
    assert "dual_identity" in payload
    assert payload["dual_identity"]["rel_gap"] < 1e-4
    # one row per state coordinate of scalar.json
    assert [row["coord"] for row in payload["state_table"]] == [0]


def test_verify_variational_skip_state(tmp_path):
    out = str(tmp_path / "out")
    code = main(
        [
            "verify-variational", "--config", SCALAR, "--out", out,
            "--steps", "2000", "--skip-state",
        ]
    )
    assert code == 0
    with open(os.path.join(out, "variational.json")) as fh:
        payload = json.load(fh)
    assert "state_table" not in payload


@pytest.mark.parametrize(
    "argv, artifact",
    [
        (["mean"], "mean.csv"),
        (["simulate", "--paths", "50", "--steps", "100", "--store-paths"], "ensemble.csv"),
        (["check-smp", "--t-nodes", "64"], "smp.json"),
        (["verify-variational", "--steps", "400", "--paths", "8"], "variational.json"),
        (["bangbang", "--nodes", "128"], "policy.json"),
    ],
    ids=["mean", "simulate", "check-smp", "verify-variational", "bangbang"],
)
def test_a_config_without_noise_channels_runs(tmp_path, argv, artifact):
    with open(SCALAR) as fh:
        cfg = json.load(fh)
    cfg["problem"]["dynamics"]["C"] = []
    cfg["problem"]["dynamics"]["D"] = []
    del cfg["problem"]["target"]["diffusion"]
    out = tmp_path / "out"
    code = main(argv[:1] + ["--config", write_cfg(tmp_path, cfg), "--out", str(out)] + argv[1:])
    assert code == 0
    assert read_summary(out)["command"] == argv[0]
    assert (out / artifact).stat().st_size > 0


def test_exit_2_on_missing_config(tmp_path, capsys):
    code = main(["mean", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SpecValidationError"
    assert any("file not found" in v for v in err["violations"])


def test_exit_2_on_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert main(["mean", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert set(json.loads(capsys.readouterr().err)) == {"error", "message", "violations"}


@pytest.mark.parametrize(
    "kind, violation",
    [("directory", "config: cannot read "), ("latin-1", "config: invalid JSON (")],
    ids=["directory", "latin-1"],
)
def test_exit_2_when_the_config_cannot_be_read(tmp_path, capsys, kind, violation):
    cfg = tmp_path / "cfg"
    if kind == "directory":
        cfg.mkdir()
    else:
        cfg.write_bytes('{"params": {"beta": 1.2}, "é": 1}'.encode("latin-1"))
    out = tmp_path / "out"
    assert main(["portfolio", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert set(diag) == {"error", "message", "violations"}
    assert len(diag["violations"]) == 1 and diag["violations"][0].startswith(violation)
    assert not out.exists()


@pytest.mark.parametrize("command", ["mean", "portfolio"])
@pytest.mark.parametrize("under", [False, True], ids=["the-file", "under-the-file"])
def test_exit_2_when_out_names_an_existing_file(tmp_path, capsys, command, under):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken / "sub" if under else taken
    argv = [command, "--out", str(out)] + (["--config", SCALAR] if command == "mean" else [])
    assert "--out" in assert_exit_2_with_a_value_error(main(argv), capsys)
    assert taken.read_text() == "kept"


def test_exit_2_on_missing_sections(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"policy": {"constant": [0.5]}})
    assert main(["mean", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
    assert set(json.loads(capsys.readouterr().err)) == {"error", "message", "violations"}
    cfg = write_cfg(tmp_path, {"problem": {"horizon": 1.0}}, name="cfg2.json")
    assert main(["mean", "--config", cfg, "--out", str(tmp_path / "b")]) == 2
    assert set(json.loads(capsys.readouterr().err)) == {"error", "message", "violations"}


@pytest.mark.parametrize("per_axis", ["0", "1"])
def test_exit_2_when_check_smp_is_given_the_removed_sample_flag(tmp_path, capsys, per_axis):
    # the residual is maximized at a box vertex, so no sample size is asked for
    out = tmp_path / "out"
    code = main(["check-smp", "--config", SCALAR, "--out", str(out), "--u-samples", per_axis])
    message = assert_exit_2_with_a_value_error(code, capsys)
    assert message == f"meantau: unrecognized arguments: --u-samples {per_axis}"
    assert not out.exists()


@pytest.mark.parametrize(
    "config, samples", [(SCALAR, 101), (TWO_STATE, 101 ** 2)], ids=["scalar", "two_state"]
)
def test_check_smp_counts_a_lattice_of_101_points_per_axis(tmp_path, config, samples):
    # perfbench checks this count and multiplies it into smp.residual_entries
    out = str(tmp_path / "out")
    assert main(["check-smp", "--config", config, "--out", out, "--t-nodes", "64"]) == 0
    assert read_json(out, "smp.json")["n_control_samples"] == samples


def assert_exit_2_with_a_value_error(code, capsys):
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert set(diag) == {"error", "message"}
    assert diag["error"] == "ValueError"
    return diag["message"]


@pytest.mark.parametrize("paths", ["0", "1", "-3"])
def test_exit_2_when_the_state_table_has_fewer_than_two_paths(tmp_path, capsys, paths):
    out = tmp_path / "out"
    code = main(
        [
            "verify-variational", "--config", SCALAR, "--out", str(out),
            "--steps", "200", "--paths", paths,
        ]
    )
    assert "n_paths" in assert_exit_2_with_a_value_error(code, capsys)
    assert not (out / "variational.json").exists()


@pytest.mark.parametrize("rho", [0.0, -1e-3, float("nan")], ids=["zero", "negative", "nan"])
def test_exit_2_when_a_step_size_is_not_finite_and_positive(tmp_path, capsys, rho):
    with open(SCALAR) as fh:
        cfg = json.load(fh)
    cfg["rhos"] = [1e-2, rho]
    out = tmp_path / "out"
    code = main(["verify-variational", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert set(diag) == {"error", "message", "violations"}
    assert [v.split(":")[0] for v in diag["violations"]] == ["rhos[1]"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", SCALAR, "--steps", "100"],
        ["portfolio", "--mc", "--dt", "0.0625"],
    ],
    ids=["simulate", "portfolio"],
)
def test_exit_2_when_an_ensemble_has_a_negative_path_count(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out), "--paths", "-3"])
    assert "n_paths must be at least 2" in assert_exit_2_with_a_value_error(code, capsys)
    assert not out.exists()


@pytest.mark.parametrize("dt", ["0", "-1", "nan"])
def test_exit_2_when_the_monte_carlo_step_is_not_positive(tmp_path, capsys, dt):
    out = tmp_path / "out"
    code = main(["portfolio", "--out", str(out), "--mc", "--paths", "100", "--dt", dt])
    assert "dt" in assert_exit_2_with_a_value_error(code, capsys)
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--damping", "0"), ("--damping", "-0.5"), ("--damping", "1.5"), ("--max-iter", "0"),
     ("--max-iter", "5")],
)
def test_exit_2_when_the_synthesis_settings_are_out_of_range(tmp_path, capsys, flag, value):
    # neither is a flag: synthesis answers tau* in one pass, with no step and no budget
    out = tmp_path / "out"
    code = main(["bangbang", "--config", SCALAR, "--out", str(out), "--nodes", "128", flag, value])
    message = assert_exit_2_with_a_value_error(code, capsys)
    assert message == f"meantau: unrecognized arguments: {flag} {value}"
    assert not out.exists()


def test_exit_3_when_synthesis_is_infeasible(tmp_path, capsys):
    cfg = infeasible_cfg(tmp_path)
    code = main(["bangbang", "--config", cfg, "--out", str(tmp_path / "out"), "--nodes", "128"])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InfeasibleError"
    # the least mean target over the box, 50 - 0.0015, is reached at the horizon
    assert err["message"].endswith("its least value is 49.9985, at t = 1")


def test_exit_3_when_the_hit_pass_misses_the_certified_minimum_time(tmp_path, capsys):
    # E[Y] = y0 - sin t dips below zero between two nodes near pi / 2: the
    # certificate finds the dip, the RK4 hit pass does not.  The first hit
    # between nodes (ROADMAP item 13) turns this into exit 0, and this test
    # with it
    cfg = load_json(SCALAR)
    cfg["problem"]["dynamics"] = {"A": [[0.0, 1.0], [-1.0, 0.0]], "B": [[0.0], [1.0]],
                                  "C": [[[0.0, 0.0], [0.0, 0.0]]], "D": [[[0.0], [0.0]]],
                                  "x0": [1.0, 0.0]}
    cfg["problem"]["target"] = {"E1": [0.0, 0.0], "E2": [-1.0, 0.0], "E3": [0.0, 0.0],
                                "E4": [0.0], "y0": 1.0 - 1e-7}
    cfg["problem"]["cost"].update(c_lin=[0.0, 0.0], psi_lin=[0.0, 0.0],
                                  psi_quad=[[0.0, 0.0], [0.0, 0.0]])
    cfg["problem"]["control_set"] = {"lower": [0.0], "upper": [0.0]}
    out = tmp_path / "out"
    assert main(["bangbang", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "NumericalConsistencyError",
        "message": "the hit pass reads no hit before the horizon, 4.43 after the "
                   "certified minimum time 1.570349113196: it reads case ii at tau = 6",
    }
    assert not out.exists()


def test_bangbang_reaches_a_target_that_no_constant_policy_reaches(tmp_path):
    # a constant scan of the box (midpoint, lower, upper) never hits here
    cfg = load_json(SCALAR)
    cfg["problem"]["horizon"] = 2
    cfg["problem"]["target"]["diffusion"]["coef_state"] = [[0.0]]
    cfg["problem"]["target"]["y0"] = 6.3215
    out = str(tmp_path / "out")
    assert main(["bangbang", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    summary = read_summary(out)
    assert "iterations" not in summary
    assert abs(summary["tau"] - 1.9894017763440415) < 1e-12
    assert summary["tau_certified"] == summary["tau"]


def overflow_cfg(tmp_path):
    # x0 = 1e300 with drift rate 1e10: the state leaves the float range at step 1
    cfg = json.loads(Path(SCALAR).read_text())
    cfg["problem"]["dynamics"].update(A=[[1e10]], x0=[1e300])
    return write_cfg(tmp_path, cfg)


def test_exit_3_when_simulated_paths_overflow(tmp_path, capsys):
    path = overflow_cfg(tmp_path)
    code = main(
        [
            "simulate", "--config", path, "--out", str(tmp_path / "out"),
            "--paths", "10", "--steps", "10",
        ]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message", "step", "path"}
    assert err["error"] == "DivergenceError"
    assert (err["step"], err["path"]) == (1, 0)


def test_exit_3_when_the_mean_solve_overflows(tmp_path, capsys):
    code = main(["mean", "--config", overflow_cfg(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message", "step", "path"}
    assert err["error"] == "DivergenceError"
    assert (err["step"], err["path"]) == (1, None)
    assert "mean solve" in err["message"]
    assert not (tmp_path / "out" / "mean.csv").exists()


def test_exit_4_when_the_hit_is_not_transversal(tmp_path, capsys):
    cfg = tangent_cfg(tmp_path)
    code = main(
        ["check-smp", "--config", cfg, "--out", str(tmp_path / "out"), "--t-nodes", "256"]
    )
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message"}
    assert err["error"] == "AssumptionViolationError"


def test_exit_4_when_the_switching_function_vanishes(tmp_path, capsys):
    # B = 0 and E4 = 0 make Khat identically zero: a singular arc
    cfg = json.loads(Path(SCALAR).read_text())
    cfg["problem"]["dynamics"]["B"] = [[0.0]]
    cfg["problem"]["target"]["E4"] = [0.0]
    code = main(["bangbang", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message", "component"}
    assert err["error"] == "SingularArcError"
    assert err["component"] == 0


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("bangbang", "Lambda", [[1.0]]),
        ("bangbang", "c_lin", [5.0]),
        ("bangbang", "psi_lin", [3.0]),
        ("bangbang", "psi_quad", [[0.5]]),
        ("bangbang", "kappa", -1.0),
        ("check-smp", "psi_quad", [[0.5]]),
    ],
    ids=["bangbang-Lambda", "bangbang-c_lin", "bangbang-psi_lin", "bangbang-psi_quad",
         "bangbang-negative-kappa", "check-smp-psi_quad"],
)
def test_exit_4_naming_a_cost_field_outside_the_regime_of_the_command(tmp_path, capsys, command,
                                                                      key, value):
    # bangbang solves only kappa * tau with kappa >= 0; check-smp has no
    # second moments for a quadratic terminal cost
    cfg = load_json(SCALAR)
    cfg["problem"]["cost"][key] = value
    out = tmp_path / "out"
    assert main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    diag = json.loads(err)
    assert set(diag) == {"error", "message"}
    assert diag["error"] == "RegimeError"
    assert f"problem.cost.{key}:" in diag["message"]
    assert not out.exists()


def test_check_smp_refuses_a_quadratic_terminal_cost_before_solving(tmp_path, capsys,
                                                                   monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("solved before refusing psi_quad")

    monkeypatch.setattr(smp, "solve_mean_path", never)
    monkeypatch.setattr(smp, "solve_time_adjoint", never)
    monkeypatch.setattr(smp, "solve_cost_adjoint", never)
    cfg = load_json(SCALAR)
    cfg["problem"]["cost"]["psi_quad"] = [[0.5]]
    out = tmp_path / "out"
    assert main(["check-smp", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "RegimeError"
    assert not out.exists()


def test_version_and_unknown_command_exit_via_argparse(capsys):
    for argv in (["--version"], ["--help"], ["check-smp", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "meantau" in capsys.readouterr().out
    message = assert_exit_2_with_a_value_error(main(["frobnicate"]), capsys)
    assert message.startswith("meantau: argument command: invalid choice: 'frobnicate'")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mean", "--config", SCALAR, "--bogus"], "meantau: unrecognized arguments: --bogus"),
        (["mean", "--config", SCALAR, "--steps", "abc"],
         "meantau mean: argument --steps: invalid int value: 'abc'"),
        (["mean"], "meantau mean: the following arguments are required: --config"),
        ([], "meantau: the following arguments are required: command"),
    ],
    ids=["unknown-flag", "bad-int", "no-config", "no-command"],
)
def test_an_argument_error_is_one_json_line_and_no_usage(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out)] if argv else [])  # no command, so no --out
    assert assert_exit_2_with_a_value_error(code, capsys) == message
    assert not out.exists()


def test_each_cli_default_is_the_library_default_it_feeds():
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    parser = build_parser()
    bb = parser.parse_args(["bangbang", "--config", SCALAR])
    assert bb.nodes == default(synthesize, "n_nodes") == default(minimum_time, "n_nodes") == 4096
    check = parser.parse_args(["check-smp", "--config", SCALAR])
    assert check.t_nodes == default(check_candidate, "t_grid_size") == 2048
    assert check.tol == default(check_candidate, "tol") == 1e-8
    pf = parser.parse_args(["portfolio"])
    assert pf.paths == default(mc_validate, "n_paths") == 200_000
    assert pf.dt == default(mc_validate, "dt") == 1.0 / 256.0
    assert pf.seed == default(mc_validate, "seed") == 42


def assert_dirs_byte_identical(a, b):
    names_a = sorted(os.listdir(a))
    names_b = sorted(os.listdir(b))
    assert names_a == names_b
    match, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    assert mismatch == [] and errors == []


def test_thread_flag_never_changes_bytes(tmp_path):
    # the last two draw at least 8192 normals a step, so --threads 7 draws
    # them on a worker thread and --threads 1 in the loop
    commands = {
        "sim": [
            "simulate", "--config", SCALAR, "--paths", "150", "--steps", "300", "--seed", "9",
            "--store-paths",
        ],
        "pf": ["portfolio"],
        "sim_large": ["simulate", "--config", SCALAR, "--paths", "8192", "--steps", "40"],
        "pf_large": [
            "portfolio", "--mc", "--paths", "8192", "--dt", "0.0625", "--vol-pair", "0.2", "0.4",
        ],
    }
    for name, argv in commands.items():
        for threads, tag in (("1", "a"), ("7", "b")):
            out = str(tmp_path / f"{name}_{tag}")
            assert main(argv + ["--out", out, "--threads", threads]) == 0
        assert_dirs_byte_identical(str(tmp_path / f"{name}_a"), str(tmp_path / f"{name}_b"))


@pytest.mark.parametrize("config", ["scalar.json", "two_state.json"])
def test_the_store_paths_flag_changes_no_byte(tmp_path, config):
    # the flag is still accepted; simulate stores no path with or without it
    path = SCALAR if config == "scalar.json" else str(
        Path(__file__).resolve().parents[1] / "perfbench" / "configs" / config
    )
    argv = ["simulate", "--config", path, "--paths", "300", "--steps", "200", "--seed", "2"]
    for tag, flag in (("plain", []), ("stored", ["--store-paths"])):
        assert main(argv + flag + ["--out", str(tmp_path / tag)]) == 0
    assert_dirs_byte_identical(str(tmp_path / "plain"), str(tmp_path / "stored"))


def test_simulate_writes_the_cost_above_ten_thousand_paths(tmp_path):
    # the objective is folded into the time loop, so no path count leaves it out
    out = tmp_path / "out"
    argv = ["simulate", "--config", SCALAR, "--out", str(out), "--paths", "10001", "--steps", "8"]
    assert main(argv) == 0
    summary = read_summary(out)
    assert summary["n_paths"] == 10001
    assert summary["cost"] > 0.0 and summary["cost_stderr"] >= 0.0


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_exit_2_when_the_thread_count_is_below_one(tmp_path, capsys, threads):
    out = tmp_path / "out"
    code = main(["mean", "--config", SCALAR, "--out", str(out), "--threads", threads])
    assert "--threads" in assert_exit_2_with_a_value_error(code, capsys)
    assert not out.exists()


def test_main_builds_one_parser_and_reads_the_cpu_count_per_command(tmp_path, monkeypatch):
    built, seen = [], []
    original = cli.simulate_ensemble

    def ensemble(*args, threads):
        seen.append(threads)
        return original(*args, threads=threads)

    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.setattr(cli, "simulate_ensemble", ensemble)
    cli._parser.cache_clear()
    argv = ["simulate", "--config", SCALAR, "--paths", "10", "--steps", "10"]
    for cpus in (5, 1):
        monkeypatch.setattr(cli, "_available_cpus", lambda: cpus)
        assert main(argv + ["--out", str(tmp_path / str(cpus))]) == 0
    cli._parser.cache_clear()
    assert built == [1]
    assert seen == [5, 1]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", SCALAR, "--paths", "10", "--steps", "10"],
        ["portfolio", "--mc", "--paths", "10", "--dt", "0.0625"],
        ["verify-variational", "--config", SCALAR, "--steps", "200", "--paths", "8"],
    ],
    ids=["simulate", "portfolio", "verify-variational"],
)
def test_exit_2_when_the_seed_is_negative(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code = main(argv + ["--out", str(out), "--seed", "-1"])
    assert "--seed" in assert_exit_2_with_a_value_error(code, capsys)
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_exit_2_when_the_smp_tolerance_is_not_finite_and_nonnegative(tmp_path, capsys, tol):
    out = tmp_path / "out"
    code = main(["check-smp", "--config", SCALAR, "--out", str(out), "--t-nodes", "64",
                 "--tol", tol])
    assert "tol" in assert_exit_2_with_a_value_error(code, capsys)
    assert not (out / "smp.json").exists()


@pytest.mark.parametrize("pair, index", [(["0", "0.4"], 0), (["inf", "0.4"], 0),
                                         (["0.2", "-1"], 1)])
def test_exit_2_when_a_vol_pair_entry_is_not_finite_and_positive(tmp_path, capsys, pair, index):
    out = tmp_path / "out"
    code = main(["portfolio", "--out", str(out), "--mc", "--paths", "100", "--dt", "0.0625",
                 "--vol-pair", *pair])
    assert f"vol_pair[{index}]" in assert_exit_2_with_a_value_error(code, capsys)
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("section", ["policy", "direction"])
def test_exit_2_when_a_policy_section_is_not_an_object(tmp_path, capsys, section):
    with open(SCALAR) as fh:
        cfg = json.load(fh)
    cfg[section] = 5
    out = tmp_path / "out"
    code = main(["verify-variational", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    diag = json.loads(capsys.readouterr().err)
    assert diag["violations"] == [f"{section}: expected object, got number"]


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def assert_exit_2_naming(code, capsys, violations, out):
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["violations"] == violations
    assert not out.exists()


@pytest.mark.parametrize(
    "level",
    [
        "", "problem", "problem.dynamics", "problem.target", "problem.target.diffusion",
        "problem.cost", "problem.control_set", "policy", "policy.segments[0]",
    ],
)
def test_exit_2_naming_an_unknown_key_at_each_level(tmp_path, capsys, level):
    cfg = load_json(SCALAR)
    cfg["policy"] = {"segments": [{"t_start": 0.0, "t_end": 6.0, "gamma0": [0.8]}]}
    obj = cfg
    for part in filter(None, level.replace("[0]", ".0").split(".")):
        obj = obj[int(part) if part.isdigit() else part]
    obj["extra"] = 1.0
    out = tmp_path / "out"
    code = main(["check-smp", "--config", write_cfg(tmp_path, cfg), "--out", str(out),
                 "--t-nodes", "64"])
    assert_exit_2_naming(code, capsys, [f"{level}.extra: unknown field".lstrip(".")], out)


def test_exit_2_naming_an_unknown_portfolio_param(tmp_path, capsys):
    cfg = load_json(EXAMPLES / "portfolio.json")
    cfg["params"]["extra"] = 1.0
    out = tmp_path / "out"
    code = main(["portfolio", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert_exit_2_naming(code, capsys, ["params.extra: unknown field"], out)


def test_exit_2_when_a_portfolio_config_has_no_params_section(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["portfolio", "--config", str(SCALAR), "--out", str(out)])
    assert_exit_2_naming(code, capsys, ["params: missing required section"], out)


def test_exit_2_when_check_smp_reads_a_misspelled_cost_key(tmp_path, capsys):
    cfg = load_json(SCALAR)
    cfg["problem"]["cost"]["kapa"] = cfg["problem"]["cost"].pop("kappa")
    out = tmp_path / "out"
    code = main(["check-smp", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert_exit_2_naming(code, capsys, ["problem.cost.kapa: unknown field"], out)


@pytest.mark.parametrize(
    "section, key",
    [
        ("dynamics", "A"), ("target", "E2"), ("target.diffusion", "coef_state"),
        ("cost", "Lambda"), ("control_set", "lower"),
    ],
)
def test_exit_2_naming_the_section_of_a_ragged_array(tmp_path, capsys, section, key):
    # a matrix field names its unequal rows, a vector field each entry that is no number
    cfg = load_json(SCALAR)
    obj = cfg["problem"]
    for part in section.split("."):
        obj = obj[part]
    obj[key] = [[0.0], [1.0, 2.0]]
    out = tmp_path / "out"
    code = main(["check-smp", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    field = f"problem.{section}.{key}"
    if len(SECTIONS[section][1][key]) == 2:
        violations = [f"{field}: rows of unequal length [1, 2]"]
    else:
        violations = [f"{field}[{i}]: expected number, got array" for i in (0, 1)]
    assert_exit_2_naming(code, capsys, violations, out)


@pytest.mark.parametrize(
    "command, flag",
    [
        ("mean", "--steps"), ("simulate", "--steps"), ("verify-variational", "--steps"),
        ("bangbang", "--nodes"), ("check-smp", "--t-nodes"),
    ],
)
def test_exit_2_naming_a_grid_size_flag_below_one(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    code = main([command, "--config", SCALAR, "--out", str(out), flag, "0"])
    assert flag in assert_exit_2_with_a_value_error(code, capsys)
    assert not out.exists()


def test_exit_2_when_the_host_cannot_allocate_the_grid(tmp_path, capsys, monkeypatch):
    # the solve raises as numpy does on an allocation the host refuses
    def refuse(spec, policy, grid):
        raise MemoryError(f"Unable to allocate the {grid.n_steps + 1} nodes")

    monkeypatch.setattr("meantau.cli.solve_mean_path", refuse)
    out = tmp_path / "out"
    code = main(["mean", "--config", SCALAR, "--out", str(out), "--steps", "100000000000"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "MemoryError", "message": "Unable to allocate the 100000000001 nodes",
    }
    assert not out.exists()


def subnormal_horizon_cfg(tmp_path):
    # the schema allows any positive horizon; on this one dt is subnormal and 1 / dt overflows
    cfg = json.loads(Path(SCALAR).read_text())
    cfg["problem"]["horizon"] = 1e-310
    return write_cfg(tmp_path, cfg)


def test_check_smp_on_a_subnormal_horizon_checks_the_cap(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["check-smp", "--config", subnormal_horizon_cfg(tmp_path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = read_summary(out)
    assert (summary["tau"], summary["case_label"], summary["passed"]) == (1e-310, "ii", True)


def test_verify_variational_on_a_subnormal_horizon_gives_nan_for_a_zero_scale(tmp_path, capsys):
    # m4 - var^2 underflows to 0 while var > 0: var_z is NaN, with no warning
    out = tmp_path / "out"
    argv = ["verify-variational", "--config", subnormal_horizon_cfg(tmp_path), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    (row,) = read_json(out, "variational.json")["state_table"]
    assert row["var"] > 0.0 and row["var_z"] == "nan"


def read_json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def test_artifacts_hold_exactly_the_report_fields(tmp_path):
    out = str(tmp_path / "smp")
    assert main(["check-smp", "--config", SCALAR, "--out", out, "--t-nodes", "64"]) == 0
    smp = read_json(out, "smp.json")
    assert set(smp) == {
        "tau", "case_label", "tol", "max_residual", "witness_t", "witness_u", "passed",
        "terminal_weight", "slope_at_tau", "n_time_nodes", "n_control_samples", "variants",
        "adjoint_gap",
    }
    assert set(smp["variants"]) == {"full"}
    for variant in smp["variants"].values():
        assert set(variant) == {"max_residual", "witness_t", "witness_u"}

    out = str(tmp_path / "var")
    assert main(["verify-variational", "--config", SCALAR, "--out", out, "--steps", "400",
                 "--paths", "8"]) == 0
    var = read_json(out, "variational.json")
    assert all(set(r) == {"rho", "quotient", "abs_gap", "rel_gap"} for r in var["tau_table"])
    assert [set(r) for r in var["state_table"]] == [
        {"coord", "mean", "mean_exact", "mean_z", "var", "var_exact", "var_z"}
    ]
    assert set(var["dual_identity"]) == {
        "response_integral", "adjoint_integral", "abs_gap", "rel_gap",
    }

    mc_keys = {"n_paths", "dt", "seed", "mean_terminal", "stderr", "z_score"}
    pair_keys = {"vol_pair", "vol_pair_means", "vol_pair_stderrs", "vol_pair_gap"}
    for name, extra, keys in (("pf", [], mc_keys), ("pair", ["--vol-pair", "0.2", "0.4"],
                                                    mc_keys | pair_keys)):
        out = str(tmp_path / name)
        assert main(["portfolio", "--out", out, "--mc", "--paths", "100", "--dt", "0.0625"]
                    + extra) == 0
        summary = read_summary(out)
        assert set(summary["params"]) == {
            "rate", "growth", "vol", "target_wealth", "initial_wealth", "beta", "horizon",
        }
        assert set(summary["mc"]) == keys

    out = str(tmp_path / "bb")
    assert main(["bangbang", "--config", SCALAR, "--out", out, "--nodes", "128"]) == 0
    assert set(read_json(out, "policy.json")) == {
        "tau", "tau_certified", "tau_gap", "case_label", "slope_at_tau", "switch_times",
        "policy",
    }
    assert set(read_summary(out)) == {
        "command", "outputs", "tau", "tau_certified", "tau_gap", "case_label", "n_switches",
    }
    for segment in read_json(out, "policy.json")["policy"]["segments"]:
        assert set(segment) == {"t_start", "t_end", "gamma0", "gamma1", "gamma2"}


def test_check_smp_at_the_level_writes_an_empty_witness(tmp_path):
    with open(SCALAR) as fh:
        cfg = json.load(fh)
    cfg["problem"]["target"]["y0"] = 0.0
    out = str(tmp_path / "out")
    assert main(["check-smp", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    smp = read_json(out, "smp.json")
    assert smp["tau"] == 0.0
    assert smp["witness_u"] == []
    assert smp["variants"] == {}


@pytest.mark.parametrize("y0", [0.0, -1.0])
def test_bangbang_at_or_below_the_level_writes_a_policy_that_check_smp_passes(tmp_path, y0):
    # tau = 0, as mean, simulate and check-smp report for the same config
    cfg = load_json(SCALAR)
    cfg["problem"]["target"]["y0"] = y0
    out = str(tmp_path / "bb")
    assert main(["bangbang", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    summary = read_summary(out)
    keys = ("tau", "tau_certified", "tau_gap", "case_label", "n_switches")
    assert {k: summary[k] for k in keys} == {
        "tau": 0.0, "tau_certified": 0.0, "tau_gap": 0.0, "case_label": "i", "n_switches": [0],
    }
    cfg["policy"] = read_json(out, "policy.json")["policy"]
    out = str(tmp_path / "smp")
    assert main(["check-smp", "--config", write_cfg(tmp_path, cfg, "policy-cfg.json"),
                 "--out", out]) == 0
    assert read_summary(out)["passed"] is True


@pytest.mark.parametrize("config", [SCALAR, TWO_STATE], ids=["scalar", "two_state"])
def test_check_smp_passes_the_policy_bangbang_writes(tmp_path, config):
    # bangbang answers tau*, whose switches sit off the RK4 hit map's fixed
    # point by its hit error; the first-order check still passes them
    out = str(tmp_path / "bb")
    assert main(["bangbang", "--config", config, "--out", out]) == 0
    cfg = load_json(config)
    cfg["policy"] = read_json(out, "policy.json")["policy"]
    out = str(tmp_path / "smp")
    assert main(["check-smp", "--config", write_cfg(tmp_path, cfg), "--out", out]) == 0
    summary = read_summary(out)
    assert summary["case_label"] == "i"
    assert summary["passed"] is True


SEGMENTED = {"segments": [{"t_start": 0.0, "t_end": 6.0, "gamma0": [0.8]}]}


@pytest.mark.parametrize(
    "command, config, keys, literal, violation",
    [
        # a scalar field, an array entry, a policy segment entry, a portfolio param
        ("check-smp", SCALAR, ["problem", "cost", "kappa"], "NaN",
         "problem.cost.kappa: expected a finite number, got NaN"),
        ("mean", SCALAR, ["problem", "dynamics", "A", 0, 0], "NaN",
         "problem.dynamics.A[0][0]: expected a finite number, got NaN"),
        ("simulate", SCALAR, ["policy", "segments", 0, "gamma0", 0], "-Infinity",
         "policy.segments[0].gamma0[0]: expected a finite number, got -Infinity"),
        ("portfolio", str(EXAMPLES / "portfolio.json"), ["params", "beta"], "Infinity",
         "params.beta: expected a finite number, got Infinity"),
        # json reads a number past the float range as inf
        ("verify-variational", SCALAR, ["problem", "horizon"], "1e999",
         "problem.horizon: expected a finite number, got Infinity"),
        # and an integer that no float can hold
        ("mean", SCALAR, ["problem", "dynamics", "x0", 0], "1" + "0" * 400,
         "problem.dynamics.x0[0]: expected a finite number, got 1" + "0" * 400),
    ],
    ids=["scalar-field", "array-entry", "policy-segment-entry", "portfolio-param", "1e999",
         "huge-integer"],
)
def test_exit_2_naming_a_non_finite_number(tmp_path, capsys, command, config, keys, literal,
                                           violation):
    cfg = load_json(config)
    if "policy" in cfg:
        cfg["policy"] = SEGMENTED
    obj = cfg
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = "NONFINITE"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg).replace('"NONFINITE"', literal))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert_exit_2_naming(code, capsys, [violation], out)


@pytest.mark.parametrize("command", ["mean", "simulate", "check-smp", "verify-variational"])
@pytest.mark.parametrize(
    "config, k, value",
    [(SCALAR, 1, [0.8, 0.8]), (TWO_STATE, 2, [0.8])],
    ids=["scalar", "two_state"],
)
def test_exit_2_naming_a_policy_of_the_wrong_control_dimension(tmp_path, capsys, command,
                                                               config, k, value):
    cfg = load_json(config)
    cfg["policy"] = {"constant": value}
    out = tmp_path / "out"
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert_exit_2_naming(code, capsys, [f"policy: control dimension {len(value)} != k={k}"], out)


@pytest.mark.parametrize(
    "command, sizes",
    [
        ("mean", ["--steps", "64"]),
        ("simulate", ["--steps", "64", "--paths", "8"]),
        ("check-smp", ["--t-nodes", "64"]),
        ("verify-variational", ["--steps", "64", "--skip-state"]),
    ],
    ids=["mean", "simulate", "check-smp", "verify-variational"],
)
def test_a_direction_of_the_wrong_control_dimension_exits_2_where_it_is_read(
    tmp_path, capsys, command, sizes
):
    # only verify-variational reads the direction; the other commands ignore the section
    cfg = load_json(SCALAR)
    cfg["direction"] = {"constant": [0.1, 0.1]}
    out = tmp_path / "out"
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(out)] + sizes)
    if command == "verify-variational":
        assert_exit_2_naming(code, capsys, ["direction: control dimension 2 != k=1"], out)
    else:
        assert code == 0
        assert read_summary(out)["command"] == command


def segment(**gammas):
    return {"segments": [{"t_start": 0.0, "t_end": 6.0, "gamma0": [0.8], **gammas}]}


@pytest.mark.parametrize(
    "section, value, violation",
    [
        ("policy", {"constant": ["a"]}, "policy.constant[0]: expected number, got string"),
        ("policy", {"constant": [[0.8]]}, "policy.constant[0]: expected number, got array"),
        ("policy", {"constant": [True]}, "policy.constant[0]: expected number, got boolean"),
        ("policy", segment(gamma0=[[0.8]]),
         "policy.segments[0].gamma0[0]: expected number, got array"),
        ("policy", segment(gamma0=["a"]),
         "policy.segments[0].gamma0[0]: expected number, got string"),
        ("policy", segment(gamma1=[[0.1]], gamma2=[0.0]),
         "policy.segments[0].gamma1[0]: expected number, got array"),
        ("policy", segment(gamma1=[0.1], gamma2=[None]),
         "policy.segments[0].gamma2[0]: expected number, got null"),
        ("direction", {"constant": [[0.1]]},
         "direction.constant[0]: expected number, got array"),
        ("direction", segment(gamma0=["a"]),
         "direction.segments[0].gamma0[0]: expected number, got string"),
    ],
    ids=["constant-string", "constant-nested", "constant-boolean", "gamma0-nested",
         "gamma0-string", "gamma1-nested", "gamma2-null", "direction-constant-nested",
         "direction-gamma0-string"],
)
def test_exit_2_naming_a_control_list_that_is_not_flat_numbers(tmp_path, capsys, section,
                                                               value, violation):
    cfg = load_json(SCALAR)
    cfg[section] = value
    out = tmp_path / "out"
    argv = ["--config", write_cfg(tmp_path, cfg), "--out", str(out), "--steps", "64"]
    command = ["mean"] if section == "policy" else ["verify-variational", "--skip-state"]
    assert_exit_2_naming(main(command + argv), capsys, [violation], out)


@pytest.mark.parametrize(
    "keys, value, violations",
    [
        (["problem", "dynamics", "A"], [1.0],
         ["problem.dynamics.A[0]: expected array, got number"]),
        (["problem", "dynamics", "C"], [[1.0]],
         ["problem.dynamics.C[0][0]: expected array, got number"]),
        (["problem", "dynamics", "C"], [[[0.0]], [[0.0, 1.0]]],
         ["problem.dynamics.C: rows of unequal length [1, 2]"]),
        (["problem", "control_set", "lower"], [True],
         ["problem.control_set.lower[0]: expected number, got boolean"]),
        (["problem", "dynamics", "x0"], ["a"],
         ["problem.dynamics.x0[0]: expected number, got string"]),
        (["problem", "target", "E2"], [None, "b"],
         ["problem.target.E2[0]: expected number, got null",
          "problem.target.E2[1]: expected number, got string"]),
        (["policy"], {"segments": [{"t_start": 0, "t_end": 3, "gamma0": [0.8]},
                                   {"t_start": 3, "t_end": 6, "gamma0": [0.8, 0.1]}]},
         ["policy.segments[1]: control dimension 2 != 1 of segments[0]"]),
        (["policy"], {"segments": [{"t_start": 0, "t_end": 3, "gamma0": [0.8, 0.1]},
                                   {"t_start": 3, "t_end": 6, "gamma0": [0.8]}]},
         ["policy.segments[1]: control dimension 1 != 2 of segments[0]"]),
        (["policy"], segment(gamma1=[0.1, 0.2], gamma2=[1.0]),
         ["policy.segments[0]: gamma0, gamma1 and gamma2 differ in length [1, 2, 1]"]),
    ],
    ids=["A-vector", "C-matrix", "C-ragged", "lower-boolean", "x0-string", "E2-two-entries",
         "segment-lengths", "segment-lengths-shorter", "gamma-lengths"],
)
def test_exit_2_naming_each_entry_the_schema_rejects(tmp_path, capsys, keys, value, violations):
    cfg = load_json(SCALAR)
    obj = cfg
    for key in keys[:-1]:
        obj = obj[key]
    obj[keys[-1]] = value
    out = tmp_path / "out"
    code = main(["mean", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert_exit_2_naming(code, capsys, violations, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["mean", "--steps", "256"],
        ["simulate", "--steps", "100", "--paths", "8"],
        ["check-smp", "--t-nodes", "64"],
        ["verify-variational", "--steps", "256", "--skip-state"],
    ],
    ids=["mean", "simulate", "check-smp", "verify-variational"],
)
def test_a_diverging_solve_prints_one_stderr_line(tmp_path, capsys, argv):
    # exp(800 t) leaves the float range near t = 0.89: no warning, one diagnostic
    cfg = load_json(SCALAR)
    cfg["policy"] = segment(gamma1=[1.0], gamma2=[800.0])
    out = tmp_path / "out"
    assert main(argv + ["--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "DivergenceError"
    assert not out.exists()


@pytest.mark.parametrize(
    "params, code, error",
    [
        ({"horizon": 2.0}, 3, "InfeasibleError"),
        ({"beta": 5.0}, 4, "RegimeError"),
        ({"beta": 2.0313}, 4, "RegimeError"),
        ({"growth": 0.04}, 2, "SpecValidationError"),
        ({"vol": 0}, 2, "SpecValidationError"),
        ({"beta": -1}, 2, "SpecValidationError"),
        ({"horizon": 0}, 2, "SpecValidationError"),
        ({"initial_wealth": 9.999999999999}, 3, "InfeasibleError"),
    ],
    ids=["horizon-2", "beta-5", "beta-past-edge", "growth-below-rate", "vol-0", "beta-negative",
         "horizon-0", "wealth-at-target"],
)
def test_portfolio_failures_exit_with_the_code_of_their_error_class(tmp_path, capsys, params,
                                                                     code, error):
    out = tmp_path / "out"
    assert main(["portfolio", "--config", write_cfg(tmp_path, {"params": params}),
                 "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == error
    assert not out.exists()


def test_portfolio_solves_a_two_branch_case_below_the_regime_edge(tmp_path):
    # the exponential ends at K, inside the box, up to beta = 2.03125
    out = str(tmp_path / "out")
    assert main(["portfolio", "--config", write_cfg(tmp_path, {"params": {"beta": 2.02}}),
                 "--out", out]) == 0
    summary = read_summary(out)
    assert abs(summary["tau"] - 10.2166019203) < 1e-9
    assert summary["t2"] == summary["tau"]


def test_exit_2_when_the_control_dimension_is_zero(tmp_path, capsys):
    cfg = load_json(SCALAR)
    problem = cfg["problem"]
    problem["dynamics"]["B"], problem["dynamics"]["D"] = [[]], [[[]]]
    problem["target"]["E4"], problem["target"]["diffusion"]["coef_control"] = [], [[]]
    problem["cost"]["Lambda"] = []
    problem["control_set"] = {"lower": [], "upper": []}
    cfg["policy"] = cfg["direction"] = {"constant": []}
    out = tmp_path / "out"
    assert main(["mean", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    violations = json.loads(err)["violations"]
    assert "problem.dynamics.k: must be a positive integer, got 0" in violations
    assert not out.exists()


# the mapping that the errors docstring and the README's "Exit codes" state
EXIT_CODES = {
    "SpecValidationError": 2,
    "InfeasibleError": 3,
    "DivergenceError": 3,
    "NumericalConsistencyError": 3,
    "AssumptionViolationError": 4,
    "SingularArcError": 4,
    "RegimeError": 4,
}


def test_each_error_class_declares_its_documented_exit_code():
    assert set(EXIT_CODES) == set(errors.__all__) - {"MeanTauError"}
    for name, code in EXIT_CODES.items():
        assert getattr(errors, name).exit_code == code, name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    doc = " ".join(errors.__doc__.lower().split())
    for text, phrases in (
        (" ".join(readme.split()), ("`2` invalid config", "`3` numerical failure",
                                    "`4` structural assumption")),
        (doc, ("invalid input data exits with 2", "numerical failures", "with 3",
               "violated structural assumptions", "with 4")),
    ):
        for phrase in phrases:
            assert phrase in text, phrase
