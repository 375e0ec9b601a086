import filecmp
import json
import os
from pathlib import Path

import pytest

from meantau.cli import main
from meantau.config import parse_portfolio_params
from meantau.portfolio import mc_validate

EXAMPLES = Path(__file__).resolve().parents[1] / "docs" / "examples"
SCALAR = str(EXAMPLES / "scalar.json")


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
    report = mc_validate(
        parse_portfolio_params({}), n_paths=500, dt=0.0625, seed=3, vol_pair=(0.2, 0.4)
    )
    assert mc["vol_pair_stderrs"] == list(report.vol_pair_stderrs)
    assert all(se > 0.0 for se in mc["vol_pair_stderrs"])


def test_bangbang_writes_policy(tmp_path):
    out = str(tmp_path / "out")
    code = main(
        ["bangbang", "--config", SCALAR, "--out", out, "--nodes", "512", "--max-iter", "60"]
    )
    assert code == 0
    summary = read_summary(out)
    assert summary["case_label"] == "i"
    assert summary["n_switches"] == [1]
    with open(os.path.join(out, "policy.json")) as fh:
        payload = json.load(fh)
    assert payload["slope_at_tau"] < 0.0
    assert len(payload["policy"]["segments"]) >= 2
    assert len(payload["tau_history"]) == summary["iterations"] + 1


def test_check_smp_reports_residual(tmp_path):
    out = str(tmp_path / "out")
    code = main(
        [
            "check-smp", "--config", SCALAR, "--out", out,
            "--t-nodes", "128", "--u-samples", "11",
        ]
    )
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
    assert len(payload["state_table"]) == 3


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


def test_exit_2_on_missing_sections(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"policy": {"constant": [0.5]}})
    assert main(["mean", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
    assert set(json.loads(capsys.readouterr().err)) == {"error", "message", "violations"}
    cfg = write_cfg(tmp_path, {"problem": {"horizon": 1.0}}, name="cfg2.json")
    assert main(["mean", "--config", cfg, "--out", str(tmp_path / "b")]) == 2
    assert set(json.loads(capsys.readouterr().err)) == {"error", "message", "violations"}


@pytest.mark.parametrize("per_axis", ["0", "1"])
def test_exit_2_when_the_control_sample_cannot_hold_the_vertices(tmp_path, capsys, per_axis):
    out = tmp_path / "out"
    code = main(["check-smp", "--config", SCALAR, "--out", str(out), "--u-samples", per_axis])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message"}
    assert err["error"] == "ValueError"
    assert "per_axis" in err["message"]
    assert not (out / "smp.json").exists()


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
    assert not out.exists() or not any(out.iterdir())


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
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("dt", ["0", "-1", "nan"])
def test_exit_2_when_the_monte_carlo_step_is_not_positive(tmp_path, capsys, dt):
    out = tmp_path / "out"
    code = main(["portfolio", "--out", str(out), "--mc", "--paths", "100", "--dt", dt])
    assert "dt" in assert_exit_2_with_a_value_error(code, capsys)
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--damping", "0"), ("--damping", "-0.5"), ("--damping", "1.5"), ("--max-iter", "0")],
)
def test_exit_2_when_the_synthesis_settings_are_out_of_range(tmp_path, capsys, flag, value):
    out = tmp_path / "out"
    code = main(["bangbang", "--config", SCALAR, "--out", str(out), "--nodes", "128", flag, value])
    message = assert_exit_2_with_a_value_error(code, capsys)
    assert flag[2:].replace("-", "_") in message
    assert not (out / "policy.json").exists()


def test_exit_3_when_synthesis_is_infeasible(tmp_path, capsys):
    cfg = infeasible_cfg(tmp_path)
    code = main(["bangbang", "--config", cfg, "--out", str(tmp_path / "out"), "--nodes", "128"])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InfeasibleError"


def test_exit_3_when_synthesis_exhausts_its_budget(tmp_path, capsys):
    code = main(
        ["bangbang", "--config", SCALAR, "--out", str(tmp_path / "out"), "--max-iter", "1"]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message", "cycle", "history_tail"}
    assert err["error"] == "NonConvergenceError"
    assert err["cycle"] is False
    assert len(err["history_tail"]) == 2


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
        [
            "check-smp", "--config", cfg, "--out", str(tmp_path / "out"),
            "--t-nodes", "256", "--u-samples", "5",
        ]
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


def test_version_and_unknown_command_exit_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "meantau" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_exit_2_when_the_thread_count_is_below_one(tmp_path, capsys, threads):
    out = tmp_path / "out"
    code = main(["mean", "--config", SCALAR, "--out", str(out), "--threads", threads])
    assert "--threads" in assert_exit_2_with_a_value_error(code, capsys)
    assert not out.exists()


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
    assert not out.exists() or not any(out.iterdir())


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
    cfg = load_json(SCALAR)
    obj = cfg["problem"]
    for part in section.split("."):
        obj = obj[part]
    obj[key] = [[0.0], [1.0, 2.0]]
    out = tmp_path / "out"
    code = main(["check-smp", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    violations = json.loads(capsys.readouterr().err)["violations"]
    assert len(violations) == 1
    assert violations[0].startswith(f"problem.{section}: malformed arrays (")
    assert not any(out.iterdir())


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
    assert all(set(r) == {"rho", "sup_err", "t_at_sup", "stderr"} for r in var["state_table"])
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
