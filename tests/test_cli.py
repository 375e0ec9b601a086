import filecmp
import json
import os
from pathlib import Path

import pytest

from meantau.cli import main

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


def test_exit_2_on_missing_config(tmp_path, capsys):
    code = main(["mean", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "SpecValidationError"
    assert any("file not found" in v for v in err["violations"])


def test_exit_2_on_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert main(["mean", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_exit_2_on_missing_sections(tmp_path):
    cfg = write_cfg(tmp_path, {"policy": {"constant": [0.5]}})
    assert main(["mean", "--config", cfg, "--out", str(tmp_path / "a")]) == 2
    cfg = write_cfg(tmp_path, {"problem": {"horizon": 1.0}}, name="cfg2.json")
    assert main(["mean", "--config", cfg, "--out", str(tmp_path / "b")]) == 2


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
    assert json.loads(capsys.readouterr().err)["error"] == "AssumptionViolationError"


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
    for threads, tag in (("1", "a"), ("7", "b")):
        main(
            [
                "simulate", "--config", SCALAR, "--out", str(tmp_path / f"sim_{tag}"),
                "--paths", "150", "--steps", "300", "--seed", "9",
                "--store-paths", "--threads", threads,
            ]
        )
        main(
            [
                "portfolio", "--out", str(tmp_path / f"pf_{tag}"),
                "--threads", threads,
            ]
        )
    assert_dirs_byte_identical(str(tmp_path / "sim_a"), str(tmp_path / "sim_b"))
    assert_dirs_byte_identical(str(tmp_path / "pf_a"), str(tmp_path / "pf_b"))
