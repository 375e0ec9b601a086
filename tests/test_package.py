import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import meantau
from meantau import (
    adjoint, bangbang, config, errors, output, portfolio, problem, simulate, smp, variational,
)

SRC = Path(meantau.__file__).parent

# the package's public names before its __all__ was composed from the submodules
EXPORTED_BEFORE = {
    "__version__",
    "AssumptionViolationError", "ControlPolicy",
    "ControlSegment", "ControlSet", "CostSpec", "DivergenceError", "DualIdentityReport",
    "EnsembleResult", "FdTauReport", "FdTauRow",
    "InfeasibleError", "LinearDynamics", "McReport", "MeanPath", "MeanTauError",
    "NumericalConsistencyError", "PerturbationSpec", "PortfolioParams",
    "ProblemSpec", "RegimeError", "SimGrid",
    "SingularArcError", "SmpReport", "SpecValidationError", "SynthesisResult",
    "TargetCoefficients", "TargetDiffusion", "TauDerivative", "TauSolution",
    "branch_coefficient", "check_candidate", "control_samples",
    "dual_identity_check", "exp_with_integral",
    "fd_state_check", "fd_tau_check", "find_switch_times", "hamiltonian_du",
    "hit_time_derivative", "khat_evaluator", "mc_validate",
    "optimal_policy",
    "perturbed_policy", "simulate_ensemble",
    "solve_cost_adjoint", "solve_mean_path",
    "solve_tau", "solve_time_adjoint", "step_noise", "switch_times",
    "synthesize", "target_control_row", "target_hamiltonian_du", "target_slope_at_tau",
    "target_state_row", "time_adjoint_closed_form", "to_problem_spec",
    "validate", "vertex_policy", "wealth_residual",
}

# public names deleted with the code behind them
REMOVED = {
    "HookDynamics", "mean_target_solve", "mean_ode_solve", "hamiltonian",
    "mean_target_response", "policy_eval", "switching_function",
    "detect_min_time", "CombinedPolicy", "estimate_cost",
    "FdStateRow", "SensitivityResult", "simulate_state_sensitivity",
    "ValidationReport", "AdjointSolution", "solve_adjoints", "optimal_control",
    "terminal_cost_drift", "ScalarSwitchReport", "scalar_switch_structure",
    "NonConvergenceError", "mean_at_tau",
}

# methods and fields deleted from the classes that keep the rest; the
# grid, path count, seed and tau fields only echoed inputs the caller holds
REMOVED_ATTRIBUTES = {
    problem.LinearDynamics: ("drift", "diffusion"),
    problem.CostSpec: ("time_optimal", "is_time_optimal", "running_grad_u", "terminal_grad"),
    problem.ControlSet: ("contains",),
    problem.ControlSegment: ("constant",),
    problem.ControlPolicy: ("value",),
    simulate.EnsembleResult: ("paths_x", "grid", "n_paths", "seed"),
    simulate.MeanPath: ("grid",),
    portfolio.McReport: ("tau",),
    variational.DualIdentityReport: ("tau",),
    bangbang.SynthesisResult: ("history",),
}

# parameters deleted from the functions that keep the rest: the
# loop reads the grid and path count from its columns, an adjoint reads tau
# from the end of its grid and the moment recursion x0 from its dynamics,
# the vertex policy takes its switch times from the minimum time instead of
# a node table, and no command set the others, which became constants or
# literals at their one use
REMOVED_PARAMETERS = {
    adjoint.time_adjoint_closed_form: ("tau", "times"),
    adjoint.solve_time_adjoint: ("tau", "cross_check_tol"),
    adjoint.solve_cost_adjoint: ("tau",),
    simulate._em_moments: ("x0",),
    simulate._Column: ("u_nodes", "n_steps"),
    simulate._run_columns: ("grid", "n_paths"),
    smp.check_candidate: ("terminal_x_paths", "detection_steps", "u_samples_per_axis"),
    bangbang.synthesize: ("tol", "damping", "max_iter"),
    bangbang.find_switch_times: ("zero_tol",),
    bangbang.vertex_policy: ("n_nodes",),
    portfolio.solve_tau: ("xtol",),
    portfolio.figure_columns: ("n_nodes",),
    output.svg_line_chart: ("width", "height"),
    config.parse_problem: ("path",),
    config.parse_portfolio_params: ("path",),
}


def test_package_exports_the_union_of_the_submodule_lists():
    modules = (adjoint, bangbang, errors, portfolio, problem, simulate, smp, variational)
    union = {"__version__"}.union(*(module.__all__ for module in modules))
    assert len(meantau.__all__) == len(set(meantau.__all__))
    assert set(meantau.__all__) == union
    for name in meantau.__all__:
        assert hasattr(meantau, name), name
    for module in modules:
        for name in module.__all__:
            assert getattr(meantau, name) is getattr(module, name)


def test_package_keeps_every_earlier_export():
    assert EXPORTED_BEFORE <= set(meantau.__all__)
    assert {"figure_columns", "hit_time"} <= set(meantau.__all__)


def test_package_no_longer_exports_removed_names():
    modules = (meantau, adjoint, bangbang, errors, portfolio, problem, simulate, smp, variational)
    for module in modules:
        assert not REMOVED & set(module.__all__)
        assert not any(hasattr(module, name) for name in REMOVED)
    for cls, names in REMOVED_ATTRIBUTES.items():
        for name in names:
            assert not hasattr(cls, name), (cls.__name__, name)
            if is_dataclass(cls):
                assert name not in {f.name for f in fields(cls)}, (cls.__name__, name)


def test_removed_parameters_are_gone_and_a_policy_needs_its_solution():
    for fn, names in REMOVED_PARAMETERS.items():
        params = inspect.signature(fn).parameters
        for name in names:
            assert name not in params, (fn.__name__, name)
    # tau is solved once, by the caller, and handed to each of these
    for fn in (portfolio.optimal_policy, portfolio.mc_validate, portfolio.figure_columns):
        solution = inspect.signature(fn).parameters["solution"]
        assert solution.default is inspect.Parameter.empty, fn.__name__
    # the loop's inputs, each from one source
    assert list(inspect.signature(simulate._Column).parameters) == [
        "dyn", "policy", "n_paths", "grid", "spec",
    ]
    assert list(inspect.signature(simulate._run_columns).parameters) == [
        "cols", "seed", "threads",
    ]


def referenced_names() -> set:
    """Every name that some module of the package loads or reads as an attribute."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_but_the_cross_check_references_is_used_by_the_package():
    public = set()
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"meantau.{path.stem}")
        names = getattr(module, "__all__", ())
        public |= {n for n in names if inspect.isfunction(getattr(module, n))}
    unused = public - referenced_names()
    assert unused == set()


def test_khat_evaluator_is_one_function():
    assert bangbang.khat_evaluator is adjoint.khat_evaluator


def test_the_readme_library_example_runs():
    readme = (SRC.parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


# run in a fresh interpreter: the test session itself has scipy loaded, as
# the tests' independent reference
NO_SCIPY = """
import pkgutil
import sys

sys.modules["scipy"] = None  # importing scipy or any part of it raises ImportError

import meantau, meantau.cli

for info in pkgutil.iter_modules(meantau.__path__):
    __import__("meantau." + info.name)
config, out = sys.argv[1:]
for argv in (
    ["mean", "--config", config],
    ["simulate", "--config", config, "--paths", "50", "--steps", "50"],
    ["portfolio", "--mc", "--paths", "50", "--dt", "0.0625"],
    ["bangbang", "--config", config, "--nodes", "256"],
    ["check-smp", "--config", config, "--t-nodes", "64"],
    ["verify-variational", "--config", config, "--steps", "200", "--paths", "8"],
):
    assert meantau.cli.main(argv + ["--out", out + "/" + argv[0]]) == 0, argv
assert sys.modules["scipy"] is None
assert not [m for m in sys.modules if m.startswith("scipy.")]
"""


SCALAR = SRC.parents[1] / "docs" / "examples" / "scalar.json"


def run_python(cwd, *argv):
    """A fresh interpreter in `cwd` that imports meantau from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )


def test_no_module_of_the_package_imports_scipy():
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], path.name


def test_every_command_runs_with_scipy_blocked(tmp_path):
    run = run_python(tmp_path, "-c", NO_SCIPY, str(SCALAR), str(tmp_path))
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def test_python_m_meantau_runs_the_cli(tmp_path):
    version = run_python(tmp_path, "-m", "meantau", "--version")
    assert version.returncode == 0, version.stderr
    assert version.stdout == "meantau 0.1.0\n"
    out = tmp_path / "out"
    bad = run_python(tmp_path, "-m", "meantau", "mean", "--config", str(SCALAR),
                     "--out", str(out), "--steps", "0")
    assert bad.returncode == 2 and bad.stdout == ""
    (line,) = bad.stderr.splitlines()
    assert json.loads(line)["message"] == "--steps must be at least 1, got 0"
    assert not out.exists()
