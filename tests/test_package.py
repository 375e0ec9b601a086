import meantau
from meantau import adjoint, bangbang, errors, portfolio, problem, simulate, smp, variational

# the package's public names before its __all__ was composed from the submodules
EXPORTED_BEFORE = {
    "__version__",
    "AdjointSolution", "AssumptionViolationError", "CombinedPolicy", "ControlPolicy",
    "ControlSegment", "ControlSet", "CostSpec", "DivergenceError", "DualIdentityReport",
    "EnsembleResult", "FdStateRow", "FdTauReport", "FdTauRow",
    "InfeasibleError", "LinearDynamics", "McReport", "MeanPath", "MeanTauError",
    "NonConvergenceError", "NumericalConsistencyError", "PerturbationSpec", "PortfolioParams",
    "ProblemSpec", "RegimeError", "ScalarSwitchReport", "SensitivityResult", "SimGrid",
    "SingularArcError", "SmpReport", "SpecValidationError", "SynthesisResult",
    "TargetCoefficients", "TargetDiffusion", "TauDerivative", "TauSolution",
    "ValidationReport", "branch_coefficient", "check_candidate", "control_samples",
    "detect_min_time", "dual_identity_check", "estimate_cost", "exp_with_integral",
    "fd_state_check", "fd_tau_check", "find_switch_times", "hamiltonian", "hamiltonian_du",
    "hit_time_derivative", "khat_evaluator", "mc_validate", "mean_ode_solve",
    "mean_target_response", "optimal_control", "optimal_policy",
    "perturbed_policy", "policy_eval", "scalar_switch_structure", "simulate_ensemble",
    "simulate_state_sensitivity", "solve_adjoints", "solve_cost_adjoint", "solve_mean_path",
    "solve_tau", "solve_time_adjoint", "step_noise", "switch_times", "switching_function",
    "synthesize", "target_control_row", "target_hamiltonian_du", "target_slope_at_tau",
    "target_state_row", "terminal_cost_drift", "time_adjoint_closed_form", "to_problem_spec",
    "validate", "vertex_policy", "wealth_residual",
}

# public names deleted with the code behind them
REMOVED = {"HookDynamics", "mean_target_solve"}


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
    assert "figure_columns" in meantau.__all__


def test_package_no_longer_exports_removed_names():
    modules = (meantau, adjoint, bangbang, errors, portfolio, problem, simulate, smp, variational)
    for module in modules:
        assert not REMOVED & set(module.__all__)
        assert not any(hasattr(module, name) for name in REMOVED)


def test_khat_evaluator_is_one_function():
    assert bangbang.khat_evaluator is adjoint.khat_evaluator
