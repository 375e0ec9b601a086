"""Exception types shared across the toolkit.

Each class declares the process exit code of the command-line interface
(`exit_code`) and the fields its one-line JSON diagnostic adds to the
error name and message (`diagnostic_fields`); `cli.main` reads both.
Invalid input data exits with 2, numerical failures (infeasibility,
divergence, cross-check disagreement) with 3, and violated structural
assumptions (flat target slope, singular switching arcs, analysis regime
left) with 4.
"""

__all__ = [
    "MeanTauError",
    "SpecValidationError",
    "InfeasibleError",
    "DivergenceError",
    "NumericalConsistencyError",
    "AssumptionViolationError",
    "SingularArcError",
    "RegimeError",
]


class MeanTauError(Exception):
    """Base class for all toolkit errors; a direct instance exits 1."""

    exit_code = 1

    def diagnostic_fields(self) -> dict:
        return {}


class SpecValidationError(MeanTauError):
    """Invalid problem data or configuration.

    Carries the list of violations; each entry names the offending field
    with a dotted path.
    """

    exit_code = 2

    def __init__(self, violations: list):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    def diagnostic_fields(self) -> dict:
        return {"violations": self.violations}


class InfeasibleError(MeanTauError):
    """The mean target level is never reached within the horizon."""

    exit_code = 3


class DivergenceError(MeanTauError):
    """A simulated path, or a mean solve (path None), left the representable range."""

    exit_code = 3

    def __init__(self, step, path):
        if path is None:
            message = f"non-finite value at node {step} of the mean solve"
        else:
            message = f"non-finite state at step {step}, path {path}"
        super().__init__(message)
        self.step = step
        self.path = path

    def diagnostic_fields(self) -> dict:
        return {"step": self.step, "path": self.path}


class NumericalConsistencyError(MeanTauError):
    """Two independent computations of the same quantity disagree."""

    exit_code = 3


class AssumptionViolationError(MeanTauError):
    """A structural assumption of the optimality theory fails to hold."""

    exit_code = 4


class SingularArcError(AssumptionViolationError):
    """A switching-function component vanishes identically."""

    def __init__(self, component):
        super().__init__(
            f"switching component {component} is identically zero (singular arc)"
        )
        self.component = component

    def diagnostic_fields(self) -> dict:
        return {"component": self.component}


class RegimeError(AssumptionViolationError):
    """Model parameters leave the regime covered by the closed-form analysis."""
