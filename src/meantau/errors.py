"""Exception types shared across the toolkit.

The command-line layer maps these onto process exit codes: invalid input
data exits with 2, numerical failures (non-convergence, infeasibility,
divergence, cross-check disagreement) with 3, and violated structural
assumptions (flat target slope, singular switching arcs, analysis regime
left) with 4.
"""

__all__ = [
    "MeanTauError",
    "SpecValidationError",
    "NonConvergenceError",
    "InfeasibleError",
    "DivergenceError",
    "NumericalConsistencyError",
    "AssumptionViolationError",
    "SingularArcError",
    "RegimeError",
]


class MeanTauError(Exception):
    """Base class for all toolkit errors."""


class SpecValidationError(MeanTauError):
    """Invalid problem data or configuration.

    Carries the list of violations; each entry names the offending field
    with a dotted path.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NonConvergenceError(MeanTauError):
    """An iterative solve exceeded its budget without meeting tolerance."""

    def __init__(self, message, history=None, cycle=False):
        super().__init__(message)
        self.history = list(history) if history is not None else []
        self.cycle = cycle


class InfeasibleError(MeanTauError):
    """The mean target level is never reached within the horizon."""


class DivergenceError(MeanTauError):
    """A simulated path, or a mean solve (path None), left the representable range."""

    def __init__(self, step, path):
        if path is None:
            message = f"non-finite value at node {step} of the mean solve"
        else:
            message = f"non-finite state at step {step}, path {path}"
        super().__init__(message)
        self.step = step
        self.path = path


class NumericalConsistencyError(MeanTauError):
    """Two independent computations of the same quantity disagree."""


class AssumptionViolationError(MeanTauError):
    """A structural assumption of the optimality theory fails to hold."""


class SingularArcError(AssumptionViolationError):
    """A switching-function component vanishes identically."""

    def __init__(self, component):
        super().__init__(
            f"switching component {component} is identically zero (singular arc)"
        )
        self.component = component


class RegimeError(AssumptionViolationError):
    """Model parameters leave the regime covered by the closed-form analysis."""
