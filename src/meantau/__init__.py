"""Control of linear stochastic systems up to a mean-field minimum time.

The toolkit couples a controlled linear SDE with a scalar monitoring
process and stops at the first time the monitor's mean reaches zero,
capped at a fixed horizon.  It provides deterministic mean solvers with
hit detection, path ensembles, adjoint states, first-order optimality
checks, bang-bang synthesis, finite-difference verification, and a
closed-form wealth-target application, all behind the `meantau` CLI.
"""

__version__ = "0.1.0"

from . import adjoint, bangbang, errors, portfolio, problem, simulate, smp, variational
from .adjoint import *  # noqa: F401,F403
from .bangbang import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .portfolio import *  # noqa: F401,F403
from .problem import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .smp import *  # noqa: F401,F403
from .variational import *  # noqa: F401,F403

# the public names are the submodules' own __all__ lists, each listed once
__all__ = ["__version__"] + list(
    dict.fromkeys(
        name
        for module in (problem, simulate, adjoint, variational, bangbang, smp, portfolio, errors)
        for name in module.__all__
    )
)
