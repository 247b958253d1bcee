"""Gradient semantics on probability simplexes.

The package contrasts two readings of "the gradient of a statistic at a
constrained distribution": differentiate inside the constrained family
(substitute the constraints, then differentiate), or embed the family in
the ambient simplex and take a directional limit.  The two readings agree
on unconstrained interiors and disagree — finitely or divergently — on
lower-dimensional families; every module here exercises that contrast on
a concrete model.

Modules
-------
core
    Probability vectors, constraint sets, the two gradient modes, entropy
    and simplex-volume helpers, and the SciPy searches the optimizers
    polish with (SciPy is imported on their first call).
dice
    Die-rolling payoff (volume^2 * entropy) maximized per space, under a
    constrained target, and over the ambient square.
gaussian
    Bivariate-normal independence relations differentiated both ways at
    rho = 0.
jointbinary
    2x2 joint distributions: entropy/likelihood/Fisher under pinned
    constraints vs ambient limits.
strategy
    Mixed vs behavioural strategy coordinates and the two-route gradient
    comparison table.
treeopt
    Correlation slices of a sequential-move payoff surface and their
    maxima.
game
    A two-stage game solved by backward induction vs coupling selection.
cli
    Command-line interface over all of the above (imported on first use).
"""

import importlib

from . import core, dice, game, gaussian, jointbinary, strategy, treeopt
from .core import (
    ConstraintSet,
    Constrained,
    GradientResult,
    Limit,
    ProbVector,
    entropy,
    finite_difference,
    gradient,
    simplex_volume,
)
from .errors import (
    BadParams,
    ConvergenceFailure,
    DegenerateMarginal,
    DomainError,
    EmptyData,
    InfeasiblePoint,
    IsogradError,
    NonFinite,
    OutOfRange,
    PreconditionError,
    UnsupportedRho,
)
from .reports import OptimumReport

__version__ = "0.1.0"

__all__ = [
    "BadParams",
    "Constrained",
    "ConstraintSet",
    "ConvergenceFailure",
    "DegenerateMarginal",
    "DomainError",
    "EmptyData",
    "GradientResult",
    "InfeasiblePoint",
    "IsogradError",
    "Limit",
    "NonFinite",
    "OptimumReport",
    "OutOfRange",
    "PreconditionError",
    "ProbVector",
    "UnsupportedRho",
    "cli",
    "core",
    "dice",
    "entropy",
    "finite_difference",
    "game",
    "gaussian",
    "gradient",
    "jointbinary",
    "simplex_volume",
    "strategy",
    "treeopt",
    "__version__",
]


def __getattr__(name: str):
    # importing cli eagerly would make ``python -m isograd.cli`` find it in
    # sys.modules before running it as __main__, and run it twice
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
