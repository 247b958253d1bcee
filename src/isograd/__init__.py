"""Gradient semantics on probability simplexes.

The package contrasts two readings of "the gradient of a statistic at a
constrained distribution": differentiate inside the constrained family
(substitute the constraints, then differentiate), or embed the family in
the ambient simplex and take a directional limit.  The two readings agree
on unconstrained interiors and disagree — finitely or divergently — on
lower-dimensional families; every module here exercises that contrast on
a concrete model.

``import isograd`` loads the standard library only: each module below is
imported the first time it is named, as ``isograd.<module>`` or ``from
isograd import <module>``, and every name lives in its module.

Modules
-------
core
    Probability vectors, constraint sets, the two gradient modes, entropy
    and simplex-volume helpers, and the Nelder-Mead and bounded Brent
    searches the optimizers polish with.
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
errors, reports
    The exception hierarchy and the optimum report the optimizers return.
cli
    Command-line interface over all of the above.
"""

import importlib

__version__ = "0.1.0"

__all__ = ["cli", "core", "dice", "errors", "game", "gaussian",
           "jointbinary", "reports", "strategy", "treeopt", "__version__"]


def __getattr__(name: str):
    # PEP 562: runs for a name not bound yet; importing a submodule binds it.
    # Nothing loads eagerly, so ``python -m isograd.cli`` runs cli only once.
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
