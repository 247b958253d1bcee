"""Entropy-payoff comparison of dice with different side counts.

Each die with n sides (2, 3 or 4) lives on its own (n-1)-simplex but is
embedded in the common 4-outcome space by padding with zero-probability
outcomes.  The payoff is F = V(n)^2 * E(p): squared simplex volume times the
Shannon entropy of the live coordinates.  Three maximization routes are
provided; the first two agree per die, while the third (dropping the embedding
constraints altogether) lands on the uniform 4-outcome point and disagrees
with the per-die winners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (ConstraintSet, ProbVector, entropy, entropy_of_free,
                   minimize, require_finite, resolve, simplex_volume, xlogx)
from .errors import BadDimension, InfeasiblePoint
from .reports import OptimumReport

#: Grid points per unit of each face coordinate in method 2's search.
GRID_RESOLUTION = 200


@dataclass(frozen=True)
class DieSpace:
    """A die's outcome space and its embedding into the 4-outcome simplex."""

    label: str
    sides: int
    embedding: ConstraintSet

    @property
    def volume(self) -> float:
        return simplex_volume(self.sides)

    def live_uniform(self) -> ProbVector:
        """Uniform distribution on the live coordinates, embedded."""
        point = [1.0 / self.sides] * self.sides + [0.0] * (4 - self.sides)
        return resolve(point)

    def face_point(self, params) -> ProbVector:
        """Embed free face parameters (length sides-1) as a 4-outcome point."""
        # finite before fsum, which raises on inf - inf
        params = require_finite(params, "face parameter")
        if len(params) != self.sides - 1:
            raise BadDimension(
                f"{self.label} face takes {self.sides - 1} parameters")
        live = [*params, 1.0 - math.fsum(params)]
        return resolve(live + [0.0] * (4 - self.sides))


def _die_space(label: str, sides: int) -> DieSpace:
    # embedding constraints pin the padded coordinates of (a, b, c | d) to
    # zero, each with its gradient over the free coordinates (a, b, c)
    eqs = []
    if sides <= 2:   # c = 0
        eqs.append((lambda x: float(x[2]), 0.0, lambda x: (0.0, 0.0, 1.0)))
    if sides <= 3:   # d = 0
        eqs.append((lambda x: float(1.0 - x[0] - x[1] - x[2]), 0.0,
                    lambda x: (-1.0, -1.0, -1.0)))
    return DieSpace(label, sides, ConstraintSet(tuple(eqs), f"{label} face"))


COIN = _die_space("Coin", 2)
TRIANGLE = _die_space("Triangle", 3)
SQUARE = _die_space("Square", 4)
ALL_SPACES = (COIN, TRIANGLE, SQUARE)


def objective_F(p: ProbVector, space: DieSpace) -> float:
    """Payoff V^2 * E at a point of the embedded die space."""
    if p.n != 4:
        raise BadDimension("points live in the 4-outcome target space")
    if not space.embedding.satisfied(p.free):
        raise InfeasiblePoint(f"point is not on the {space.label} face")
    return space.volume ** 2 * entropy(p)


def _entropy_on_grid(sides: int, resolution: int):
    """Best entropy on the die's face grid: the balanced composition.

    The grid points are k / n for the compositions k of n = ``resolution``
    into ``sides`` parts.  Their entropy applies one strictly concave
    function to each part, so it is strictly Schur-concave, and the balanced
    composition, parts floor(n/sides) and ceil(n/sides), is majorized by
    every other: it is the maximum, unique up to order (Marshall, Olkin &
    Arnold, *Inequalities*, 2nd ed. 2011, ch. 3).  Small parts first give
    the lexicographically smallest order.  Returns (best_params,
    best_entropy), best_params being the first sides - 1 coordinates.
    """
    q, rem = divmod(resolution, sides)
    parts = [q] * (sides - rem) + [q + 1] * rem
    value = 0.0
    for k in parts:
        value -= xlogx(k / resolution)
    return tuple(k / resolution for k in parts[:-1]), value


def _entropy_of_params(params) -> float:
    """Face entropy at free parameters; -inf off the face, where a cell is
    negative and the entropy NaN."""
    value = entropy_of_free(params)
    return -math.inf if math.isnan(value) else value


def _polish(params, value):
    """Nelder-Mead refinement; keeps the grid point unless strictly better."""
    res = minimize(lambda x: -_entropy_of_params(x), params, xatol=1e-10,
                   fatol=1e-13, maxiter=20000)
    if math.isfinite(res.fun) and -res.fun > value:
        return res.x, -res.fun, res.nit
    return params, value, 0


def maximize_per_space() -> list[OptimumReport]:
    """Method 1: closed-form optimum per die (uniform on live coordinates)."""
    reports = []
    for space in ALL_SPACES:
        p = space.live_uniform()
        reports.append(OptimumReport(
            label=space.label,
            point=p.probs,
            value=objective_F(p, space),
            mode="per-space",
            diagnostics={"sides": space.sides, "volume": space.volume},
        ))
    return reports


def _face_optimum(space: DieSpace) -> OptimumReport:
    """The balanced grid point of one embedded face, then Nelder-Mead."""
    params, ent = _entropy_on_grid(space.sides, GRID_RESOLUTION)
    params, ent, iters = _polish(params, ent)
    return OptimumReport(
        label=space.label,
        point=space.face_point(params).probs,
        value=space.volume ** 2 * ent,
        mode="constrained-target",
        diagnostics={"grid_resolution": GRID_RESOLUTION,
                     "refinement_iterations": iters},
    )


def maximize_constrained_target() -> list[OptimumReport]:
    """Method 2: each embedded face's balanced grid point, refined."""
    return [_face_optimum(space) for space in ALL_SPACES]


def unconstrained_report(square: OptimumReport,
                         per_space: list[OptimumReport]) -> OptimumReport:
    """Method 3 read off method 2's Square report: the Square face has no
    embedding constraint, so its optimum is the unconstrained one."""
    best = max(per_space, key=lambda r: r.value)
    diagnostics = {**square.diagnostics,
                   "conflicts_with_constrained": square.value < best.value,
                   "best_constrained_label": best.label,
                   "best_constrained_value": best.value}
    return replace(square, label="unconstrained", mode="unconstrained",
                   diagnostics=diagnostics)


def maximize_unconstrained() -> OptimumReport:
    """Method 3: drop the embedding constraints on the 4-outcome simplex.

    The optimum is the uniform 4-outcome point with payoff log(4)/36, which
    conflicts with (is far below) the per-die winners of methods 1 and 2.
    """
    return unconstrained_report(_face_optimum(SQUARE), maximize_per_space())
