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

import numpy as np

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
        params = [float(v) for v in params]
        if len(params) != self.sides - 1:
            raise BadDimension(
                f"{self.label} face takes {self.sides - 1} parameters")
        require_finite(params)   # before fsum, which raises on inf - inf
        live = params + [1.0 - math.fsum(params)]
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
    """Best entropy on the die's face grid, by max-plus dynamic programming.

    The grid points are k / resolution for the compositions k of
    ``resolution`` into ``sides`` parts, scored with the table
    T[i] = -(i/n) log(i/n).  Scores are compared on a 2**-40 lattice,
    S = rint(T * 2**40): integer sums are exact, while float sums depend on
    the order of their terms, so permutations of one composition would not
    tie.  B_1 = S and B_s[m] = max_a S[a] + B_(s-1)[m - a] give the top
    score of s parts summing to m, in O(sides * n^2) steps instead of the
    O(n^(sides-1)) of enumerating compositions; on integers no rounding
    enters, so B_sides[n] is exactly the best composition's score.  The
    optimum is rebuilt part by part, taking the smallest first part a with
    S[a] + B_(sides-1)[n - a] = B_sides[n] and recursing on the rest, so
    ties resolve to the lexicographically smallest composition.  Returns
    (best_params, best_entropy), where best_params are the first sides - 1
    coordinates.
    """
    n = resolution
    table = np.array([-xlogx(k / n) for k in range(n + 1)])
    score = np.rint(table * 2.0 ** 40).astype(np.int64)
    parts = np.arange(n + 1)
    lag = parts[:, None] - parts  # lag[m, a] = m - a
    # tops[s - 1] is B_s; a part a > m is ruled out by -1, below every score
    tops = [score]
    for _ in range(sides - 2):
        tops.append(np.where(lag >= 0, score + tops[-1][lag], -1).max(axis=1))
    best, m = [], n
    for rest in reversed(tops):
        # np.argmax returns the first maximum: the smallest optimal part
        part = int(np.argmax(score[:m + 1] + rest[m::-1]))
        best.append(part)
        m -= part
    best.append(m)
    params = tuple(k / n for k in best[:-1])
    return params, float(table[best].sum())


def _entropy_of_params(params: np.ndarray) -> float:
    if np.any(params < 0.0) or params.sum() > 1.0:
        return -np.inf
    return entropy_of_free(params)


def _polish(params, value):
    """Nelder-Mead refinement; keeps the grid point unless strictly better."""
    x0 = np.asarray(params, dtype=float)
    res = minimize(lambda x: -_entropy_of_params(x), x0, xatol=1e-10,
                   fatol=1e-13, maxiter=20000)
    if math.isfinite(res.fun) and -res.fun > value:
        return tuple(float(v) for v in res.x), float(-res.fun), int(res.nit)
    return tuple(float(v) for v in params), float(value), 0


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
    """Grid + refinement on one embedded face of the 4-space."""
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
    """Method 2: grid + refinement on each embedded face of the 4-space."""
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
