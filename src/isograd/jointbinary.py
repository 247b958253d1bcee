"""Joint distributions of two binary variables on the 4-outcome simplex.

Outcomes are ordered (x,y) = (0,0), (0,1), (1,0), (1,1) with probabilities
(a, b, c, d); d is resolved by normalization, so gradients act on (a, b, c).

Two sub-families matter:

* perfectly correlated points, b = c = 0 — a 1-dimensional space;
* independent points, ad = bc — a 2-dimensional manifold.

The entropy gradient, Fisher information and likelihood score have two
finite readings, the pinned b = c = 0 family (``constrained``) and the open
simplex (``unconstrained``).  Each reading is a constraint set, whose core
basis is J over (a, b, c), plus the cells it keeps live; every statistic is
one pullback through J of its per-cell form (Amari & Nagaoka, *Methods of
Information Geometry*, 2000).  The ``limit`` reading approaches the point
from the ambient simplex instead, and the relation suite shows where the
readings disagree.  Entropies are core's cell entropy of joint or marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    ConstraintSet,
    GradientResult,
    ProbVector,
    _dot,
    entropy_of_cells,
    gradient,
    gradients,
    mode_named,
    resolve,
)
from .errors import (
    DegenerateMarginal,
    DomainError,
    EmptyData,
    InfeasiblePoint,
    PreconditionError,
    require_count,
)

SQRT2 = math.sqrt(2.0)
CORRELATED_DIRECTION = (0.0, 1.0 / SQRT2, 1.0 / SQRT2)   # b,c off the face
INDEPENDENT_DIRECTION = (1.0, 0.0, 0.0)                  # off ad = bc


@dataclass(frozen=True)
class JointPoint:
    """A joint distribution (a, b, c, d) with d resolved by normalization."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        pv = resolve((self.a, self.b, self.c, self.d))
        for name, val in zip("abcd", pv.probs):
            object.__setattr__(self, name, val)

    @property
    def pv(self) -> ProbVector:
        return ProbVector((self.a, self.b, self.c, self.d))

    @property
    def probs(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class CountData:
    """Observed outcome counts for the four joint cells."""

    n_a: int
    n_b: int
    n_c: int
    n_d: int

    def __post_init__(self):
        for name, value in vars(self).items():
            object.__setattr__(self, name, require_count(name, value, 0))

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (self.n_a, self.n_b, self.n_c, self.n_d)

    @property
    def n(self) -> int:
        return sum(self.counts)


# ---------------------------------------------------------------------------
# statistics of a joint 4-vector (free-coordinate callables used by gradients)

def joint_from_free(free) -> tuple[float, float, float, float]:
    a, b, c = (float(v) for v in free)
    return (a, b, c, 1.0 - (a + b + c))


def mean_x(j) -> float:
    return float(j[2] + j[3])


def mean_y(j) -> float:
    return float(j[1] + j[3])


def mean_xy(j) -> float:
    return float(j[3])


def var_x(j) -> float:
    return float((j[2] + j[3]) * (j[0] + j[1]))


def var_y(j) -> float:
    return float((j[1] + j[3]) * (j[0] + j[2]))


entropy_xy = entropy_of_cells


def entropy_x(j) -> float:
    return entropy_of_cells((j[0] + j[1], j[2] + j[3]))


def entropy_y(j) -> float:
    return entropy_of_cells((j[0] + j[2], j[1] + j[3]))


def conditional_x0_given_y(j, y: int) -> float:
    """P(x = 0 | y) from the joint 4-vector."""
    # Python floats: an empty condition raises ZeroDivisionError, not a warning
    if y == 0:
        return float(j[0]) / float(j[0] + j[2])
    return float(j[1]) / float(j[1] + j[3])


def correlation_of_joint(j) -> float:
    """Pearson correlation (ad - bc) / sqrt((c+d)(a+b)(b+d)(a+c))."""
    a, b, c, d = (float(v) for v in j)
    factors = ((c + d), (a + b), (b + d), (a + c))
    if min(factors) <= 0.0:
        raise DegenerateMarginal(
            f"marginal with zero variance: factors {factors}")
    return (a * d - b * c) / math.sqrt(
        factors[0] * factors[1] * factors[2] * factors[3])


# ---------------------------------------------------------------------------
# gradient readings

CORRELATED_CONSTRAINTS = ConstraintSet.pin({1: 0.0, 2: 0.0}, "b=c=0")
# ad - bc with d = 1 - a - b - c, and its gradient (d - a, -(a + c), -(a + b))
INDEPENDENT_CONSTRAINTS = ConstraintSet(
    ((lambda x: float(x[0] * (1.0 - x[0] - x[1] - x[2]) - x[1] * x[2]), 0.0,
      lambda x: (1.0 - 2.0 * x[0] - x[1] - x[2], -(x[0] + x[2]),
                 -(x[0] + x[1]))),),
    "ad=bc")

_ALL_CELLS = [0, 1, 2, 3]
# finite reading -> (its constraints, the cells it keeps live): the pinned
# b = c = 0 family keeps a and d, the open simplex keeps every cell
_READINGS = {
    "constrained": (CORRELATED_CONSTRAINTS, [0, 3]),
    "unconstrained": (ConstraintSet.empty(), _ALL_CELLS),
}


def _reading(mode: str, what: str):
    if mode not in _READINGS:
        raise PreconditionError(f"{what} has no {mode!r} reading; one of "
                                f"{tuple(_READINGS)}")
    return _READINGS[mode]


def _pullback(p: JointPoint, mode: str, what: str):
    """(J, DJ^T, p): tangent basis, live-cell derivatives per basis vector,
    live-cell probabilities.  Raises unless dead cells are 0, live ones > 0."""
    constraints, live = _reading(mode, what)
    if any(v for i, v in enumerate(p.probs) if i not in live):
        raise InfeasiblePoint(f"{mode} {what} needs b = c = 0")
    _require_positive(p.probs, live, f"{mode} {what}")
    J = constraints.basis(p.probs[:3])
    # the resolved cell d = 1 - a - b - c moves against the other three
    cells = [(*q, -(q[0] + q[1] + q[2])) for q in J]
    return J, [[v[i] for i in live] for v in cells], [p.probs[i] for i in live]


def _pull(grads, cell_values) -> tuple[float, ...]:
    """DJ^T v for a value v per live cell."""
    return tuple(_dot(g, cell_values) for g in grads)


def _require_positive(probs, live, what: str) -> None:
    if any(probs[i] <= 0.0 for i in live):
        raise DomainError(f"{what} needs "
                          + ", ".join("abcd"[i] for i in live) + " > 0")


def _live_counts(counts: CountData, mode: str) -> list[float]:
    """The counts on a checked reading's live cells; dead cells have none."""
    live = _READINGS[mode][1]
    if any(n for i, n in enumerate(counts.counts) if i not in live):
        raise DomainError("counts on zero-probability cells")
    return [float(counts.counts[i]) for i in live]


def entropy_gradient(p: JointPoint, mode: str = "constrained",
                     direction=None) -> GradientResult:
    """Gradient of the joint entropy E_xy under the chosen semantics.

    A finite reading pulls the cell gradient -log p back: DJ^T (-log p),
    which is log(d/a) on the pinned family and log(d/p_i) on the open
    simplex (the +1 of d(-p log p) cancels over the cells).  Limit mode
    follows the ambient approach ladder, by default along
    CORRELATED_DIRECTION.
    """
    if mode in _READINGS:
        J, grads, probs = _pullback(p, mode, "entropy gradient")
        # the form -(DJ^T log p) would print the symmetric pin as -0
        return GradientResult(
            "finite", _pull(grads, [-math.log(v) for v in probs]), basis=J)
    f = lambda x: entropy_xy(joint_from_free(x))
    return gradient(f, p.pv, mode_named(
        mode, CORRELATED_CONSTRAINTS,
        CORRELATED_DIRECTION if direction is None else direction))


def fisher_information(p: JointPoint, mode: str = "constrained") -> tuple:
    """Fisher information matrix of the multinomial joint model, row by row.

    The pullback DJ^T diag(1/p) DJ of the cell metric (Amari & Nagaoka,
    *Methods of Information Geometry*, 2000): 1/a + 1/d = 1/(a(1-a)) on the
    pinned family, the full 3x3 matrix over (a, b, c) on the open simplex.
    """
    _, grads, probs = _pullback(p, mode, "Fisher information")
    weighted = [[v / q for v, q in zip(g, probs)] for g in grads]
    return tuple(_pull(weighted, g) for g in grads)


def log_likelihood_gradient(counts: CountData, p: JointPoint,
                            mode: str = "constrained") -> GradientResult:
    """Score of the log likelihood: the cell score n/p pulled back, DJ^T (n/p)."""
    if counts.n == 0:
        raise EmptyData("no observations")
    J, grads, probs = _pullback(p, mode, "likelihood gradient")
    score = [n / v for n, v in zip(_live_counts(counts, mode), probs)]
    return GradientResult("finite", _pull(grads, score), basis=J)


def mle(counts: CountData, mode: str = "constrained") -> JointPoint:
    """Maximum-likelihood estimate: relative frequencies under both modes."""
    _reading(mode, "maximum-likelihood estimate")
    _live_counts(counts, mode)
    n = counts.n
    if n == 0:
        raise EmptyData("no observations")
    return JointPoint(counts.n_a / n, counts.n_b / n, counts.n_c / n,
                      counts.n_d / n)


# ---------------------------------------------------------------------------
# relation suites

_CORRELATED_RELATIONS = (
    ("<x>-<y>", lambda j: mean_x(j) - mean_y(j)),
    ("V(x)-V(y)", lambda j: var_x(j) - var_y(j)),
    ("E_xy-E_x", lambda j: entropy_xy(j) - entropy_x(j)),
    ("rho_xy-1", lambda j: correlation_of_joint(j) - 1.0),
)

_INDEPENDENT_RELATIONS = (
    ("P(0,0)-Px(0)Py(0)",
     lambda j: float(j[0]) - (j[0] + j[1]) * (j[0] + j[2])),
    ("<xy>-<x><y>", lambda j: mean_xy(j) - mean_x(j) * mean_y(j)),
    ("P(x=0|y=0)-Px(0)",
     lambda j: conditional_x0_given_y(j, 0) - (j[0] + j[1])),
    ("E_xy-E_x-E_y", lambda j: entropy_xy(j) - entropy_x(j) - entropy_y(j)),
)

# family -> (relations, limit approach, (constraints, cells a point of the
# family keeps positive for the constrained probes to stay in the simplex))
FAMILIES = {
    "correlated": (_CORRELATED_RELATIONS, CORRELATED_DIRECTION,
                   _READINGS["constrained"]),
    "independent": (_INDEPENDENT_RELATIONS, INDEPENDENT_DIRECTION,
                    (INDEPENDENT_CONSTRAINTS, _ALL_CELLS)),
}


def relation_suite(p: JointPoint, family: str, mode: str = "constrained",
                   direction=None) -> list[tuple[str, GradientResult]]:
    """Gradients of every family relation at ``p`` under one semantics.

    Constrained mode returns zero vectors (the relations hold identically on
    the family manifold) and needs the family's live cells positive; limit
    mode returns the ambient gradients along the approach (by default off
    the family), which stay nonzero or outright diverge.  Unconstrained mode
    needs every cell positive.  One vector gradient covers all relations.
    """
    if family not in FAMILIES:
        raise PreconditionError(f"unknown family {family!r}")
    relations, approach, (constraints, live) = FAMILIES[family]
    if mode == "unconstrained":
        constraints, live = _READINGS[mode]
    if mode in _READINGS and constraints.satisfied(p.probs[:3]):
        _require_positive(p.probs, live, f"{mode} relation gradient")
    m = mode_named(mode, constraints,
                   approach if direction is None else direction)

    def values(x):
        j = joint_from_free(x)
        return [float(rel(j)) for _, rel in relations]
    return [(label, res) for (label, _), res
            in zip(relations, gradients(values, p.pv, m))]
