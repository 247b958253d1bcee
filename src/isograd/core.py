"""Probability vectors and the two gradient semantics.

A point on an n-outcome simplex keeps its last coordinate *resolved* by
normalization (p_n = 1 - sum of the others), so scalar functions of a point
are always functions of the n-1 free coordinates.

Two distinct differentiation rules are implemented:

* ``Constrained(constraints)`` substitutes the equality constraints before
  differentiating: the result has one component per tangent direction of the
  constraint manifold, and directions normal to the manifold are simply absent.
  The tangent basis comes from one Gram-Schmidt pass over the constraint
  gradients, as each constraint states them (central differences serve one
  that states none), and then over the axes e_1..e_n; the survivors form it.
* ``Limit(direction)`` never substitutes: it evaluates the full ambient
  finite-difference gradient at ``at + eps * direction`` for each eps of
  :data:`DEFAULT_LADDER` and classifies the trend as Finite (with the
  extrapolated limit), Diverging, or Undefined.

The two rules agree on unconstrained interiors and disagree exactly where the
case studies in the rest of the package say they should.

``gradients(f, at, mode)`` differentiates a statistic ``f`` with several
outputs in one pass: every probe point is evaluated once for all outputs,
the tangent basis is built once, and result k is bitwise what ``gradient``
returns for output k alone.  ``gradient`` is that call with one output.

The shared formulas live here once: ``xlogx`` for every entropy, the
Euclidean norm of every gradient, the tangent basis of a constraint set,
and the central-difference loop.  So do the
two SciPy searches the optimizers polish with, which import SciPy on their
first call: ``import isograd.core`` loads numpy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import (
    BadDimension,
    DomainError,
    InfeasiblePoint,
    NonFinite,
    NotNormalized,
    OutOfRange,
    PreconditionError,
)

# normalization is checked an order looser than feasibility on purpose:
# user-supplied points carry entry noise, constraint membership should not
NORMALIZATION_TOL = 1e-9
FEASIBILITY_TOL = 1e-10
PROB_SUM_TOL = 1e-12
FD_STEP = 1e-6
DEFAULT_LADDER = (1e-3, 1e-4, 1e-5)
# Gram-Schmidt drops a vector when at most this share of its starting norm is
# left: above the FD noise of a Jacobian row (~1e-10), far below 1/sqrt(n)
BASIS_DROP_TOL = 1e-8
# ladder classification: successive rungs agree within LADDER_RTOL relative
# (plus LADDER_ATOL), decay when each difference is at most LADDER_DECAY of
# the one before, and diverge when each norm grows by more than GROWTH_MARGIN
LADDER_RTOL = 1e-4
LADDER_ATOL = 1e-9
LADDER_DECAY = 0.5
GROWTH_MARGIN = 0.05


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class ProbVector:
    """Outcome probabilities; the last one is resolved by normalization."""

    probs: tuple[float, ...]

    def __post_init__(self):
        n = len(self.probs)
        if n < 2:
            raise BadDimension(f"need at least 2 outcomes, got {n}")
        require_finite(self.probs)
        if any(p < 0.0 or p > 1.0 for p in self.probs):
            raise OutOfRange(f"probabilities outside [0, 1]: {self.probs}")
        s = math.fsum(self.probs)
        if abs(s - 1.0) > PROB_SUM_TOL:
            raise NotNormalized(f"probabilities sum to {s!r}, not 1")

    @property
    def n(self) -> int:
        return len(self.probs)

    @property
    def free(self) -> tuple[float, ...]:
        return self.probs[:-1]

    def free_array(self) -> np.ndarray:
        return np.asarray(self.free, dtype=float)


def require_finite(values: Sequence[float]) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFinite(f"{v!r} is not finite")


def resolve(point: Sequence[float]) -> ProbVector:
    """Validate full outcome probabilities and resolve the last coordinate."""
    vals = [float(v) for v in point]
    if len(vals) < 2:
        raise BadDimension(f"need at least 2 outcomes, got {len(vals)}")
    require_finite(vals)
    for v in vals:
        if v < -PROB_SUM_TOL or v > 1.0 + PROB_SUM_TOL:
            raise OutOfRange(f"probability {v!r} outside [0, 1]")
    s = math.fsum(vals)
    if abs(s - 1.0) > NORMALIZATION_TOL:
        raise NotNormalized(f"probabilities sum to {s!r}, not 1")
    clipped = [min(1.0, max(0.0, v)) for v in vals]
    resolved = min(1.0, max(0.0, 1.0 - math.fsum(clipped[:-1])))
    return ProbVector(tuple(clipped[:-1]) + (resolved,))


# ---------------------------------------------------------------------------
# constraints and modes


@dataclass(frozen=True)
class ConstraintSet:
    """Equality constraints g_k(free coords) = target_k.

    Each is ``(g, target, dg)``, with ``dg(x)`` the gradient of ``g`` over
    the free coordinates, or ``(g, target)``, differentiated centrally.  The
    callables must be evaluable at every interior point of the ambient
    simplex, and a ``g`` without ``dg`` within FD_STEP of any basis point.
    """

    equalities: tuple[tuple, ...]
    label: str = ""

    @staticmethod
    def empty() -> "ConstraintSet":
        return ConstraintSet((), "unconstrained")

    @staticmethod
    def pin(indices_values: dict[int, float], label: str = "") -> "ConstraintSet":
        """Pin individual free coordinates to fixed values; pin i states e_i.

        An index must be a non-negative int, and a point the set is read at
        must have a free coordinate there (else :class:`BadDimension`).
        """
        for i in indices_values:
            if (isinstance(i, bool) or not isinstance(i, (int, np.integer))
                    or i < 0):
                raise PreconditionError(
                    f"pin index must be a non-negative int, got {i!r}")
        require_finite(indices_values.values())
        label = label or "pin " + ",".join(
            f"x[{i}]={v:g}" for i, v in indices_values.items())

        def at(x, i):
            if i >= len(x):
                raise BadDimension(f"'{label}' pins x[{i}] of a point with "
                                   f"{len(x)} free coordinates")
            return i
        eqs = tuple(((lambda x, i=i: float(x[at(x, i)])), float(v),
                     (lambda x, i=i: np.eye(len(x))[at(x, i)]))
                    for i, v in indices_values.items())
        return ConstraintSet(eqs, label)

    def __len__(self) -> int:
        return len(self.equalities)

    def max_violation(self, x: np.ndarray) -> float:
        return max((abs(float(eq[0](x)) - eq[1]) for eq in self.equalities),
                   default=0.0)

    def satisfied(self, x: np.ndarray) -> bool:
        return self.max_violation(x) <= FEASIBILITY_TOL

    def basis(self, x: np.ndarray) -> np.ndarray:
        """Orthonormal basis of the tangent space at ``x``, as columns.

        One Gram-Schmidt pass runs over the constraint gradients and then
        over the axes e_1..e_n, in that order, dropping each vector whose
        remainder is at most :data:`BASIS_DROP_TOL` of its starting norm.
        The axes that survive are the basis: coordinate pins give exactly the
        remaining axes, in order, and each column is positive on the axis it
        came from.
        """
        n = len(x)
        rows = [eq[2](x) if len(eq) > 2 else finite_difference(eq[0], x)
                for eq in self.equalities]
        found = []
        for i, v in enumerate(np.reshape(rows, (len(rows), n)).tolist()
                              + np.eye(n).tolist()):
            start = math.hypot(*v)
            for _, q in found:
                c = sum([a * b for a, b in zip(q, v)])
                v = [a - c * b for a, b in zip(v, q)]
            left = math.hypot(*v)
            if left > BASIS_DROP_TOL * start:
                found.append((i, [a / left for a in v]))
        axes = [q for i, q in found if i >= len(rows)]
        return np.array(axes, dtype=float).reshape(len(axes), n).T


@dataclass(frozen=True)
class Constrained:
    """Differentiate after substituting the equality constraints."""

    constraints: ConstraintSet = field(default_factory=ConstraintSet.empty)


@dataclass(frozen=True)
class Limit:
    """Differentiate the ambient function along an approach path.

    ``direction`` is a unit vector in the free coordinates; the gradient is
    evaluated at ``at + eps * direction`` for each eps of
    :data:`DEFAULT_LADDER`.
    """

    direction: tuple[float, ...]

    def __post_init__(self):
        require_finite(self.direction)
        if len(self.direction) == 0 or abs(_norm(self.direction) - 1.0) > 1e-9:
            raise PreconditionError("approach direction must be a unit vector")


GradientMode = Union[Constrained, Limit]

#: The mode names :func:`mode_named` reads and ``--mode`` offers; each
#: statistic accepts its own subset (Fisher information has no "limit").
MODES = ("constrained", "unconstrained", "limit")


def mode_named(name: str, constraints: ConstraintSet,
               direction=None) -> GradientMode:
    """The gradient mode a name stands for.

    ``constrained`` substitutes ``constraints``; ``unconstrained``
    substitutes none; ``limit`` approaches along ``direction`` down
    :data:`DEFAULT_LADDER`.
    """
    if name == "constrained":
        return Constrained(constraints)
    if name == "unconstrained":
        return Constrained(ConstraintSet.empty())
    if name == "limit":
        if direction is None:
            raise PreconditionError("limit mode needs an approach direction")
        return Limit(tuple(direction))
    raise PreconditionError(f"unknown mode {name!r}; one of {MODES}")


@dataclass(frozen=True)
class GradientResult:
    """Outcome of a gradient evaluation under either semantics.

    kind is one of "finite", "diverging", "undefined".  Finite results carry
    the component vector (for Limit mode: the extrapolated limit).  Diverging
    results carry the unit direction of blow-up.  Limit-mode results keep the
    raw ladder evaluations for diagnostics.
    """

    kind: str
    components: tuple[float, ...] | None = None
    blowup_direction: tuple[float, ...] | None = None
    ladder: tuple[tuple[float, ...], ...] | None = None
    basis: tuple[tuple[float, ...], ...] | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def magnitude(self) -> float:
        if self.kind == "finite":
            return _norm(self.components)
        if self.kind == "diverging":
            return math.inf
        return math.nan

    @property
    def max_ladder_magnitude(self) -> float:
        """Largest raw gradient norm seen along the approach ladder."""
        if not self.ladder:
            return self.magnitude
        return max(_norm(g) for g in self.ladder)

    def __len__(self) -> int:
        return len(self.components) if self.components is not None else 0

    @staticmethod
    def finite(components, basis: np.ndarray) -> "GradientResult":
        """A finite result over the tangent basis whose columns are ``basis``."""
        return GradientResult(
            kind="finite", components=tuple(float(v) for v in components),
            basis=_tuples(basis.T))


def _tuples(rows) -> tuple[tuple[float, ...], ...]:
    """Rows of an array (or arrays) as tuples of floats, the form results
    carry."""
    return tuple(tuple(row.tolist()) for row in rows)


def _norm(v) -> float:
    """Euclidean norm of a vector: numpy's own fast path for a real 1-D
    ``np.linalg.norm``, so bitwise its result, without the dispatch."""
    v = np.asarray(v, dtype=float)
    return math.sqrt(float(v.dot(v)))


# ---------------------------------------------------------------------------
# differentiation primitives


def _eval(f: Callable[[np.ndarray], Sequence[float]],
          x: np.ndarray) -> np.ndarray:
    """Every output of ``f`` at ``x``; a DomainError names the first that
    is not finite."""
    try:
        values = [float(v) for v in f(np.asarray(x, dtype=float))]
    except (ZeroDivisionError, FloatingPointError, OverflowError, ValueError) as exc:
        raise DomainError(f"function not evaluable at {np.asarray(x)}: {exc}") from exc
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"function not finite at {np.asarray(x)}: {v!r}")
    return np.array(values)


def _free_coords(at) -> np.ndarray:
    if isinstance(at, ProbVector):
        return at.free_array()
    x = np.asarray(at, dtype=float)
    require_finite(x.ravel().tolist())
    return x


def _central(f: Callable[[np.ndarray], Sequence[float]], x: np.ndarray,
             steps: np.ndarray, h: float) -> np.ndarray:
    """Central differences of every output of ``f`` at ``x`` along each row
    of ``steps``: one row per output, one column per step."""
    diffs = [(_eval(f, x + s) - _eval(f, x - s)) / (2.0 * h) for s in steps]
    if not diffs:   # nothing to step along: f at x still counts the outputs
        return np.empty((len(_eval(f, x)), 0))
    return np.stack(diffs, axis=1)


def finite_difference(f: Callable[[np.ndarray], float], at,
                      h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient over the free coordinates."""
    x = _free_coords(at)
    return _central(lambda y: (f(y),), x, h * np.eye(x.size), h)[0]


def _along(mode: Limit, x: np.ndarray) -> np.ndarray:
    """The approach direction of ``mode`` as an array shaped like ``x``."""
    d = np.asarray(mode.direction, dtype=float)
    if d.shape != x.shape:
        raise PreconditionError(
            f"direction has {d.size} components, expected {x.size}")
    return d


def _classify_ladder(grads: list[np.ndarray]):
    """Trend classification of a ladder of gradient evaluations.

    Finite when successive evaluations already agree, or when the successive
    differences decay geometrically (a Cauchy trend; the returned vector is
    then the linear-in-epsilon extrapolated limit).  Diverging when the norms
    grow monotonically instead.  Undefined otherwise.
    """
    norms = [_norm(g) for g in grads]
    diffs = [_norm(grads[i + 1] - grads[i]) for i in range(len(grads) - 1)]
    agree = all(d <= LADDER_RTOL * max(norms[i], norms[i + 1]) + LADDER_ATOL
                for i, d in enumerate(diffs))
    if agree:
        return "finite"
    decaying = len(diffs) >= 2 and all(
        diffs[i + 1] <= LADDER_DECAY * diffs[i] + LADDER_ATOL
        for i in range(len(diffs) - 1))
    if decaying:
        return "finite"
    growing = all(norms[i + 1] > norms[i] * (1.0 + GROWTH_MARGIN)
                  for i in range(len(norms) - 1))
    if growing:
        return "diverging"
    return "undefined"


def _limit_result(grads: Sequence[np.ndarray]) -> GradientResult:
    """One output's Limit result from its gradients down the ladder."""
    ladder = _tuples(grads)
    kind = _classify_ladder(grads)
    if kind == "finite":
        # linear model g(eps) = g0 + c*eps fitted to the last two rungs
        e_prev, e_last = DEFAULT_LADDER[-2:]
        lim = grads[-1] + (grads[-1] - grads[-2]) * (e_last / (e_prev - e_last))
        return GradientResult(kind="finite", components=tuple(lim.tolist()),
                              ladder=ladder)
    if kind == "diverging":
        tail = grads[-1]
        nrm = _norm(tail)
        direction = tuple((tail / nrm).tolist()) if nrm > 0 else None
        return GradientResult(kind="diverging", blowup_direction=direction,
                              ladder=ladder)
    return GradientResult(kind="undefined", ladder=ladder)


def gradients(f: Callable[[np.ndarray], Sequence[float]], at,
              mode: GradientMode) -> list[GradientResult]:
    """Gradients of every output of ``f`` at ``at`` under one semantics.

    The probes are shared: ``f`` is evaluated once per probe point, and
    result k is what :func:`gradient` returns for output k alone.
    """
    x = _free_coords(at)

    if isinstance(mode, Constrained):
        cs = mode.constraints
        if not cs.satisfied(x):
            raise InfeasiblePoint(
                f"point violates '{cs.label}' by {cs.max_violation(x):.3e}")
        basis = cs.basis(x)
        columns = _tuples(basis.T)
        return [GradientResult(kind="finite", components=comps, basis=columns)
                for comps in _tuples(_central(f, x, FD_STEP * basis.T, FD_STEP))]

    if isinstance(mode, Limit):
        d = _along(mode, x)
        if isinstance(at, ProbVector):
            for eps in DEFAULT_LADDER:
                free = x + eps * d
                if min(*free, 1.0 - math.fsum(free)) <= 0.0:
                    raise PreconditionError(
                        f"at + {eps:g}*direction is not interior to the simplex")
        # the FD step is at most a twentieth of the rung, so every probe
        # keeps to the rung's side of the boundary it approaches
        rungs = []
        for eps in DEFAULT_LADDER:
            h = min(FD_STEP, eps / 20.0)
            rungs.append(_central(f, x + eps * d, h * np.eye(x.size), h))
        return [_limit_result(grads) for grads in zip(*rungs)]

    raise PreconditionError(f"unknown gradient mode: {mode!r}")


def gradient(f: Callable[[np.ndarray], float], at,
             mode: GradientMode) -> GradientResult:
    """Gradient of ``f`` at ``at`` under the requested semantics."""
    return gradients(lambda x: (f(x),), at, mode)[0]


# ---------------------------------------------------------------------------
# simplex scalars


def simplex_volume(n: int) -> float:
    """Volume 1/(n-1)! of the standard n-outcome probability simplex."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
        raise BadDimension(f"simplex needs an integer n >= 2 outcomes, got {n!r}")
    return 1.0 / math.factorial(n - 1)


def xlogx(v: float) -> float:
    """v log v with 0 log 0 = 0 and NaN below 0.

    libm's log keeps it bitwise equal to xlogy(v, v), which the dice lattice
    needs; numpy's vectorized log is not.
    """
    if v > 0.0:
        return v * math.log(v)
    return 0.0 if v == 0.0 else math.nan


def entropy_of_cells(cells) -> float:
    """-sum c log c summed in order (as numpy sums up to 7 terms); NaN if a
    cell is negative."""
    total = 0.0
    for v in cells:
        total += xlogx(v)
    return -float(total)


def entropy(p) -> float:
    """Shannon entropy -sum p_i log p_i (natural log, 0 log 0 = 0)."""
    probs = p.probs if isinstance(p, ProbVector) else p
    if any(v < 0.0 for v in probs):
        raise OutOfRange("entropy of negative probabilities")
    return entropy_of_cells(probs)


def entropy_of_free(free: np.ndarray) -> float:
    """Entropy as a function of free coordinates (last coordinate resolved)."""
    free = np.asarray(free, dtype=float)
    return entropy_of_cells((*free, 1.0 - free.sum()))


# ---------------------------------------------------------------------------
# polish searches (SciPy, imported on first call)


def minimize(fun: Callable[[np.ndarray], float], x0, **options):
    """``scipy.optimize.minimize``; its ``OptimizeResult`` is returned as is."""
    from scipy.optimize import minimize as search
    return search(fun, x0, **options)


def minimize_scalar(fun: Callable[[float], float], **options):
    """``scipy.optimize.minimize_scalar``; its ``OptimizeResult`` is returned
    as is."""
    from scipy.optimize import minimize_scalar as search
    return search(fun, **options)
