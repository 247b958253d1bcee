"""Probability vectors and the two gradient semantics.

A point on an n-outcome simplex is stored with one coordinate *resolved* by
normalization (p_resolved = 1 - sum of the others), so scalar functions of a
point are always functions of the n-1 free coordinates.

Two distinct differentiation rules are implemented:

* ``Constrained(constraints)`` substitutes the equality constraints before
  differentiating: the result has one component per tangent direction of the
  constraint manifold, and directions normal to the manifold are simply absent.
* ``Limit(direction, epsilons)`` never substitutes: it evaluates the full
  ambient finite-difference gradient at ``at + eps * direction`` for a ladder
  of epsilons and classifies the trend as Finite (with the extrapolated limit),
  Diverging, or Undefined.

The two rules agree on unconstrained interiors and disagree exactly where the
case studies in the rest of the package say they should.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np
from scipy.linalg import null_space
from scipy.special import xlogy

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


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class ProbVector:
    """Outcome probabilities with one coordinate resolved by normalization."""

    probs: tuple[float, ...]
    resolved_index: int

    def __post_init__(self):
        n = len(self.probs)
        if n < 2:
            raise BadDimension(f"need at least 2 outcomes, got {n}")
        if not 0 <= self.resolved_index < n:
            raise BadDimension(f"resolved_index {self.resolved_index} out of range")
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
        i = self.resolved_index
        return self.probs[:i] + self.probs[i + 1:]

    @property
    def resolved(self) -> float:
        return self.probs[self.resolved_index]

    def free_array(self) -> np.ndarray:
        return np.asarray(self.free, dtype=float)

    def with_free(self, free: Sequence[float]) -> "ProbVector":
        """Rebuild a full vector from new free coordinates (resolved adjusts)."""
        free = tuple(float(v) for v in free)
        if len(free) != self.n - 1:
            raise BadDimension(f"expected {self.n - 1} free coordinates")
        resolved = min(1.0, max(0.0, 1.0 - math.fsum(free)))
        i = self.resolved_index
        return ProbVector(free[:i] + (resolved,) + free[i:], i)


def require_finite(values: Sequence[float]) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFinite(f"probability {v!r} is not finite")


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
    return ProbVector(tuple(clipped[:-1]) + (resolved,), len(vals) - 1)


# ---------------------------------------------------------------------------
# constraints and modes


@dataclass(frozen=True)
class ConstraintSet:
    """Equality constraints g_k(free coords) = target_k.

    Constraint callables must be evaluable at every interior point of the
    ambient simplex (and in an h-neighbourhood of any point they are checked
    at, since the tangent basis is built by finite differences).
    """

    equalities: tuple[tuple[Callable[[np.ndarray], float], float], ...]
    label: str = ""

    @staticmethod
    def empty(label: str = "unconstrained") -> "ConstraintSet":
        return ConstraintSet((), label)

    @staticmethod
    def pin(indices_values: dict[int, float], label: str = "") -> "ConstraintSet":
        """Pin individual free coordinates to fixed values."""
        eqs = tuple(
            ((lambda x, i=i: float(x[i])), float(v)) for i, v in indices_values.items()
        )
        return ConstraintSet(eqs, label or "pin " + ",".join(
            f"x[{i}]={v:g}" for i, v in indices_values.items()))

    def __len__(self) -> int:
        return len(self.equalities)

    def max_violation(self, x: np.ndarray) -> float:
        if not self.equalities:
            return 0.0
        return max(abs(float(g(x)) - t) for g, t in self.equalities)

    def satisfied(self, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> bool:
        return self.max_violation(x) <= tol

    def jacobian(self, x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
        rows = [finite_difference(g, x, h=h) for g, _ in self.equalities]
        return np.asarray(rows, dtype=float).reshape(len(self.equalities), len(x))


@dataclass(frozen=True)
class Constrained:
    """Differentiate after substituting the equality constraints."""

    constraints: ConstraintSet = field(default_factory=ConstraintSet.empty)


@dataclass(frozen=True)
class Limit:
    """Differentiate the ambient function along an approach path.

    ``direction`` is a unit vector in the free coordinates; the gradient is
    evaluated at ``at + eps * direction`` for each eps of the (strictly
    decreasing, positive) ladder.
    """

    direction: tuple[float, ...]
    epsilons: tuple[float, ...] = DEFAULT_LADDER

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.size == 0 or abs(float(np.linalg.norm(d)) - 1.0) > 1e-9:
            raise PreconditionError("approach direction must be a unit vector")
        eps = self.epsilons
        if len(eps) < 2 or any(e <= 0 for e in eps) or any(
                eps[i + 1] >= eps[i] for i in range(len(eps) - 1)):
            raise PreconditionError(
                "epsilon ladder must be strictly decreasing and positive")


GradientMode = Union[Constrained, Limit]

#: The mode names every module and the CLI accept.
MODES = ("constrained", "unconstrained", "limit")


def mode_named(name: str, constraints: ConstraintSet, direction=None,
               epsilons=None) -> GradientMode:
    """The gradient mode a name stands for.

    ``constrained`` substitutes ``constraints``; ``unconstrained``
    substitutes none; ``limit`` approaches along ``direction`` down the
    ``epsilons`` ladder (default :data:`DEFAULT_LADDER`).
    """
    if name == "constrained":
        return Constrained(constraints)
    if name == "unconstrained":
        return Constrained(ConstraintSet.empty())
    if name == "limit":
        if direction is None:
            raise PreconditionError("limit mode needs an approach direction")
        return Limit(tuple(direction), DEFAULT_LADDER if epsilons is None
                     else tuple(epsilons))
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
    epsilons: tuple[float, ...] | None = None
    basis: tuple[tuple[float, ...], ...] | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def magnitude(self) -> float:
        if self.kind == "finite":
            return float(np.linalg.norm(self.components))
        if self.kind == "diverging":
            return math.inf
        return math.nan

    @property
    def max_ladder_magnitude(self) -> float:
        """Largest raw gradient norm seen along the approach ladder."""
        if not self.ladder:
            return self.magnitude
        return max(float(np.linalg.norm(g)) for g in self.ladder)

    def __len__(self) -> int:
        return len(self.components) if self.components is not None else 0


# ---------------------------------------------------------------------------
# differentiation primitives


def _eval(f: Callable[[np.ndarray], float], x: np.ndarray) -> float:
    try:
        v = float(f(np.asarray(x, dtype=float)))
    except (ZeroDivisionError, FloatingPointError, OverflowError, ValueError) as exc:
        raise DomainError(f"function not evaluable at {np.asarray(x)}: {exc}") from exc
    if not math.isfinite(v):
        raise DomainError(f"function not finite at {np.asarray(x)}: {v!r}")
    return v


def _free_coords(at) -> np.ndarray:
    if isinstance(at, ProbVector):
        return at.free_array()
    return np.asarray(at, dtype=float)


def finite_difference(f: Callable[[np.ndarray], float], at,
                      h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient over the free coordinates."""
    x = _free_coords(at)
    g = np.empty(x.size, dtype=float)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (_eval(f, x + step) - _eval(f, x - step)) / (2.0 * h)
    return g


def directed_gradient(f: Callable[[np.ndarray], float], at,
                      direction: Sequence[float], h: float = FD_STEP) -> float:
    """Dot product of the ambient gradient with a unit direction.

    Computed as a central difference along the direction itself, so it exists
    whenever f is evaluable on the probe segment even if single coordinate
    partials blow up.
    """
    x = _free_coords(at)
    d = np.asarray(direction, dtype=float)
    if d.shape != x.shape:
        raise PreconditionError(
            f"direction has {d.size} components, expected {x.size}")
    if abs(float(np.linalg.norm(d)) - 1.0) > 1e-12:
        raise PreconditionError("direction must be a unit vector (|d| = 1)")
    return (_eval(f, x + h * d) - _eval(f, x - h * d)) / (2.0 * h)


def _canonical_tangent_basis(jac: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the constraint tangent space, canonically oriented.

    Columns are ordered by the index of their largest-magnitude entry and
    signed so that entry is positive; coordinate-pinning constraints therefore
    reproduce the remaining coordinate axes in natural order.
    """
    if jac.shape[0] == 0:
        return np.eye(dim)
    basis = null_space(jac)
    if basis.shape[1] == 0:
        return basis
    cols = []
    for j in range(basis.shape[1]):
        v = basis[:, j]
        lead = int(np.argmax(np.abs(v)))
        if v[lead] < 0:
            v = -v
        cols.append((lead, v))
    cols.sort(key=lambda t: t[0])
    return np.column_stack([v for _, v in cols])


def _classify_ladder(grads: list[np.ndarray], rtol: float, atol: float,
                     decay: float, growth_margin: float):
    """Trend classification of a ladder of gradient evaluations.

    Finite when successive evaluations already agree within rtol, or when the
    successive differences decay geometrically (a Cauchy trend; the returned
    vector is then the linear-in-epsilon extrapolated limit).  Diverging when
    the norms grow monotonically instead.  Undefined otherwise.
    """
    norms = [float(np.linalg.norm(g)) for g in grads]
    diffs = [float(np.linalg.norm(grads[i + 1] - grads[i]))
             for i in range(len(grads) - 1)]
    agree = all(d <= rtol * max(norms[i], norms[i + 1]) + atol
                for i, d in enumerate(diffs))
    if agree:
        return "finite"
    decaying = len(diffs) >= 2 and all(
        diffs[i + 1] <= decay * diffs[i] + atol for i in range(len(diffs) - 1))
    if decaying:
        return "finite"
    growing = all(norms[i + 1] > norms[i] * (1.0 + growth_margin)
                  for i in range(len(norms) - 1))
    if growing:
        return "diverging"
    return "undefined"


def _extrapolate(g_prev: np.ndarray, g_last: np.ndarray,
                 e_prev: float, e_last: float) -> np.ndarray:
    # linear model g(eps) = g0 + c*eps fitted to the last two rungs
    return g_last + (g_last - g_prev) * (e_last / (e_prev - e_last))


def gradient(f: Callable[[np.ndarray], float], at, mode: GradientMode,
             h: float = FD_STEP, rtol: float = 1e-4, atol: float = 1e-9,
             decay: float = 0.5, growth_margin: float = 0.05) -> GradientResult:
    """Gradient of ``f`` at ``at`` under the requested semantics."""
    x = _free_coords(at)

    if isinstance(mode, Constrained):
        cs = mode.constraints
        if not cs.satisfied(x):
            raise InfeasiblePoint(
                f"point violates '{cs.label}' by {cs.max_violation(x):.3e}")
        basis = _canonical_tangent_basis(cs.jacobian(x, h=h), x.size)
        comps = np.array([
            (_eval(f, x + h * basis[:, j]) - _eval(f, x - h * basis[:, j]))
            / (2.0 * h)
            for j in range(basis.shape[1])
        ])
        return GradientResult(
            kind="finite",
            components=tuple(float(c) for c in comps),
            basis=tuple(tuple(float(v) for v in basis[:, j])
                        for j in range(basis.shape[1])),
        )

    if isinstance(mode, Limit):
        d = np.asarray(mode.direction, dtype=float)
        if d.shape != x.shape:
            raise PreconditionError(
                f"direction has {d.size} components, expected {x.size}")
        if isinstance(at, ProbVector):
            for eps in mode.epsilons:
                probe = at.with_free(x + eps * d)
                if probe.resolved <= 0.0 or any(p <= 0.0 for p in probe.free):
                    raise PreconditionError(
                        f"at + {eps:g}*direction is not interior to the simplex")
        # the probe step must shrink with the rung, or the smallest rungs of a
        # shrunk ladder would poke through the simplex boundary
        grads = [finite_difference(f, x + eps * d, h=min(h, eps / 20.0))
                 for eps in mode.epsilons]
        ladder = tuple(tuple(float(v) for v in g) for g in grads)
        kind = _classify_ladder(grads, rtol, atol, decay, growth_margin)
        if kind == "finite":
            lim = _extrapolate(grads[-2], grads[-1],
                               mode.epsilons[-2], mode.epsilons[-1])
            return GradientResult(kind="finite",
                                  components=tuple(float(v) for v in lim),
                                  ladder=ladder, epsilons=tuple(mode.epsilons))
        if kind == "diverging":
            tail = grads[-1]
            nrm = float(np.linalg.norm(tail))
            direction = tuple(float(v) for v in (tail / nrm)) if nrm > 0 else None
            return GradientResult(kind="diverging", blowup_direction=direction,
                                  ladder=ladder, epsilons=tuple(mode.epsilons))
        return GradientResult(kind="undefined", ladder=ladder,
                              epsilons=tuple(mode.epsilons))

    raise PreconditionError(f"unknown gradient mode: {mode!r}")


# ---------------------------------------------------------------------------
# simplex scalars


def simplex_volume(n: int) -> float:
    """Volume 1/(n-1)! of the standard n-outcome probability simplex."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
        raise BadDimension(f"simplex needs an integer n >= 2 outcomes, got {n!r}")
    return 1.0 / math.factorial(n - 1)


def entropy(p) -> float:
    """Shannon entropy -sum p_i log p_i (natural log, 0 log 0 = 0)."""
    probs = np.asarray(p.probs if isinstance(p, ProbVector) else p, dtype=float)
    if np.any(probs < 0.0):
        raise OutOfRange("entropy of negative probabilities")
    return float(-xlogy(probs, probs).sum())


def entropy_of_free(free: np.ndarray) -> float:
    """Entropy as a function of free coordinates (last coordinate resolved)."""
    free = np.asarray(free, dtype=float)
    rest = 1.0 - free.sum()
    return float(-(xlogy(free, free).sum() + xlogy(rest, rest)))
