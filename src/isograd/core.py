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
tangent basis of a constraint set, the central-difference loop, and one
Euclidean norm, ``math.hypot``, for the basis and every gradient.  Probes
reach ``f`` as numpy arrays; the basis and every result are float tuples,
so no BLAS or SIMD kernel picks their last digit.  The two searches the
optimizers polish with, Nelder-Mead and bounded Brent, run on Python floats
and are ported step for step from SciPy so that their results are bitwise
SciPy's: ``import isograd.core`` loads numpy and the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    BadDimension,
    DomainError,
    InfeasiblePoint,
    NonFinite,
    NotNormalized,
    OutOfRange,
    PreconditionError,
    require_count,
    require_finite,
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
        probs = tuple(require_finite("probability", self.probs))
        object.__setattr__(self, "probs", probs)
        n = len(probs)
        if n < 2:
            raise BadDimension(f"need at least 2 outcomes, got {n}")
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


def resolve(point: Sequence[float]) -> ProbVector:
    """Validate full outcome probabilities and resolve the last coordinate."""
    vals = require_finite("probability", point)
    if len(vals) < 2:
        raise BadDimension(f"need at least 2 outcomes, got {len(vals)}")
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
            require_count("pin index", i, 0)
        require_finite("pin target", indices_values.values())
        label = label or "pin " + ",".join(
            f"x[{i}]={v:g}" for i, v in indices_values.items())

        def at(x, i):
            if i >= len(x):
                raise BadDimension(f"'{label}' pins x[{i}] of a point with "
                                   f"{len(x)} free coordinates")
            return i
        eqs = tuple(((lambda x, i=i: float(x[at(x, i)])), float(v),
                     (lambda x, i=i: [float(k == at(x, i))
                                      for k in range(len(x))]))
                    for i, v in indices_values.items())
        return ConstraintSet(eqs, label)

    def __len__(self) -> int:
        return len(self.equalities)

    def max_violation(self, x: Sequence[float]) -> float:
        return max((abs(float(eq[0](x)) - eq[1]) for eq in self.equalities),
                   default=0.0)

    def satisfied(self, x: Sequence[float]) -> bool:
        return self.max_violation(x) <= FEASIBILITY_TOL

    def basis(self, x) -> tuple[tuple[float, ...], ...]:
        """Orthonormal tangent basis at ``x``: one float tuple per vector.

        One Gram-Schmidt pass runs over the constraint gradients and then
        over the axes e_1..e_n, in that order, dropping each vector whose
        remainder is at most :data:`BASIS_DROP_TOL` of its starting norm.
        The axes that survive are the basis: coordinate pins give exactly the
        remaining axes, in order, and each vector is positive on the axis it
        came from.
        """
        n = len(x)
        rows = [[float(v) for v in (eq[2](x) if len(eq) > 2
                                    else finite_difference(eq[0], x))]
                for eq in self.equalities]
        if any(len(row) != n for row in rows):
            raise BadDimension(f"'{self.label}' states a gradient whose "
                               f"length is not {n}")
        found = []
        for i, v in enumerate(rows + [[float(j == k) for k in range(n)]
                                      for j in range(n)]):
            start = math.hypot(*v)
            for _, q in found:
                c = _dot(q, v)
                v = [a - c * b for a, b in zip(v, q)]
            left = math.hypot(*v)
            if left > BASIS_DROP_TOL * start:
                found.append((i, tuple(a / left for a in v)))
        return tuple(q for i, q in found if i >= len(rows))


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
        direction = tuple(require_finite("direction component",
                                         self.direction))
        object.__setattr__(self, "direction", direction)
        if len(direction) == 0 or abs(math.hypot(*direction) - 1.0) > 1e-9:
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
            return math.hypot(*self.components)
        if self.kind == "diverging":
            return math.inf
        return math.nan

    @property
    def max_ladder_magnitude(self) -> float:
        """Largest raw gradient norm seen along the approach ladder."""
        if not self.ladder:
            return self.magnitude
        return max(math.hypot(*g) for g in self.ladder)

    def __len__(self) -> int:
        return len(self.components) if self.components is not None else 0


# ---------------------------------------------------------------------------
# differentiation primitives


def _dot(u: Sequence[float], v: Sequence[float]) -> float:
    """sum u_i v_i, added in order (``sum`` compensates from Python 3.12)."""
    total = 0.0
    for a, b in zip(u, v):
        total += a * b
    return total


def _eval(f: Callable[[np.ndarray], Sequence[float]],
          x: np.ndarray) -> tuple[float, ...]:
    """Every output of ``f`` at ``x``; a DomainError names the first that
    is not finite."""
    try:
        values = tuple(float(v) for v in f(np.asarray(x, dtype=float)))
    except (ZeroDivisionError, FloatingPointError, OverflowError, ValueError) as exc:
        raise DomainError(f"function not evaluable at {np.asarray(x)}: {exc}") from exc
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"function not finite at {np.asarray(x)}: {v!r}")
    return values


def _free_coords(at) -> np.ndarray:
    """The free coordinates of a point: a finite 1-D vector of reals."""
    try:
        x = np.asarray(at.free if isinstance(at, ProbVector) else at)
    except ValueError:   # ragged nesting: numpy finds no shape
        raise BadDimension(f"a point is a 1-D vector of coordinates, "
                           f"got {at!r}") from None
    if x.ndim != 1:
        raise BadDimension(f"a point is a 1-D vector of coordinates, "
                           f"got shape {x.shape}")
    if x.dtype.kind not in "fiu":   # bools, strings, objects: one by one
        return np.array(require_finite("coordinate", x.tolist()))
    for v in x.tolist():   # numbers already: only finiteness is left
        if not math.isfinite(v):
            raise NonFinite(f"coordinate must be finite, got {v!r}")
    return x.astype(float, copy=False)


def _central(f: Callable[[np.ndarray], Sequence[float]], x: np.ndarray,
             steps: Sequence, h: float) -> tuple[tuple[float, ...], ...]:
    """Central differences of every output of ``f`` at ``x`` along each row
    of ``steps``: one tuple per output, one entry per step."""
    diffs = [[(a - b) / (2.0 * h) for a, b in zip(_eval(f, x + s),
                                                  _eval(f, x - s))]
             for s in steps]
    if not diffs:   # nothing to step along: f at x still counts the outputs
        return ((),) * len(_eval(f, x))
    return tuple(zip(*diffs))


def finite_difference(f: Callable[[np.ndarray], float], at,
                      h: float = FD_STEP) -> tuple[float, ...]:
    """Central-difference gradient over the free coordinates."""
    x = _free_coords(at)
    return _central(lambda y: (f(y),), x, h * np.eye(x.size), h)[0]


def _classify_ladder(grads: Sequence[tuple[float, ...]]):
    """Trend classification of a ladder of gradient evaluations.

    Finite when successive evaluations already agree, or when the successive
    differences decay geometrically (a Cauchy trend; the returned vector is
    then the linear-in-epsilon extrapolated limit).  Diverging when the norms
    grow monotonically instead.  Undefined otherwise.
    """
    norms = [math.hypot(*g) for g in grads]
    diffs = [math.hypot(*(b - a for a, b in zip(g, h)))
             for g, h in zip(grads, grads[1:])]
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


def _limit_result(ladder: tuple[tuple[float, ...], ...]) -> GradientResult:
    """One output's Limit result from its gradients down the ladder."""
    kind = _classify_ladder(ladder)
    if kind == "finite":
        # linear model g(eps) = g0 + c*eps fitted to the last two rungs
        e_prev, e_last = DEFAULT_LADDER[-2:]
        scale = e_last / (e_prev - e_last)
        lim = tuple(b + (b - a) * scale for a, b in zip(*ladder[-2:]))
        return GradientResult(kind="finite", components=lim, ladder=ladder)
    if kind == "diverging":
        tail = ladder[-1]
        nrm = math.hypot(*tail)
        direction = tuple(v / nrm for v in tail) if nrm > 0 else None
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
        steps = [[FD_STEP * v for v in q] for q in basis]
        return [GradientResult(kind="finite", components=comps, basis=basis)
                for comps in _central(f, x, steps, FD_STEP)]

    if isinstance(mode, Limit):
        d = np.asarray(mode.direction, dtype=float)
        if d.shape != x.shape:
            raise PreconditionError(
                f"direction has {d.size} components, expected {x.size}")
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
        return [_limit_result(ladder) for ladder in zip(*rungs)]

    raise PreconditionError(f"unknown gradient mode: {mode!r}")


def gradient(f: Callable[[np.ndarray], float], at,
             mode: GradientMode) -> GradientResult:
    """Gradient of ``f`` at ``at`` under the requested semantics."""
    return gradients(lambda x: (f(x),), at, mode)[0]


# ---------------------------------------------------------------------------
# simplex scalars


def simplex_volume(n: int) -> float:
    """Volume 1/(n-1)! of the standard n-outcome probability simplex."""
    if require_count("n", n, 0) < 2:
        raise BadDimension(f"simplex needs n >= 2 outcomes, got {n}")
    return 1.0 / math.factorial(n - 1)


def xlogx(v: float) -> float:
    """v log v with 0 log 0 = 0 and NaN below 0.

    libm's log keeps it bitwise equal to SciPy's xlogy(v, v), as the two
    xlogy pins in tests/test_core.py need; numpy's vectorized log is not.
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


def entropy_of_free(free: Sequence[float]) -> float:
    """Entropy as a function of free coordinates (last coordinate resolved);
    NaN off the simplex."""
    total = 0.0
    for v in free:
        total += v
    return entropy_of_cells((*free, 1.0 - total))


# ---------------------------------------------------------------------------
# polish searches


class Search(NamedTuple):
    """Where a polish search stopped: ``fun`` at ``x`` after ``nit``
    iterations and ``nfev`` evaluations."""

    x: Any   # a float tuple from minimize, a float from minimize_scalar
    fun: float
    nit: int
    nfev: int


def _by_value(sim: list, fsim: list):
    """The simplex and its values, best first, in the order numpy's
    ``argsort`` gives SciPy (ties and NaN included)."""
    order = np.argsort(fsim).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _toward(c: float, xbar: tuple, worst: tuple) -> tuple:
    """c xbar + (1 - c) worst: bitwise SciPy's moves for c = 2, 3, 1.5, 0.5,
    as 1 - c is exact and adding -x rounds as subtracting x."""
    return tuple(c * a + (1.0 - c) * b for a, b in zip(xbar, worst))


def minimize(fun: Callable[[tuple], float], x0, *, xatol: float,
             fatol: float, maxiter: int) -> Search:
    """Nelder-Mead (Nelder & Mead 1965) from ``x0``, step for step SciPy
    1.17's ``minimize(method="Nelder-Mead")`` with its standard
    coefficients, so ``x``, ``fun``, ``nit`` and ``nfev`` are bitwise its.

    The first simplex moves one coordinate of ``x0`` each by 5 % (to
    0.00025 from 0).  The search stops when every vertex is within ``xatol``
    of the best and every value within ``fatol`` (a NaN distance stops
    nothing, as in ``np.max``), or at ``maxiter`` iterations.  Vertices are
    float tuples, ``fun`` gets each probe as one, and the centroid adds them
    left to right, as numpy reduces the rows.
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return float(fun(x))

    x0 = tuple(float(v) for v in x0)
    n = len(x0)
    sim = [x0] + [x0[:k] + ((1.05 * x0[k] if x0[k] != 0 else 0.00025),)
                  + x0[k + 1:] for k in range(n)]
    fsim = [f(v) for v in sim]
    sim, fsim = _by_value(sim, fsim)   # SciPy sorts the first simplex twice
    nit = 1
    while True:
        sim, fsim = _by_value(sim, fsim)
        best, worst = sim[0], sim[-1]
        if nit >= maxiter or (
                all(abs(a - b) <= xatol for v in sim[1:]
                    for a, b in zip(v, best))
                and all(abs(fsim[0] - v) <= fatol for v in fsim[1:])):
            return Search(best, float(np.min(fsim)), nit, nfev)
        xbar = best
        for v in sim[1:-1]:
            xbar = tuple(a + b for a, b in zip(xbar, v))
        xbar = tuple(a / n for a in xbar)
        xr = _toward(2.0, xbar, worst)
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = _toward(3.0, xbar, worst)
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:   # contract outside, towards the reflection
                xc = _toward(1.5, xbar, worst)
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:                # contract inside
                xc = _toward(0.5, xbar, worst)
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                sim[1:] = [tuple(a + 0.5 * (b - a) for a, b in zip(best, v))
                           for v in sim[1:]]
                fsim[1:] = [f(v) for v in sim[1:]]
            else:
                sim[-1], fsim[-1] = xc, fxc
        nit += 1


def minimize_scalar(fun: Callable[[float], float], bounds, *, xatol: float,
                    maxiter: int) -> Search:
    """Bounded Brent search (Brent 1973) over ``bounds``, step for step
    SciPy 1.17's ``minimize_scalar(method="bounded")``, so ``x``, ``fun``
    and ``nfev`` are bitwise its; ``nit`` counts evaluations too.

    ``x`` is the best point so far, ``w`` the second best and ``v`` the one
    before ``w``; a parabola through the three sets the next step when it
    lands inside the bracket [a, b], and a golden section does otherwise.
    The search stops when ``x`` is within about ``xatol`` of the bracket's
    midpoint and the bracket is that narrow, or at ``maxiter`` evaluations.
    """
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    sqrt_eps = math.sqrt(2.2e-16)
    a, b = bounds
    x = w = v = a + golden * (b - a)
    fx = fw = fv = fun(x)
    nfev = 1
    rat = e = 0.0
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(x) + xatol / 3.0
    while abs(x - xm) > 2.0 * tol1 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            parabolic = (abs(p) < abs(0.5 * q * r)
                         and q * (a - x) < p < q * (b - x))
            if parabolic:
                rat = p / q
                u = x + rat
                if u - a < 2.0 * tol1 or b - u < 2.0 * tol1:
                    rat = tol1 if xm >= x else -tol1
        if not parabolic:
            e = a - x if x >= xm else b - x
            rat = golden * e
        step = max(abs(rat), tol1)
        u = x - step if rat < 0 else x + step
        fu = fun(u)
        nfev += 1
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(x) + xatol / 3.0
        if nfev >= maxiter:
            break
    return Search(x, fx, nfev, nfev)
