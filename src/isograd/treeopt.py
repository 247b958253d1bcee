"""Correlation-constrained payoff optimization on a two-stage binary tree.

A first coin lands heads with probability ``p``; a second coin lands heads
with probability ``q`` after tails and ``r`` after heads.  Fixing the
correlation ``rho`` between the two outcomes carves a surface ``r = r_plus(p,
q, rho)`` out of the (p, q, r) cube, and each such slice supports its own
constrained optimum of a payoff that is polylinear in the three
probabilities.  This module provides the surface geometry (the ``r_plus``
branch, its continuous extension :func:`surface` and the permissible (p, q)
:func:`region` of one slice), a discrepancy-style payoff whose value depends
on which gradient semantics the optimizer is allowed to use, and
deterministic maximizers for both.

The slice maximizer meshes the (p, q) square, refines on the bounding curve
(rho > 0) or at the corner grid node (rho <= 0), and cross-checks the two;
:func:`sweep` runs it on the nine standard slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .errors import (
    BadParams,
    ConvergenceFailure,
    InfeasiblePoint,
    OutOfRange,
    SingularP,
    SingularRho,
)
from .reports import OptimumReport

#: Tolerance of the region predicates.
RANGE_TOL = 1e-9
#: One-sided offset used to evaluate the surface by continuity at p in {0,1}.
_P_EDGE = 1e-9
#: Default per-axis resolution of the slice-optimizer grid.
DEFAULT_GRID = 401
#: Per-axis resolution of the discrepancy grid (3-D cube) and default
#: per-axis resolution of :func:`surface_points`.
DISCREPANCY_GRID = 41
#: Correlation labels of the standard sweep, from +1 down to -1.
DEFAULT_RHOS = (1.0, 0.75, 0.5, 0.25, 0.0, -0.25, -0.5, -0.75, -1.0)
#: Grid and refined optima may differ by at most this much in value.
_DISAGREEMENT_TOL = 1e-3


# ---------------------------------------------------------------------------
# surface geometry


def _validate_rho(rho: float) -> float:
    rho = float(rho)
    if not -1.0 <= rho <= 1.0:
        raise OutOfRange(f"correlation must lie in [-1, 1], got {rho!r}")
    return rho


def _branch_raw(p, q, rho: float):
    """Upper quadratic root for r at fixed (p, q, rho); no validation.

    ``p`` must stay inside (0, 1): the discriminant carries a 1/p and the
    denominator vanishes only at p = 1 (for |rho| = 1).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    rho2 = rho * rho
    disc = rho2 + 4.0 * q * (1.0 - q) * (1.0 - p) / p
    num = rho2 - 2.0 * q * (1.0 - p) * (rho2 - 1.0) + rho * np.sqrt(disc)
    den = 2.0 * (1.0 + p * (rho2 - 1.0))
    return num / den


def r_plus(p: float, q: float, rho: float) -> float:
    """Upper root of the correlation equation: the surface branch.

    For every interior ``p`` and permissible ``q`` the point ``(p, q,
    r_plus(p, q, rho))`` has outcome correlation exactly ``rho``; at ``rho =
    0`` the branch collapses to ``r = q`` (independent stages).  The lower
    root is ``r_plus(p, q, -rho)``.
    """
    p, q, rho = float(p), float(q), _validate_rho(rho)
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"p must lie in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        raise SingularP("the r branches are singular at p=0 and p=1; "
                        "evaluate one-sided limits explicitly if needed")
    if not 0.0 <= q <= 1.0:
        raise OutOfRange(f"q must lie in [0, 1], got {q!r}")
    return float(_branch_raw(p, q, rho))


def _surface_clamped(p, q, rho: float):
    """r_plus with p clipped into [_P_EDGE, 1 - _P_EDGE] (one-sided limits)."""
    p = np.clip(np.asarray(p, dtype=float), _P_EDGE, 1.0 - _P_EDGE)
    return _branch_raw(p, q, rho)


def permissible_bound(p: float, rho: float) -> float:
    """The q value where ``r_plus`` exits [0, 1] at this ``p``.

    For ``rho > 0`` the feasible band is ``0 <= q <= bound`` with ``bound =
    p / (p + rho^2/(1 - rho^2))``; for ``rho < 0`` it is ``bound <= q <= 1``
    with ``bound = 1 / (1 + p (1 - rho^2)/rho^2)``.  On the bound itself the
    surface touches r = 1 (rho > 0) or r = 0 (rho < 0).
    """
    p, rho = float(p), float(rho)
    if rho == 0.0:
        raise SingularRho("every q in [0, 1] is permissible at rho=0; "
                          "there is no bounding curve")
    if not -1.0 < rho < 1.0:
        raise OutOfRange(f"the bound needs rho in (-1, 1) \\ {{0}}, got {rho!r}")
    if not 0.0 < p <= 1.0:
        raise OutOfRange(f"p must lie in (0, 1], got {p!r}")
    return float(_bound_clamped(p, rho))


def _bound_clamped(p, rho: float):
    """Vectorized permissible bound with p clipped away from 0."""
    p = np.clip(np.asarray(p, dtype=float), _P_EDGE, 1.0)
    rho2 = rho * rho
    if rho > 0.0:
        return p / (p + rho2 / (1.0 - rho2))
    return 1.0 / (1.0 + p * (1.0 - rho2) / rho2)


def surface(p, q, rho: float):
    """The slice surface r_plus at (p, q), by continuity at p in {0, 1}."""
    return _surface_clamped(p, q, _validate_rho(rho))


def region(p, q, rho: float) -> np.ndarray:
    """Boolean mask of (p, q) pairs whose surface point is permissible.

    Besides ``0 <= r_plus <= 1`` this enforces the bounding curve of
    :func:`permissible_bound`: the raw range check alone also accepts the
    q = 1 line (where the root formula degenerates to r = 1 without the
    correlation being defined there).
    """
    rho = _validate_rho(rho)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return _mask(p, q, _surface_clamped(p, q, rho), rho)


def _mask(p: np.ndarray, q: np.ndarray, r, rho: float) -> np.ndarray:
    """:func:`region` given the surface values ``r`` at (p, q)."""
    ok = (p >= -RANGE_TOL) & (p <= 1.0 + RANGE_TOL) \
        & (q >= -RANGE_TOL) & (q <= 1.0 + RANGE_TOL)
    if rho == 0.0:
        return ok
    ok &= (r >= -RANGE_TOL) & (r <= 1.0 + RANGE_TOL)
    if abs(rho) < 1.0:
        bound = _bound_clamped(p, rho)
        if rho > 0.0:
            ok &= q <= bound + RANGE_TOL
        else:
            ok &= q >= bound - RANGE_TOL
    return ok


def surface_points(rho: float, grid: int = DISCREPANCY_GRID) -> np.ndarray:
    """Permissible (p, q, r) triples of one slice, as an (n, 3) array.

    At ``|rho| = 1`` the surface degenerates to the pinned lines
    (p, 0, 1) / (p, 1, 0); otherwise the unit square is meshed at ``grid``
    points per axis and masked by :func:`region`.
    """
    rho = _validate_rho(rho)
    grid = _validate_grid(grid, minimum=2)
    g = np.linspace(0.0, 1.0, grid)
    if rho == 1.0:
        return np.column_stack([g, np.zeros_like(g), np.ones_like(g)])
    if rho == -1.0:
        return np.column_stack([g, np.ones_like(g), np.zeros_like(g)])
    P, Q = np.meshgrid(g, g, indexing="ij")
    R = _surface_clamped(P, Q, rho)
    mask = _mask(P, Q, R, rho)
    R = np.clip(R, 0.0, 1.0)
    return np.column_stack([P[mask], Q[mask], R[mask]])


# ---------------------------------------------------------------------------
# discrepancy payoff (gradient-semantics sensitive)


def agreement_probability(p: float, q: float, r: float) -> float:
    """Probability that the two stage outcomes coincide: 1 - q + p(q + r - 1)."""
    return 1.0 - q + p * (q + r - 1.0)


def discrepancy_payoff(p: float, q: float, r: float,
                       mode: str = "unconstrained") -> float:
    """Payoff 1 - |grad of the agreement probability|^2.

    ``"unconstrained"`` takes the gradient over all three coordinates, giving
    ``1 - (q + r - 1)^2 - (1 - p)^2 - p^2``.  ``"constrained"`` pins
    (q, r) = (0, 1) so only the p-derivative survives, and that derivative,
    q + r - 1, vanishes identically on the pinned line: the payoff is
    constantly 1 there.
    """
    p, q, r = float(p), float(q), float(r)
    if mode == "unconstrained":
        return 1.0 - (q + r - 1.0) ** 2 - (1.0 - p) ** 2 - p ** 2
    if mode == "constrained":
        if abs(q) > RANGE_TOL or abs(r - 1.0) > RANGE_TOL:
            raise InfeasiblePoint(
                "the constrained payoff is defined on the pinned line "
                f"(q, r) = (0, 1); got q={q!r}, r={r!r}")
        return 1.0 - (q + r - 1.0) ** 2
    raise BadParams(f"mode must be 'unconstrained' or 'constrained', got {mode!r}")


def maximize_discrepancy(mode: str = "unconstrained") -> OptimumReport:
    """Maximize the discrepancy payoff under the given gradient semantics.

    Unconstrained: value 1/2, attained on the ridge p = 1/2, q + r = 1; the
    lexicographically smallest maximizer (1/2, 0, 1) is reported.
    Constrained to (q, r) = (0, 1): the payoff is constantly 1 in p, and the
    representative p = 0 is reported.
    """
    if mode == "constrained":
        return OptimumReport(
            label="constrained",
            point=(0.0, 0.0, 1.0),
            value=1.0,
            mode="discrepancy",
            diagnostics={"grid": 0, "iterations": 0, "boundary": True,
                         "note": "payoff is constant in p on the pinned "
                                 "line; p reported as 0"},
        )
    if mode != "unconstrained":
        raise BadParams(
            f"mode must be 'unconstrained' or 'constrained', got {mode!r}")
    g = np.linspace(0.0, 1.0, DISCREPANCY_GRID)
    P, Q, R = np.meshgrid(g, g, g, indexing="ij")
    F = 1.0 - (Q + R - 1.0) ** 2 - (1.0 - P) ** 2 - P ** 2
    flat = int(np.argmax(F))  # first maximum in C order: lexicographic point
    pi, qi, ri = np.unravel_index(flat, F.shape)
    point = np.array([g[pi], g[qi], g[ri]])
    value = float(F[pi, qi, ri])

    def negated(z: np.ndarray) -> float:
        p, q, r = np.clip(z, 0.0, 1.0)
        return -discrepancy_payoff(p, q, r)

    res = minimize(negated, point, method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 2000})
    if -res.fun > value + 1e-12:
        point = np.clip(res.x, 0.0, 1.0)
        value = float(-res.fun)
    boundary = bool(np.any(point <= 1e-9) or np.any(point >= 1.0 - 1e-9))
    return OptimumReport(
        label="unconstrained",
        point=tuple(float(c) for c in point),
        value=value,
        mode="discrepancy",
        diagnostics={"grid": DISCREPANCY_GRID, "iterations": int(res.nit),
                     "boundary": boundary},
    )


# ---------------------------------------------------------------------------
# payoff maximization on a correlation slice


def _validate_grid(grid: int, minimum: int) -> int:
    if not isinstance(grid, (int, np.integer)) or isinstance(grid, bool):
        raise BadParams(f"grid must be an integer, got {grid!r}")
    if grid < minimum:
        raise BadParams(f"grid must be at least {minimum}, got {grid}")
    return int(grid)


def slice_payoff(p, q, rho: float):
    """Expected tree payoff 2p + 3q - 3pq - p*r on a slice, 0 off-region.

    ``r`` is the slice surface value; the multiplication by the region
    indicator mirrors a penalty-by-indicator objective.  At rho = 0 the
    expression reduces to 2p + 3q - 4pq on the whole square.
    """
    rho = _validate_rho(rho)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = _surface_clamped(p, q, rho)
    value = 2.0 * p + 3.0 * q - 3.0 * p * q - p * r
    out = np.where(_mask(p, q, r, rho), value, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def maximize_payoff_on_slice(rho: float, grid: int = DEFAULT_GRID) -> OptimumReport:
    """Maximize the tree payoff over one constant-correlation slice.

    Deterministic scheme in three steps:

    1. Grid: :func:`slice_payoff` on a ``grid`` x ``grid`` mesh of the unit
       (p, q) square; the first maximum in C order is the grid optimum.
    2. Refinement where the optimum is known to lie.  For 0 < rho < 1 it
       rides the bounding curve q = p/(p + k), k = rho^2/(1 - rho^2), where
       r = 1 and the payoff is p + 3q(1 - p); a bounded 1-D search (Brent)
       along that curve refines it.  For rho <= 0 the payoff is
       3 - 3(1 - p)(1 - q) - p(1 + r) <= 3, with equality only at the corner
       (p, q) = (0, 1), which is a grid node and the refined optimum.
    3. Cross-check: if the refined and grid values differ by more than 1e-3,
       :class:`ConvergenceFailure` is raised (the grid is too coarse to
       confirm the refinement).

    The extreme slices rho = +/-1 are hard pins (q, r) = (0, 1) / (1, 0),
    leaving a linear payoff in p alone.  ``diagnostics["iterations"]``
    counts the payoff evaluations of the 1-D search (0 for rho <= 0).
    """
    rho = _validate_rho(rho)
    grid = _validate_grid(grid, minimum=11)
    if rho == 1.0:
        # payoff p on the pinned line; maximal at p = 1
        return OptimumReport(
            label="rho=+1", point=(1.0, 0.0, 1.0), value=1.0, mode="slice",
            diagnostics={"rho": rho, "grid": grid, "iterations": 0,
                         "boundary": True, "pinned": True, "grid_value": 1.0},
        )
    if rho == -1.0:
        # payoff 3 - p on the pinned line; maximal at p = 0
        return OptimumReport(
            label="rho=-1", point=(0.0, 1.0, 0.0), value=3.0, mode="slice",
            diagnostics={"rho": rho, "grid": grid, "iterations": 0,
                         "boundary": True, "pinned": True, "grid_value": 3.0},
        )

    g = np.linspace(0.0, 1.0, grid)
    P, Q = np.meshgrid(g, g, indexing="ij", sparse=True)
    V = slice_payoff(P, Q, rho)
    gi, gj = np.unravel_index(int(np.argmax(V)), V.shape)
    grid_value = float(V[gi, gj])
    candidates = [(grid_value, float(g[gi]), float(g[gj]))]
    if rho > 0.0:
        res = minimize_scalar(
            lambda p: -float(slice_payoff(p, float(_bound_clamped(p, rho)), rho)),
            bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
        iterations = int(res.nfev)
        pb = float(res.x)
        candidates.append((float(-res.fun), pb, float(_bound_clamped(pb, rho))))
    else:
        iterations = 0
        candidates.append((float(slice_payoff(0.0, 1.0, rho)), 0.0, 1.0))

    value, p, q = max(candidates, key=lambda c: (c[0], -c[1], -c[2]))
    disagreement = abs(value - grid_value)
    if disagreement > _DISAGREEMENT_TOL:
        raise ConvergenceFailure(
            f"slice rho={rho:+g}: grid optimum {grid_value:.6f} and refined "
            f"optimum {value:.6f} disagree by {disagreement:.2e} "
            f"(> {_DISAGREEMENT_TOL:g}); increase the grid resolution")
    r = float(np.clip(_surface_clamped(p, q, rho), 0.0, 1.0))
    bound_gap = (abs(q - float(_bound_clamped(p, rho)))
                 if 0.0 < abs(rho) < 1.0 else np.inf)
    boundary = bool(min(p, 1.0 - p, q, 1.0 - q, r, 1.0 - r) <= 1e-6
                    or bound_gap <= 1e-6)
    return OptimumReport(
        label=f"rho={rho:+g}", point=(p, q, r), value=value, mode="slice",
        diagnostics={"rho": rho, "grid": grid, "iterations": iterations,
                     "boundary": boundary, "grid_value": grid_value,
                     "disagreement": disagreement},
    )


@dataclass(frozen=True)
class SweepResult:
    """Per-slice optima plus the best slice overall."""

    rows: tuple[OptimumReport, ...]
    best: OptimumReport


def sweep(grid: int = DEFAULT_GRID) -> SweepResult:
    """Maximize the slice payoff for each of the nine standard labels.

    The labels run from +1 down to -1 (:data:`DEFAULT_RHOS`).  The global
    best is the row of largest value; exact ties resolve toward the most
    negative correlation.
    """
    rows = tuple(maximize_payoff_on_slice(rho, grid) for rho in DEFAULT_RHOS)
    best = max(rows, key=lambda rep: (rep.value, -rep.diagnostics["rho"]))
    return SweepResult(rows=rows, best=best)
