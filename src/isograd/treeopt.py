"""Correlation-constrained payoff optimization on a two-stage binary tree.

A first coin lands heads with probability ``p``; a second coin lands heads
with probability ``q`` after tails and ``r`` after heads.  Fixing the
correlation ``rho`` between the two outcomes carves a surface r(p, q) out
of the (p, q, r) cube, and each such slice supports its own constrained
optimum of a payoff that is polylinear in the three probabilities.  This
module provides the surface geometry (the upper root of the correlation
equation, read by :func:`_surface_clamped` at p clipped just inside (0, 1),
where the root is singular, and the permissible (p, q) pairs of one slice,
which :func:`surface_points` and :func:`slice_payoff` mask by), a
discrepancy-style payoff whose value depends on which gradient semantics
the optimizer is allowed to use, and deterministic maximizers for both.

The slice maximizer meshes the (p, q) square, refines on the bounding curve
(rho > 0) or at the corner grid node (rho <= 0), and cross-checks the two;
:func:`sweep` runs it on the nine standard slices.  The mesh is evaluated in
cache-sized row blocks, each trimmed to the columns inside the feasible band
at its rows, and a block is skipped when an upper bound on the payoff of its
rows falls strictly below the best node found so far (for rho <= 0 only the
first block, which holds the corner, is evaluated); :func:`_grid_maximum`
says why neither changes a bit of the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import minimize, minimize_scalar, require_finite
from .errors import (
    BadParams,
    ConvergenceFailure,
    InfeasiblePoint,
    NonFinite,
    OutOfRange,
)
from .reports import OptimumReport

#: Tolerance of the region predicates.
RANGE_TOL = 1e-9
#: How far inside (0, 1) p is clipped before the surface root is read.
_P_EDGE = 1e-9
#: Default per-axis resolution of the slice-optimizer grid.
DEFAULT_GRID = 401
#: Per-axis resolution of the discrepancy grid (3-D cube) and default
#: per-axis resolution of :func:`surface_points`.
DISCREPANCY_GRID = 41
#: Largest per-axis resolution :func:`surface_points` and the slice
#: optimizer accept: a 4001 x 4001 mesh has 16 M nodes, 128 MB per float64
#: array.
MAX_GRID = 4001
#: Correlation labels of the standard sweep, from +1 down to -1.
DEFAULT_RHOS = (1.0, 0.75, 0.5, 0.25, 0.0, -0.25, -0.5, -0.75, -1.0)
#: Grid and refined optima may differ by at most this much in value.
_DISAGREEMENT_TOL = 1e-3
#: Most slice-mesh nodes evaluated at once, so that a block's float64
#: temporaries (128 KiB each) stay in the L2 cache.
_BLOCK_NODES = 16384
#: Margin added to the row bounds of :func:`_grid_maximum`: more than the
#: rounding error of a float payoff or bound, which is below 1e-14.
_ROUNDING_SLACK = 1e-12


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


def _surface_clamped(p, q, rho: float):
    """The slice surface r at (p, q): the upper root with p clipped into
    [_P_EDGE, 1 - _P_EDGE] and q into [0, 1], so that every node of the
    unit square and of the RANGE_TOL band of :func:`_mask` reads a finite r.

    For every interior ``p`` and permissible ``q`` the point ``(p, q, r)``
    has outcome correlation exactly ``rho``.  At ``rho = 0`` it collapses to
    ``r = q`` (independent stages); the lower root is the surface at
    ``-rho``.  p = _P_EDGE is a probe point, not a limit: for 0 < q < 1 and
    rho != 0 the root grows like |rho| sqrt(q(1 - q)/p) as p -> 0, so it
    leaves [0, 1] there and :func:`_mask` removes those nodes.
    """
    p = np.clip(np.asarray(p, dtype=float), _P_EDGE, 1.0 - _P_EDGE)
    q = np.clip(np.asarray(q, dtype=float), 0.0, 1.0)
    return _branch_raw(p, q, rho)


def _bound_clamped(p, rho: float):
    """The q where the surface exits [0, 1] at ``p``, with p clipped away
    from 0; for rho != 0.

    For ``rho > 0`` the feasible band is ``0 <= q <= bound`` with ``bound =
    p / (p + rho^2/(1 - rho^2))``; for ``rho < 0`` it is ``bound <= q <= 1``
    with ``bound = 1 / (1 + p (1 - rho^2)/rho^2)``.  On the bound itself the
    surface touches r = 1 (rho > 0) or r = 0 (rho < 0).
    """
    p = np.clip(np.asarray(p, dtype=float), _P_EDGE, 1.0)
    rho2 = rho * rho
    if rho > 0.0:
        return p / (p + rho2 / (1.0 - rho2))
    return 1.0 / (1.0 + p * (1.0 - rho2) / rho2)


def _mask(p: np.ndarray, q: np.ndarray, r, rho: float) -> np.ndarray:
    """Boolean mask of the (p, q) pairs whose surface value ``r`` is
    permissible.

    Besides ``0 <= r <= 1`` this enforces the bounding curve of
    :func:`_bound_clamped`: the range check alone also accepts the q = 1
    line, where the root formula degenerates to r = 1 without the
    correlation being defined there.
    """
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
    points per axis and masked by :func:`_mask`.
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


def _unconstrained_discrepancy(p, q, r):
    """1 - (q + r - 1)^2 - (1 - p)^2 - p^2, for floats or arrays alike."""
    return 1.0 - (q + r - 1.0) ** 2 - (1.0 - p) ** 2 - p ** 2


def discrepancy_payoff(p: float, q: float, r: float,
                       mode: str = "unconstrained") -> float:
    """Payoff 1 - |grad of the agreement probability|^2.

    The agreement probability, the chance that the two stage outcomes
    coincide, is (1 - p)(1 - q) + pr = 1 - q + p(q + r - 1).

    ``"unconstrained"`` takes the gradient over all three coordinates, giving
    ``1 - (q + r - 1)^2 - (1 - p)^2 - p^2``.  ``"constrained"`` pins
    (q, r) = (0, 1) so only the p-derivative survives, and that derivative,
    q + r - 1, vanishes identically on the pinned line: the payoff is
    constantly 1 there.  NaN or infinite coordinates raise
    :class:`NonFinite`.
    """
    p, q, r = float(p), float(q), float(r)
    require_finite((p, q, r))
    if mode == "unconstrained":
        return _unconstrained_discrepancy(p, q, r)
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
    P, Q, R = np.meshgrid(g, g, g, indexing="ij", sparse=True)
    F = _unconstrained_discrepancy(P, Q, R)
    flat = int(np.argmax(F))  # first maximum in C order: lexicographic point
    pi, qi, ri = np.unravel_index(flat, F.shape)
    point = np.array([g[pi], g[qi], g[ri]])
    value = float(F[pi, qi, ri])

    def negated(z: np.ndarray) -> float:
        p, q, r = np.clip(z, 0.0, 1.0)
        return -discrepancy_payoff(p, q, r)

    res = minimize(negated, point, xatol=1e-10, fatol=1e-13, maxiter=2000)
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
    if grid > MAX_GRID:
        raise BadParams(f"grid must be at most {MAX_GRID}, got {grid}")
    return int(grid)


def slice_payoff(p, q, rho: float):
    """Expected tree payoff 2p + 3q - 3pq - p*r on a slice, 0 off-region.

    ``r`` is the slice surface value; the multiplication by the region
    indicator mirrors a penalty-by-indicator objective.  At rho = 0 the
    expression reduces to 2p + 3q - 4pq on the whole square.  NaN or
    infinite ``p`` or ``q`` raise :class:`NonFinite` rather than read as
    off-region; the check runs on the arrays as given, so a sparse mesh
    pays for its row and column vectors, not for every node.
    """
    rho = _validate_rho(rho)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise NonFinite("slice payoff needs finite p and q")
    r = _surface_clamped(p, q, rho)
    value = 2.0 * p + 3.0 * q - 3.0 * p * q - p * r
    out = np.where(_mask(p, q, r, rho), value, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _grid_maximum(g: np.ndarray, rho: float) -> tuple[float, int, int]:
    """First maximum in C order of :func:`slice_payoff` on the g x g mesh.

    Returns ``(value, i, j)`` with the maximum at (p, q) = (g[i], g[j]), for
    -1 < rho < 1.  The rows go in blocks of at most :data:`_BLOCK_NODES`
    nodes; across blocks only a strictly larger value wins, so ties keep the
    first node.  Two kinds of node are never evaluated, and neither can be
    the argmax:

    - Band trim.  A block evaluates the columns that pass :func:`_mask`'s
      bounding-curve test (q <= bound + RANGE_TOL for rho > 0, q >= bound -
      RANGE_TOL for rho < 0) at one of its rows or more; each node left out
      fails that test at its own row, so its payoff is 0.  The maximum is
      positive (at least p at q = 0 for rho > 0, 3 at (0, 1) for rho < 0).
    - Row bound.  Let stop_i be the end of row i's band (n for rho <= 0).  A
      node of row i that passes the mask has r >= -RANGE_TOL (at rho = 0,
      where the mask does not test r, r = q >= 0) and q <= g[stop_i - 1],
      so its exact payoff 2p + 3q(1 - p) - pr is at most ``2p + 3(1 - p)
      g[stop_i - 1] + p RANGE_TOL``, and a masked node reads 0, below
      that positive bound.  The float payoff and the float bound each take
      a handful of roundings of terms no larger than 5, so each is off by
      less than 1e-14, and adding :data:`_ROUNDING_SLACK` = 1e-12 gives a
      bound ``ub_i`` that every float value of row i stays strictly below.  A block whose
      largest ``ub_i`` is below the best value so far holds no node that
      could win or tie, so it is skipped.  For rho <= 0 the first block
      holds the corner (0, 1), which reads 3, while ub_i = 3 - p_i(1 -
      RANGE_TOL) + slack is below 3 from row 1 on: only that block runs.

    Each evaluated node goes through the same elementwise operations as on
    the whole mesh, so its value is bitwise the same.
    """
    n = g.size
    first, stop = np.zeros(n, dtype=int), np.full(n, n)
    if rho > 0.0:
        stop = np.searchsorted(g, _bound_clamped(g, rho) + RANGE_TOL,
                               side="right")
    elif rho < 0.0:
        first = np.searchsorted(g, _bound_clamped(g, rho) - RANGE_TOL,
                                side="left")
    ub = (2.0 * g + 3.0 * (1.0 - g) * g[stop - 1] + g * RANGE_TOL
          + _ROUNDING_SLACK)
    P, Q = np.meshgrid(g, g, indexing="ij", sparse=True)
    rows = max(1, _BLOCK_NODES // n)
    best = (-np.inf, 0, 0)
    for lo in range(0, n, rows):
        hi = lo + rows
        if ub[lo:hi].max() < best[0]:
            continue
        c0 = int(first[lo:hi].min())
        V = slice_payoff(P[lo:hi], Q[:, c0:int(stop[lo:hi].max())], rho)
        i, j = np.unravel_index(int(np.argmax(V)), V.shape)
        if V[i, j] > best[0]:
            best = (float(V[i, j]), lo + int(i), c0 + int(j))
    return best


def maximize_payoff_on_slice(rho: float, grid: int = DEFAULT_GRID) -> OptimumReport:
    """Maximize the tree payoff over one constant-correlation slice.

    Deterministic scheme in three steps:

    1. Grid: :func:`slice_payoff` on a ``grid`` x ``grid`` mesh of the unit
       (p, q) square; the first maximum in C order is the grid optimum.  The
       mesh is evaluated in blocks of rows, each trimmed to the columns the
       bounding curve admits at those rows, and a block whose payoff bound
       is below the best node so far is skipped (see :func:`_grid_maximum`).
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
    if abs(rho) == 1.0:
        # payoff p on the rho = +1 line, maximal at p = 1; 3 - p on the
        # rho = -1 line, maximal at p = 0
        value, point = ((1.0, (1.0, 0.0, 1.0)) if rho > 0
                        else (3.0, (0.0, 1.0, 0.0)))
        return OptimumReport(
            label=f"rho={rho:+g}", point=point, value=value, mode="slice",
            diagnostics={"rho": rho, "grid": grid, "iterations": 0,
                         "boundary": True, "pinned": True, "grid_value": value},
        )

    g = np.linspace(0.0, 1.0, grid)
    grid_value, gi, gj = _grid_maximum(g, rho)
    candidates = [(grid_value, float(g[gi]), float(g[gj]))]
    if rho > 0.0:
        res = minimize_scalar(
            lambda p: -float(slice_payoff(p, float(_bound_clamped(p, rho)), rho)),
            bounds=(0.0, 1.0), xatol=1e-12, maxiter=500)
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
