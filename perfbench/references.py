"""Reference values computed apart from isograd.

Every function here restates the model it checks in its own terms (closed
forms, brute-force enumeration, or mpmath arithmetic at 60 digits) and never
imports isograd, so a fault in the program cannot hide in its own oracle.
``test_references.py`` pins these references against each other and against
the figures the project README prints.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import mpmath as mp

DPS = 60
#: Central-difference step at DPS digits: truncation ~STEP^2, rounding ~1e-20.
STEP = mp.mpf("1e-40")
#: Approach distances used to read a directional limit of a gradient.
LIMIT_NEAR = mp.mpf("1e-25")
LIMIT_FAR = mp.mpf("1e-8")


def _mpf_vec(x) -> list:
    return [mp.mpf(v) for v in x]


def gradient(f: Callable[[list], object], x: Sequence[float]) -> list:
    """Gradient of ``f`` at ``x`` by a 60-digit central difference."""
    with mp.workdps(DPS):
        x = _mpf_vec(x)
        out = []
        for i in range(len(x)):
            up, down = list(x), list(x)
            up[i] += STEP
            down[i] -= STEP
            out.append((f(up) - f(down)) / (2 * STEP))
        return out


def norm(v) -> float:
    return float(mp.sqrt(sum(mp.mpf(c) ** 2 for c in v)))


def limit_gradient(f, x, direction) -> tuple[str, list[float] | None]:
    """Limit of grad f(x + eps*direction) as eps -> 0+.

    Returns ("finite", limit) when the gradients at LIMIT_FAR and LIMIT_NEAR
    agree (the far one is only 1e-8 away), else ("diverging", None).
    """
    with mp.workdps(DPS):
        x, d = _mpf_vec(x), _mpf_vec(direction)
        near = gradient(f, [xi + LIMIT_NEAR * di for xi, di in zip(x, d)])
        far = gradient(f, [xi + LIMIT_FAR * di for xi, di in zip(x, d)])
        gap = norm([a - b for a, b in zip(near, far)])
        if gap <= 1e-6 * (1.0 + norm(near)):
            return "finite", [float(c) for c in near]
        return "diverging", None


def gradient_along(f, x, direction, eps) -> list[float]:
    """grad f at x + eps*direction (one rung of an approach ladder)."""
    with mp.workdps(DPS):
        at = [mp.mpf(xi) + mp.mpf(eps) * mp.mpf(di)
              for xi, di in zip(x, direction)]
        return [float(c) for c in gradient(f, at)]


def _orthonormal(vectors) -> list:
    basis = []
    for g in vectors:
        v = _mpf_vec(g)
        for b in basis:
            dot = sum(vi * bi for vi, bi in zip(v, b))
            v = [vi - dot * bi for vi, bi in zip(v, b)]
        n = mp.sqrt(sum(vi * vi for vi in v))
        if n > mp.mpf("1e-30"):
            basis.append([vi / n for vi in v])
    return basis


def tangent_basis(normals, dim: int) -> list:
    """Orthonormal basis of the space orthogonal to the constraint normals."""
    with mp.workdps(DPS):
        units = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
        full = _orthonormal(list(normals) + units)
        return full[len(_orthonormal(normals)):]


def projected_norm(grad_f, normals) -> float:
    """Norm of grad_f projected onto the tangent space of the constraints."""
    with mp.workdps(DPS):
        g = _mpf_vec(grad_f)
        return norm([sum(gi * ti for gi, ti in zip(g, t))
                     for t in tangent_basis(normals, len(g))])


def tangent_slope_norm(f, x, normals) -> float:
    """Norm of the derivatives of f along a tangent basis of the constraints.

    Steps stay on the tangent line, so f is never evaluated off a boundary
    face the constraints pin (where a log would turn complex).
    """
    with mp.workdps(DPS):
        x = _mpf_vec(x)
        slopes = []
        for t in tangent_basis(normals, len(x)):
            up = [xi + STEP * ti for xi, ti in zip(x, t)]
            down = [xi - STEP * ti for xi, ti in zip(x, t)]
            slopes.append((f(up) - f(down)) / (2 * STEP))
        return norm(slopes)


def xlogx(t):
    return mp.mpf(0) if t == 0 else t * mp.log(t)


def entropy(cells) -> object:
    return -sum(xlogx(t) for t in cells)


# ---------------------------------------------------------------------------
# dice: payoff V(n)^2 * H on the n-sided face, V(n) = 1/(n-1)!

DIE_SIDES = {"Coin": 2, "Triangle": 3, "Square": 4}


def die_volume(sides: int) -> float:
    return 1.0 / math.factorial(sides - 1)


def die_optimum(label: str) -> tuple[float, tuple[float, ...]]:
    """Payoff maximum on one face: uniform live cells, V^2 log n."""
    n = DIE_SIDES[label]
    point = (1.0 / n,) * n + (0.0,) * (4 - n)
    return die_volume(n) ** 2 * math.log(n), point


def die_payoff(label: str, point: Sequence[float]) -> float:
    n = DIE_SIDES[label]
    with mp.workdps(DPS):
        return float(die_volume(n) ** 2 * entropy(_mpf_vec(point)))


# ---------------------------------------------------------------------------
# tree payoff on correlation slices


def tree_payoff(p: float, q: float, r: float) -> float:
    return 2 * p + 3 * q - 3 * p * q - p * r


def tree_joint(p, q, r) -> list:
    """Cells (x,y) = 00, 01, 10, 11 of the two-stage tree."""
    return [(1 - p) * (1 - q), (1 - p) * q, p * (1 - r), p * r]


def joint_correlation(cells) -> float | None:
    """Pearson correlation of a 2x2 joint; None when a marginal is flat."""
    a, b, c, d = (float(v) for v in cells)
    spread = (c + d) * (a + b) * (b + d) * (a + c)
    if spread <= 1e-12:
        return None
    return (a * d - b * c) / math.sqrt(spread)


def tree_correlation(p: float, q: float, r: float) -> float | None:
    return joint_correlation(tree_joint(p, q, r))


@functools.lru_cache(maxsize=None)
def slice_maximum(rho: float) -> tuple[float, tuple[float, float, float]]:
    """Maximum of the tree payoff on the rho slice and one maximizer.

    rho <= 0: the corner p = 0, q = 1 reaches the cube-wide bound 3.
    rho = 1: the pinned line (q, r) = (0, 1) gives payoff p, maximal at 1.
    0 < rho < 1: the maximum rides the bounding curve q = p / (p + k),
    k = rho^2 / (1 - rho^2), r = 1, where the payoff is p + 3q(1 - p); it
    is found by bisecting its slope inside [0, 1] and compared with both
    end points.
    """
    if rho <= 0.0:
        return 3.0, (0.0, 1.0, 1.0 - rho * rho)
    if rho >= 1.0:
        return 1.0, (1.0, 0.0, 1.0)
    with mp.workdps(40):
        rho2 = mp.mpf(rho) ** 2
        k = rho2 / (1 - rho2)

        def curve_q(p):
            return p / (p + k)

        def payoff(p):
            return p + 3 * curve_q(p) * (1 - p)

        def slope(p):
            return mp.diff(payoff, p)

        candidates = [mp.mpf(0), mp.mpf(1)]
        lo, hi = mp.mpf(0), mp.mpf(1)
        if slope(lo) > 0 > slope(hi):
            # bisection never leaves [lo, hi]
            for _ in range(120):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
            candidates.append((lo + hi) / 2)
        best = max(candidates, key=payoff)
        return float(payoff(best)), (float(best), float(curve_q(best)), 1.0)


def slice_maximum_closed_form(rho: float) -> float:
    """Stationary point p* = sqrt(1.5 k (1 + k)) - k, clipped to [0, 1]."""
    k = rho * rho / (1.0 - rho * rho)
    p = min(1.0, max(0.0, math.sqrt(1.5 * k * (1.0 + k)) - k))
    return p + 3.0 * p / (p + k) * (1.0 - p)


def sweep_best_rho(rhos: Sequence[float]) -> float:
    """Row of the largest slice maximum; ties go to the most negative rho."""
    return max(rhos, key=lambda r: (slice_maximum(r)[0], -r))


# ---------------------------------------------------------------------------
# the two-stage game, by enumeration

DEFAULT_X_PAYOFF = (3.0, -2.0, -1.0, 4.0)
DEFAULT_Y_PAYOFF = (1.0, 3.0, 1.0, -2.0)


def _bilinear(c, x, y):
    return c[0] + c[1] * x + c[2] * y + c[3] * x * y


def game_reference(cx=DEFAULT_X_PAYOFF, cy=DEFAULT_Y_PAYOFF) -> dict:
    """Backward induction and the coupling the second mover would pick.

    Backward induction enumerates the four reply plans of Y and keeps the
    one that is a best reply at both announcements; X then enumerates its
    two actions.  Each coupling regime enumerates the action profiles it
    allows: y = x (rho = +1), y = 1 - x (rho = -1), and at rho = 0 the
    pure equilibria of the simultaneous game or, failing those, the mixed
    one from the indifference conditions.  Ties break toward action 0 and
    toward the smaller rho.
    """
    def y_best(x):
        return max((0, 1), key=lambda y: (_bilinear(cy, x, y), -y))

    plan = {x: y_best(x) for x in (0, 1)}
    x_bi = max((0, 1), key=lambda x: (_bilinear(cx, x, plan[x]), -x))
    baseline = (x_bi, plan[x_bi])

    regimes = {}
    for rho, couple in ((1.0, lambda x: x), (-1.0, lambda x: 1 - x)):
        x = max((0, 1), key=lambda x: (_bilinear(cx, x, couple(x)), -x))
        regimes[rho] = (float(x), float(couple(x)))
    pure = [(x, y) for x in (0, 1) for y in (0, 1)
            if _bilinear(cx, x, y) >= _bilinear(cx, 1 - x, y)
            and _bilinear(cy, x, y) >= _bilinear(cy, x, 1 - y)]
    if pure:
        regimes[0.0] = tuple(float(v) for v in pure[0])
    else:
        # X indifferent at q = -cx/cxy, Y indifferent at p = -cy/cxy
        regimes[0.0] = (-cy[2] / cy[3], -cx[1] / cx[3])

    def payoffs(profile):
        return (_bilinear(cx, *profile), _bilinear(cy, *profile))

    chosen = max(sorted(regimes), key=lambda r: (payoffs(regimes[r])[1], -r))
    return {
        "baseline": (tuple(float(v) for v in baseline),
                     payoffs(baseline)),
        "regimes": {r: (s, payoffs(s)) for r, s in regimes.items()},
        "chosen": chosen,
    }


# ---------------------------------------------------------------------------
# 2x2 joints in free coordinates (a, b, c), d = 1 - a - b - c


def cells_of(x):
    a, b, c = x
    return [a, b, c, 1 - a - b - c]


def _mx(j):
    return j[2] + j[3]


def _my(j):
    return j[1] + j[3]


def _corr(j):
    a, b, c, d = j
    return (a * d - b * c) / mp.sqrt((c + d) * (a + b) * (b + d) * (a + c))


def _h_x(j):
    return entropy([j[0] + j[1], j[2] + j[3]])


def _h_y(j):
    return entropy([j[0] + j[2], j[1] + j[3]])


#: The relations each family satisfies identically, as functions of cells.
JOINT_RELATIONS = {
    "correlated": {
        "<x>-<y>": lambda j: _mx(j) - _my(j),
        "V(x)-V(y)": lambda j: _mx(j) * (1 - _mx(j)) - _my(j) * (1 - _my(j)),
        "E_xy-E_x": lambda j: entropy(j) - _h_x(j),
        "rho_xy-1": lambda j: _corr(j) - 1,
    },
    "independent": {
        "P(0,0)-Px(0)Py(0)": lambda j: j[0] - (j[0] + j[1]) * (j[0] + j[2]),
        "<xy>-<x><y>": lambda j: j[3] - _mx(j) * _my(j),
        "P(x=0|y=0)-Px(0)": lambda j: j[0] / (j[0] + j[2]) - (j[0] + j[1]),
        "E_xy-E_x-E_y": lambda j: entropy(j) - _h_x(j) - _h_y(j),
    },
}

#: Gradients of the family constraints in (a, b, c).
def family_normals(family: str, x) -> list:
    a, b, c = (float(v) for v in x)
    if family == "correlated":                 # b = 0, c = 0
        return [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    d = 1.0 - a - b - c                        # a d - b c = 0
    return [[d - a, -a - c, -a - b]]


def joint_relation_reference(family: str, relation: str, x, mode: str,
                             direction=None):
    """("finite", components) / ("finite-norm", norm) / ("diverging", None).

    Constrained mode yields the norm of the projected gradient, because the
    program's tangent-basis orientation is not canonical; limit mode yields
    the directional limit of the ambient gradient.
    """
    rel = JOINT_RELATIONS[family][relation]
    f = lambda v: rel(cells_of(v))
    if mode == "limit":
        return limit_gradient(f, x, direction)
    return "finite-norm", tangent_slope_norm(f, x, family_normals(family, x))


def joint_entropy(v):
    return entropy(cells_of(v))


def fisher_matrix(cells, free_index: Sequence[int]) -> list[list[float]]:
    """Fisher information sum_o P_o d_i log P_o d_j log P_o.

    ``free_index`` lists which cells are free parameters; the last cell is
    resolved by normalization and every other cell is held at its value.
    """
    with mp.workdps(DPS):
        base = _mpf_vec(cells)

        def probs(theta):
            out = list(base)
            for k, i in enumerate(free_index):
                out[i] = theta[k]
            out[-1] = 1 - sum(out[:-1])
            return out

        theta0 = [base[i] for i in free_index]
        live = [o for o, p in enumerate(base) if p > 0]
        scores = {o: gradient(lambda t, o=o: mp.log(probs(t)[o]), theta0)
                  for o in live}
        n = len(free_index)
        return [[float(sum(base[o] * scores[o][i] * scores[o][j]
                           for o in live)) for j in range(n)]
                for i in range(n)]


# ---------------------------------------------------------------------------
# bivariate normal relations at rho = 0

def _normal(x, mu, s):
    return mp.exp(-(x - mu) ** 2 / (2 * s * s)) / (s * mp.sqrt(2 * mp.pi))


def _binormal(x, y, mx, my, sx, sy, r):
    u, v = (x - mx) / sx, (y - my) / sy
    one = 1 - r * r
    return mp.exp(-(u * u - 2 * r * u * v + v * v) / (2 * one)) / (
        2 * mp.pi * sx * sy * mp.sqrt(one))


def gaussian_rho_slope(relation: str, params, probe=None) -> float:
    """d/d(rho) at rho = 0 of one factorization relation, by mpmath."""
    mx, my, sx, sy = (mp.mpf(v) for v in params)
    with mp.workdps(DPS):
        if relation == "<xy>-<x><y>":
            # E[(x - mx)(y - my)] by quadrature at rho = +-h: the covariance
            # of the family, integrated rather than quoted
            def cov(r):
                with mp.workdps(15):
                    return mp.quad(
                        lambda x, y: (x - mx) * (y - my)
                        * _binormal(x, y, mx, my, sx, sy, r),
                        [mx - 10 * sx, mx + 10 * sx],
                        [my - 10 * sy, my + 10 * sy],
                        method="gauss-legendre")
            h = mp.mpf("0.01")
            return float((cov(h) - cov(-h)) / (2 * h))
        x, y = (mp.mpf(v) for v in probe)
        if relation == "P_xy-P_xP_y":
            g = lambda r: (_binormal(x, y, mx, my, sx, sy, r)
                           - _normal(x, mx, sx) * _normal(y, my, sy))
        else:
            g = lambda r: (_normal(x, mx + r * sx / sy * (y - my),
                                   sx * mp.sqrt(1 - r * r))
                           - _normal(x, mx, sx))
        return float(mp.diff(g, 0))


def gaussian_slope_closed_form(relation: str, params, probe=None) -> float:
    """sx sy for the covariance; phi(x) phi(y) u v and phi(x) u v pointwise."""
    mx, my, sx, sy = params
    if relation == "<xy>-<x><y>":
        return sx * sy
    x, y = probe
    u, v = (x - mx) / sx, (y - my) / sy
    phi_x = math.exp(-0.5 * u * u) / (sx * math.sqrt(2 * math.pi))
    phi_y = math.exp(-0.5 * v * v) / (sy * math.sqrt(2 * math.pi))
    if relation == "P_xy-P_xP_y":
        return phi_x * phi_y * u * v
    return phi_x * u * v


# ---------------------------------------------------------------------------
# mixed vs behavioural strategy coordinates (the comparison table)

def mixed_cells(z):
    a1, b1, b2, b3 = z
    return [(1 - a1) * (1 - b2 - b3), (1 - a1) * (b2 + b3),
            a1 * (1 - b1 - b3), a1 * (b1 + b3)]


def behavioural_cells(z):
    p, q, r = z
    return tree_joint(p, q, r)


def _cond(j, y):
    return j[0] / (j[0] + j[2]) if y == 0 else j[1] / (j[1] + j[3])


def _cov(j):
    return j[3] - _mx(j) * _my(j)


def _var_sum(j):
    vx = _mx(j) * (1 - _mx(j))
    vy = _my(j) * (1 - _my(j))
    return vx + vy - 2 * _cov(j)


TABLE_ROWS = {
    "correlated": {
        "P(0,0)+P(1,1)": lambda j: j[0] + j[3],
        "P(0,1)+P(1,0)": lambda j: j[1] + j[2],
        "P_x|y(0|0)": lambda j: _cond(j, 0),
        "P_x|y(0|1)": lambda j: _cond(j, 1),
        "<x>": _mx,
        "<y>": _my,
        "<xy>": lambda j: j[3],
        "V(x)+V(y)-2cov": _var_sum,
        "E_xy-E_x": lambda j: entropy(j) - _h_x(j),
        "rho_xy": _corr,
    },
    "independent": {
        "P(0,0)-Px(0)Py(0)": lambda j: j[0] - (j[0] + j[1]) * (j[0] + j[2]),
        "P(0,1)-Px(0)Py(1)": lambda j: j[1] - (j[0] + j[1]) * (j[1] + j[3]),
        "P(1,0)-Px(1)Py(0)": lambda j: j[2] - (j[2] + j[3]) * (j[0] + j[2]),
        "P(1,1)-Px(1)Py(1)": lambda j: j[3] - (j[2] + j[3]) * (j[1] + j[3]),
        "P_x|y(0|0)-Px(0)": lambda j: _cond(j, 0) - (j[0] + j[1]),
        "P_x|y(0|1)-Px(0)": lambda j: _cond(j, 1) - (j[0] + j[1]),
        "<xy>-<x><y>": _cov,
        "E_xy-E_x-E_y": lambda j: entropy(j) - _h_x(j) - _h_y(j),
        "rho_xy": _corr,
    },
}

_R2, _R11 = math.sqrt(2.0), math.sqrt(11.0)

#: column -> (limit direction or None, sample -> coordinates, coords -> cells)
TABLE_COLUMNS = {
    "correlated": {
        "P_M": ((0.0, -3 / _R11, 1 / _R11, 1 / _R11),
                lambda s: [s["alpha1"], 1.0, 0.0, 0.0], mixed_cells),
        "P_B": ((0.0, 1 / _R2, -1 / _R2),
                lambda s: [s["p"], 0.0, 1.0], behavioural_cells),
        "P_M|beta1=1": (None, lambda s: [s["alpha1"]],
                        lambda z: mixed_cells([z[0], 1, 0, 0])),
        "P_B|(q,r)=(0,1)": (None, lambda s: [s["p"]],
                            lambda z: behavioural_cells([z[0], 0, 1])),
    },
    "independent": {
        "P_M": ((0.0, 0.0, 1.0, 0.0),
                lambda s: [s["alpha1"], s["beta12"], s["beta12"], s["beta3"]],
                mixed_cells),
        "P_B": ((0.0, 0.0, 1.0),
                lambda s: [s["p"], s["q"], s["q"]], behavioural_cells),
        "P_M|beta1=beta2": (None,
                            lambda s: [s["alpha1"], s["beta12"] + s["beta3"]],
                            lambda z: behavioural_cells([z[0], z[1], z[1]])),
        "P_B|r=q": (None, lambda s: [s["p"], s["q"]],
                    lambda z: behavioural_cells([z[0], z[1], z[1]])),
    },
}


def table_cell_reference(case: str, row: str, column: str, sample: dict):
    """("finite", components) or ("diverging", None) for one table cell."""
    direction, coords_of, cells = TABLE_COLUMNS[case][column]
    rel = TABLE_ROWS[case][row]
    f = lambda z: rel(cells(z))
    z = coords_of(sample)
    if direction is None:
        return "finite", [float(c) for c in gradient(f, z)]
    return limit_gradient(f, z, direction)


# ---------------------------------------------------------------------------
# quadratics for the differentiation engine

def quadratic_gradient(A, b, x) -> list[float]:
    """grad (x^T A x / 2 + b^T x) = A x + b for symmetric A."""
    return [math.fsum(A[i][j] * x[j] for j in range(len(x))) + b[i]
            for i in range(len(x))]
