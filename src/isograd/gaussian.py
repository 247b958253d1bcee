"""Correlated bivariate normal family and its gradient relation checks.

At rho = 0 the joint density factorizes, the conditional collapses onto the
marginal, and the covariance vanishes.  Each of those three relations can be
differentiated two ways:

* constrained — pin rho = 0 and differentiate in the remaining coordinates;
  every relation is identically zero on that slice, so the gradient vanishes;
* limit — step rho = epsilon down a ladder and differentiate in the full
  coordinate set; the rho-component converges to the analytic d/d(rho) of the
  relation, which is nonzero away from degenerate probes.

Pointwise relations are functions of (x, y, mu_x, mu_y, sigma_x, sigma_y,
rho); the covariance relation integrates x and y out and lives on
(mu_x, mu_y, sigma_x, sigma_y, rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (ConstraintSet, GradientResult, gradient, mode_named,
                   require_finite)
from .errors import BadParams, InfeasiblePoint, PreconditionError

TWO_PI = 2.0 * math.pi
#: Gauss-Legendre nodes per axis; the box spans mu +- QUADRATURE_SPAN * sigma.
QUADRATURE_NODES = 64
QUADRATURE_SPAN = 8.0

POINTWISE_VARS = ("x", "y", "mu_x", "mu_y", "sigma_x", "sigma_y", "rho")
EXPECTATION_VARS = ("mu_x", "mu_y", "sigma_x", "sigma_y", "rho")


@dataclass(frozen=True)
class NormalParams:
    """Parameters of a correlated bivariate normal distribution."""

    mu_x: float = 0.0
    mu_y: float = 0.0
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        require_finite(vars(self).values())
        if not (self.sigma_x > 0.0 and self.sigma_y > 0.0):
            raise BadParams(
                f"standard deviations must be positive: "
                f"({self.sigma_x}, {self.sigma_y})")
        if not abs(self.rho) < 1.0:
            raise BadParams(f"correlation must lie in (-1, 1): {self.rho}")

    def as_array(self) -> np.ndarray:
        return np.array([self.mu_x, self.mu_y, self.sigma_x, self.sigma_y,
                         self.rho], dtype=float)


# ---------------------------------------------------------------------------
# densities (internal forms are vectorized over x, y)

def _normal(x, mu, sigma):
    z = (np.asarray(x, dtype=float) - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(TWO_PI))


def _joint(x, y, mu_x, mu_y, sigma_x, sigma_y, rho):
    u = (np.asarray(x, dtype=float) - mu_x) / sigma_x
    v = (np.asarray(y, dtype=float) - mu_y) / sigma_y
    one = 1.0 - rho * rho
    q = (u * u - 2.0 * rho * u * v + v * v) / (2.0 * one)
    return np.exp(-q) / (TWO_PI * sigma_x * sigma_y * math.sqrt(one))


def joint_pdf(params: NormalParams, x, y):
    """Joint density of the correlated pair at (x, y)."""
    return _joint(x, y, params.mu_x, params.mu_y,
                  params.sigma_x, params.sigma_y, params.rho)


def marginal_pdf_x(params: NormalParams, x):
    return _normal(x, params.mu_x, params.sigma_x)


def marginal_pdf_y(params: NormalParams, y):
    return _normal(y, params.mu_y, params.sigma_y)


def conditioned_mean_x(params: NormalParams, y: float) -> float:
    """Mean of x given y: mu_x + rho (sigma_x/sigma_y)(y - mu_y)."""
    return params.mu_x + params.rho * (params.sigma_x / params.sigma_y) * (
        y - params.mu_y)


def conditional_pdf_x_given_y(params: NormalParams, x, y):
    """Density of x given y: normal with shifted mean, shrunken variance."""
    sigma = params.sigma_x * math.sqrt(1.0 - params.rho * params.rho)
    return _normal(x, conditioned_mean_x(params, y), sigma)


# ---------------------------------------------------------------------------
# moments

def closed_moments(params: NormalParams) -> dict[str, float]:
    """First moments of the joint family in closed form."""
    return {
        "<x>": params.mu_x,
        "<y>": params.mu_y,
        "<xy>": params.mu_x * params.mu_y
                + params.rho * params.sigma_x * params.sigma_y,
    }


def quadrature_expectation(params: NormalParams, f) -> float:
    """E[f(x, y)] by a tensor Gauss-Legendre rule over the quadrature box."""
    t, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    half_x = QUADRATURE_SPAN * params.sigma_x
    half_y = QUADRATURE_SPAN * params.sigma_y
    xs = params.mu_x + half_x * t
    ys = params.mu_y + half_y * t
    wx = w * half_x
    wy = w * half_y
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    vals = np.asarray(f(X, Y), dtype=float) * joint_pdf(params, X, Y)
    return float(wx @ vals @ wy)


def pdf_integral(params: NormalParams) -> float:
    """Total mass of the joint density over the quadrature box."""
    return quadrature_expectation(params, lambda x, y: np.ones_like(x))


# ---------------------------------------------------------------------------
# gradient relations

def _pointwise_joint_minus_product(z) -> float:
    x, y, *params = (float(v) for v in z)
    p = NormalParams(*params)
    return float(joint_pdf(p, x, y) - marginal_pdf_x(p, x) * marginal_pdf_y(p, y))


def _pointwise_conditional_minus_marginal(z) -> float:
    x, y, *params = (float(v) for v in z)
    p = NormalParams(*params)
    return float(conditional_pdf_x_given_y(p, x, y) - marginal_pdf_x(p, x))


def _expectation_covariance(z) -> float:
    mx, my, sx, sy, r = (float(v) for v in z)
    moments = closed_moments(NormalParams(mx, my, sx, sy, r))
    return moments["<xy>"] - moments["<x>"] * moments["<y>"]


RELATIONS = {
    "P_xy-P_xP_y": ("pointwise", _pointwise_joint_minus_product),
    "P_x|y-P_x": ("pointwise", _pointwise_conditional_minus_marginal),
    "<xy>-<x><y>": ("expectation", _expectation_covariance),
}


def analytic_rho_derivative(params: NormalParams, relation: str,
                            probe=None) -> float:
    """d/d(rho) of the relation at rho = 0, in closed form."""
    kind, _ = _lookup(relation)
    if kind == "expectation":
        return params.sigma_x * params.sigma_y
    x, y = probe
    u = (x - params.mu_x) / params.sigma_x
    v = (y - params.mu_y) / params.sigma_y
    if relation == "P_xy-P_xP_y":
        return float(_normal(x, params.mu_x, params.sigma_x)
                     * _normal(y, params.mu_y, params.sigma_y) * u * v)
    return float(_normal(x, params.mu_x, params.sigma_x) * u * v)


def _lookup(relation: str):
    if relation not in RELATIONS:
        raise PreconditionError(f"unknown relation {relation!r}; "
                                f"one of {sorted(RELATIONS)}")
    return RELATIONS[relation]


def relation_gradients(params: NormalParams, relation: str,
                       mode: str = "constrained", probe=None) -> GradientResult:
    """Gradient of one factorization relation under the chosen semantics.

    The point of evaluation always has rho = 0; limit mode supplies the
    nonzero rho itself, rung by rung.
    """
    kind, fn = _lookup(relation)
    if params.rho != 0.0:
        raise InfeasiblePoint("relations are evaluated at rho = 0")
    if kind == "pointwise":
        if probe is None:
            raise PreconditionError(f"{relation} needs a probe (x, y)")
        z = np.concatenate(([probe[0], probe[1]], params.as_array()))
    else:
        if probe is not None:
            raise PreconditionError(f"{relation} takes no probe")
        z = params.as_array()
    if mode == "unconstrained":
        raise PreconditionError("gaussian relations are read constrained "
                                "(rho = 0 pinned) or as a limit in rho")
    rho_index = z.size - 1
    direction = np.zeros(z.size)
    direction[rho_index] = 1.0
    return gradient(fn, z, mode_named(
        mode, ConstraintSet.pin({rho_index: 0.0}, "rho=0"), direction))


def rho_component(result: GradientResult) -> float:
    """The component along the correlation coordinate (always last)."""
    return float(result.components[-1])


# ---------------------------------------------------------------------------
# check suite

DEFAULT_PARAMS = NormalParams(0.3, -0.2, 1.1, 0.7, 0.0)


def probe_grid(params: NormalParams) -> list[tuple[float, float]]:
    """3x3 probe points at mu + sigma * {-1, 0, 1} in each coordinate."""
    return [(params.mu_x + i * params.sigma_x,
             params.mu_y + j * params.sigma_y)
            for i in (-1, 0, 1) for j in (-1, 0, 1)]


@dataclass(frozen=True)
class RelationCheck:
    """One relation under one semantics, aggregated over the probe grid."""

    relation: str
    mode: str
    statistic: float            # constrained: worst |grad|; limit: worst rho-comp
    expected: float | None      # analytic rho-derivative (limit mode only)
    passed: bool


def check_suite(params: NormalParams = DEFAULT_PARAMS,
                tol: float | None = None) -> list[RelationCheck]:
    """Exercise every relation under both semantics; one row per pair.

    Pointwise relations are probed on :func:`probe_grid`.  A constrained row
    passes when its worst gradient norm is below ``tol`` (default 1e-6); a
    limit row when every rho-component is within ``tol`` (default 1e-4) of
    the closed form and the largest exceeds 1e-3.
    """
    rows = []
    for relation, (kind, _) in RELATIONS.items():
        probe_list = probe_grid(params) if kind == "pointwise" else [None]
        worst = 0.0
        for probe in probe_list:
            res = relation_gradients(params, relation, "constrained", probe)
            worst = max(worst, res.magnitude)
        rows.append(RelationCheck(relation, "constrained", worst, None,
                                  worst < (1e-6 if tol is None else tol)))
        best, best_expected = 0.0, 0.0
        errors = []
        for probe in probe_list:
            res = relation_gradients(params, relation, "limit", probe)
            comp = rho_component(res)
            expected = analytic_rho_derivative(params, relation, probe)
            errors.append(abs(comp - expected))
            if abs(comp) > abs(best):
                best, best_expected = comp, expected
        passed = (max(errors) < (1e-4 if tol is None else tol)
                  and abs(best) > 1e-3)
        rows.append(RelationCheck(relation, "limit", best, best_expected,
                                  passed))
    return rows
