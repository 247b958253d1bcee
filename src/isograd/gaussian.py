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
rho), built from the private joint, marginal and conditional densities; the
covariance relation takes the closed-form moments, which integrate x and y
out, and lives on (mu_x, mu_y, sigma_x, sigma_y, rho).  Relations on the
same coordinates are the outputs of one statistic, so one
``core.gradients`` call at a point differentiates all of them from shared
probes.  :data:`STATISTICS` holds each statistic with its two readings,
``core`` mode values built once at import, and :func:`check_suite` runs
every relation under both.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from .core import (Constrained, ConstraintSet, GradientMode, GradientResult,
                   Limit, gradients)
from .errors import (BadParams, InfeasiblePoint, PreconditionError,
                     require_finite, require_real)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NormalParams:
    """Parameters of a correlated bivariate normal distribution, as floats."""

    mu_x: float = 0.0
    mu_y: float = 0.0
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            [value] = require_finite(name, (value,))
            object.__setattr__(self, name, value)
        if not (self.sigma_x > 0.0 and self.sigma_y > 0.0):
            raise BadParams(
                f"standard deviations must be positive: "
                f"({self.sigma_x}, {self.sigma_y})")
        if not abs(self.rho) < 1.0:
            raise BadParams(f"correlation must lie in (-1, 1): {self.rho}")


# ---------------------------------------------------------------------------
# densities at one point, on floats; they take the parameters unchecked,
# since the relations evaluate them at every finite-difference probe

def _normal(x, mu, sigma):
    z = (x - mu) / sigma
    return math.exp(-0.5 * z * z) / (sigma * math.sqrt(TWO_PI))


def _joint(x, y, mu_x, mu_y, sigma_x, sigma_y, rho):
    u = (x - mu_x) / sigma_x
    v = (y - mu_y) / sigma_y
    one = 1.0 - rho * rho
    q = (u * u - 2.0 * rho * u * v + v * v) / (2.0 * one)
    return math.exp(-q) / (TWO_PI * sigma_x * sigma_y * math.sqrt(one))


def _conditioned_mean(y, mu_x, mu_y, sigma_x, sigma_y, rho):
    return mu_x + rho * (sigma_x / sigma_y) * (y - mu_y)


def _conditional(x, y, mu_x, mu_y, sigma_x, sigma_y, rho):
    sigma = sigma_x * math.sqrt(1.0 - rho * rho)
    return _normal(x, _conditioned_mean(y, mu_x, mu_y, sigma_x, sigma_y, rho),
                   sigma)


# ---------------------------------------------------------------------------
# moments

def _moments(mu_x, mu_y, sigma_x, sigma_y, rho) -> dict[str, float]:
    return {"<x>": mu_x, "<y>": mu_y,
            "<xy>": mu_x * mu_y + rho * sigma_x * sigma_y}


# ---------------------------------------------------------------------------
# gradient relations

def _pointwise(z) -> tuple[float, float]:
    """P_xy - P_x P_y and P_x|y - P_x at (x, y, mu_x, mu_y, sigma_x,
    sigma_y, rho), sharing the marginal density of x."""
    x, y, mx, my, sx, sy, r = (float(v) for v in z)
    px = _normal(x, mx, sx)
    return (_joint(x, y, mx, my, sx, sy, r) - px * _normal(y, my, sy),
            _conditional(x, y, mx, my, sx, sy, r) - px)


def _expectation(z) -> tuple[float]:
    """<xy> - <x><y> at (mu_x, mu_y, sigma_x, sigma_y, rho)."""
    moments = _moments(*(float(v) for v in z))
    return (moments["<xy>"] - moments["<x>"] * moments["<y>"],)


def _readings(n: int) -> tuple[tuple[str, GradientMode], ...]:
    """Both readings on n coordinates, rho last, each after the name a
    :class:`RelationCheck` prints: rho = 0 pinned, then rho -> 0."""
    return (("constrained",
             Constrained(ConstraintSet.pin({n - 1: 0.0}, "rho=0"))),
            ("limit", Limit((0.0,) * (n - 1) + (1.0,))))


#: kind -> (the statistic on the kind's coordinates, the relations it
#: outputs, in order, and its two readings)
STATISTICS = {
    "pointwise": (_pointwise, ("P_xy-P_xP_y", "P_x|y-P_x"), _readings(7)),
    "expectation": (_expectation, ("<xy>-<x><y>",), _readings(5)),
}
#: relation -> kind
RELATIONS = {relation: kind for kind, (_, relations, _) in STATISTICS.items()
             for relation in relations}


def analytic_rho_derivative(params: NormalParams, relation: str,
                            probe=None) -> float:
    """d/d(rho) of the relation at rho = 0, in closed form; a pointwise
    relation needs a finite ``probe`` (x, y)."""
    if relation not in RELATIONS:
        raise PreconditionError(f"unknown relation {relation!r}; "
                                f"one of {sorted(RELATIONS)}")
    if RELATIONS[relation] == "expectation":
        return params.sigma_x * params.sigma_y
    if probe is None or len(probe) != 2:
        raise PreconditionError(f"{relation} needs a probe (x, y)")
    require_finite("probe coordinate", probe)
    x, y = probe
    u = (x - params.mu_x) / params.sigma_x
    v = (y - params.mu_y) / params.sigma_y
    if relation == "P_xy-P_xP_y":
        return (_normal(x, params.mu_x, params.sigma_x)
                * _normal(y, params.mu_y, params.sigma_y) * u * v)
    return _normal(x, params.mu_x, params.sigma_x) * u * v


def rho_component(result: GradientResult) -> float:
    """The component along the correlation coordinate (always last)."""
    return result.components[-1]


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
    the closed form and the largest exceeds 1e-3; a given ``tol`` must be
    positive and finite.  Relations of one kind are
    differentiated together, one call per probe and semantics.
    """
    if tol is not None and not 0.0 < require_real("tol", tol) < math.inf:
        raise BadParams(f"tol must be positive and finite, got {tol!r}")
    if params.rho != 0.0:
        raise InfeasiblePoint("relations are evaluated at rho = 0")
    coords = astuple(params)
    rows = []
    for kind, (statistic, relations, readings) in STATISTICS.items():
        probes = probe_grid(params) if kind == "pointwise" else [()]
        (con, con_mode), (lim, lim_mode) = readings
        constrained = [gradients(statistic, (*probe, *coords), con_mode)
                       for probe in probes]
        limit = [gradients(statistic, (*probe, *coords), lim_mode)
                 for probe in probes]
        for k, relation in enumerate(relations):
            worst = max(results[k].magnitude for results in constrained)
            rows.append(RelationCheck(relation, con, worst, None,
                                      worst < (1e-6 if tol is None else tol)))
            best, best_expected = 0.0, 0.0
            errors = []
            for probe, results in zip(probes, limit):
                comp = rho_component(results[k])
                expected = analytic_rho_derivative(params, relation, probe)
                errors.append(abs(comp - expected))
                if abs(comp) > abs(best):
                    best, best_expected = comp, expected
            passed = (max(errors) < (1e-4 if tol is None else tol)
                      and abs(best) > 1e-3)
            rows.append(RelationCheck(relation, lim, best, best_expected,
                                      passed))
    return rows
