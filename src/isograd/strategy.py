"""Mixed and behavioural strategy spaces over a two-move decision tree.

Player X picks x with probability alpha1; player Y either commits in advance
to one of four pure reaction plans (mixed representation, weights beta0..beta3
over the plans (y|x=0, y|x=1) = (0,0), (0,1), (1,0), (1,1)) or plays the
branch probabilities directly (behavioural representation: q = P(y=1|x=0),
r = P(y=1|x=1)).  Both induce the same joint distribution on the 4-outcome
space via p = alpha1, q = beta2+beta3, r = beta1+beta3: the cells are
:func:`mixed_joint_cells` and :func:`behavioural_joint_cells` of the raw
coordinates, and the table's relations are jointbinary's statistics of them.

The comparison table evaluates a battery of distributional relations in four
ways: ambient gradients approached down an epsilon ladder in each
representation, and substituted (constrained) gradients in each
representation, at perfectly-correlated and at independent points.  Each
column declares the ``Limit`` or ``Constrained`` mode it differentiates
with, and each row its expected pattern in all four columns.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import Constrained, GradientMode, Limit, gradients
from .errors import PreconditionError, require_count
from .jointbinary import (
    conditional_x0_given_y,
    correlation_of_joint,
    entropy_x,
    entropy_xy,
    entropy_y,
    mean_x,
    mean_xy,
    mean_y,
    var_x,
    var_y,
)

# ladder approach directions: into the interior, off the special manifold
MIXED_CORR_DIRECTION = tuple(v / math.sqrt(11) for v in (0.0, -3.0, 1.0, 1.0))
BEHAV_CORR_DIRECTION = (0.0, 1.0 / math.sqrt(2), -1.0 / math.sqrt(2))
MIXED_IND_DIRECTION = (0.0, 0.0, 1.0, 0.0)    # step beta2 off beta1 = beta2
BEHAV_IND_DIRECTION = (0.0, 0.0, 1.0)         # step r off r = q


# ---------------------------------------------------------------------------
# induced joints

# joints are tuples of Python floats, not arrays: every table probe builds
# one and runs ten relations on it, and float64 + - * / round the same either
# way

def mixed_joint_cells(z) -> tuple[float, float, float, float]:
    """Joint cells from raw (alpha1, beta1, beta2, beta3)."""
    a1, b1, b2, b3 = map(float, z)
    return ((1.0 - a1) * (1.0 - b2 - b3),
            (1.0 - a1) * (b2 + b3),
            a1 * (1.0 - b1 - b3),
            a1 * (b1 + b3))


def behavioural_joint_cells(z) -> tuple[float, float, float, float]:
    """Joint cells from raw (p, q, r)."""
    p, q, r = map(float, z)
    return ((1.0 - p) * (1.0 - q),
            (1.0 - p) * q,
            p * (1.0 - r),
            p * r)


# ---------------------------------------------------------------------------
# the comparison table

@dataclass(frozen=True)
class ColumnSpec:
    """One way of differentiating: a parameterization plus a semantics."""

    name: str
    parameters: tuple[str, ...]
    mode: GradientMode
    point_of: object = field(repr=False)      # sample -> coordinates
    joint_of: object = field(repr=False)      # coordinates -> joint cells

    @property
    def kind(self) -> str:
        """The semantics of :attr:`mode`: "limit" or "constrained"."""
        return "limit" if isinstance(self.mode, Limit) else "constrained"

    @property
    def dimension(self) -> int:
        return len(self.parameters)


@dataclass(frozen=True)
class RowSpec:
    """One relation and its expected pattern in each of the four columns:
    ``("components", f)`` with ``f(sample)`` the closed-form gradient, or
    :data:`ZERO`, :data:`UNIT` or :data:`NONZERO`."""

    label: str
    group: str
    relation: object = field(repr=False)      # joint cells -> float
    expected: tuple = field(repr=False)


@dataclass(frozen=True)
class TableEntry:
    """One (relation, column) cell, aggregated over all sample points."""

    row: str
    group: str
    column: str
    expected: str                    # "components" | "zero" | "unit" | "nonzero"
    dimension: int
    kinds: tuple[str, ...]           # gradient kinds seen across samples
    components: tuple | None         # result at the first sample (if finite)
    worst_error: float | None        # vs closed form / zero, where applicable
    evidence: float | None           # smallest ladder magnitude (nonzero rows)
    passed: bool


@dataclass(frozen=True)
class Table1Report:
    case: str
    seed: int
    n_samples: int
    columns: tuple[ColumnSpec, ...]
    entries: tuple[TableEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "columns": [
                {"name": c.name, "kind": c.kind,
                 "parameters": list(c.parameters), "dimension": c.dimension}
                for c in self.columns],
            "passed": self.passed,
            "entries": [asdict(e) for e in self.entries],
        }


def _cov(j) -> float:
    return mean_xy(j) - mean_x(j) * mean_y(j)


ZERO, UNIT, NONZERO = ("zero",), ("unit",), ("nonzero",)
#: Expected patterns of a row whose limit reading is only known to be nonzero.
NONZERO_IN_LIMIT = (NONZERO, NONZERO, ZERO, ZERO)


def _correlated(mixed, behavioural, constrained) -> tuple:
    """Closed-form limit columns in alpha1 and in p, then ``constrained``
    in both substituted columns."""
    return (("components", lambda s: mixed(s["alpha1"])),
            ("components", lambda s: behavioural(s["p"])),
            constrained, constrained)


def _independent(mixed, behavioural) -> tuple:
    """Closed-form limit columns in (alpha1, beta_bar) and in (p, q); both
    substituted columns vanish."""
    return (("components",
             lambda s: mixed(s["alpha1"], s["beta12"] + s["beta3"])),
            ("components", lambda s: behavioural(s["p"], s["q"])),
            ZERO, ZERO)


def _k(a: float) -> float:
    """a(1 - a), the variance of a binary coordinate with mean a."""
    return a * (1 - a)


# closed-form columns that rows share: P(0,0)-Px(0)Py(0) and
# P(1,1)-Px(1)Py(1) equal the covariance and the other two probability rows
# its negation, and V(x)+V(y)-2cov has the gradient of the off-diagonal mass
# P(0,1)+P(1,0) wherever P(0,1) = P(1,0)
_OFF_DIAGONAL = _correlated(lambda a: (0.0, -a, 1 - a, 1 - 2 * a),
                            lambda p: (0.0, 1 - p, -p), ZERO)
_COV = _independent(lambda a, bb: (0.0, _k(a), -_k(a), 0.0),
                    lambda p, q: (0.0, -_k(p), _k(p)))
_MINUS_COV = _independent(lambda a, bb: (0.0, -_k(a), _k(a), 0.0),
                          lambda p, q: (0.0, _k(p), -_k(p)))


CORRELATED_ROWS = (
    RowSpec("P(0,0)+P(1,1)", "probability conservation",
            lambda j: j[0] + j[3],
            _correlated(lambda a: (0.0, a, -(1 - a), 2 * a - 1),
                        lambda p: (0.0, -(1 - p), p), ZERO)),
    RowSpec("P(0,1)+P(1,0)", "probability conservation",
            lambda j: j[1] + j[2], _OFF_DIAGONAL),
    RowSpec("P_x|y(0|0)", "conditionals", lambda j: conditional_x0_given_y(j, 0),
            _correlated(lambda a: (0.0, a / (1 - a), 0.0, a / (1 - a)),
                        lambda p: (0.0, 0.0, p / (1 - p)), ZERO)),
    RowSpec("P_x|y(0|1)", "conditionals", lambda j: conditional_x0_given_y(j, 1),
            _correlated(lambda a: (0.0, 0.0, (1 - a) / a, (1 - a) / a),
                        lambda p: (0.0, (1 - p) / p, 0.0), ZERO)),
    RowSpec("<x>", "expectations", mean_x,
            _correlated(lambda a: (1.0, 0.0, 0.0, 0.0),
                        lambda p: (1.0, 0.0, 0.0), UNIT)),
    RowSpec("<y>", "expectations", mean_y,
            _correlated(lambda a: (1.0, a, 1 - a, 1.0),
                        lambda p: (1.0, 1 - p, p), UNIT)),
    RowSpec("<xy>", "expectations", mean_xy,
            _correlated(lambda a: (1.0, a, 0.0, a),
                        lambda p: (1.0, 0.0, p), UNIT)),
    RowSpec("V(x)+V(y)-2cov", "variance",
            lambda j: var_x(j) + var_y(j) - 2.0 * _cov(j), _OFF_DIAGONAL),
    RowSpec("E_xy-E_x", "entropy", lambda j: entropy_xy(j) - entropy_x(j),
            NONZERO_IN_LIMIT),
    RowSpec("rho_xy", "correlation", correlation_of_joint, NONZERO_IN_LIMIT),
)

INDEPENDENT_ROWS = (
    RowSpec("P(0,0)-Px(0)Py(0)", "probability",
            lambda j: j[0] - (j[0] + j[1]) * (j[0] + j[2]), _COV),
    RowSpec("P(0,1)-Px(0)Py(1)", "probability",
            lambda j: j[1] - (j[0] + j[1]) * (j[1] + j[3]), _MINUS_COV),
    RowSpec("P(1,0)-Px(1)Py(0)", "probability",
            lambda j: j[2] - (j[2] + j[3]) * (j[0] + j[2]), _MINUS_COV),
    RowSpec("P(1,1)-Px(1)Py(1)", "probability",
            lambda j: j[3] - (j[2] + j[3]) * (j[1] + j[3]), _COV),
    RowSpec("P_x|y(0|0)-Px(0)", "conditionals",
            lambda j: conditional_x0_given_y(j, 0) - (j[0] + j[1]),
            _independent(
                lambda a, bb: (0.0, _k(a) / (1 - bb), -_k(a) / (1 - bb), 0.0),
                lambda p, q: (0.0, -_k(p) / (1 - q), _k(p) / (1 - q)))),
    RowSpec("P_x|y(0|1)-Px(0)", "conditionals",
            lambda j: conditional_x0_given_y(j, 1) - (j[0] + j[1]),
            _independent(lambda a, bb: (0.0, -_k(a) / bb, _k(a) / bb, 0.0),
                         lambda p, q: (0.0, _k(p) / q, -_k(p) / q))),
    RowSpec("<xy>-<x><y>", "expectation", _cov, _COV),
    RowSpec("E_xy-E_x-E_y", "entropy",
            lambda j: entropy_xy(j) - entropy_x(j) - entropy_y(j),
            NONZERO_IN_LIMIT),
    RowSpec("rho_xy", "correlation", correlation_of_joint, NONZERO_IN_LIMIT),
)

# constrained columns are already reparameterized: nothing to substitute
CORRELATED_COLUMNS = (
    ColumnSpec("P_M", ("alpha1", "beta1", "beta2", "beta3"),
               Limit(MIXED_CORR_DIRECTION),
               lambda s: (s["alpha1"], 1.0, 0.0, 0.0),
               mixed_joint_cells),
    ColumnSpec("P_B", ("p", "q", "r"), Limit(BEHAV_CORR_DIRECTION),
               lambda s: (s["p"], 0.0, 1.0),
               behavioural_joint_cells),
    ColumnSpec("P_M|beta1=1", ("alpha1",), Constrained(),
               lambda s: (s["alpha1"],),
               lambda z: mixed_joint_cells((z[0], 1.0, 0.0, 0.0))),
    ColumnSpec("P_B|(q,r)=(0,1)", ("p",), Constrained(),
               lambda s: (s["p"],),
               lambda z: behavioural_joint_cells((z[0], 0.0, 1.0))),
)

INDEPENDENT_COLUMNS = (
    ColumnSpec("P_M", ("alpha1", "beta1", "beta2", "beta3"),
               Limit(MIXED_IND_DIRECTION),
               lambda s: (s["alpha1"], s["beta12"], s["beta12"], s["beta3"]),
               mixed_joint_cells),
    ColumnSpec("P_B", ("p", "q", "r"), Limit(BEHAV_IND_DIRECTION),
               lambda s: (s["p"], s["q"], s["q"]),
               behavioural_joint_cells),
    ColumnSpec("P_M|beta1=beta2", ("alpha1", "beta_bar"), Constrained(),
               lambda s: (s["alpha1"], s["beta12"] + s["beta3"]),
               lambda z: behavioural_joint_cells((z[0], z[1], z[1]))),
    ColumnSpec("P_B|r=q", ("p", "q"), Constrained(),
               lambda s: (s["p"], s["q"]),
               lambda z: behavioural_joint_cells((z[0], z[1], z[1]))),
)

CASES = {
    "correlated": (CORRELATED_ROWS, CORRELATED_COLUMNS),
    "independent": (INDEPENDENT_ROWS, INDEPENDENT_COLUMNS),
}

COMPONENT_TOL = 1e-5
ZERO_TOL = 1e-8
NONZERO_FLOOR = 1e-6


def sample_points(case: str, n: int, seed: int) -> list[dict]:
    """Reproducible parameter draws keeping every denominator comfortable;
    ``n`` and ``seed`` are non-negative integers."""
    if case not in CASES:
        raise PreconditionError(
            f"unknown case {case!r}; one of {sorted(CASES)}")
    rng = np.random.default_rng(require_count("seed", seed, 0))
    out = []
    for _ in range(require_count("n", n, 0)):
        s = {"alpha1": rng.uniform(0.15, 0.85), "p": rng.uniform(0.15, 0.85)}
        if case == "independent":
            s["beta12"] = rng.uniform(0.10, 0.30)
            s["beta3"] = rng.uniform(0.05, 0.30)
            s["q"] = rng.uniform(0.15, 0.85)
        out.append(s)
    return out


def _evaluate_cell(row: RowSpec, col: ColumnSpec, expected, samples,
                   results):
    """The table entry of one cell from its gradient at each sample."""
    pattern = expected[0]
    kinds, components, worst, evidence = [], None, 0.0, math.inf
    passed = True
    for i, (s, res) in enumerate(zip(samples, results)):
        kinds.append(res.kind)
        if len(res) and len(res) != col.dimension:
            passed = False
        if i == 0 and res.components is not None:
            components = res.components
        if pattern == "nonzero":
            mag = res.max_ladder_magnitude
            evidence = min(evidence, mag)
            passed = passed and (res.kind == "diverging"
                                 or mag > NONZERO_FLOOR)
        elif not res.is_finite:
            passed = False
        elif pattern == "zero":
            mag = res.magnitude
            worst = max(worst, mag)
            passed = passed and mag <= ZERO_TOL
        else:   # "components", or "unit": every component is 1
            unit = pattern == "unit"
            want = (1.0,) * len(res) if unit else expected[1](s)
            err = max(abs(c - w)
                      for c, w in zip(res.components, want, strict=True))
            worst = max(worst, err)
            passed = passed and err <= (ZERO_TOL if unit else COMPONENT_TOL)
    return TableEntry(
        row=row.label, group=row.group, column=col.name, expected=pattern,
        dimension=col.dimension, kinds=tuple(sorted(set(kinds))),
        components=components,
        worst_error=None if pattern == "nonzero" else worst,
        evidence=None if pattern != "nonzero" else
        (evidence if math.isfinite(evidence) else None),
        passed=passed)


def _column_gradients(rows, col: ColumnSpec, samples) -> list[list]:
    """Every row's gradient in one column: one list per row, one result per
    sample.  Each probe builds the joint once and evaluates all rows on it."""
    def relations(z):
        j = col.joint_of(z)
        return [row.relation(j) for row in rows]
    per_sample = [gradients(relations, col.point_of(s), col.mode)
                  for s in samples]
    return [[results[r] for results in per_sample] for r in range(len(rows))]


def table1(case: str, n_samples: int = 20, seed: int = 42) -> Table1Report:
    """Evaluate every table row in all four columns at seeded sample points.

    case is "correlated" (the rho = 1 half) or "independent" (rho = 0).
    One vector gradient per column and sample covers all rows.
    """
    n_samples = require_count("n_samples", n_samples, 1)
    samples = sample_points(case, n_samples, seed)
    rows, columns = CASES[case]
    by_column = [_column_gradients(rows, col, samples) for col in columns]
    entries = [_evaluate_cell(row, col, row.expected[c], samples,
                              by_column[c][r])
               for r, row in enumerate(rows)
               for c, col in enumerate(columns)]
    return Table1Report(case=case, seed=int(seed), n_samples=n_samples,
                        columns=columns, entries=tuple(entries))
