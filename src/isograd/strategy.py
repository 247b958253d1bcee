"""Mixed and behavioural strategy spaces over a two-move decision tree.

Player X picks x with probability alpha1; player Y either commits in advance
to one of four pure reaction plans (mixed representation, weights beta0..beta3
over the plans (y|x=0, y|x=1) = (0,0), (0,1), (1,0), (1,1)) or plays the
branch probabilities directly (behavioural representation: q = P(y=1|x=0),
r = P(y=1|x=1)).  Both induce the same joint distribution on the 4-outcome
space via p = alpha1, q = beta2+beta3, r = beta1+beta3, and a point's
moments, entropies and correlation are jointbinary's statistics of that joint.

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

from .core import Constrained, GradientMode, Limit, gradient
from .errors import OutOfRange, PreconditionError
from .jointbinary import (
    JointPoint,
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

PROB_TOL = 1e-12

# ladder approach directions: into the interior, off the special manifold
MIXED_CORR_DIRECTION = tuple(np.array([0.0, -3.0, 1.0, 1.0]) / math.sqrt(11))
BEHAV_CORR_DIRECTION = (0.0, 1.0 / math.sqrt(2), -1.0 / math.sqrt(2))
MIXED_IND_DIRECTION = (0.0, 0.0, 1.0, 0.0)    # step beta2 off beta1 = beta2
BEHAV_IND_DIRECTION = (0.0, 0.0, 1.0)         # step r off r = q


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not -PROB_TOL <= value <= 1.0 + PROB_TOL:
        raise OutOfRange(f"{name} = {value!r} outside [0, 1]")
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class MixedPoint:
    """Weights over X's move and Y's four advance-commitment plans."""

    alpha1: float
    beta1: float
    beta2: float
    beta3: float

    def __post_init__(self):
        object.__setattr__(self, "alpha1",
                           _check_unit_interval("alpha1", self.alpha1))
        for name in ("beta1", "beta2", "beta3"):
            object.__setattr__(self, name,
                               _check_unit_interval(name, getattr(self, name)))
        if self.beta1 + self.beta2 + self.beta3 > 1.0 + 1e-9:
            raise OutOfRange(
                f"beta weights sum to {self.beta1 + self.beta2 + self.beta3}")

    @property
    def beta0(self) -> float:
        return max(0.0, 1.0 - self.beta1 - self.beta2 - self.beta3)

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha1, self.beta1, self.beta2, self.beta3])


@dataclass(frozen=True)
class BehaviouralPoint:
    """Branch probabilities of the decision tree."""

    p: float
    q: float
    r: float

    def __post_init__(self):
        for name in ("p", "q", "r"):
            object.__setattr__(self, name,
                               _check_unit_interval(name, getattr(self, name)))

    def as_array(self) -> np.ndarray:
        return np.array([self.p, self.q, self.r])


# ---------------------------------------------------------------------------
# induced joints and the representation mapping

def mixed_joint_array(z) -> np.ndarray:
    """Joint 4-vector from raw (alpha1, beta1, beta2, beta3)."""
    a1, b1, b2, b3 = (float(v) for v in z)
    return np.array([
        (1.0 - a1) * (1.0 - b2 - b3),
        (1.0 - a1) * (b2 + b3),
        a1 * (1.0 - b1 - b3),
        a1 * (b1 + b3),
    ])


def behavioural_joint_array(z) -> np.ndarray:
    """Joint 4-vector from raw (p, q, r)."""
    p, q, r = (float(v) for v in z)
    return np.array([
        (1.0 - p) * (1.0 - q),
        (1.0 - p) * q,
        p * (1.0 - r),
        p * r,
    ])


def mixed_joint(m: MixedPoint) -> JointPoint:
    return JointPoint(*mixed_joint_array(m.as_array()))


def behavioural_joint(b: BehaviouralPoint) -> JointPoint:
    return JointPoint(*behavioural_joint_array(b.as_array()))


def behavioural_from_mixed(m: MixedPoint) -> BehaviouralPoint:
    """Collapse plan weights to branch probabilities (joint-preserving)."""
    return BehaviouralPoint(m.alpha1, m.beta2 + m.beta3, m.beta1 + m.beta3)


# ---------------------------------------------------------------------------
# statistics of the joint a point induces

def moments(point) -> dict[str, float]:
    """Means, variances and entropies of the joint the point induces."""
    if isinstance(point, MixedPoint):
        j = mixed_joint_array(point.as_array())
    elif isinstance(point, BehaviouralPoint):
        j = behavioural_joint_array(point.as_array())
    else:
        raise PreconditionError(f"unsupported point type {type(point)!r}")
    return {
        "<x>": mean_x(j),
        "<y>": mean_y(j),
        "<xy>": mean_xy(j),
        "V(x)": var_x(j),
        "V(y)": var_y(j),
        "E_x": entropy_x(j),
        "E_y": entropy_y(j),
        "E_xy": entropy_xy(j),
    }


def mixed_correlation(m: MixedPoint) -> float:
    """sqrt(a1(1-a1)) (b1-b2) / sqrt(V(y)), the induced joint's correlation."""
    return correlation_of_joint(mixed_joint_array(m.as_array()))


def behavioural_correlation(b: BehaviouralPoint) -> float:
    """sqrt(p(1-p)) (r-q) / sqrt(V(y)), the induced joint's correlation."""
    return correlation_of_joint(behavioural_joint_array(b.as_array()))


# ---------------------------------------------------------------------------
# the comparison table

@dataclass(frozen=True)
class ColumnSpec:
    """One way of differentiating: a parameterization plus a semantics."""

    name: str
    parameters: tuple[str, ...]
    mode: GradientMode
    point_of: object = field(repr=False)      # sample -> coordinate array
    joint_of: object = field(repr=False)      # coordinates -> joint 4-vector

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
    relation: object = field(repr=False)      # joint 4-vector -> float
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

    def entry(self, row: str, column: str) -> TableEntry:
        for e in self.entries:
            if e.row == row and e.column == column:
                return e
        raise KeyError((row, column))

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


CORRELATED_ROWS = (
    RowSpec("P(0,0)+P(1,1)", "probability conservation",
            lambda j: float(j[0] + j[3]),
            _correlated(lambda a: (0.0, a, -(1 - a), 2 * a - 1),
                        lambda p: (0.0, -(1 - p), p), ZERO)),
    RowSpec("P(0,1)+P(1,0)", "probability conservation",
            lambda j: float(j[1] + j[2]),
            _correlated(lambda a: (0.0, -a, 1 - a, 1 - 2 * a),
                        lambda p: (0.0, 1 - p, -p), ZERO)),
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
            lambda j: var_x(j) + var_y(j) - 2.0 * _cov(j),
            _correlated(lambda a: (0.0, -a, 1 - a, 1 - 2 * a),
                        lambda p: (0.0, 1 - p, -p), ZERO)),
    RowSpec("E_xy-E_x", "entropy", lambda j: entropy_xy(j) - entropy_x(j),
            NONZERO_IN_LIMIT),
    RowSpec("rho_xy", "correlation", correlation_of_joint, NONZERO_IN_LIMIT),
)

INDEPENDENT_ROWS = (
    RowSpec("P(0,0)-Px(0)Py(0)", "probability",
            lambda j: float(j[0] - (j[0] + j[1]) * (j[0] + j[2])),
            _independent(lambda a, bb: (0.0, _k(a), -_k(a), 0.0),
                         lambda p, q: (0.0, -_k(p), _k(p)))),
    RowSpec("P(0,1)-Px(0)Py(1)", "probability",
            lambda j: float(j[1] - (j[0] + j[1]) * (j[1] + j[3])),
            _independent(lambda a, bb: (0.0, -_k(a), _k(a), 0.0),
                         lambda p, q: (0.0, _k(p), -_k(p)))),
    RowSpec("P(1,0)-Px(1)Py(0)", "probability",
            lambda j: float(j[2] - (j[2] + j[3]) * (j[0] + j[2])),
            _independent(lambda a, bb: (0.0, -_k(a), _k(a), 0.0),
                         lambda p, q: (0.0, _k(p), -_k(p)))),
    RowSpec("P(1,1)-Px(1)Py(1)", "probability",
            lambda j: float(j[3] - (j[2] + j[3]) * (j[1] + j[3])),
            _independent(lambda a, bb: (0.0, _k(a), -_k(a), 0.0),
                         lambda p, q: (0.0, -_k(p), _k(p)))),
    RowSpec("P_x|y(0|0)-Px(0)", "conditionals",
            lambda j: conditional_x0_given_y(j, 0) - float(j[0] + j[1]),
            _independent(
                lambda a, bb: (0.0, _k(a) / (1 - bb), -_k(a) / (1 - bb), 0.0),
                lambda p, q: (0.0, -_k(p) / (1 - q), _k(p) / (1 - q)))),
    RowSpec("P_x|y(0|1)-Px(0)", "conditionals",
            lambda j: conditional_x0_given_y(j, 1) - float(j[0] + j[1]),
            _independent(lambda a, bb: (0.0, -_k(a) / bb, _k(a) / bb, 0.0),
                         lambda p, q: (0.0, _k(p) / q, -_k(p) / q))),
    RowSpec("<xy>-<x><y>", "expectation", _cov,
            _independent(lambda a, bb: (0.0, _k(a), -_k(a), 0.0),
                         lambda p, q: (0.0, -_k(p), _k(p)))),
    RowSpec("E_xy-E_x-E_y", "entropy",
            lambda j: entropy_xy(j) - entropy_x(j) - entropy_y(j),
            NONZERO_IN_LIMIT),
    RowSpec("rho_xy", "correlation", correlation_of_joint, NONZERO_IN_LIMIT),
)

# constrained columns are already reparameterized: nothing to substitute
CORRELATED_COLUMNS = (
    ColumnSpec("P_M", ("alpha1", "beta1", "beta2", "beta3"),
               Limit(MIXED_CORR_DIRECTION),
               lambda s: np.array([s["alpha1"], 1.0, 0.0, 0.0]),
               mixed_joint_array),
    ColumnSpec("P_B", ("p", "q", "r"), Limit(BEHAV_CORR_DIRECTION),
               lambda s: np.array([s["p"], 0.0, 1.0]),
               behavioural_joint_array),
    ColumnSpec("P_M|beta1=1", ("alpha1",), Constrained(),
               lambda s: np.array([s["alpha1"]]),
               lambda z: mixed_joint_array((z[0], 1.0, 0.0, 0.0))),
    ColumnSpec("P_B|(q,r)=(0,1)", ("p",), Constrained(),
               lambda s: np.array([s["p"]]),
               lambda z: behavioural_joint_array((z[0], 0.0, 1.0))),
)

INDEPENDENT_COLUMNS = (
    ColumnSpec("P_M", ("alpha1", "beta1", "beta2", "beta3"),
               Limit(MIXED_IND_DIRECTION),
               lambda s: np.array([s["alpha1"], s["beta12"], s["beta12"],
                                   s["beta3"]]),
               mixed_joint_array),
    ColumnSpec("P_B", ("p", "q", "r"), Limit(BEHAV_IND_DIRECTION),
               lambda s: np.array([s["p"], s["q"], s["q"]]),
               behavioural_joint_array),
    ColumnSpec("P_M|beta1=beta2", ("alpha1", "beta_bar"), Constrained(),
               lambda s: np.array([s["alpha1"], s["beta12"] + s["beta3"]]),
               lambda z: behavioural_joint_array((z[0], z[1], z[1]))),
    ColumnSpec("P_B|r=q", ("p", "q"), Constrained(),
               lambda s: np.array([s["p"], s["q"]]),
               lambda z: behavioural_joint_array((z[0], z[1], z[1]))),
)

CASES = {
    "correlated": (CORRELATED_ROWS, CORRELATED_COLUMNS),
    "independent": (INDEPENDENT_ROWS, INDEPENDENT_COLUMNS),
}

COMPONENT_TOL = 1e-5
ZERO_TOL = 1e-8
NONZERO_FLOOR = 1e-6


def sample_points(case: str, n: int, seed: int) -> list[dict]:
    """Reproducible parameter draws keeping every denominator comfortable."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s = {"alpha1": rng.uniform(0.15, 0.85), "p": rng.uniform(0.15, 0.85)}
        if case == "independent":
            s["beta12"] = rng.uniform(0.10, 0.30)
            s["beta3"] = rng.uniform(0.05, 0.30)
            s["q"] = rng.uniform(0.15, 0.85)
        out.append(s)
    return out


def _evaluate_cell(row: RowSpec, col: ColumnSpec, expected, samples):
    rel = lambda z: float(row.relation(col.joint_of(z)))
    pattern = expected[0]
    kinds, components, worst, evidence = [], None, 0.0, math.inf
    passed = True
    for i, s in enumerate(samples):
        res = gradient(rel, col.point_of(s), col.mode)
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
            worst = max(worst, res.magnitude)
            passed = passed and res.magnitude <= ZERO_TOL
        else:   # "components", or "unit": every component is 1
            unit = pattern == "unit"
            want = 1.0 if unit else np.asarray(expected[1](s), dtype=float)
            err = float(np.max(np.abs(np.asarray(res.components) - want)))
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


def table1(case: str, n_samples: int = 20, seed: int = 42) -> Table1Report:
    """Evaluate every table row in all four columns at seeded sample points.

    case is "correlated" (the rho = 1 half) or "independent" (rho = 0).
    """
    if case not in CASES:
        raise PreconditionError(
            f"unknown case {case!r}; one of {sorted(CASES)}")
    rows, columns = CASES[case]
    samples = sample_points(case, n_samples, seed)
    entries = [_evaluate_cell(row, col, exp, samples)
               for row in rows for col, exp in zip(columns, row.expected)]
    return Table1Report(case=case, seed=seed, n_samples=n_samples,
                        columns=columns, entries=tuple(entries))
