"""The three workloads: their seeded inputs, their operations and the checks.

Inputs are drawn with the standard library's ``random`` so that they can be
made before ``import isograd`` (the import is part of the measured set-up).
Operations are built after the import; references are computed after set-up
and before the timed loop, so neither inputs nor references are timed.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable

#: Operations of the optimizer workload that raise ConvergenceFailure today:
#: at grid 401 the slice grid misses the thin optimum on the bounding curve
#: for some rho in (0, 0.535].  They fail on every seed and stay in the mix.
REFUSED_SLICE_RHOS = (0.13, 0.48)
#: Seeded slices avoid (0, 0.6), where the refusal above comes and goes with
#: rho; a seeded draw landing there would make the failed share vary by seed.
SLICE_GAP = (0.0, 0.6)
SLICES_PER_PASS = 6
SWEEP_GRIDS = (401, 801)
SWEEP_RHOS = (1.0, 0.75, 0.5, 0.25, 0.0, -0.25, -0.5, -0.75, -1.0)

CORRELATED_DIRECTION = (0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))
INDEPENDENT_DIRECTION = (1.0, 0.0, 0.0)
#: The last rung of the engine's default approach ladder.
LAST_RUNG = 1e-5

# Tolerances: library calls follow the accuracy each method states, CLI
# output the six significant digits it prints.
OPT_VALUE_TOL = 1e-9      # bounded 1-D search at xatol 1e-12; NM at fatol 1e-13
OPT_POINT_TOL = 1e-5      # a flat maximum pins the point only to ~sqrt(fatol)
CORR_TOL = 1e-6
FD_TOL = 1e-6             # central differences at h = 1e-6
LIMIT_TOL = 1e-5          # ladder extrapolation (the table's COMPONENT_TOL)
DIRECTION_TOL = 1e-4      # FD at the last rung, h = eps/20
REFUSAL_TOL = 1e-6        # the refused optimum is printed with 6 decimals


def close(got, want, rel: float, abs_: float = 0.0) -> bool:
    try:
        return abs(float(got) - float(want)) <= abs_ + rel * abs(float(want))
    except (TypeError, ValueError):
        return False


def all_close(got, want, rel: float, abs_: float = 0.0) -> bool:
    got, want = list(got), list(want)
    return len(got) == len(want) and all(
        close(g, w, rel, abs_) for g, w in zip(got, want))


def vec_norm(v) -> float:
    return math.sqrt(math.fsum(float(c) ** 2 for c in v))


@dataclass
class Op:
    """One operation of a pass: a call, its check, and its expected refusal.

    ``make_check`` computes the references and returns ``check``, which
    lists the problems with a result; it runs once, after set-up.
    ``refusal``, when set, accepts the exception the op is known to raise
    today and returns its problems (none when it is the named fault).
    """

    kind: str
    call: Callable[[], Any]
    make_check: Callable[[], Callable[[Any], list[str]]]
    refusal: Callable[[BaseException], list[str]] | None = None
    check: Callable[[Any], list[str]] | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# seeded inputs


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-cold":
        return {"format_offset": rng.randrange(3),
                "surface_rho": round(rng.uniform(-0.95, 0.95), 4)}
    if workload == "optimizers-warm":
        lo, hi = SLICE_GAP
        rhos = []
        while len(rhos) < SLICES_PER_PASS:
            rho = rng.uniform(-1.0, 1.0)
            if not lo < rho < hi and rho != -1.0:
                rhos.append(rho)
        return {"slice_rhos": rhos}
    if workload == "engine-warm":
        quads = []
        for _ in range(3):
            a = [[0.0] * 3 for _ in range(3)]
            for i in range(3):
                for j in range(i, 3):
                    a[i][j] = a[j][i] = rng.uniform(-1.0, 1.0)
            d = [rng.gauss(0.0, 1.0) for _ in range(3)]
            n = vec_norm(d)
            quads.append({"A": a, "b": [rng.uniform(-1.0, 1.0) for _ in range(3)],
                          "x": [rng.uniform(0.2, 0.8) for _ in range(3)],
                          "direction": [v / n for v in d]})
        px, py = rng.uniform(0.15, 0.85), rng.uniform(0.15, 0.85)
        return {
            "table_seeds": (rng.randrange(10 ** 6), rng.randrange(10 ** 6)),
            "normal": (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                       rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)),
            "correlated_a": rng.uniform(0.1, 0.9),
            "independent": ((1 - px) * (1 - py), (1 - px) * py,
                            px * (1 - py), px * py),
            "quadratics": quads,
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# optimizers-warm


def _check_dice_reports(reports, mode: str) -> list[str]:
    import references as ref
    problems = []
    labels = [r.label for r in reports]
    if sorted(labels) != sorted(ref.DIE_SIDES):
        return [f"dice {mode}: labels {labels}"]
    for r in reports:
        value, point = ref.die_optimum(r.label)
        if not close(r.value, value, OPT_VALUE_TOL):
            problems.append(f"dice {mode} {r.label}: value {r.value!r}, "
                            f"closed form {value!r}")
        if not all_close(r.point, point, 0.0, OPT_POINT_TOL):
            problems.append(f"dice {mode} {r.label}: point {r.point}")
        if not close(ref.die_payoff(r.label, r.point), r.value, OPT_VALUE_TOL):
            problems.append(f"dice {mode} {r.label}: value is not the payoff "
                            f"of its point")
    return problems


def _check_unconstrained(report) -> list[str]:
    import references as ref
    value, point = ref.die_optimum("Square")
    problems = []
    if not close(report.value, value, OPT_VALUE_TOL):
        problems.append(f"dice unconstrained: value {report.value!r}")
    if not all_close(report.point, point, 0.0, OPT_POINT_TOL):
        problems.append(f"dice unconstrained: point {report.point}")
    if report.diagnostics.get("conflicts_with_constrained") is not True:
        problems.append("dice unconstrained: conflict with the per-die "
                        "winners not reported")
    return problems


def check_slice(rho: float, value: float, point, tol: float = OPT_VALUE_TOL,
                point_tol: float = CORR_TOL) -> list[str]:
    """The slice optimum against mpmath, and its point against the model."""
    import references as ref
    want, _ = ref.slice_maximum(rho)
    p, q, r = (float(c) for c in point)
    problems = []
    if not close(value, want, tol, tol):
        problems.append(f"slice rho={rho:+g}: value {value!r}, "
                        f"reference {want!r}")
    if not close(ref.tree_payoff(p, q, r), value, 0.0, 10 * point_tol):
        problems.append(f"slice rho={rho:+g}: value is not the payoff at "
                        f"{(p, q, r)}")
    if min(p, q, r) < -point_tol or max(p, q, r) > 1 + point_tol:
        problems.append(f"slice rho={rho:+g}: point {(p, q, r)} off the cube")
    corr = ref.tree_correlation(p, q, r)
    if corr is not None and 1e-3 < p < 1 - 1e-3 and not close(
            corr, rho, 0.0, 10 * point_tol):
        problems.append(f"slice rho={rho:+g}: point {(p, q, r)} has "
                        f"correlation {corr!r}")
    return problems


def _slice_check(rho: float):
    import references as ref
    ref.slice_maximum(rho)          # computed now, cached for the checks

    def check(report) -> list[str]:
        return check_slice(rho, report.value, report.point)
    return check


def _sweep_check():
    import references as ref
    rows = [_slice_check(rho) for rho in SWEEP_RHOS]
    best = ref.sweep_best_rho(SWEEP_RHOS)

    def check(report) -> list[str]:
        rhos = [row.diagnostics["rho"] for row in report.rows]
        if rhos != list(SWEEP_RHOS):
            return [f"sweep: rows for rho {rhos}"]
        problems = [p for row_check, row in zip(rows, report.rows)
                    for p in row_check(row)]
        if report.best is None or report.best.diagnostics["rho"] != best:
            problems.append("sweep: wrong best slice")
        return problems
    return check


_REFINED = re.compile(r"refined optimum (-?\d+\.\d+)")


def refusal_check(rho: float):
    """Accept the named default-grid slice refusal and nothing else."""
    def check(exc: BaseException) -> list[str]:
        import references as ref    # slice_maximum(rho) is cached by then
        from isograd.errors import ConvergenceFailure
        if not isinstance(exc, ConvergenceFailure):
            return [f"slice rho={rho:+g}: {type(exc).__name__}: {exc}"]
        m = _REFINED.search(str(exc))
        if m and not close(float(m.group(1)), ref.slice_maximum(rho)[0],
                           0.0, REFUSAL_TOL):
            return [f"slice rho={rho:+g}: refused with a wrong refined "
                    f"optimum {m.group(1)}"]
        return []
    return check


def _check_discrepancy(report) -> list[str]:
    # 1 - (q+r-1)^2 - (1-p)^2 - p^2 <= 1/2, with equality iff p = 1/2 and
    # q + r = 1
    p, q, r = (float(c) for c in report.point)
    payoff = 1 - (q + r - 1) ** 2 - (1 - p) ** 2 - p ** 2
    problems = []
    if not close(report.value, 0.5, OPT_VALUE_TOL):
        problems.append(f"discrepancy: value {report.value!r}, maximum 1/2")
    if not close(payoff, report.value, 0.0, OPT_VALUE_TOL):
        problems.append("discrepancy: value is not the payoff of its point")
    if abs(p - 0.5) > OPT_POINT_TOL or abs(q + r - 1) > OPT_POINT_TOL:
        problems.append(f"discrepancy: point {(p, q, r)} off the ridge")
    return problems


def optimizer_ops(inputs: dict) -> list[Op]:
    from isograd import dice, treeopt
    ops = [
        Op("dice.per_space", dice.maximize_per_space,
           lambda: lambda r: _check_dice_reports(r, "per-space")),
        Op("dice.constrained_target", dice.maximize_constrained_target,
           lambda: lambda r: _check_dice_reports(r, "constrained-target")),
        Op("dice.unconstrained", dice.maximize_unconstrained,
           lambda: _check_unconstrained),
    ]
    for grid in SWEEP_GRIDS:
        ops.append(Op(f"treeopt.sweep.{grid}",
                      lambda g=grid: treeopt.sweep(grid=g), _sweep_check))
    for rho in inputs["slice_rhos"]:
        ops.append(Op("treeopt.slice",
                      lambda r=rho: treeopt.maximize_payoff_on_slice(r),
                      lambda r=rho: _slice_check(r)))
    for rho in REFUSED_SLICE_RHOS:
        ops.append(Op("treeopt.slice",
                      lambda r=rho: treeopt.maximize_payoff_on_slice(r),
                      lambda r=rho: _slice_check(r),
                      refusal=refusal_check(rho)))
    ops.append(Op("treeopt.discrepancy",
                  lambda: treeopt.maximize_discrepancy("unconstrained"),
                  lambda: _check_discrepancy))
    return ops


# ---------------------------------------------------------------------------
# engine-warm


def _table_check(case: str, seed: int):
    import references as ref
    from isograd import strategy
    sample = strategy.sample_points(case, 20, seed)[0]
    expected = {}
    for row in ref.TABLE_ROWS[case]:
        for column, (_, coords_of, _) in ref.TABLE_COLUMNS[case].items():
            expected[(row, column)] = (
                len(coords_of(sample)),
                ref.table_cell_reference(case, row, column, sample))

    def check(report) -> list[str]:
        seen = {(e.row, e.column) for e in report.entries}
        if seen != set(expected) or len(report.entries) != len(expected):
            return [f"table1 {case}: cells {sorted(seen)}"]
        problems = []
        for e in report.entries:
            dim, (kind, want) = expected[(e.row, e.column)]
            where = f"table1 {case} [{e.row} | {e.column}]"
            if not e.passed:
                problems.append(f"{where}: not passed")
            if e.dimension != dim:
                problems.append(f"{where}: dimension {e.dimension}")
            if e.components is not None:
                if kind != "finite" or not all_close(
                        e.components, want, LIMIT_TOL, LIMIT_TOL):
                    problems.append(f"{where}: components {e.components}, "
                                    f"reference {kind} {want}")
            elif e.kinds == ("diverging",) and kind != "diverging":
                problems.append(f"{where}: diverging, reference {want}")
        return problems
    return check


def gaussian_probes(params) -> list[tuple[float, float]]:
    mx, my, sx, sy = params
    return [(mx + i * sx, my + j * sy) for i in (-1, 0, 1) for j in (-1, 0, 1)]


def gaussian_slopes(params) -> dict[str, list[float]]:
    """Closed-form rho-slopes per relation, one per probe point."""
    import references as ref
    slopes = {rel: [ref.gaussian_slope_closed_form(rel, params, pr)
                    for pr in gaussian_probes(params)]
              for rel in ("P_xy-P_xP_y", "P_x|y-P_x")}
    slopes["<xy>-<x><y>"] = [ref.gaussian_slope_closed_form("<xy>-<x><y>",
                                                            params)]
    return slopes


def check_gaussian_rows(rows, slopes, tol: float, where_prefix: str = "gaussian"
                        ) -> list[str]:
    """rows: (relation, mode, statistic, expected, passed) tuples."""
    seen = sorted((r[0], r[1]) for r in rows)
    if seen != sorted((rel, m) for rel in slopes
                      for m in ("constrained", "limit")):
        return [f"{where_prefix}: rows {seen}"]
    problems = []
    for relation, mode, statistic, expected, passed in rows:
        where = f"{where_prefix} {relation} [{mode}]"
        if passed is not True:
            problems.append(f"{where}: not passed")
        if mode == "constrained":
            if not close(statistic, 0.0, 0.0, FD_TOL):
                problems.append(f"{where}: |grad| {statistic!r} on the "
                                f"rho = 0 slice")
            continue
        refs = slopes[relation]
        hit = [w for w in refs if close(statistic, w, tol, 10 * LIMIT_TOL)]
        if not any(close(expected, w, tol, 1e-12) for w in hit):
            problems.append(f"{where}: slope {statistic!r} / expected "
                            f"{expected!r}, references {refs}")
        elif abs(statistic) < max(abs(w) for w in refs) - 10 * LIMIT_TOL:
            problems.append(f"{where}: {statistic!r} is not the largest slope")
    return problems


def _gaussian_check(params):
    slopes = gaussian_slopes(params)

    def check(rows) -> list[str]:
        return check_gaussian_rows(
            [(r.relation, r.mode, r.statistic, r.expected, r.passed)
             for r in rows], slopes, 1e-9)
    return check


def check_gradient(where: str, result, want) -> list[str]:
    kind, value = want
    if kind == "diverging":
        return [] if result.kind == "diverging" else [
            f"{where}: {result.kind}, reference diverging"]
    if result.kind != "finite":
        return [f"{where}: {result.kind}, reference {kind}"]
    if kind == "finite-norm":
        got = vec_norm(result.components)
        return [] if close(got, value, FD_TOL, FD_TOL) else [
            f"{where}: projected |grad| {got!r}, reference {value!r}"]
    return [] if all_close(result.components, value, LIMIT_TOL, LIMIT_TOL) \
        else [f"{where}: {result.components}, reference {value}"]


def _relation_check(family: str, cells, mode: str, direction):
    import references as ref
    refs = {rel: ref.joint_relation_reference(family, rel, cells[:3], mode,
                                              direction)
            for rel in ref.JOINT_RELATIONS[family]}

    def check(suite) -> list[str]:
        labels = [label for label, _ in suite]
        if sorted(labels) != sorted(refs):
            return [f"relations {family}: labels {labels}"]
        problems = []
        for label, result in suite:
            problems += check_gradient(
                f"relations {family} {label} [{mode}]", result, refs[label])
        return problems
    return check


def entropy_limit_reference(cells, direction=CORRELATED_DIRECTION):
    """(kind, blow-up direction at the last rung, |grad| at the last rung)."""
    import references as ref
    free = cells[:3]
    kind, _ = ref.limit_gradient(ref.joint_entropy, free, direction)
    along = ref.gradient_along(ref.joint_entropy, free, direction, LAST_RUNG)
    size = vec_norm(along)
    return kind, [c / size for c in along], size


def _entropy_constrained_check(a: float):
    import references as ref
    slope = float(ref.gradient(lambda t: ref.joint_entropy([t[0], 0, 0]),
                               [a])[0])

    def check(result) -> list[str]:
        ok = result.kind == "finite" and all_close(result.components, [slope],
                                                   FD_TOL, FD_TOL)
        return [] if ok else [f"entropy gradient [constrained]: "
                              f"{result.components}, reference {slope}"]
    return check


def _entropy_limit_check(cells):
    kind, blowup, _ = entropy_limit_reference(cells)

    def check(result) -> list[str]:
        if result.kind != kind:
            return [f"entropy gradient [limit]: {result.kind}, reference "
                    f"{kind}"]
        if not all_close(result.blowup_direction or (), blowup, 0.0,
                         DIRECTION_TOL):
            return [f"entropy gradient [limit]: direction "
                    f"{result.blowup_direction}, reference {blowup}"]
        return []
    return check


class OracleErrors:
    """Largest relative error of core.gradient against its oracle."""

    def __init__(self):
        self.max_error = 0.0

    def note(self, err: float) -> None:
        self.max_error = max(self.max_error, err)


def _quadratic(q):
    a, b = q["A"], q["b"]

    def f(x):
        x = [float(v) for v in x]
        return 0.5 * math.fsum(a[i][j] * x[i] * x[j] for i in range(3)
                               for j in range(3)) + math.fsum(
            b[i] * x[i] for i in range(3))
    return f


def _quadratic_limit_check(q, oracle: OracleErrors):
    import references as ref
    grad = ref.quadratic_gradient(q["A"], q["b"], q["x"])
    scale = 1.0 + vec_norm(grad)

    def check(result) -> list[str]:
        if result.kind != "finite":
            return [f"quadratic [limit]: {result.kind}"]
        err = max(abs(g - w) for g, w in zip(result.components, grad))
        oracle.note(err / scale)
        return [] if err <= FD_TOL * scale else [
            f"quadratic [limit]: {result.components}, gradient {grad}"]
    return check


def _quadratic_constrained_check(q, oracle: OracleErrors):
    import references as ref
    x = q["x"]
    grad = ref.quadratic_gradient(q["A"], q["b"], x)
    projected = ref.projected_norm(grad, [[2 * v for v in x],
                                          [x[1], x[0], 0.0]])
    scale = 1.0 + projected

    def check(result) -> list[str]:
        if result.kind != "finite" or len(result.components) != 1:
            return [f"quadratic [constrained]: {result.kind} "
                    f"{result.components}"]
        err = abs(vec_norm(result.components) - projected)
        oracle.note(err / scale)
        return [] if err <= FD_TOL * scale else [
            f"quadratic [constrained]: |{result.components}|, projected "
            f"gradient norm {projected!r}"]
    return check


def engine_ops(inputs: dict, oracle: OracleErrors) -> list[Op]:
    import numpy as np
    from isograd import core, gaussian, jointbinary, strategy
    seeds = inputs["table_seeds"]
    params = inputs["normal"]
    normal = gaussian.NormalParams(*params, 0.0)
    a = inputs["correlated_a"]
    corr_cells = (a, 0.0, 0.0, 1.0 - a)
    corr_point = jointbinary.JointPoint(*corr_cells)
    ops = [
        Op("strategy.table1",
           lambda: strategy.table1("correlated", n_samples=20, seed=seeds[0]),
           lambda: _table_check("correlated", seeds[0])),
        Op("strategy.table1",
           lambda: strategy.table1("independent", n_samples=20, seed=seeds[1]),
           lambda: _table_check("independent", seeds[1])),
        Op("gaussian.check_suite", lambda: gaussian.check_suite(normal),
           lambda: _gaussian_check(params)),
    ]
    for family, cells, direction in (
            ("correlated", corr_cells, CORRELATED_DIRECTION),
            ("independent", inputs["independent"], INDEPENDENT_DIRECTION)):
        point = jointbinary.JointPoint(*cells)
        for mode in ("constrained", "limit"):
            ops.append(Op(
                "jointbinary.relation_suite",
                lambda p=point, f=family, m=mode, d=direction:
                jointbinary.relation_suite(
                    p, f, m, direction=d if m == "limit" else None),
                lambda f=family, c=cells, m=mode, d=direction:
                _relation_check(f, c, m, d)))
    ops += [
        Op("jointbinary.entropy_gradient",
           lambda: jointbinary.entropy_gradient(corr_point, "constrained"),
           lambda: _entropy_constrained_check(a)),
        Op("jointbinary.entropy_gradient",
           lambda: jointbinary.entropy_gradient(
               corr_point, "limit", direction=CORRELATED_DIRECTION),
           lambda: _entropy_limit_check(corr_cells)),
    ]
    for q in inputs["quadratics"]:
        f = _quadratic(q)
        x = np.array(q["x"])
        constraints = core.ConstraintSet(
            ((lambda v: float(v @ v), float(x @ x)),
             (lambda v: float(v[0] * v[1]), float(x[0] * x[1]))),
            "sphere and x0 x1")
        limit = core.Limit(tuple(q["direction"]))
        constrained = core.Constrained(constraints)
        ops += [
            Op("core.gradient.limit",
               lambda f=f, x=x, m=limit: core.gradient(f, x, m),
               lambda q=q: _quadratic_limit_check(q, oracle)),
            Op("core.gradient.constrained",
               lambda f=f, x=x, m=constrained: core.gradient(f, x, m),
               lambda q=q: _quadratic_constrained_check(q, oracle)),
        ]
    return ops
