"""Command-line frontend: every analysis as a subcommand.

Output goes to stdout in one of three formats (``text`` for reading, ``csv``
and ``json`` for machines); diagnostics go to stderr.  Exit status is 0 on
success, 2 on any validation or usage problem, and 3 when an optimizer
reports that its grid and refinement stages disagree.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from . import dice, game, gaussian, jointbinary, strategy, treeopt
from .core import Constrained, Limit, gradient, simplex_volume
from .errors import BadParams, ConvergenceFailure, IsogradError, NonFinite
from .jointbinary import CORRELATED_CONSTRAINTS, CORRELATED_DIRECTION

FORMATS = ("text", "csv", "json")
OUT_OF_SCOPE = "out of scope (no construction given)"


@dataclass(frozen=True)
class RunConfig:
    """Validated run settings shared by every subcommand."""

    command: str
    format: str = "text"
    precision: int = 6
    grid: int = 401
    seed: int = 42
    samples: int = 20
    tolerance: float | None = None

    def __post_init__(self):
        if self.format not in FORMATS:
            raise BadParams(f"format must be one of {FORMATS}, "
                            f"got {self.format!r}")
        if self.precision < 1:
            raise BadParams(f"precision must be positive, got {self.precision}")
        if self.seed < 0:
            raise BadParams(f"seed must be non-negative, got {self.seed}")
        if self.samples < 1:
            raise BadParams(f"samples must be positive, got {self.samples}")
        if self.tolerance is not None and self.tolerance <= 0:
            raise BadParams(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class Report:
    """One renderable result table plus its structured payload."""

    title: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Any, ...], ...]
    payload: dict[str, Any]
    footer: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# rendering


def _format_cell(value: Any, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.{precision}g}"
    if isinstance(value, (tuple, list, np.ndarray)):
        return ";".join(_format_cell(v, precision) for v in value)
    return str(value)


def _render_text(report: Report, precision: int) -> str:
    cells = [[_format_cell(v, precision) for v in row] for row in report.rows]
    widths = [len(c) for c in report.columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [report.title,
             "  ".join(c.ljust(w) for c, w in zip(report.columns, widths)),
             "  ".join("-" * w for w in widths)]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    lines.extend(report.footer)
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _render_csv(report: Report, precision: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    for row in report.rows:
        writer.writerow([_format_cell(v, precision) for v in row])
    return buf.getvalue()


def _round_floats(value: Any, precision: int) -> Any:
    """Normalize a payload so JSON output round-trips byte-identically."""
    if isinstance(value, dict):
        return {str(k): _round_floats(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v, precision) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not math.isfinite(value):
            return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
        return float(f"{value:.{precision}g}")
    return value


def _render_json(report: Report, precision: int) -> str:
    payload = _round_floats(report.payload, precision)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render(report: Report, config: RunConfig) -> str:
    if config.format == "text":
        return _render_text(report, config.precision)
    if config.format == "csv":
        return _render_csv(report, config.precision)
    return _render_json(report, config.precision)


# ---------------------------------------------------------------------------
# argument helpers


def _parse_floats(text: str, count: int, name: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise BadParams(f"{name} needs {count} comma-separated values, "
                        f"got {len(parts)} in {text!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise BadParams(f"{name}: {exc}") from exc
    for v in values:
        if not math.isfinite(v):
            raise NonFinite(f"{name}: {v!r} is not a finite number")
    return values


def _parse_counts(text: str) -> jointbinary.CountData:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise BadParams(f"--counts needs 4 comma-separated integers, "
                        f"got {len(parts)} in {text!r}")
    try:
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise BadParams(f"--counts: {exc}") from exc
    return jointbinary.CountData(*values)


def _point_label(probs, precision: int) -> str:
    return "(" + ", ".join(f"{v:.{precision}g}" for v in probs) + ")"


def _gradient_row(quantity: str, mode: str, result) -> tuple[Any, ...]:
    """(quantity, mode, kind, value, magnitude, evidence) for one gradient."""
    if result.kind == "finite":
        return (quantity, mode, result.kind, result.components,
                result.magnitude, None)
    if result.kind == "diverging":
        return (quantity, mode, result.kind, result.blowup_direction,
                None, result.max_ladder_magnitude)
    return (quantity, mode, result.kind, None, None, None)


def _gradient_payload(result) -> dict[str, Any]:
    return {
        "kind": result.kind,
        "components": (None if result.components is None
                       else list(result.components)),
        "blowup_direction": (None if result.blowup_direction is None
                             else list(result.blowup_direction)),
        "magnitude": None if result.kind != "finite" else result.magnitude,
        "max_ladder_magnitude": (None if result.ladder is None
                                 else result.max_ladder_magnitude),
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_dice(ns: argparse.Namespace, config: RunConfig) -> Report:
    rows = []
    payload: dict[str, Any] = {"per_space": [], "constrained_target": []}
    for rep in dice.maximize_per_space():
        rows.append(("per-space", rep.label, rep.value, rep.point))
        payload["per_space"].append(rep.to_dict())
    for rep in dice.maximize_constrained_target():
        rows.append(("constrained-target", rep.label, rep.value, rep.point))
        payload["constrained_target"].append(rep.to_dict())
    rep = dice.maximize_unconstrained()
    rows.append(("unconstrained", rep.label, rep.value, rep.point))
    payload["unconstrained"] = rep.to_dict()
    conflicts = bool(rep.diagnostics["conflicts_with_constrained"])
    payload["unconstrained_conflicts_with_per_space"] = conflicts
    return Report(
        title="die-rolling payoff V^2 * E under three optimization readings",
        columns=("method", "space", "value", "point"),
        rows=tuple(rows),
        payload=payload,
        footer=(f"unconstrained optimum conflicts with the per-space "
                f"winners: {'true' if conflicts else 'false'}",),
    )


def _cmd_gaussian_check(ns: argparse.Namespace, config: RunConfig) -> Report:
    checks = gaussian.check_suite()
    rows = []
    payload_rows = []
    for check in checks:
        passed = check.passed
        if config.tolerance is not None:
            # re-derive the verdict from the reported statistics
            if check.mode == "constrained":
                passed = check.statistic < config.tolerance
            else:
                passed = (check.details["max_error"] < config.tolerance
                          and abs(check.statistic) > 1e-3)
        rows.append((check.relation, check.mode, check.statistic,
                     check.expected, passed))
        payload_rows.append({
            "relation": check.relation, "mode": check.mode,
            "statistic": check.statistic, "expected": check.expected,
            "passed": passed,
        })
    params = gaussian.DEFAULT_PARAMS
    payload = {
        "params": list(params.as_array()),
        "rows": payload_rows,
        "all_passed": all(r[-1] for r in rows),
    }
    return Report(
        title="bivariate-normal independence relations: gradient checks at "
              "rho=0",
        columns=("relation", "mode", "statistic", "expected", "passed"),
        rows=tuple(rows),
        payload=payload,
        footer=(f"all passed: {'true' if payload['all_passed'] else 'false'}",),
    )


def _require_point(ns: argparse.Namespace) -> jointbinary.JointPoint:
    if ns.point is None:
        raise BadParams(f"--point is required for --op {ns.op}")
    a, b, c, d = _parse_floats(ns.point, 4, "--point")
    return jointbinary.JointPoint(a, b, c, d)


def _require_counts(ns: argparse.Namespace) -> jointbinary.CountData:
    if ns.counts is None:
        raise BadParams(f"--counts is required for --op {ns.op}")
    return _parse_counts(ns.counts)


def _cmd_joint(ns: argparse.Namespace, config: RunConfig) -> Report:
    grad_columns = ("quantity", "mode", "kind", "value", "magnitude",
                    "evidence")
    if ns.op == "entropy-gradient":
        point = _require_point(ns)
        result = jointbinary.entropy_gradient(point, mode=ns.mode)
        return Report(
            title=f"joint-entropy gradient at {_point_label(point.probs, config.precision)} [{ns.mode}]",
            columns=grad_columns,
            rows=(_gradient_row("E_xy", ns.mode, result),),
            payload={"op": ns.op, "mode": ns.mode, "point": list(point.probs),
                     "gradient": _gradient_payload(result)},
        )
    if ns.op == "fisher":
        point = _require_point(ns)
        matrix = jointbinary.fisher_information(point, mode=ns.mode)
        k = matrix.shape[0]
        columns = ("row",) + tuple(f"F_{j}" for j in range(k))
        rows = tuple((i,) + tuple(float(v) for v in matrix[i])
                     for i in range(k))
        return Report(
            title=f"Fisher information at {_point_label(point.probs, config.precision)} [{ns.mode}]",
            columns=columns, rows=rows,
            payload={"op": ns.op, "mode": ns.mode, "point": list(point.probs),
                     "dimension": int(k),
                     "matrix": [[float(v) for v in row] for row in matrix]},
        )
    if ns.op == "loglik-gradient":
        point = _require_point(ns)
        counts = _require_counts(ns)
        result = jointbinary.log_likelihood_gradient(counts, point,
                                                     mode=ns.mode)
        return Report(
            title=f"log-likelihood gradient at {_point_label(point.probs, config.precision)} "
                  f"counts={counts.counts} [{ns.mode}]",
            columns=grad_columns,
            rows=(_gradient_row("log L", ns.mode, result),),
            payload={"op": ns.op, "mode": ns.mode, "point": list(point.probs),
                     "counts": list(counts.counts),
                     "gradient": _gradient_payload(result)},
        )
    if ns.op == "mle":
        counts = _require_counts(ns)
        estimate = jointbinary.mle(counts, mode=ns.mode)
        return Report(
            title=f"maximum-likelihood estimate from counts={counts.counts} "
                  f"[{ns.mode}]",
            columns=("n_a", "n_b", "n_c", "n_d", "a", "b", "c", "d"),
            rows=(counts.counts + estimate.probs,),
            payload={"op": ns.op, "mode": ns.mode,
                     "counts": list(counts.counts),
                     "estimate": list(estimate.probs)},
        )
    if ns.op == "relations":
        point = _require_point(ns)
        suite = jointbinary.relation_suite(point, ns.family, mode=ns.mode)
        rows = tuple(_gradient_row(label, ns.mode, result)
                     for label, result in suite)
        return Report(
            title=f"{ns.family}-family relation gradients at {_point_label(point.probs, config.precision)} "
                  f"[{ns.mode}]",
            columns=grad_columns, rows=rows,
            payload={"op": ns.op, "mode": ns.mode, "family": ns.family,
                     "point": list(point.probs),
                     "rows": [{"relation": label,
                               "gradient": _gradient_payload(result)}
                              for label, result in suite]},
        )
    raise BadParams(f"unknown op {ns.op!r}")


_TABLE_CASES = {"corr": "correlated", "ind": "independent"}


def _cmd_table1(ns: argparse.Namespace, config: RunConfig) -> Report:
    case = _TABLE_CASES[ns.case]
    report = strategy.table1(case, n_samples=config.samples, seed=config.seed)
    rows = tuple(
        (e.row, e.group, e.column, e.expected, e.dimension,
         e.kinds, e.worst_error, e.evidence, e.passed)
        for e in report.entries)
    return Report(
        title=f"two-route gradient table, {case} case "
              f"(seed={config.seed}, samples={config.samples})",
        columns=("row", "group", "column", "expected", "dimension", "kinds",
                 "worst_error", "evidence", "passed"),
        rows=rows,
        payload=report.to_dict(),
        footer=(f"all entries passed: "
                f"{'true' if report.passed else 'false'}",),
    )


_SLICE_COLUMNS = ("rho", "value", "p", "q", "r", "boundary", "global_best")


def _slice_row(rep, best) -> tuple[Any, ...]:
    return (rep.diagnostics["rho"], rep.value, rep.point[0], rep.point[1],
            rep.point[2], rep.diagnostics["boundary"], rep is best)


def _cmd_tree_opt(ns: argparse.Namespace, config: RunConfig) -> Report:
    if ns.sweep == (ns.rho is not None):
        raise BadParams("exactly one of --rho and --sweep is required")
    if ns.sweep:
        result = treeopt.sweep(grid=config.grid)
        title = f"payoff maxima per correlation slice (grid={config.grid})"
    else:
        row = treeopt.maximize_payoff_on_slice(ns.rho, grid=config.grid)
        result = treeopt.SweepResult(rows=(row,), best=row)
        title = (f"payoff maximum on the rho={ns.rho:+g} slice "
                 f"(grid={config.grid})")
    payload = result.to_dict()
    payload["grid"] = config.grid
    return Report(
        title=title,
        columns=_SLICE_COLUMNS,
        rows=tuple(_slice_row(rep, result.best) for rep in result.rows),
        payload=payload,
        footer=(() if result.best is None else
                (f"best slice: {result.best.label} with value "
                 f"{_format_cell(result.best.value, config.precision)}",)),
    )


def _cmd_surface(ns: argparse.Namespace, config: RunConfig) -> Report:
    points = treeopt.surface_points(ns.rho, grid=config.grid)
    return Report(
        title=f"constant-correlation surface rho={ns.rho:+g} "
              f"(grid={config.grid}, {len(points)} points)",
        columns=("p", "q", "r"),
        rows=tuple(tuple(float(v) for v in row) for row in points),
        payload={"rho": float(ns.rho), "grid": config.grid,
                 "points": [[float(v) for v in row] for row in points]},
    )


def _cmd_game(ns: argparse.Namespace, config: RunConfig) -> Report:
    spec = game.GameSpec(
        x_payoff=game.PayoffForm(*_parse_floats(ns.cx, 4, "--cx")),
        y_payoff=game.PayoffForm(*_parse_floats(ns.cy, 4, "--cy")),
    )
    baseline = game.backward_induction(spec)
    table, chosen = game.global_comparison(spec)
    rows = [(baseline.label, baseline.kind, baseline.strategy[0],
             baseline.strategy[1], baseline.payoffs[0], baseline.payoffs[1],
             False)]
    rows.extend((o.label, o.kind, o.strategy[0], o.strategy[1],
                 o.payoffs[0], o.payoffs[1], o is chosen) for o in table)
    return Report(
        title="two-stage game: backward induction vs coupling selection",
        columns=("regime", "kind", "x_or_p", "y_or_q", "payoff_x", "payoff_y",
                 "chosen"),
        rows=tuple(rows),
        payload={"baseline": baseline.to_dict(),
                 "slices": [o.to_dict() for o in table],
                 "chosen": chosen.to_dict()},
        footer=(f"second mover picks {chosen.label}: payoffs "
                f"({_format_cell(chosen.payoffs[0], config.precision)}, "
                f"{_format_cell(chosen.payoffs[1], config.precision)}) vs "
                f"backward-induction "
                f"({_format_cell(baseline.payoffs[0], config.precision)}, "
                f"{_format_cell(baseline.payoffs[1], config.precision)})",),
    )


def _cmd_report(ns: argparse.Namespace, config: RunConfig) -> Report:
    """Headline summary: the same pinned binary family read two ways.

    The family is the perfectly coupled pair (a, 0, 0, 1-a) at a = 1/2.  The
    "constrained" column treats it as the 1-parameter space it is; the
    "limit" column embeds it in the full 3-simplex and approaches it from
    inside.  The two readings disagree on every row that involves a
    gradient, a dimension, or a volume.
    """
    pin = jointbinary.JointPoint(0.5, 0.0, 0.0, 0.5)
    counts = jointbinary.CountData(5, 0, 0, 5)
    eps = 1e-5
    free = pin.free_array() + eps * np.asarray(CORRELATED_DIRECTION)
    approach = jointbinary.JointPoint(free[0], free[1], free[2],
                                      1.0 - float(free.sum()))

    dim_f_con = jointbinary.fisher_information(pin, "constrained").shape[0]
    dim_f_lim = jointbinary.fisher_information(approach,
                                               "unconstrained").shape[0]
    dim_l_con = len(jointbinary.log_likelihood_gradient(counts, pin,
                                                        "constrained"))
    dim_l_lim = len(jointbinary.log_likelihood_gradient(counts, approach,
                                                        "unconstrained"))
    ent_con = jointbinary.entropy_gradient(pin, "constrained")
    ent_lim = jointbinary.entropy_gradient(pin, "limit")

    def normalization_mass(x) -> float:
        j = jointbinary.joint_from_free(x)
        return float(j[0] + j[3])

    norm_con = gradient(normalization_mass, pin.pv,
                        Constrained(CORRELATED_CONSTRAINTS))
    norm_lim = gradient(normalization_mass, pin.pv,
                        Limit(CORRELATED_DIRECTION))
    suite_con = dict(jointbinary.relation_suite(pin, "correlated",
                                                "constrained"))
    suite_lim = dict(jointbinary.relation_suite(pin, "correlated", "limit"))
    ent_rel_con = suite_con["E_xy-E_x"]
    ent_rel_lim = suite_lim["E_xy-E_x"]

    def describe(result) -> Any:
        if result.kind == "diverging":
            return "diverging"
        return result.magnitude

    rows = (
        ("dim(F)", dim_f_con, dim_f_lim),
        ("dim(grad L)", dim_l_con, dim_l_lim),
        ("|grad E_xy|", describe(ent_con), describe(ent_lim)),
        ("|grad (P00+P11)|", describe(norm_con), describe(norm_lim)),
        ("|grad (E_xy-E_x)|", describe(ent_rel_con), describe(ent_rel_lim)),
        ("Rank(A)", OUT_OF_SCOPE, OUT_OF_SCOPE),
        ("J", OUT_OF_SCOPE, OUT_OF_SCOPE),
        ("d", 1, 3),
        ("V", simplex_volume(2), simplex_volume(4)),
    )
    payload = {
        "point": list(pin.probs),
        "rows": [{"quantity": q, "constrained": c, "limit": l}
                 for q, c, l in rows],
    }
    return Report(
        title="one pinned binary family, two gradient semantics "
              "(at a = 1/2, family (a, 0, 0, 1-a))",
        columns=("quantity", "constrained", "limit"),
        rows=rows,
        payload=payload,
    )


# ---------------------------------------------------------------------------
# parser / dispatch


_COMMANDS: dict[str, Callable[[argparse.Namespace, RunConfig], Report]] = {
    "dice": _cmd_dice,
    "gaussian-check": _cmd_gaussian_check,
    "joint": _cmd_joint,
    "table1": _cmd_table1,
    "tree-opt": _cmd_tree_opt,
    "surface": _cmd_surface,
    "game": _cmd_game,
    "report-eq1-4": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default="text",
                        help="output format (default: text)")
    common.add_argument("--precision", type=int, default=6,
                        help="significant digits for printed floats "
                             "(default: 6)")

    parser = argparse.ArgumentParser(
        prog="isograd",
        description="Gradient semantics on probability simplexes: "
                    "constrained differentiation vs limit embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("dice", parents=[common],
                   help="entropy-payoff optima of embedded die spaces")
    gauss = sub.add_parser("gaussian-check", parents=[common],
                           help="bivariate-normal relation gradients at rho=0")
    gauss.add_argument("--tol", type=float, default=None, dest="tol",
                       help="override the pass/fail threshold")

    joint = sub.add_parser("joint", parents=[common],
                           help="statistics of a 2x2 joint distribution")
    joint.add_argument("--op", required=True,
                       choices=("entropy-gradient", "fisher",
                                "loglik-gradient", "mle", "relations"))
    joint.add_argument("--mode", default="constrained",
                       choices=("constrained", "unconstrained", "limit"))
    joint.add_argument("--point", default=None,
                       help="joint cells a,b,c,d (comma separated)")
    joint.add_argument("--counts", default=None,
                       help="observed counts n_a,n_b,n_c,n_d")
    joint.add_argument("--family", default="correlated",
                       choices=("correlated", "independent"),
                       help="relation family for --op relations")

    table = sub.add_parser("table1", parents=[common],
                           help="mixed/behavioural gradient comparison table")
    table.add_argument("--case", required=True, choices=tuple(_TABLE_CASES))
    table.add_argument("--samples", type=int, default=20,
                       help="sample points per cell (default: 20)")
    table.add_argument("--seed", type=int, default=42,
                       help="sampling seed (default: 42)")

    tree = sub.add_parser("tree-opt", parents=[common],
                          help="maximize the tree payoff on correlation "
                               "slices")
    tree.add_argument("--rho", type=float, default=None,
                      help="single slice to maximize")
    tree.add_argument("--sweep", action="store_true",
                      help="run the standard nine-slice sweep")
    tree.add_argument("--grid", type=int, default=treeopt.DEFAULT_GRID,
                      help=f"grid points per axis "
                           f"(default: {treeopt.DEFAULT_GRID})")

    surf = sub.add_parser("surface", parents=[common],
                          help="emit (p,q,r) triples of one correlation "
                               "surface")
    surf.add_argument("--rho", type=float, required=True)
    surf.add_argument("--grid", type=int, default=41,
                      help="grid points per axis (default: 41)")

    gm = sub.add_parser("game", parents=[common],
                        help="two-stage game under three coupling regimes")
    gm.add_argument("--cx", default="3,-2,-1,4",
                    help="first mover payoff c0,cx,cy,cxy "
                         "(default: 3,-2,-1,4)")
    gm.add_argument("--cy", default="1,3,1,-2",
                    help="second mover payoff c0,cx,cy,cxy "
                         "(default: 1,3,1,-2)")

    sub.add_parser("report-eq1-4", parents=[common],
                   help="headline table: one pinned family, two readings")
    return parser


def _config_from(ns: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=ns.command,
        format=ns.format,
        precision=ns.precision,
        grid=getattr(ns, "grid", 401),
        seed=getattr(ns, "seed", 42),
        samples=getattr(ns, "samples", 20),
        tolerance=getattr(ns, "tol", None),
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = _config_from(ns)
        report = _COMMANDS[ns.command](ns, config)
        output = render(report, config)
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IsogradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
