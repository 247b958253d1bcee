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
from dataclasses import asdict, astuple, dataclass
from typing import Any, Callable, Sequence

from .errors import BadParams, ConvergenceFailure, IsogradError, NonFinite

# Each command imports its module when it runs, so that a call loads only
# what it dispatches to.  The parser therefore restates core.MODES and
# treeopt's DEFAULT_GRID and DISCREPANCY_GRID; a test pins them equal.
MODES = ("constrained", "unconstrained", "limit")
DEFAULT_GRID = 401
DISCREPANCY_GRID = 41

OUT_OF_SCOPE = "out of scope (no construction given)"


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
    """Every value the CLI prints as text goes through here; floats keep
    ``precision`` significant digits and sequences are joined by ``;``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
        return f"{value:.{precision}g}"
    if isinstance(value, (tuple, list)):
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
    if isinstance(value, float):
        text = _format_cell(value, precision)
        return float(text) if math.isfinite(value) else text
    return value


def _render_json(report: Report, precision: int) -> str:
    payload = _round_floats(report.payload, precision)
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_RENDERERS = {"text": _render_text, "csv": _render_csv, "json": _render_json}


def render(report: Report, fmt: str = "text", precision: int = 6) -> str:
    return _RENDERERS[fmt](report, precision)


# ---------------------------------------------------------------------------
# argument helpers


def _setting(convert: Callable[[str], Any], rule: str,
             ok: Callable[[Any], bool]) -> Callable[[str], Any]:
    """An argparse ``type=`` that converts a flag value and checks ``rule``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    # argparse names the type in its "invalid int value: 'x'" message
    parse.__name__ = convert.__name__
    return parse


_AT_LEAST_ONE = _setting(int, "at least 1", lambda v: v >= 1)
# 17 significant digits round-trip every float64, as its repr does
_PRECISION = _setting(int, "between 1 and 17", lambda v: 1 <= v <= 17)
_NON_NEGATIVE = _setting(int, "non-negative", lambda v: v >= 0)
_TOLERANCE = _setting(float, "positive and finite", lambda v: 0 < v < math.inf)


def _parse_list(text: str, count: int, name: str,
                convert: Callable[[str], Any] = float) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise BadParams(f"{name} needs {count} comma-separated values, "
                        f"got {len(parts)} in {text!r}")
    try:
        values = tuple(convert(p) for p in parts)
    except ValueError as exc:
        raise BadParams(f"{name}: {exc}") from exc
    for v in values:
        if not math.isfinite(v):
            raise NonFinite(f"{name}: {v!r} is not a finite number")
    return values


def _point_label(probs, precision: int) -> str:
    return "(" + ", ".join(_format_cell(v, precision) for v in probs) + ")"


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


def _cmd_dice(ns: argparse.Namespace) -> Report:
    from . import dice
    per_space = dice.maximize_per_space()
    constrained = dice.maximize_constrained_target()
    square = next(r for r in constrained if r.label == dice.SQUARE.label)
    unconstrained = dice.unconstrained_report(square, per_space)
    conflicts = bool(unconstrained.diagnostics["conflicts_with_constrained"])
    return Report(
        title="die-rolling payoff V^2 * E under three optimization readings",
        columns=("method", "space", "value", "point"),
        # each report's mode names its method
        rows=tuple((r.mode, r.label, r.value, r.point)
                   for r in per_space + constrained + [unconstrained]),
        payload={"per_space": [asdict(r) for r in per_space],
                 "constrained_target": [asdict(r) for r in constrained],
                 "unconstrained": asdict(unconstrained),
                 "unconstrained_conflicts_with_per_space": conflicts},
        footer=(f"unconstrained optimum conflicts with the per-space "
                f"winners: {_format_cell(conflicts, ns.precision)}",),
    )


def _cmd_gaussian_check(ns: argparse.Namespace) -> Report:
    from . import gaussian
    checks = gaussian.check_suite(tol=ns.tol)
    payload = {
        "params": list(astuple(gaussian.DEFAULT_PARAMS)),
        "rows": [asdict(check) for check in checks],
        "all_passed": all(check.passed for check in checks),
    }
    return Report(
        title="bivariate-normal independence relations: gradient checks at "
              "rho=0",
        columns=("relation", "mode", "statistic", "expected", "passed"),
        rows=tuple(astuple(check) for check in checks),
        payload=payload,
        footer=(f"all passed: "
                f"{_format_cell(payload['all_passed'], ns.precision)}",),
    )


def _required(ns: argparse.Namespace, flag: str,
              convert: Callable[[str], Any] = float) -> tuple:
    """The four values of ``--point`` or ``--counts``, which ``--op`` needs."""
    text = getattr(ns, flag)
    if text is None:
        raise BadParams(f"--{flag} is required for --op {ns.op}")
    return _parse_list(text, 4, f"--{flag}", convert)


_GRADIENT_COLUMNS = ("quantity", "mode", "kind", "value", "magnitude",
                     "evidence")


def _cmd_joint(ns: argparse.Namespace) -> Report:
    from . import jointbinary
    payload: dict[str, Any] = {"op": ns.op, "mode": ns.mode}
    if ns.op != "mle":
        point = jointbinary.JointPoint(*_required(ns, "point"))
        payload["point"] = list(point.probs)
        at = f"at {_point_label(point.probs, ns.precision)}"
    if ns.op in ("loglik-gradient", "mle"):
        counts = jointbinary.CountData(*_required(ns, "counts", int))
        payload["counts"] = list(counts.counts)
    if ns.op == "fisher":
        matrix = jointbinary.fisher_information(point, mode=ns.mode)
        payload.update(dimension=len(matrix), matrix=list(map(list, matrix)))
        return Report(f"Fisher information {at} [{ns.mode}]",
                      ("row",) + tuple(f"F_{j}" for j in range(len(matrix))),
                      tuple((i,) + row for i, row in enumerate(matrix)),
                      payload)
    if ns.op == "mle":
        estimate = jointbinary.mle(counts, mode=ns.mode)
        payload["estimate"] = list(estimate.probs)
        return Report(f"maximum-likelihood estimate from "
                      f"counts={counts.counts} [{ns.mode}]",
                      ("n_a", "n_b", "n_c", "n_d", "a", "b", "c", "d"),
                      (counts.counts + estimate.probs,), payload)
    if ns.op == "relations":
        title = f"{ns.family}-family relation gradients {at}"
        suite = jointbinary.relation_suite(point, ns.family, mode=ns.mode)
        payload.update(family=ns.family, rows=[
            {"relation": label, "gradient": _gradient_payload(result)}
            for label, result in suite])
    else:
        if ns.op == "entropy-gradient":
            title = f"joint-entropy gradient {at}"
            suite = [("E_xy", jointbinary.entropy_gradient(point, ns.mode))]
        else:
            title = f"log-likelihood gradient {at} counts={counts.counts}"
            suite = [("log L", jointbinary.log_likelihood_gradient(
                counts, point, ns.mode))]
        payload["gradient"] = _gradient_payload(suite[0][1])
    return Report(f"{title} [{ns.mode}]", _GRADIENT_COLUMNS,
                  tuple(_gradient_row(label, ns.mode, result)
                        for label, result in suite), payload)


_TABLE_CASES = {"corr": "correlated", "ind": "independent"}


def _cmd_table1(ns: argparse.Namespace) -> Report:
    from . import strategy
    case = _TABLE_CASES[ns.case]
    report = strategy.table1(case, n_samples=ns.samples, seed=ns.seed)
    rows = tuple(
        (e.row, e.group, e.column, e.expected, e.dimension,
         e.kinds, e.worst_error, e.evidence, e.passed)
        for e in report.entries)
    return Report(
        title=f"two-route gradient table, {case} case "
              f"(seed={ns.seed}, samples={ns.samples})",
        columns=("row", "group", "column", "expected", "dimension", "kinds",
                 "worst_error", "evidence", "passed"),
        rows=rows,
        payload=report.to_dict(),
        footer=(f"all entries passed: "
                f"{_format_cell(report.passed, ns.precision)}",),
    )


_SLICE_COLUMNS = ("rho", "value", "p", "q", "r", "boundary", "global_best")


def _slice_row(rep, best) -> tuple[Any, ...]:
    return (rep.diagnostics["rho"], rep.value, rep.point[0], rep.point[1],
            rep.point[2], rep.diagnostics["boundary"], rep is best)


def _cmd_tree_opt(ns: argparse.Namespace) -> Report:
    from . import treeopt
    if ns.sweep:
        result = treeopt.sweep(grid=ns.grid)
        title = f"payoff maxima per correlation slice (grid={ns.grid})"
    else:
        row = treeopt.maximize_payoff_on_slice(ns.rho, grid=ns.grid)
        result = treeopt.SweepResult(rows=(row,), best=row)
        title = (f"payoff maximum on the rho={ns.rho:+g} slice "
                 f"(grid={ns.grid})")
    payload = asdict(result)
    payload["grid"] = ns.grid
    return Report(
        title=title,
        columns=_SLICE_COLUMNS,
        rows=tuple(_slice_row(rep, result.best) for rep in result.rows),
        payload=payload,
        footer=(f"best slice: {result.best.label} with value "
                f"{_format_cell(result.best.value, ns.precision)}",),
    )


def _cmd_surface(ns: argparse.Namespace) -> Report:
    from . import treeopt
    points = treeopt.surface_points(ns.rho, grid=ns.grid)
    return Report(
        title=f"constant-correlation surface rho={ns.rho:+g} "
              f"(grid={ns.grid}, {len(points)} points)",
        columns=("p", "q", "r"),
        rows=tuple(tuple(float(v) for v in row) for row in points),
        payload={"rho": float(ns.rho), "grid": ns.grid,
                 "points": [[float(v) for v in row] for row in points]},
    )


def _cmd_game(ns: argparse.Namespace) -> Report:
    from . import game
    spec = game.GameSpec(
        x_payoff=game.PayoffForm(*_parse_list(ns.cx, 4, "--cx")),
        y_payoff=game.PayoffForm(*_parse_list(ns.cy, 4, "--cy")),
    )
    baseline = game.backward_induction(spec)
    table, chosen = game.global_comparison(spec)
    return Report(
        title="two-stage game: backward induction vs coupling selection",
        columns=("regime", "kind", "x_or_p", "y_or_q", "payoff_x", "payoff_y",
                 "chosen"),
        rows=tuple((o.label, o.kind, *o.strategy, *o.payoffs, o is chosen)
                   for o in (baseline, *table)),
        payload={"baseline": asdict(baseline),
                 "slices": [asdict(o) for o in table],
                 "chosen": asdict(chosen)},
        footer=(f"second mover picks {chosen.label}: payoffs "
                f"{_point_label(chosen.payoffs, ns.precision)} vs "
                f"backward-induction "
                f"{_point_label(baseline.payoffs, ns.precision)}",),
    )


def _cmd_report(ns: argparse.Namespace) -> Report:
    """Headline summary: the same pinned binary family read two ways.

    The family is the perfectly coupled pair (a, 0, 0, 1-a) at a = 1/2.  The
    "constrained" column treats it as the 1-parameter space it is; the
    "limit" column embeds it in the full 3-simplex and approaches it from
    inside.  The two readings disagree on every row that involves a
    gradient, a dimension, or a volume.
    """
    from . import jointbinary
    from .core import gradient, mode_named, simplex_volume
    from .jointbinary import CORRELATED_CONSTRAINTS, CORRELATED_DIRECTION
    pin = jointbinary.JointPoint(0.5, 0.0, 0.0, 0.5)
    counts = jointbinary.CountData(5, 0, 0, 5)
    eps = 1e-5
    free = [v + eps * d for v, d in zip(pin.probs, CORRELATED_DIRECTION)]
    approach = jointbinary.JointPoint(*free, 1.0 - sum(free))

    dim_f_con = len(jointbinary.fisher_information(pin, "constrained"))
    dim_f_lim = len(jointbinary.fisher_information(approach, "unconstrained"))
    dim_l_con = len(jointbinary.log_likelihood_gradient(counts, pin,
                                                        "constrained"))
    dim_l_lim = len(jointbinary.log_likelihood_gradient(counts, approach,
                                                        "unconstrained"))
    ent_con = jointbinary.entropy_gradient(pin, "constrained")
    ent_lim = jointbinary.entropy_gradient(pin, "limit")

    def normalization_mass(x) -> float:
        j = jointbinary.joint_from_free(x)
        return j[0] + j[3]

    norm_con, norm_lim = (
        gradient(normalization_mass, pin.pv,
                 mode_named(name, CORRELATED_CONSTRAINTS, CORRELATED_DIRECTION))
        for name in ("constrained", "limit"))
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


_COMMANDS: dict[str, Callable[[argparse.Namespace], Report]] = {
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
    common.add_argument("--format", choices=tuple(_RENDERERS), default="text",
                        help="output format (default: text)")
    common.add_argument("--precision", type=_PRECISION, default=6,
                        help="significant digits for printed floats, 1 to 17 "
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
    gauss.add_argument("--tol", type=_TOLERANCE, default=None,
                       help="override the pass/fail threshold (positive, "
                            "finite)")

    joint = sub.add_parser("joint", parents=[common],
                           help="statistics of a 2x2 joint distribution")
    joint.add_argument("--op", required=True,
                       choices=("entropy-gradient", "fisher",
                                "loglik-gradient", "mle", "relations"))
    joint.add_argument("--mode", default="constrained", choices=MODES)
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
    table.add_argument("--samples", type=_AT_LEAST_ONE, default=20,
                       help="sample points per cell (default: 20)")
    table.add_argument("--seed", type=_NON_NEGATIVE, default=42,
                       help="sampling seed (default: 42)")

    tree = sub.add_parser("tree-opt", parents=[common],
                          help="maximize the tree payoff on correlation "
                               "slices")
    target = tree.add_mutually_exclusive_group(required=True)
    target.add_argument("--rho", type=float, default=None,
                        help="single slice to maximize")
    target.add_argument("--sweep", action="store_true",
                        help="run the standard nine-slice sweep")
    tree.add_argument("--grid", type=int, default=DEFAULT_GRID,
                      help=f"grid points per axis "
                           f"(default: {DEFAULT_GRID})")

    surf = sub.add_parser("surface", parents=[common],
                          help="emit (p,q,r) triples of one correlation "
                               "surface")
    surf.add_argument("--rho", type=float, required=True)
    surf.add_argument("--grid", type=int, default=DISCREPANCY_GRID,
                      help=f"grid points per axis "
                           f"(default: {DISCREPANCY_GRID})")

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


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report = _COMMANDS[ns.command](ns)
        output = render(report, ns.format, ns.precision)
    except IsogradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, ConvergenceFailure) else 2
    sys.stdout.write(output)
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
