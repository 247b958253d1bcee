"""The cli-cold command list and the checks on what each command prints.

Each README example runs in one of the three output formats.  Text and CSV
output are read back into rows of cells; JSON payloads are mapped onto the
same rows, so one checker per command serves all three formats.  Printed
floats carry six significant digits, so values are compared at a relative
tolerance of 1e-5 (twice the rounding) plus what the method itself allows.
"""

from __future__ import annotations

import csv
import io
import json
import math

from workloads import (
    CORRELATED_DIRECTION,
    LIMIT_TOL,
    SWEEP_RHOS,
    Op,
    all_close,
    check_gaussian_rows,
    check_slice,
    close,
    entropy_limit_reference,
    gaussian_slopes,
)

FORMATS = ("text", "csv", "json")
PRINTED = 1e-5
#: Absolute slack for quantities printed near zero (FD noise, ~1e-10).
NEAR_ZERO = 1e-8
#: CLI defaults the commands below run with (their inputs).
GAUSSIAN_DEFAULTS = (0.3, -0.2, 1.1, 0.7)
TABLE_SEED, TABLE_SAMPLES = 42, 20
SURFACE_GRID = 41

#: (arguments, expected exit code, footer lines of the text table)
COMMANDS = (
    (["dice"], 0, 1),
    (["gaussian-check"], 0, 1),
    (["joint", "--op", "fisher", "--point", "0.5,0,0,0.5"], 0, 0),
    (["joint", "--op", "fisher", "--mode", "unconstrained",
      "--point", "0.4,0.1,0.2,0.3"], 0, 0),
    (["joint", "--op", "entropy-gradient", "--mode", "limit",
      "--point", "0.3,0,0,0.7"], 0, 0),
    (["table1", "--case", "corr"], 0, 1),
    (["table1", "--case", "ind"], 0, 1),
    (["tree-opt", "--sweep"], 0, 1),
    (["tree-opt", "--rho", "0.25", "--grid", "51"], 3, 0),
    (["surface", "--rho", None], 0, 0),
    (["game"], 0, 1),
    (["report-eq1-4"], 0, 0),
)


def command_list(inputs: dict) -> list[list[str]]:
    """The pass: every command once, formats rotated from a seeded offset."""
    out = []
    for i, (args, _, _) in enumerate(COMMANDS):
        args = [str(inputs["surface_rho"]) if a is None else a for a in args]
        fmt = FORMATS[(i + inputs["format_offset"]) % 3]
        out.append(args + ["--format", fmt])
    return out


# ---------------------------------------------------------------------------
# reading the output back


def cell(text: str):
    text = text.strip()
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if ";" in text:
        return [cell(part) for part in text.split(";")]
    try:
        return float(text)
    except ValueError:
        return text


def _text_rows(out: str, footer_lines: int):
    lines = out.rstrip("\n").split("\n")
    header, dashes = lines[1], lines[2]
    starts = [i for i, ch in enumerate(dashes)
              if ch == "-" and (i == 0 or dashes[i - 1] == " ")]
    bounds = list(zip(starts, starts[1:] + [None]))
    columns = [header[a:b].strip() for a, b in bounds]
    body = lines[3:len(lines) - footer_lines]
    rows = [dict(zip(columns, (cell(line[a:b] if b else line[a:])
                               for a, b in bounds))) for line in body]
    return rows, lines[len(lines) - footer_lines:]


def _csv_rows(out: str):
    table = list(csv.reader(io.StringIO(out)))
    return [dict(zip(table[0], (cell(c) for c in row))) for row in table[1:]]


def _json_rows(argv: list[str], payload: dict) -> list[dict]:
    """Map a JSON payload onto the rows the text table of that command has."""
    cmd = argv[0]
    if cmd == "dice":
        rows = [{"method": m.replace("_", "-"), "space": r["label"],
                 "value": r["value"], "point": r["point"]}
                for m in ("per_space", "constrained_target")
                for r in payload[m]]
        u = payload["unconstrained"]
        rows.append({"method": "unconstrained", "space": u["label"],
                     "value": u["value"], "point": u["point"]})
        return rows
    if cmd == "gaussian-check":
        return payload["rows"]
    if cmd == "joint" and payload["op"] == "fisher":
        return [dict({"row": i}, **{f"F_{j}": v for j, v in enumerate(row)})
                for i, row in enumerate(payload["matrix"])]
    if cmd == "joint":
        g = payload["gradient"]
        return [{"kind": g["kind"], "value": g["blowup_direction"],
                 "evidence": g["max_ladder_magnitude"]}]
    if cmd == "table1":
        return payload["entries"]
    if cmd == "tree-opt":
        best = payload["best"]
        return [{"rho": r["diagnostics"]["rho"], "value": r["value"],
                 "p": r["point"][0], "q": r["point"][1], "r": r["point"][2],
                 "boundary": r["diagnostics"]["boundary"],
                 "global_best": r == best} for r in payload["rows"]]
    if cmd == "surface":
        return [{"p": p, "q": q, "r": r} for p, q, r in payload["points"]]
    if cmd == "game":
        slices = payload["slices"]
        rows = [payload["baseline"]] + slices
        return [{"regime": o["label"], "kind": o["kind"],
                 "x_or_p": o["strategy"][0], "y_or_q": o["strategy"][1],
                 "payoff_x": o["payoffs"][0], "payoff_y": o["payoffs"][1],
                 "chosen": i > 0 and o == payload["chosen"]}
                for i, o in enumerate(rows)]
    return [{"quantity": r["quantity"], "constrained": r["constrained"],
             "limit": r["limit"]} for r in payload["rows"]]


def read_output(argv: list[str], out: str, footer_lines: int):
    """(rows, footer text or None, payload or None) in any format."""
    fmt = argv[argv.index("--format") + 1]
    if fmt == "json":
        payload = json.loads(out)
        return _json_rows(argv, payload), None, payload
    if fmt == "csv":
        return _csv_rows(out), None, None
    rows, footer = _text_rows(out, footer_lines)
    return rows, "\n".join(footer), None


# ---------------------------------------------------------------------------
# per-command checks: rows (and footer or payload) -> problems


def _printed(got, want) -> bool:
    return close(got, want, PRINTED, NEAR_ZERO)


def _check_dice(rows, footer, payload):
    import references as ref
    problems = []
    methods = [(r["method"], r["space"]) for r in rows]
    want = [(m, s) for m in ("per-space", "constrained-target")
            for s in ref.DIE_SIDES] + [("unconstrained", "unconstrained")]
    if methods != want:
        return [f"dice: rows {methods}"]
    for r in rows:
        space = "Square" if r["method"] == "unconstrained" else r["space"]
        value, point = ref.die_optimum(space)
        if not _printed(r["value"], value):
            problems.append(f"dice {r['method']} {space}: value {r['value']}")
        if not all_close(r["point"], point, PRINTED, NEAR_ZERO + 1e-5):
            problems.append(f"dice {r['method']} {space}: point {r['point']}")
    conflict = (payload["unconstrained_conflicts_with_per_space"] if payload
                else footer.endswith("true") if footer is not None else True)
    if conflict is not True:
        problems.append("dice: conflict with the per-die winners not shown")
    return problems


def _check_gaussian(rows, footer, payload):
    rows = [(r["relation"], r["mode"], r["statistic"], r["expected"],
             r["passed"]) for r in rows]
    problems = check_gaussian_rows(rows, gaussian_slopes(GAUSSIAN_DEFAULTS),
                                   PRINTED, "gaussian-check")
    if footer is not None and not footer.endswith("true"):
        problems.append("gaussian-check: footer does not say all passed")
    return problems


def _fisher_check(cells, free_index):
    def check(rows, footer, payload):
        import references as ref
        want = ref.fisher_matrix(cells, free_index)
        got = [[r[f"F_{j}"] for j in range(len(want))] for r in rows]
        if len(got) != len(want) or not all(
                all_close(g, w, PRINTED) for g, w in zip(got, want)):
            return [f"fisher at {cells}: {got}, reference {want}"]
        return []
    return check


def _check_entropy_limit(rows, footer, payload):
    kind, blowup, size = entropy_limit_reference((0.3, 0.0, 0.0, 0.7))
    (row,) = rows
    problems = []
    if row["kind"] != kind:
        problems.append(f"entropy-gradient: {row['kind']}, reference {kind}")
    if not all_close(row["value"], blowup, 0.0, 1e-4):
        problems.append(f"entropy-gradient: direction {row['value']}, "
                        f"reference {blowup}")
    # the largest gradient of the ladder is the one at its last rung
    if not close(row["evidence"], size, 1e-3):
        problems.append(f"entropy-gradient: evidence {row['evidence']}, "
                        f"|grad| at the last rung {size}")
    return problems


def _table_check(case: str):
    def check(rows, footer, payload):
        import references as ref
        from isograd import strategy
        sample = strategy.sample_points(case, TABLE_SAMPLES, TABLE_SEED)[0]
        problems = []
        cells = [(r["row"], r["column"]) for r in rows]
        want = [(row, col) for row in ref.TABLE_ROWS[case]
                for col in ref.TABLE_COLUMNS[case]]
        if sorted(cells) != sorted(want):
            return [f"table1 {case}: cells {cells}"]
        for r in rows:
            where = f"table1 {case} [{r['row']} | {r['column']}]"
            _, coords_of, _ = ref.TABLE_COLUMNS[case][r["column"]]
            if r["passed"] is not True:
                problems.append(f"{where}: not passed")
            if r["dimension"] != len(coords_of(sample)):
                problems.append(f"{where}: dimension {r['dimension']}")
            if payload is not None and r["components"] is not None:
                kind, comps = ref.table_cell_reference(case, r["row"],
                                                       r["column"], sample)
                if kind != "finite" or not all_close(
                        r["components"], comps, PRINTED, LIMIT_TOL):
                    problems.append(f"{where}: {r['components']}, "
                                    f"reference {comps}")
        passed = payload["passed"] if payload else (
            footer.endswith("true") if footer is not None else True)
        if passed is not True:
            problems.append(f"table1 {case}: not all entries passed")
        return problems
    return check


def _check_sweep(rows, footer, payload):
    import references as ref
    rhos = [r["rho"] for r in rows]
    if rhos != list(SWEEP_RHOS):
        return [f"tree-opt sweep: rows {rhos}"]
    problems = []
    best = ref.sweep_best_rho(SWEEP_RHOS)
    for r in rows:
        problems += check_slice(r["rho"], r["value"], (r["p"], r["q"], r["r"]),
                                tol=PRINTED, point_tol=PRINTED)
        if r["global_best"] is not (r["rho"] == best):
            problems.append(f"tree-opt sweep: global_best wrong at "
                            f"rho={r['rho']}")
    if footer is not None and not footer.startswith(
            f"best slice: rho={best:+g} with value"):
        problems.append(f"tree-opt sweep: footer {footer!r}")
    return problems


def _surface_check(rho: float):
    def check(rows, footer, payload):
        import references as ref
        if not rows:
            return [f"surface rho={rho}: no points"]
        problems = []
        step = SURFACE_GRID - 1
        for r in rows:
            p, q, rr = r["p"], r["q"], r["r"]
            if abs(p * step - round(p * step)) > 1e-3 or \
                    abs(q * step - round(q * step)) > 1e-3:
                problems.append(f"surface: {(p, q)} off the {SURFACE_GRID}"
                                f"-point grid")
            if not -NEAR_ZERO <= rr <= 1 + NEAR_ZERO:
                problems.append(f"surface: r = {rr} outside [0, 1]")
            cells = ref.tree_joint(p, q, rr)
            spread_y = (cells[1] + cells[3]) * (cells[0] + cells[2])
            if 0.05 <= p <= 0.95 and spread_y >= 0.01:
                corr = ref.tree_correlation(p, q, rr)
                if not close(corr, rho, 0.0, 1e-4):
                    problems.append(f"surface: {(p, q, rr)} has correlation "
                                    f"{corr}")
        return problems[:5]
    return check


def _check_game(rows, footer, payload):
    import references as ref
    want = ref.game_reference()
    labels = {-1.0: "rho=-1", 0.0: "rho=0", 1.0: "rho=+1"}
    expected = [("unconstrained",) + want["baseline"] + (False,)]
    for rho in (-1.0, 0.0, 1.0):
        strategy, payoffs = want["regimes"][rho]
        expected.append((labels[rho], strategy, payoffs,
                         rho == want["chosen"]))
    problems = []
    if len(rows) != len(expected):
        return [f"game: {len(rows)} rows"]
    for r, (label, strategy, payoffs, chosen) in zip(rows, expected):
        got = (r["x_or_p"], r["y_or_q"], r["payoff_x"], r["payoff_y"])
        if r["regime"] != label or r["chosen"] is not chosen or not all_close(
                got, strategy + payoffs, PRINTED, NEAR_ZERO):
            problems.append(f"game {label}: {r}, reference "
                            f"{strategy} {payoffs} chosen={chosen}")
    return problems


def _check_report(rows, footer, payload):
    import references as ref
    pin = (0.5, 0.0, 0.0)
    tangent = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def mass(v):
        j = ref.cells_of(v)
        return j[0] + j[3]

    def ent_rel(v):
        j = ref.cells_of(v)
        return ref.entropy(j) - ref.entropy([j[0] + j[1], j[2] + j[3]])

    def both(f):
        kind, lim = ref.limit_gradient(f, pin, CORRELATED_DIRECTION)
        return (ref.tangent_slope_norm(f, pin, tangent),
                "diverging" if kind == "diverging" else ref.norm(lim))

    want = {
        "dim(F)": (1, 3),          # the family has 1 free cell, the simplex 3
        "dim(grad L)": (1, 3),
        "|grad E_xy|": both(ref.joint_entropy),
        "|grad (P00+P11)|": both(mass),
        "|grad (E_xy-E_x)|": both(ent_rel),
        "d": (1, 3),
        "V": (1.0 / math.factorial(1), 1.0 / math.factorial(3)),
    }
    problems = []
    got = {r["quantity"]: (r["constrained"], r["limit"]) for r in rows}
    if len(rows) != 9:
        problems.append(f"report-eq1-4: {len(rows)} rows")
    for quantity, pair in want.items():
        if quantity not in got:
            problems.append(f"report-eq1-4: no row {quantity}")
            continue
        for g, w in zip(got[quantity], pair):
            ok = g == w if isinstance(w, str) else _printed(g, w)
            if not ok:
                problems.append(f"report-eq1-4 {quantity}: {got[quantity]}, "
                                f"reference {pair}")
                break
    for quantity in ("Rank(A)", "J"):
        c, lim = got.get(quantity, (None, None))
        if not isinstance(c, str) or c != lim:
            problems.append(f"report-eq1-4 {quantity}: {c!r} / {lim!r}")
    return problems


def _checker(argv: list[str]):
    cmd = argv[0]
    if cmd == "dice":
        return _check_dice
    if cmd == "gaussian-check":
        return _check_gaussian
    if cmd == "joint" and "fisher" in argv:
        point = [float(v) for v in argv[argv.index("--point") + 1].split(",")]
        free = [0, 1, 2] if "unconstrained" in argv else [0]
        return _fisher_check(point, free)
    if cmd == "joint":
        return _check_entropy_limit
    if cmd == "table1":
        return _table_check("correlated" if "corr" in argv else "independent")
    if cmd == "tree-opt":
        return _check_sweep
    if cmd == "surface":
        return _surface_check(float(argv[argv.index("--rho") + 1]))
    if cmd == "game":
        return _check_game
    return _check_report


def make_check(argv: list[str], expected_rc: int, footer_lines: int):
    """Check of (exit code, stdout) for one command."""
    def build():
        checker = _checker(argv)

        def check(outcome) -> list[str]:
            rc, out = outcome
            if rc != expected_rc:
                return [f"{' '.join(argv)}: exit {rc}, expected {expected_rc}"]
            if expected_rc != 0:
                return [] if out == "" else [
                    f"{' '.join(argv)}: printed {out[:80]!r} on exit {rc}"]
            try:
                rows, footer, payload = read_output(argv, out, footer_lines)
                return checker(rows, footer, payload)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                return [f"{' '.join(argv)}: unreadable output ({exc!r}): "
                        f"{out[:120]!r}"]
        return check
    return build


def cli_ops(inputs: dict, call) -> list[Op]:
    """One op per command; ``call(argv, rc)`` runs it: (exit code, stdout)."""
    ops = []
    for argv, (_, rc, footer) in zip(command_list(inputs), COMMANDS):
        ops.append(Op(f"cli.{argv[0]}", lambda a=argv, rc=rc: call(a, rc),
                      make_check(argv, rc, footer)))
    return ops
