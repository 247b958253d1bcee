"""isograd benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/``;
nothing needs to be installed.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Each result is also appended, stamped with the
interpreter and library versions, to ``perfbench/out/results.jsonl``; the
spans of a traced run go to ``perfbench/out/trace-<workload>-<seed>.jsonl``.
See perfbench/README.md.
"""

import os

# one thread for BLAS/OpenMP here and in every child process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

WORKLOADS = ("cli-cold", "optimizers-warm", "engine-warm")
#: Set-ups per run; the median is reported as setup_s.
SETUPS = {"cli-cold": 5, "optimizers-warm": 3, "engine-warm": 3}
CHILD_TIMEOUT = 60.0
PROBE_IMPORT = ("import time; t = time.perf_counter(); import isograd; "
                "print(time.perf_counter() - t)")
PROBE_MODULES = ("import sys; n = len(sys.modules); import isograd; "
                 "print(len(sys.modules) - n)")


class CommandFailed(Exception):
    """A CLI call exited with another code than the documented one."""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, env=child_env(),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT)


def import_seconds() -> float:
    return float(run_child(["-c", PROBE_IMPORT]).stdout)


# ---------------------------------------------------------------------------
# operations


def cli_subprocess(argv: list[str], expected_rc: int):
    proc = run_child(["-m", "isograd.cli"] + argv)
    if proc.returncode != expected_rc:
        raise CommandFailed(f"exit {proc.returncode}: {proc.stderr[-300:]}")
    return proc.returncode, proc.stdout


def cli_in_process(argv: list[str], expected_rc: int):
    from isograd import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != expected_rc:
        raise CommandFailed(f"exit {rc}: {err.getvalue()[-300:]}")
    return rc, out.getvalue()


def build_ops(workload: str, inputs: dict, oracle: wl.OracleErrors,
              in_process_cli: bool = False) -> list[wl.Op]:
    if workload == "cli-cold":
        import cliout
        return cliout.cli_ops(inputs, cli_in_process if in_process_cli
                              else cli_subprocess)
    if workload == "optimizers-warm":
        return wl.optimizer_ops(inputs)
    return wl.engine_ops(inputs, oracle)


def attempt(op: wl.Op):
    """Run one op: (nanoseconds, result, exception)."""
    t0 = time.perf_counter_ns()
    try:
        result = op.call()
    except Exception as exc:  # judged by the caller: refusal or failure
        return time.perf_counter_ns() - t0, None, exc
    return time.perf_counter_ns() - t0, result, None


class Tally:
    """Outcomes of the ops of one or more passes."""

    def __init__(self):
        self.durations: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def busy_s(self) -> float:
        return sum(self.durations) / 1e9

    def judge(self, op: wl.Op, result, exc) -> None:
        self.attempted += 1
        if exc is None:
            self.problems += op.check(result)
            return
        self.failed += 1
        if op.refusal is not None:
            self.problems += op.refusal(exc)
        else:
            self.problems.append(f"{op.kind}: {type(exc).__name__}: {exc}")


def run_pass(ops: list[wl.Op], tally: Tally) -> None:
    for op in ops:
        dt, result, exc = attempt(op)
        tally.durations.append(dt)
        tally.judge(op, result, exc)


def warm_up(ops: list[wl.Op]) -> None:
    """One call of each operation kind, unchecked."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            attempt(op)


def prepare_checks(ops: list[wl.Op]) -> None:
    for op in ops:
        op.check = op.make_check()


def in_process_setup(workload: str, inputs: dict, oracle: wl.OracleErrors):
    """import isograd and warm every op kind: (seconds, ops)."""
    t0 = time.perf_counter()
    import isograd  # noqa: F401
    ops = build_ops(workload, inputs, oracle)
    warm_up(ops)
    return time.perf_counter() - t0, ops


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def untraced(workload: str, seed: int, seconds: float):
    inputs = wl.make_inputs(workload, seed)
    oracle = wl.OracleErrors()
    if workload == "cli-cold":
        setups = [import_seconds() for _ in range(SETUPS[workload])]
        ops = build_ops(workload, inputs, oracle)
    else:
        first, ops = in_process_setup(workload, inputs, oracle)
        setups = [first]
        for _ in range(SETUPS[workload] - 1):
            probe = run_child([str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(seed), "--setup-probe"])
            setups.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    prepare_checks(ops)
    tally = Tally()
    pass_rates = []
    start = time.perf_counter()
    while True:
        busy, done = tally.busy_s, tally.attempted - tally.failed
        run_pass(ops, tally)
        pass_rates.append((tally.attempted - tally.failed - done)
                          / (tally.busy_s - busy))
        # whole passes until the ops have run for `seconds`; the wall-clock
        # cap only bites when ops fail fast
        if tally.busy_s >= seconds or time.perf_counter() - start >= 3 * seconds:
            break
    who = (resource.RUSAGE_CHILDREN if workload == "cli-cold"
           else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": statistics.median(tally.durations) / 1e6,
        # the host's speed drifts over seconds: the median pass is steadier
        # than the run's mean
        "ops_per_s": statistics.median(pass_rates),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return tally, metrics


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def _importtime_scipy_ms() -> float:
    proc = run_child(["-X", "importtime", "-c", "import isograd"])
    total_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        self_us = parts[0].split(":")[1].strip()
        name = parts[2].strip()
        if self_us.isdigit() and (name == "scipy" or name.startswith("scipy.")):
            total_us += int(self_us)
    return total_us / 1000.0


def process_metrics() -> dict:
    startups = []
    for _ in range(5):
        t0 = time.perf_counter()
        run_child(["-c", "pass"])
        startups.append((time.perf_counter() - t0) * 1000.0)
    return {
        "proc.startup_ms": statistics.median(startups),
        "import.isograd_ms": 1000.0 * statistics.median(
            import_seconds() for _ in range(3)),
        "import.scipy_ms": _importtime_scipy_ms(),
        "import.modules": int(run_child(["-c", PROBE_MODULES]).stdout),
    }


def _sum_ms(spans) -> float:
    return sum(s.ms for s in spans)


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


#: The wrapped names each per-layer metric is computed from.
NEEDS = {
    "cli.parse_ms": ("cli.main", "cli.command", "cli.render"),
    "cli.command_ms": ("cli.command",),
    "cli.render_ms": ("cli.render",),
    "game.global_comparison_us": ("game.global_comparison",),
    "core.gradient.limit.calls": ("core.gradient",),
    "core.gradient.limit_ms": ("core.gradient",),
    "core.gradient.constrained.calls": ("core.gradient",),
    "core.gradient.constrained_ms": ("core.gradient",),
    "core.evals_per_limit_call": ("core.gradient", "evals"),
    "core.evals_per_constrained_call": ("core.gradient", "evals"),
    "core.finite_difference.calls": ("core.finite_difference",),
    "dice.grid_ms": ("dice.grid",),
    "dice.grid_calls": ("dice.grid",),
    "dice.grid_points": ("dice.grid",),
    "dice.grid_unique_ratio": ("dice.grid",),
    "dice.polish_ms": ("dice.polish",),
    "dice.polish_nfev": ("dice.polish",),
    "treeopt.grid_ms": ("treeopt.grid",),
    "treeopt.payoff_scalar_calls": ("treeopt.grid",),
    "treeopt.polish_ms": ("treeopt.minimize", "treeopt.minimize_scalar",
                          "treeopt.slice"),
    "treeopt.polish_nfev": ("treeopt.minimize", "treeopt.minimize_scalar",
                            "treeopt.slice"),
    "treeopt.discrepancy_ms": ("treeopt.discrepancy",),
    "treeopt.refused_slices": ("treeopt.slice",),
    "strategy.table1_ms": ("strategy.table1",),
    "strategy.cells": ("strategy.table1",),
    "gaussian.check_suite_ms": ("gaussian.check_suite",),
    "jointbinary.relation_suite_ms": ("jointbinary.relation_suite",),
    "jointbinary.entropy_gradient_ms": ("jointbinary.entropy_gradient",),
}


def layer_metrics(cli_t, opt_t, eng_t, oracle: wl.OracleErrors) -> dict:
    """Per-layer metrics, each from the pass of the workload it belongs to."""
    m = {}
    mains = cli_t.named("cli.main")
    m["cli.parse_ms"] = _mean(cli_t.self_ms(s) for s in mains)
    m["cli.command_ms"] = _mean(s.ms for s in cli_t.named("cli.command"))
    m["cli.render_ms"] = _mean(s.ms for s in cli_t.named("cli.render"))
    games = cli_t.named("game.global_comparison")
    m["game.global_comparison_us"] = _mean(s.ms * 1000.0 for s in games)

    grads = eng_t.named("core.gradient")
    for mode, key in (("Limit", "limit"), ("Constrained", "constrained")):
        spans = [s for s in grads if s.attrs.get("mode") == mode]
        m[f"core.gradient.{key}.calls"] = len(spans)
        m[f"core.gradient.{key}_ms"] = _sum_ms(spans)
        m[f"core.evals_per_{key}_call"] = (
            sum(eng_t.subtree_count(s, "evals") for s in spans) / len(spans)
            if spans else None)
    m["core.finite_difference.calls"] = len(
        eng_t.named("core.finite_difference"))
    m["core.max_err_vs_oracle"] = oracle.max_error

    grid = opt_t.named("dice.grid")
    shapes = [(s.attrs["sides"], s.attrs["resolution"]) for s in grid]
    m["dice.grid_ms"] = _sum_ms(grid)
    m["dice.grid_calls"] = len(grid)
    m["dice.grid_points"] = sum((r + 1) ** (k - 1) for k, r in shapes)
    m["dice.grid_unique_ratio"] = (len(set(shapes)) / len(shapes)
                                   if shapes else None)
    polish = opt_t.named("dice.polish")
    m["dice.polish_ms"] = _sum_ms(polish)
    m["dice.polish_nfev"] = sum(s.attrs.get("nfev", 0) for s in polish)

    m["treeopt.grid_ms"] = _sum_ms(opt_t.named("treeopt.grid"))
    m["treeopt.payoff_scalar_calls"] = sum(
        s.attrs.get("payoff_scalar_calls", 0) for s in opt_t.spans)
    polish = [s for s in opt_t.named("treeopt.minimize")
              + opt_t.named("treeopt.minimize_scalar")
              if opt_t.has_ancestor(s, "treeopt.slice")]
    m["treeopt.polish_ms"] = _sum_ms(polish)
    m["treeopt.polish_nfev"] = sum(s.attrs.get("nfev", 0) for s in polish)
    m["treeopt.discrepancy_ms"] = _sum_ms(opt_t.named("treeopt.discrepancy"))
    m["treeopt.refused_slices"] = sum(
        s.attrs.get("error") == "ConvergenceFailure"
        for s in opt_t.named("treeopt.slice"))

    tables = eng_t.named("strategy.table1")
    m["strategy.table1_ms"] = _sum_ms(tables)
    m["strategy.cells"] = sum(s.attrs.get("cells", 0) for s in tables)
    m["gaussian.check_suite_ms"] = _sum_ms(eng_t.named("gaussian.check_suite"))
    m["jointbinary.relation_suite_ms"] = _sum_ms(
        eng_t.named("jointbinary.relation_suite"))
    m["jointbinary.entropy_gradient_ms"] = _sum_ms(
        eng_t.named("jointbinary.entropy_gradient"))

    # a metric built on a wrapped name that is gone is reported as missing
    missing = cli_t.missing | opt_t.missing | eng_t.missing
    for name, needs in NEEDS.items():
        if missing & set(needs):
            m[name] = None
    return m


def traced(workload: str, seed: int, seconds: float):
    from tracer import Tracer, instrument
    metrics = process_metrics()
    oracle = wl.OracleErrors()
    lists = {}
    for name in WORKLOADS:
        lists[name] = build_ops(name, wl.make_inputs(name, seed), oracle,
                                in_process_cli=True)
        warm_up(lists[name])
        prepare_checks(lists[name])
    # the workload's own pass untraced, then traced, back to back: the
    # difference is the cost of tracing; the other lists are traced after
    untraced_tally = Tally()
    run_pass(lists[workload], untraced_tally)
    tracers, tallies = {}, {}
    for name in (workload,) + tuple(n for n in WORKLOADS if n != workload):
        tallies[name] = Tally()
        with Tracer(name) as t:
            instrument(t)
            run_pass(lists[name], tallies[name])
        tracers[name] = t
    metrics.update(layer_metrics(tracers["cli-cold"],
                                 tracers["optimizers-warm"],
                                 tracers["engine-warm"], oracle))
    mine = tallies[workload]
    metrics["trace.overhead_pct"] = 100.0 * (
        mine.busy_s / untraced_tally.busy_s - 1.0)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-{seed}.jsonl", "w") as fh:
        for t in tracers.values():
            t.dump(fh)
    mine.problems += [p for name, t in tallies.items() if name != workload
                      for p in t.problems] + untraced_tally.problems
    return mine, metrics


# ---------------------------------------------------------------------------
# entry point


def versions() -> dict:
    stamp = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "machine": platform.machine()}
    for lib in ("numpy", "scipy", "mpmath"):
        try:
            stamp[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            stamp[lib] = None
    return stamp


def declared_metrics(trace: int) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "isograd" / "__init__.py").is_file():
        print(f"error: no isograd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        inputs = wl.make_inputs(args.workload, args.seed)
        seconds, _ = in_process_setup(args.workload, inputs,
                                      wl.OracleErrors())
        print(json.dumps({"setup_s": seconds}))
        return 0
    units = declared_metrics(args.trace)
    run = traced if args.trace else untraced
    tally, values = run(args.workload, args.seed, args.seconds)
    for problem in tally.problems[:20]:
        print(f"check: {problem}", file=sys.stderr)
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "versions": versions(), "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
