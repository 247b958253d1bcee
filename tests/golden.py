"""What every golden command prints, and the script that rewrites it.

A case is one ``isograd`` argument list: the README and benchmark
commands, the other ``joint`` operations and modes, and the error paths.
Its *record* in one format at one precision is the exit code, stdout and
stderr of ``cli.main``, run in-process.  ``tests/golden/`` keeps the full
record of every case in text and CSV at precision 6, one file each, and
``tests/golden/sha256.txt`` keeps a digest of every other (case, format,
precision) record.  ``tests/test_golden.py`` regenerates them all and
compares.

Rewrite them after a deliberate change to what a command prints with::

    PYTHONPATH=src python tests/golden.py

and name each changed file and manifest line, with its reason, in
CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

from isograd.cli import main

DIRECTORY = Path(__file__).resolve().parent / "golden"
MANIFEST = DIRECTORY / "sha256.txt"
FORMATS = ("text", "csv", "json")
PRECISIONS = (1, 6, 15, 16, 17)
#: The (format, precision) records kept in full; the rest are digests.
FULL = (("text", 6), ("csv", 6))

_PIN, _INTERIOR = "0.5,0,0,0.5", "0.4,0.1,0.2,0.3"
_PRODUCT = "0.24,0.36,0.16,0.24"

CASES: dict[str, list[str]] = {
    # the README's and the benchmark's commands
    "dice": ["dice"],
    "gaussian-check": ["gaussian-check"],
    "joint-fisher-pin": ["joint", "--op", "fisher", "--point", _PIN],
    "joint-fisher-unconstrained": ["joint", "--op", "fisher", "--mode",
                                   "unconstrained", "--point", _INTERIOR],
    "joint-entropy-limit": ["joint", "--op", "entropy-gradient", "--mode",
                            "limit", "--point", "0.3,0,0,0.7"],
    "table1-corr": ["table1", "--case", "corr"],
    "table1-ind": ["table1", "--case", "ind"],
    "tree-opt-sweep": ["tree-opt", "--sweep"],
    "tree-opt-refused": ["tree-opt", "--rho", "0.25", "--grid", "51"],
    "surface": ["surface", "--rho", "0.5"],
    "game": ["game"],
    "report-eq1-4": ["report-eq1-4"],
    # the other joint operations and modes, and one more slice
    "joint-entropy-constrained": ["joint", "--op", "entropy-gradient",
                                  "--point", _PIN],
    "joint-entropy-unconstrained": ["joint", "--op", "entropy-gradient",
                                    "--mode", "unconstrained",
                                    "--point", _INTERIOR],
    "joint-loglik-constrained": ["joint", "--op", "loglik-gradient",
                                 "--point", _PIN, "--counts", "5,0,0,5"],
    "joint-loglik-unconstrained": ["joint", "--op", "loglik-gradient",
                                   "--mode", "unconstrained", "--point",
                                   _INTERIOR, "--counts", "4,1,2,3"],
    "joint-mle-constrained": ["joint", "--op", "mle", "--counts", "5,0,0,5"],
    "joint-mle-unconstrained": ["joint", "--op", "mle", "--mode",
                                "unconstrained", "--counts", "4,1,2,3"],
    "joint-relations-constrained": ["joint", "--op", "relations",
                                    "--point", _PIN],
    "joint-relations-limit": ["joint", "--op", "relations", "--mode",
                              "limit", "--point", _PIN],
    "joint-relations-unconstrained": ["joint", "--op", "relations", "--mode",
                                      "unconstrained", "--point", _INTERIOR],
    "joint-relations-independent": ["joint", "--op", "relations", "--family",
                                    "independent", "--point", _PRODUCT],
    "joint-relations-independent-limit": [
        "joint", "--op", "relations", "--family", "independent", "--mode",
        "limit", "--point", _PRODUCT],
    "tree-opt-slice": ["tree-opt", "--rho", "0.75"],
    # paths no other case and no benchmark op reaches
    "game-boundary-response": ["game", "--cx", "3,-2,-1,0"],
    "surface-rho-one": ["surface", "--rho", "1"],
    "surface-rho-minus-one": ["surface", "--rho", "-1"],
    "gaussian-check-tight": ["gaussian-check", "--tol", "1e-12"],
    # slices whose row bound decides which mesh rows run
    "tree-opt-fine": ["tree-opt", "--rho", "0.13", "--grid", "801"],
    "tree-opt-slice-062": ["tree-opt", "--rho", "0.62"],
    "tree-opt-sweep-fine": ["tree-opt", "--sweep", "--grid", "801"],
    # the error paths
    "error-missing-point": ["joint", "--op", "fisher"],
    "error-non-finite-point": ["joint", "--op", "fisher", "--point",
                               "nan,0,0,0.5"],
    "error-no-limit-reading": ["joint", "--op", "fisher", "--mode", "limit",
                               "--point", _PIN],
    "error-grid-below": ["tree-opt", "--rho", "0.5", "--grid", "10"],
    "error-grid-above": ["tree-opt", "--rho", "0.5", "--grid", "4002"],
}


def record(argv: list[str]) -> str:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (f"exit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


def records(name: str) -> dict[tuple[str, int], str]:
    """Every (format, precision) record of one case."""
    return {(fmt, p): record(CASES[name] + ["--format", fmt,
                                            "--precision", str(p)])
            for fmt in FORMATS for p in PRECISIONS}


def full_path(name: str, fmt: str) -> Path:
    return DIRECTORY / f"{name}.{fmt}.txt"


def digest_line(name: str, fmt: str, precision: int, text: str) -> str:
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{digest}  {name} {fmt} {precision}"


def expected(name: str) -> tuple[dict[str, str], list[str]]:
    """The kept full records (by format) and digest lines of one case."""
    full = {fmt: full_path(name, fmt).read_text(encoding="utf-8")
            for fmt, _ in FULL}
    digests = [line
               for line in MANIFEST.read_text(encoding="utf-8").splitlines()
               if line.split()[1] == name]
    return full, digests


def actual(name: str) -> tuple[dict[str, str], list[str]]:
    """What the case prints now, in the form :func:`expected` reads."""
    got = records(name)
    full = {fmt: got.pop((fmt, p)) for fmt, p in FULL}
    digests = [digest_line(name, fmt, p, text)
               for (fmt, p), text in got.items()]
    return full, digests


def write() -> None:
    DIRECTORY.mkdir(exist_ok=True)
    for stale in DIRECTORY.glob("*.txt"):
        stale.unlink()
    lines = []
    for name in CASES:
        full, digests = actual(name)
        for fmt, text in full.items():
            full_path(name, fmt).write_text(text, encoding="utf-8")
        lines.extend(digests)
    MANIFEST.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write()
