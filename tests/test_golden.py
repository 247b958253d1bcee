"""Every golden command prints what ``tests/golden/`` keeps, byte for byte,
and prints it whatever BLAS or SIMD kernel numpy picks.

``tests/golden.py`` lists the commands and rewrites the kept records; see
its docstring for when and how.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import golden
import isograd


@pytest.mark.parametrize("name", list(golden.CASES))
def test_command_prints_its_golden_record(name):
    want_full, want_digests = golden.expected(name)
    got_full, got_digests = golden.actual(name)
    for fmt, text in want_full.items():
        assert got_full[fmt] == text, f"{name} {fmt} 6"
    assert sorted(got_digests) == sorted(want_digests)


def test_manifest_covers_every_other_record():
    lines = golden.MANIFEST.read_text(encoding="utf-8").splitlines()
    kept = {tuple(line.split()[1:]) for line in lines}
    assert len(kept) == len(lines)
    assert kept == {(name, fmt, str(p)) for name in golden.CASES
                    for fmt in golden.FORMATS for p in golden.PRECISIONS
                    if (fmt, p) not in golden.FULL}
    files = {path.name for path in golden.DIRECTORY.glob("*.txt")}
    assert files == {golden.MANIFEST.name} | {
        golden.full_path(name, fmt).name
        for name in golden.CASES for fmt, _ in golden.FULL}


# ---------------------------------------------------------------------------
# kernel independence

# runs in a fresh interpreter: every golden command's record in JSON at
# precision 17, the digits that still tell two float64 values apart
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import golden
print(json.dumps({name: golden.record(argv + ["--format", "json",
                                               "--precision", "17"])
                  for name, argv in golden.CASES.items()}))
"""


_KERNEL_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def _records_under(setting: dict[str, str]) -> dict[str, str]:
    """What a fresh interpreter prints with ``setting`` in its environment
    (and no other kernel choice)."""
    src = str(Path(isograd.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if k not in _KERNEL_VARIABLES}
    env.update(setting,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(Path(golden.__file__).parent)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _dynamic_openblas() -> str | None:
    """Why ``OPENBLAS_CORETYPE`` cannot apply here, or None when it can."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    if ("openblas" not in blas.get("name", "")
            or "DYNAMIC_ARCH" not in blas.get("openblas configuration", "")):
        return f"numpy's BLAS {blas.get('name')!r} picks no kernel at load"
    return None


def _avx512_targets() -> list[str]:
    """The AVX-512 targets numpy dispatches to on this host."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    features = umath.__cpu_features__
    return [t for t in umath.__cpu_dispatch__ if features.get(t)
            and ("AVX512" in t or t == "X86_V4")]


def _settings():
    reason = _dynamic_openblas()
    yield pytest.param(
        {"OPENBLAS_CORETYPE": "Prescott"}, id="openblas-prescott",
        marks=pytest.mark.skipif(reason is not None, reason=str(reason)))
    targets = _avx512_targets()
    yield pytest.param(
        {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}, id="no-avx512",
        marks=pytest.mark.skipif(
            not targets, reason="numpy dispatches to no AVX-512 target here"))


@pytest.fixture(scope="module")
def default_records():
    return _records_under({})


@pytest.mark.parametrize("setting", _settings())
def test_no_kernel_moves_a_digit(default_records, setting):
    got = _records_under(setting)
    assert got.keys() == default_records.keys()
    moved = [name for name in got if got[name] != default_records[name]]
    assert moved == []
