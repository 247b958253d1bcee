"""The package loads nothing until a module is named, a command loads only
what it runs, and nothing loads SciPy.

``import isograd`` loads the standard library only: its namespace is its
modules, each imported the first time it is named (``isograd.<module>`` or
``from isograd import <module>``), and it holds no other name.  The CLI
imports a command's module when it dispatches to it, so each command loads
its module, what that imports, and numpy where that needs it: ``game``
loads no numpy, and only the modules with a mesh, a probe or a seeded
sampler import it.  The polishes run the ports of SciPy's two searches in
``core`` through the module globals ``dice.minimize``, ``treeopt.minimize``
and ``treeopt.minimize_scalar``; the benchmark's tracer wraps those names,
so these tests pin that each is still a module attribute reached on every
polish and still returns a result with its ``nfev``.  A fresh interpreter
that cannot import SciPy prints what every polishing command prints.

Rules of the source are read off every module's syntax tree: no module
imports SciPy, no module measures a vector with a BLAS kernel (``.dot`` or
``linalg.norm``), and only ``core`` and ``jointbinary`` turn a mode name
into a mode.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isograd
from isograd import cli, core, dice, treeopt
from isograd.cli import main

# runs in a fresh interpreter: argv (or None for a bare import) in; whether
# SciPy got loaded, which isograd modules and whether numpy did, and what the
# command printed out
_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
out, err = io.StringIO(), io.StringIO()
import isograd
if argv is not None:
    from isograd.cli import main
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
else:
    rc = None
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
loaded = sorted(m for m in sys.modules if m.startswith("isograd."))
print(json.dumps({"rc": rc, "scipy": scipy, "isograd": loaded,
                  "numpy": "numpy" in sys.modules,
                  "stdout": out.getvalue(), "stderr": err.getvalue()}))
"""

# the same, where any import of SciPy fails
_NO_SCIPY_PROBE = "import sys\nsys.modules['scipy'] = None\n" + _PROBE

NUMPY_ONLY = (
    ["gaussian-check"],
    ["joint", "--op", "fisher", "--point", "0.5,0,0,0.5"],
    ["joint", "--op", "entropy-gradient", "--mode", "limit",
     "--point", "0.3,0,0,0.7"],
    ["table1", "--case", "ind"],
    ["surface", "--rho", "0.5"],
    ["game"],
    ["report-eq1-4"],
)


# runs in a fresh interpreter: what a bare import loads, and how the
# namespace resolves afterwards
_NAMESPACE_PROBE = """
import importlib, json, pkgutil, sys
import isograd
loaded = sorted(m for m in sys.modules
                if m.startswith("isograd.") or m.partition(".")[0] == "numpy")
from isograd import core
modules = sorted(m.name for m in pkgutil.iter_modules(isograd.__path__))
resolves = [m for m in modules
            if getattr(isograd, m) is importlib.import_module("isograd." + m)]
try:
    isograd.gradient
    gradient = "bound"
except AttributeError as exc:
    gradient = str(exc)
print(json.dumps({"loaded": loaded, "modules": modules, "resolves": resolves,
                  "all": isograd.__all__, "core": core is isograd.core,
                  "gradient": gradient}))
"""


def _fresh(argv, probe=_PROBE):
    src = str(Path(isograd.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLazyPackage:
    def test_namespace_is_the_modules(self):
        probe = _fresh(None, _NAMESPACE_PROBE)
        # a bare import loads no submodule and no numpy
        assert probe["loaded"] == []
        assert {"errors", "reports", "cli", "core"} <= set(probe["modules"])
        assert probe["resolves"] == probe["modules"]
        assert sorted(probe["all"]) == sorted(probe["modules"]
                                              + ["__version__"])
        assert probe["core"] is True
        assert probe["gradient"] == ("module 'isograd' has no attribute "
                                     "'gradient'")


class TestLazyScipy:
    def test_package_import_loads_no_scipy(self):
        assert _fresh(None)["scipy"] == []

    @pytest.mark.parametrize("argv", NUMPY_ONLY, ids=lambda a: " ".join(a))
    def test_command_loads_no_scipy(self, argv):
        probe = _fresh(argv + ["--format", "json"])
        assert probe["rc"] == 0
        assert probe["scipy"] == []

    @pytest.mark.parametrize("argv, rc", [
        pytest.param(argv, rc, id=" ".join(argv)) for argv, rc in (
            (["dice"], 0), (["tree-opt", "--sweep"], 0),
            # the documented refusal: grid and polish disagree
            (["tree-opt", "--rho", "0.25", "--grid", "51"], 3))])
    def test_polishing_command_runs_without_scipy(self, argv, rc, capsys):
        probe = _fresh(argv, _NO_SCIPY_PROBE)
        assert probe["rc"] == rc
        assert main(argv) == rc
        printed = capsys.readouterr()
        assert (probe["stdout"], probe["stderr"]) == (printed.out, printed.err)


#: the only modules that import numpy: the finite-difference probes
#: (``core``), the slice meshes (``treeopt``) and the seeded sampler
#: (``strategy``)
NUMPY_MODULES = {"core", "strategy", "treeopt"}

#: command -> the isograd modules a fresh call loads besides ``cli``: its
#: handler's modules and what they import
LOADS = {
    ("game",): {"errors", "game"},
    ("joint", "--op", "fisher", "--point", "0.5,0,0,0.5"):
        {"core", "errors", "jointbinary"},
    ("report-eq1-4",): {"core", "errors", "jointbinary"},
    ("gaussian-check",): {"core", "errors", "gaussian"},
    ("table1", "--case", "ind", "--samples", "2"):
        {"core", "errors", "jointbinary", "strategy"},
    ("dice",): {"core", "dice", "errors", "reports"},
    ("tree-opt", "--rho", "0.5", "--grid", "51"):
        {"core", "errors", "reports", "treeopt"},
    ("surface", "--rho", "0.5", "--grid", "11"):
        {"core", "errors", "reports", "treeopt"},
}


def _source_trees() -> dict:
    """Module name -> syntax tree, for every module of the package."""
    package = Path(isograd.__file__).resolve().parent
    return {path.stem: ast.parse(path.read_text())
            for path in package.glob("*.py")}


def _importers(root: str) -> set:
    """The modules that import ``root`` or a submodule of it, at any
    scope."""
    importers = set()
    for name, tree in _source_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module]
            else:
                continue
            if any(r.partition(".")[0] == root for r in roots):
                importers.add(name)
    return importers


def _blas_vector_kernels(tree) -> list:
    """Lines that call a ``.dot`` method or reach ``linalg.norm``, by
    attribute or by import."""
    lines = []
    for node in ast.walk(tree):
        dot = (isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "dot")
        norm = (isinstance(node, ast.Attribute) and node.attr == "norm"
                and (isinstance(node.value, ast.Name)
                     and node.value.id == "linalg"
                     or isinstance(node.value, ast.Attribute)
                     and node.value.attr == "linalg"))
        imported = (isinstance(node, ast.ImportFrom)
                    and (node.module or "").endswith("linalg")
                    and any(alias.name == "norm" for alias in node.names))
        if dot or norm or imported:
            lines.append(node.lineno)
    return lines


def _references(tree, name: str) -> bool:
    """Whether the tree names ``name``: defines, imports or reads it."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and name in (
                    node.name, node.asname)
                or isinstance(node, ast.FunctionDef) and node.name == name):
            return True
    return False


class TestLazyDispatch:
    @pytest.mark.parametrize("argv", LOADS, ids=" ".join)
    def test_command_loads_its_modules_only(self, argv):
        probe = _fresh(list(argv))
        assert probe["rc"] == 0
        assert set(probe["isograd"]) == {
            f"isograd.{m}" for m in LOADS[argv] | {"cli"}}

    def test_game_loads_no_numpy(self):
        probe = _fresh(["game"])
        assert probe["rc"] == 0
        assert probe["numpy"] is False

    def test_numpy_is_imported_only_where_a_mesh_or_probe_needs_it(self):
        assert NUMPY_MODULES < set(_source_trees())
        importers = _importers("numpy")
        assert importers <= NUMPY_MODULES, sorted(importers - NUMPY_MODULES)

    def test_parser_constants_are_the_modules(self):
        assert cli.MODES == core.MODES
        assert cli.DEFAULT_GRID == treeopt.DEFAULT_GRID
        assert cli.DISCREPANCY_GRID == treeopt.DISCREPANCY_GRID


class TestSourceRules:
    """Rules read off the syntax tree of every module of the imported
    package, so that a new module is checked too."""

    def test_no_module_imports_scipy(self):
        assert _importers("scipy") == set()

    def test_no_blas_kernel_measures_a_vector(self):
        # norms and dot products are math.hypot and core._dot, added in
        # order, so no BLAS or SIMD kernel picks their last digit
        found = {name: lines for name, tree in _source_trees().items()
                 if (lines := _blas_vector_kernels(tree))}
        assert found == {}

    def test_only_core_and_jointbinary_read_mode_names(self):
        # core parses a mode name; jointbinary's string API takes one from
        # --mode and the benchmark; every other module holds mode values
        readers = {name for name, tree in _source_trees().items()
                   if _references(tree, "mode_named")}
        assert readers == {"core", "jointbinary"}

    def test_input_checks_live_in_errors(self):
        # what counts as a count, a real number or a finite sequence is
        # decided once: numbers.Integral also covers numpy's integers
        trees = _source_trees()
        assert _importers("numbers") == {"errors"}
        assert {name for name, tree in trees.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "integer"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")} == set()
        for check in ("require_real", "require_finite", "require_count"):
            assert {name for name, tree in trees.items()
                    for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)
                    and node.name == check} == {"errors"}


class TestTracedNames:
    """The polishes call the two searches through these module globals."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counting(name, search):
            def wrapper(*args, **kwargs):
                result = search(*args, **kwargs)
                seen.append((name, sys._getframe(1).f_code.co_name,
                             result.nfev))
                return result
            return wrapper

        for module, attr in ((dice, "minimize"), (treeopt, "minimize"),
                             (treeopt, "minimize_scalar")):
            name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
            monkeypatch.setattr(module, attr,
                                counting(name, getattr(module, attr)))
        return seen

    def test_dice_polish(self, calls):
        dice.maximize_constrained_target()
        assert [c[:2] for c in calls] == [("dice.minimize", "_polish")] * 3
        assert all(nfev > 0 for *_, nfev in calls)

    def test_discrepancy_polish(self, calls):
        treeopt.maximize_discrepancy()
        assert [c[:2] for c in calls] == [
            ("treeopt.minimize", "maximize_discrepancy")]
        assert calls[0][2] > 0

    def test_slice_polish(self, calls):
        treeopt.maximize_payoff_on_slice(0.5)
        assert [c[:2] for c in calls] == [
            ("treeopt.minimize_scalar", "maximize_payoff_on_slice")]
        assert calls[0][2] > 0

    def test_cli_reaches_the_wrapped_names(self, calls, capsys):
        assert main(["tree-opt", "--rho", "0.5"]) == 0
        assert main(["dice"]) == 0
        capsys.readouterr()
        assert [c[0] for c in calls] == (["treeopt.minimize_scalar"]
                                         + ["dice.minimize"] * 3)
