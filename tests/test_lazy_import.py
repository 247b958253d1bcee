"""SciPy is imported on the first polish, not with the package.

``import isograd`` and every command that does not optimize load numpy and
the standard library only.  The polishes call SciPy through the module
globals ``dice.minimize``, ``treeopt.minimize`` and
``treeopt.minimize_scalar``; the benchmark's tracer wraps those names, so
these tests pin that each is still a module attribute reached on every
polish and still returns SciPy's result with its ``nfev``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isograd
from isograd import dice, treeopt
from isograd.cli import main

# runs in a fresh interpreter: argv (or None for a bare import) in, whether
# SciPy got loaded and what the command printed out
_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
out = io.StringIO()
import isograd
if argv is not None:
    from isograd.cli import main
    with contextlib.redirect_stdout(out):
        rc = main(argv)
else:
    rc = None
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"rc": rc, "scipy": scipy, "stdout": out.getvalue()}))
"""

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


def _fresh(argv):
    src = str(Path(isograd.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestLazyScipy:
    def test_package_import_loads_no_scipy(self):
        assert _fresh(None)["scipy"] == []

    @pytest.mark.parametrize("argv", NUMPY_ONLY, ids=lambda a: " ".join(a))
    def test_command_loads_no_scipy(self, argv):
        probe = _fresh(argv + ["--format", "json"])
        assert probe["rc"] == 0
        assert probe["scipy"] == []

    @pytest.mark.parametrize("argv", (["dice"], ["tree-opt", "--sweep"]),
                             ids=lambda a: " ".join(a))
    def test_polishing_command_loads_scipy(self, argv, capsys):
        probe = _fresh(argv)
        assert probe["rc"] == 0
        assert "scipy.optimize" in probe["scipy"]
        assert main(argv) == 0
        assert probe["stdout"] == capsys.readouterr().out


class TestTracedNames:
    """The polishes call the SciPy searches through these module globals."""

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
