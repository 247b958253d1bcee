"""The two polish searches against SciPy, the code they are ported from.

``core.minimize`` is SciPy's ``minimize(method="Nelder-Mead")`` and
``core.minimize_scalar`` its ``minimize_scalar(method="bounded")``, step for
step: ``x``, ``fun``, ``nit`` and ``nfev`` agree bit for bit on every polish
the package runs, and on runs that reach an infinite region, stop at
``maxiter`` or end at a bound.  SciPy is a test dependency only, so this
module skips without it.
"""

import numpy as np
import pytest

from isograd import core, dice, treeopt
from isograd.errors import ConvergenceFailure

optimize = pytest.importorskip("scipy.optimize")

TIGHT = {"xatol": 1e-10, "fatol": 1e-13, "maxiter": 20000}


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def assert_same(ours, theirs):
    assert _bits(ours.x) == _bits(theirs.x)
    assert _bits(ours.fun) == _bits(theirs.fun)
    assert (ours.nit, ours.nfev) == (theirs.nit, theirs.nfev)


def nelder_mead(fun, x0, **options):
    ours = core.minimize(fun, x0, **options)
    assert_same(ours, optimize.minimize(fun, x0, method="Nelder-Mead",
                                        options=options))
    return ours


def bounded(fun, bounds, **options):
    ours = core.minimize_scalar(fun, bounds, **options)
    assert_same(ours, optimize.minimize_scalar(fun, bounds=bounds,
                                               method="bounded",
                                               options=options))
    return ours


@pytest.fixture
def compared(monkeypatch):
    """Each polish the package runs, checked against SciPy on the spot: a
    list of the names called."""
    calls = []

    def checked(name, search):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return search(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dice, "minimize", checked("minimize", nelder_mead))
    monkeypatch.setattr(treeopt, "minimize", checked("minimize", nelder_mead))
    monkeypatch.setattr(treeopt, "minimize_scalar",
                        checked("minimize_scalar", bounded))
    return calls


class TestPackagePolishes:
    def test_dice_faces(self, compared):
        dice.maximize_constrained_target()
        assert compared == ["minimize"] * 3

    def test_discrepancy_optimum(self, compared):
        treeopt.maximize_discrepancy()
        assert compared == ["minimize"]

    def test_slice_curve_over_a_rho_grid(self, compared):
        rhos = [k / 1000 for k in range(1, 1000, 7)] + [0.13, 0.48]
        for rho in rhos:
            try:
                treeopt.maximize_payoff_on_slice(rho, grid=51)
            except ConvergenceFailure:   # raised after the polish ran
                pass
        assert compared == ["minimize_scalar"] * len(rhos)


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


class TestNelderMead:
    @pytest.mark.parametrize("x0", [(-1.2, 1.0), (0.0, 0.0), (2.0, -1.5),
                                    (0.0, 0.0, 0.0), (-1.0, 1.5, 0.5),
                                    (1.3, 0.7, 0.8)], ids=str)
    def test_rosenbrock(self, x0):
        res = nelder_mead(rosenbrock, x0, **TIGHT)
        assert res.nit < TIGHT["maxiter"]
        assert np.allclose(res.x, 1.0, atol=1e-6)

    @pytest.mark.parametrize("x0", [(-1.2, 1.0), (0.25, 0.0)], ids=str)
    def test_infinite_off_a_region(self, x0):
        # as the dice objective is off its face: inf outside x[0] <= 0.3
        seen = []

        def fenced(x):
            seen.append(x[0] > 0.3)
            return np.inf if x[0] > 0.3 else rosenbrock(x)

        res = nelder_mead(fenced, x0, **TIGHT)
        assert any(seen) and res.x[0] <= 0.3

    @pytest.mark.parametrize("x0", [(-1.2, 1.0), (0.5, 0.5, 0.5)], ids=str)
    def test_plateaus(self, x0):
        # values rounded to 0.1 tie often: the comparisons meet equality and
        # the sorts meet equal values
        nelder_mead(lambda x: round(rosenbrock(x), 1), x0, **TIGHT)

    def test_dice_entropy_from_a_face_corner(self):
        nelder_mead(lambda x: -dice._entropy_of_params(x), (0.0, 0.5),
                    **TIGHT)

    def test_cut_off_by_maxiter(self):
        res = nelder_mead(rosenbrock, (-1.2, 1.0), xatol=1e-10, fatol=1e-13,
                          maxiter=7)
        assert res.nit == 7


class TestBoundedBrent:
    @pytest.mark.parametrize("fun, x", [(lambda x: x, -1.0),
                                        (lambda x: -x, 1.5)],
                             ids=["lower", "upper"])
    def test_minimum_at_a_bound(self, fun, x):
        res = bounded(fun, (-1.0, 1.5), xatol=1e-12, maxiter=500)
        assert abs(res.x - x) < 1e-7

    def test_plateaus(self):
        bounded(lambda x: round(float(np.cos(3.0 * x)), 1), (-1.0, 1.5),
                xatol=1e-12, maxiter=500)

    def test_evaluation_limit(self):
        res = bounded(lambda x: np.cos(3.0 * x), (-1.0, 1.5), xatol=1e-12,
                      maxiter=5)
        assert res.nfev == res.nit == 5
