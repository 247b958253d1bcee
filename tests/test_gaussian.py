"""Tests for the correlated bivariate normal family."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from isograd import core
from isograd.core import Constrained, ConstraintSet, Limit
from isograd.errors import (BadParams, InfeasiblePoint, NonFinite,
                            PreconditionError)
from isograd.gaussian import (
    DEFAULT_PARAMS,
    RELATIONS,
    STATISTICS,
    NormalParams,
    _conditional,
    _conditioned_mean,
    _joint,
    _moments,
    _normal,
    analytic_rho_derivative,
    check_suite,
    probe_grid,
    rho_component,
)
from oracles import quadrature_expectation

TWO_PI = 2.0 * math.pi


def relation_result(params, relation, mode, probe=()):
    """One relation's gradient under the reading named ``mode``: its kind's
    shared-probe call with that reading, indexed through
    :data:`STATISTICS` as the check suite reads it."""
    statistic, relations, readings = STATISTICS[RELATIONS[relation]]
    results = core.gradients(statistic, (*probe, *astuple(params)),
                             dict(readings)[mode])
    return results[relations.index(relation)]


class TestNormalParams:
    def test_accepts_valid(self):
        p = NormalParams(0.3, -0.2, 1.1, 0.7, 0.9)
        assert astuple(p) == (0.3, -0.2, 1.1, 0.7, 0.9)

    def test_stores_floats(self):
        p = NormalParams(0, np.int64(0), 2, 3, 0)
        assert [type(v) for v in astuple(p)] == [float] * 5
        # the covariance row's closed form is sigma_x * sigma_y, a float
        [row] = [r for r in check_suite(p)
                 if r.relation == "<xy>-<x><y>" and r.mode == "limit"]
        assert type(row.expected) is float and row.expected == 6.0

    @pytest.mark.parametrize("bad", ["0.3", None, True, 1j])
    def test_rejects_a_non_number(self, bad):
        with pytest.raises(BadParams, match="mu_x must be a real number"):
            NormalParams(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["mu_x", "mu_y", "sigma_x", "sigma_y",
                                      "rho"])
    def test_rejects_non_finite(self, name, bad):
        with pytest.raises(NonFinite):
            NormalParams(**{name: bad})

    def test_rejects_bad_sigma(self):
        with pytest.raises(BadParams):
            NormalParams(sigma_x=0.0)
        with pytest.raises(BadParams):
            NormalParams(sigma_y=-1.0)

    def test_rejects_degenerate_correlation(self):
        for rho in (1.0, -1.0, 1.5):
            with pytest.raises(BadParams):
                NormalParams(rho=rho)
        NormalParams(rho=0.999)   # open interval, still fine


class TestDensities:
    """The private densities the pointwise relations are built from, on
    (mu_x, mu_y, sigma_x, sigma_y, rho) in ``NormalParams`` field
    order."""

    def test_standard_origin(self):
        assert _joint(0.0, 0.0, *astuple(NormalParams())) == pytest.approx(
            1.0 / TWO_PI, rel=1e-12)

    def test_correlated_origin(self):
        assert _joint(0.0, 0.0, *astuple(NormalParams(rho=0.5))) == \
            pytest.approx(1.0 / (TWO_PI * math.sqrt(0.75)), rel=1e-12)

    def test_factorizes_at_rho_zero(self):
        p = NormalParams(0.3, -0.2, 1.1, 0.7, 0.0)
        rng = np.random.default_rng(42)
        for _ in range(20):
            x, y = rng.normal(size=2) * 2.0
            prod = _normal(x, p.mu_x, p.sigma_x) * _normal(y, p.mu_y, p.sigma_y)
            assert abs(_joint(x, y, *astuple(p)) - prod) < 1e-14

    def test_conditional_reduces_to_marginal_when_independent(self):
        p = NormalParams(0.3, -0.2, 1.1, 0.7, 0.0)
        for y in (-1.0, 0.0, 2.0):
            for x in (-0.5, 0.3, 1.7):
                assert _conditional(x, y, *astuple(p)) == pytest.approx(
                    _normal(x, p.mu_x, p.sigma_x), rel=1e-14)

    def test_conditioned_mean_shift(self):
        p = NormalParams(0.3, 0.0, 1.0, 1.0, 0.5)
        # rho (sx/sy) (y - mu_y) = 0.5 * 1 * 2
        assert _conditioned_mean(2.0, *astuple(p)) == pytest.approx(
            1.3, rel=1e-15)

    def test_conditional_agrees_with_bayes(self):
        rng = np.random.default_rng(42)
        for rho in (0.3, -0.7):
            p = NormalParams(0.3, -0.2, 1.1, 0.7, rho)
            for _ in range(10):
                x, y = rng.normal(size=2)
                bayes = (_joint(x, y, *astuple(p))
                         / _normal(y, p.mu_y, p.sigma_y))
                assert _conditional(x, y, *astuple(p)) == pytest.approx(
                    bayes, rel=1e-12)


class TestMoments:
    PARAM_SETS = [NormalParams(0.3, -0.2, 1.1, 0.7, r)
                  for r in (0.0, 0.3, -0.6, 0.9)]

    def test_closed_moments_match_quadrature(self):
        for p in self.PARAM_SETS:
            m = _moments(*astuple(p))
            quad_x = quadrature_expectation(p, lambda x, y: x)
            quad_y = quadrature_expectation(p, lambda x, y: y)
            quad_xy = quadrature_expectation(p, lambda x, y: x * y)
            assert abs(m["<x>"] - quad_x) < 1e-6
            assert abs(m["<y>"] - quad_y) < 1e-6
            assert abs(m["<xy>"] - quad_xy) < 1e-6

    def test_covariance_closed_form(self):
        p = NormalParams(0.3, -0.2, 1.1, 0.7, 0.5)
        m = _moments(*astuple(p))
        assert m["<xy>"] - m["<x>"] * m["<y>"] == pytest.approx(
            0.5 * 1.1 * 0.7, rel=1e-12)

    def test_density_normalizes(self):
        for rho in (0.0, 0.5, -0.5, 0.9, -0.9):
            p = NormalParams(0.3, -0.2, 1.1, 0.7, rho)
            mass = quadrature_expectation(p, lambda x, y: np.ones_like(x))
            assert abs(mass - 1.0) < 1e-6


class TestRelationGradients:
    def _seeded_params(self, n=10):
        rng = np.random.default_rng(42)
        out = []
        for _ in range(n):
            mu = rng.uniform(-1.0, 1.0, size=2)
            sig = rng.uniform(0.5, 2.0, size=2)
            out.append(NormalParams(mu[0], mu[1], sig[0], sig[1], 0.0))
        return out

    def test_constrained_gradients_vanish(self):
        for p in self._seeded_params():
            probe = (p.mu_x + p.sigma_x, p.mu_y - p.sigma_y)
            for rel, needs_probe in (("P_xy-P_xP_y", True),
                                     ("P_x|y-P_x", True),
                                     ("<xy>-<x><y>", False)):
                res = relation_result(p, rel, "constrained",
                                      probe if needs_probe else ())
                assert res.is_finite
                assert len(res) == (6 if needs_probe else 4)
                assert res.magnitude < 1e-7, rel

    def test_limit_covariance_recovers_sigma_product(self):
        res = relation_result(DEFAULT_PARAMS, "<xy>-<x><y>", "limit")
        assert res.is_finite and len(res) == 5
        assert rho_component(res) == pytest.approx(0.77, abs=1e-5)
        np.testing.assert_allclose(res.components[:-1], 0.0, atol=1e-6)
        for p in self._seeded_params(5):
            res = relation_result(p, "<xy>-<x><y>", "limit")
            assert rho_component(res) == pytest.approx(
                p.sigma_x * p.sigma_y, abs=1e-5)

    def test_limit_pointwise_matches_direct_rho_derivative(self):
        p = DEFAULT_PARAMS
        probe = (p.mu_x + p.sigma_x, p.mu_y + p.sigma_y)
        for rel in ("P_xy-P_xP_y", "P_x|y-P_x"):
            res = relation_result(p, rel, "limit", probe)
            assert res.is_finite and len(res) == 7
            expected = analytic_rho_derivative(p, rel, probe)
            assert abs(expected) > 1e-3
            assert rho_component(res) == pytest.approx(expected, abs=1e-5)

    def test_analytic_rho_derivative_against_finite_difference(self):
        p = DEFAULT_PARAMS
        probe = (p.mu_x - p.sigma_x, p.mu_y + 0.5 * p.sigma_y)
        h = 1e-5

        def joint_minus_product(rho):
            return (_joint(*probe, p.mu_x, p.mu_y, p.sigma_x, p.sigma_y, rho)
                    - _normal(probe[0], p.mu_x, p.sigma_x)
                    * _normal(probe[1], p.mu_y, p.sigma_y))

        fd = (joint_minus_product(h) - joint_minus_product(-h)) / (2 * h)
        assert analytic_rho_derivative(p, "P_xy-P_xP_y", probe) == \
            pytest.approx(fd, abs=1e-8)

    def test_limit_vanishes_at_central_probe(self):
        p = DEFAULT_PARAMS
        res = relation_result(p, "P_xy-P_xP_y", "limit", (p.mu_x, p.mu_y))
        assert abs(rho_component(res)) < 1e-5

    def test_contract_violations(self):
        tilted = NormalParams(0.3, -0.2, 1.1, 0.7, 0.2)
        with pytest.raises(InfeasiblePoint, match="rho=0"):
            relation_result(tilted, "<xy>-<x><y>", "constrained")
        with pytest.raises(PreconditionError, match="unknown relation"):
            analytic_rho_derivative(DEFAULT_PARAMS, "P_z-P_w", (0.0, 0.0))

    @pytest.mark.parametrize("relation", ["P_xy-P_xP_y", "P_x|y-P_x"])
    def test_pointwise_derivative_needs_a_finite_probe(self, relation):
        with pytest.raises(PreconditionError, match=r"needs a probe \(x, y\)"):
            analytic_rho_derivative(DEFAULT_PARAMS, relation)
        with pytest.raises(PreconditionError, match="needs a probe"):
            analytic_rho_derivative(DEFAULT_PARAMS, relation, (0.1, 0.2, 0.3))
        for probe in ((math.nan, 0.0), (0.0, math.inf)):
            with pytest.raises(NonFinite):
                analytic_rho_derivative(DEFAULT_PARAMS, relation, probe)
        with pytest.raises(BadParams, match="probe coordinate"):
            analytic_rho_derivative(DEFAULT_PARAMS, relation, ("0.1", 0.2))


class TestCheckSuite:
    def test_all_rows_pass(self):
        rows = check_suite()
        assert len(rows) == 6
        assert {(r.relation, r.mode) for r in rows} == {
            (rel, mode)
            for rel in ("P_xy-P_xP_y", "P_x|y-P_x", "<xy>-<x><y>")
            for mode in ("constrained", "limit")}
        for row in rows:
            assert row.passed, (row.relation, row.mode, row.statistic)
            if row.mode == "constrained":
                assert row.statistic < 1e-6
            else:
                assert abs(row.statistic) > 1e-3

    def test_covariance_row_statistic(self):
        rows = {(r.relation, r.mode): r for r in check_suite()}
        row = rows[("<xy>-<x><y>", "limit")]
        assert row.statistic == pytest.approx(0.77, abs=1e-4)
        assert row.expected == pytest.approx(0.77, abs=1e-12)

    def test_shares_probes(self, eval_calls):
        # both pointwise relations from one call per probe and semantics:
        # 9 probes x (12 + 42) evals, plus 38 for the covariance; the rho = 0
        # pin states its row, so the basis takes none (with a differenced
        # row it took 660, relation by relation 1,272)
        check_suite()
        assert eval_calls == [524]

    @pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
    def test_tolerance_must_be_positive_and_finite(self, tol, eval_calls):
        with pytest.raises(BadParams, match="positive and finite"):
            check_suite(tol=tol)
        assert eval_calls == [0]

    @pytest.mark.parametrize("tol", [True, "1e-6", 1j])
    def test_tolerance_must_be_a_number(self, tol, eval_calls):
        # True would otherwise read as a tolerance of 1.0
        with pytest.raises(BadParams, match="tol must be a real number"):
            check_suite(tol=tol)
        assert eval_calls == [0]

    def test_refuses_nonzero_rho_before_any_probe(self, eval_calls):
        tilted = NormalParams(0.3, -0.2, 1.1, 0.7, 0.2)
        with pytest.raises(InfeasiblePoint,
                           match=r"^relations are evaluated at rho = 0$"):
            check_suite(tilted)
        assert eval_calls == [0]

    @pytest.mark.parametrize("params", [
        DEFAULT_PARAMS, NormalParams(-0.7, 0.4, 0.6, 1.8, 0.0)])
    @pytest.mark.parametrize("mode", ["constrained", "limit"])
    def test_shared_results_match_each_relation_alone(self, params, mode):
        statistic, relations, readings = STATISTICS["pointwise"]
        # each relation alone, under a reading built here from its name
        reading = {"constrained": Constrained(ConstraintSet.pin({6: 0.0})),
                   "limit": Limit((0.0,) * 6 + (1.0,))}[mode]
        for probe in probe_grid(params):
            z = np.array([*probe, *astuple(params)])
            shared = core.gradients(statistic, z, dict(readings)[mode])
            for k, relation in enumerate(relations):
                alone = core.gradient(_pointwise_alone(relation), z, reading)
                assert repr(shared[k]) == repr(alone), (relation, probe)

    def test_builds_no_constraint_set(self, monkeypatch):
        # the readings are built once, at import, not per probe
        pins = []
        real = ConstraintSet.pin

        def counting(*args, **kwargs):
            pins.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(ConstraintSet, "pin", staticmethod(counting))
        assert all(row.passed for row in check_suite())
        assert pins == []

    def test_readings_pin_and_approach_rho(self):
        for kind, n in (("pointwise", 7), ("expectation", 5)):
            _, _, readings = STATISTICS[kind]
            assert [name for name, _ in readings] == ["constrained", "limit"]
            (_, constrained), (_, limit) = readings
            pin = constrained.constraints
            assert pin.label == "rho=0" and len(pin) == 1
            # the tangent basis is every axis but rho's
            assert pin.basis([0.5] * (n - 1) + [0.0]) == tuple(
                tuple(float(j == i) for j in range(n)) for i in range(n - 1))
            assert limit == Limit((0.0,) * (n - 1) + (1.0,))

    def test_probe_grid_shape(self):
        probes = probe_grid(DEFAULT_PARAMS)
        assert len(probes) == 9
        assert (DEFAULT_PARAMS.mu_x, DEFAULT_PARAMS.mu_y) in probes


def _pointwise_alone(relation):
    """One pointwise relation as a one-output function of
    (x, y, mu_x, mu_y, sigma_x, sigma_y, rho), built from the densities."""
    def f(z):
        x, y, mx, my, sx, sy, r = (float(v) for v in z)
        if relation == "P_xy-P_xP_y":
            return float(_joint(x, y, mx, my, sx, sy, r)
                         - _normal(x, mx, sx) * _normal(y, my, sy))
        return float(_conditional(x, y, mx, my, sx, sy, r)
                     - _normal(x, mx, sx))
    return f
