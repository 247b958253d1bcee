"""Tests for the correlated bivariate normal family."""

import math

import numpy as np
import pytest

from isograd.errors import (BadParams, InfeasiblePoint, NonFinite,
                            PreconditionError)
from isograd.gaussian import (
    DEFAULT_PARAMS,
    NormalParams,
    analytic_rho_derivative,
    check_suite,
    closed_moments,
    conditional_pdf_x_given_y,
    conditioned_mean_x,
    joint_pdf,
    marginal_pdf_x,
    marginal_pdf_y,
    probe_grid,
    quadrature_expectation,
    relation_gradients,
    rho_component,
)

TWO_PI = 2.0 * math.pi


class TestNormalParams:
    def test_accepts_valid(self):
        p = NormalParams(0.3, -0.2, 1.1, 0.7, 0.9)
        np.testing.assert_allclose(p.as_array(), [0.3, -0.2, 1.1, 0.7, 0.9])

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
    def test_standard_origin(self):
        assert joint_pdf(NormalParams(), 0.0, 0.0) == pytest.approx(
            1.0 / TWO_PI, rel=1e-12)

    def test_correlated_origin(self):
        assert joint_pdf(NormalParams(rho=0.5), 0.0, 0.0) == pytest.approx(
            1.0 / (TWO_PI * math.sqrt(0.75)), rel=1e-12)

    def test_factorizes_at_rho_zero(self):
        p = NormalParams(0.3, -0.2, 1.1, 0.7, 0.0)
        rng = np.random.default_rng(42)
        for _ in range(20):
            x, y = rng.normal(size=2) * 2.0
            prod = marginal_pdf_x(p, x) * marginal_pdf_y(p, y)
            assert abs(joint_pdf(p, x, y) - prod) < 1e-14

    def test_conditional_reduces_to_marginal_when_independent(self):
        p = NormalParams(0.3, -0.2, 1.1, 0.7, 0.0)
        for y in (-1.0, 0.0, 2.0):
            for x in (-0.5, 0.3, 1.7):
                assert conditional_pdf_x_given_y(p, x, y) == pytest.approx(
                    marginal_pdf_x(p, x), rel=1e-14)

    def test_conditioned_mean_shift(self):
        p = NormalParams(0.3, 0.0, 1.0, 1.0, 0.5)
        # rho (sx/sy) (y - mu_y) = 0.5 * 1 * 2
        assert conditioned_mean_x(p, 2.0) == pytest.approx(1.3, rel=1e-15)

    def test_conditional_agrees_with_bayes(self):
        rng = np.random.default_rng(42)
        for rho in (0.3, -0.7):
            p = NormalParams(0.3, -0.2, 1.1, 0.7, rho)
            for _ in range(10):
                x, y = rng.normal(size=2)
                bayes = joint_pdf(p, x, y) / marginal_pdf_y(p, y)
                assert conditional_pdf_x_given_y(p, x, y) == pytest.approx(
                    bayes, rel=1e-12)


class TestMoments:
    PARAM_SETS = [NormalParams(0.3, -0.2, 1.1, 0.7, r)
                  for r in (0.0, 0.3, -0.6, 0.9)]

    def test_closed_moments_match_quadrature(self):
        for p in self.PARAM_SETS:
            m = closed_moments(p)
            quad_x = quadrature_expectation(p, lambda x, y: x)
            quad_y = quadrature_expectation(p, lambda x, y: y)
            quad_xy = quadrature_expectation(p, lambda x, y: x * y)
            assert abs(m["<x>"] - quad_x) < 1e-6
            assert abs(m["<y>"] - quad_y) < 1e-6
            assert abs(m["<xy>"] - quad_xy) < 1e-6

    def test_covariance_closed_form(self):
        p = NormalParams(0.3, -0.2, 1.1, 0.7, 0.5)
        m = closed_moments(p)
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
                res = relation_gradients(p, rel, "constrained",
                                         probe if needs_probe else None)
                assert res.is_finite
                assert len(res) == (6 if needs_probe else 4)
                assert res.magnitude < 1e-7, rel

    def test_limit_covariance_recovers_sigma_product(self):
        res = relation_gradients(DEFAULT_PARAMS, "<xy>-<x><y>", "limit")
        assert res.is_finite and len(res) == 5
        assert rho_component(res) == pytest.approx(0.77, abs=1e-5)
        np.testing.assert_allclose(res.components[:-1], 0.0, atol=1e-6)
        for p in self._seeded_params(5):
            res = relation_gradients(p, "<xy>-<x><y>", "limit")
            assert rho_component(res) == pytest.approx(
                p.sigma_x * p.sigma_y, abs=1e-5)

    def test_limit_pointwise_matches_direct_rho_derivative(self):
        p = DEFAULT_PARAMS
        probe = (p.mu_x + p.sigma_x, p.mu_y + p.sigma_y)
        for rel in ("P_xy-P_xP_y", "P_x|y-P_x"):
            res = relation_gradients(p, rel, "limit", probe)
            assert res.is_finite and len(res) == 7
            expected = analytic_rho_derivative(p, rel, probe)
            assert abs(expected) > 1e-3
            assert rho_component(res) == pytest.approx(expected, abs=1e-5)

    def test_analytic_rho_derivative_against_finite_difference(self):
        p = DEFAULT_PARAMS
        probe = (p.mu_x - p.sigma_x, p.mu_y + 0.5 * p.sigma_y)
        h = 1e-5

        def joint_minus_product(rho):
            q = NormalParams(p.mu_x, p.mu_y, p.sigma_x, p.sigma_y, rho)
            return (joint_pdf(q, *probe)
                    - marginal_pdf_x(q, probe[0]) * marginal_pdf_y(q, probe[1]))

        fd = (joint_minus_product(h) - joint_minus_product(-h)) / (2 * h)
        assert analytic_rho_derivative(p, "P_xy-P_xP_y", probe) == \
            pytest.approx(fd, abs=1e-8)

    def test_limit_vanishes_at_central_probe(self):
        p = DEFAULT_PARAMS
        res = relation_gradients(p, "P_xy-P_xP_y", "limit",
                                 (p.mu_x, p.mu_y))
        assert abs(rho_component(res)) < 1e-5

    def test_contract_violations(self):
        tilted = NormalParams(0.3, -0.2, 1.1, 0.7, 0.2)
        with pytest.raises(InfeasiblePoint):
            relation_gradients(tilted, "<xy>-<x><y>", "constrained")
        with pytest.raises(PreconditionError):
            relation_gradients(DEFAULT_PARAMS, "P_xy-P_xP_y", "constrained")
        with pytest.raises(PreconditionError):
            relation_gradients(DEFAULT_PARAMS, "<xy>-<x><y>", "constrained",
                               probe=(0.0, 0.0))
        with pytest.raises(PreconditionError):
            relation_gradients(DEFAULT_PARAMS, "P_z-P_w", "constrained",
                               probe=(0.0, 0.0))
        with pytest.raises(PreconditionError):
            relation_gradients(DEFAULT_PARAMS, "<xy>-<x><y>", "sideways")
        with pytest.raises(PreconditionError, match="read constrained"):
            relation_gradients(DEFAULT_PARAMS, "<xy>-<x><y>", "unconstrained")


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

    def test_probe_grid_shape(self):
        probes = probe_grid(DEFAULT_PARAMS)
        assert len(probes) == 9
        assert (DEFAULT_PARAMS.mu_x, DEFAULT_PARAMS.mu_y) in probes
