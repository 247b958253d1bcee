"""Tests for the correlation-slice geometry and tree-payoff optimizers."""

import dataclasses
import math
import re

import numpy as np
import pytest

from isograd import core, treeopt
from isograd.core import Constrained, ConstraintSet
from isograd.errors import (
    BadParams,
    ConvergenceFailure,
    InfeasiblePoint,
    OutOfRange,
    SingularP,
    SingularRho,
)
from isograd.strategy import BehaviouralPoint, behavioural_correlation

# (rho, optimal value, optimal point) of the standard sweep; frozen expected
# values, points quoted to the precision they are reported at.
SWEEP_TABLE = (
    (1.0, 1.0, (1.0, 0.0, 1.0)),
    (0.75, 1.03032, (0.8138, 0.3876, 1.0)),
    (0.5, 1.40068, (0.4831, 0.5917, 1.0)),
    (0.25, 2.02693, (0.2590, 0.7953, 1.0)),
    (0.0, 3.0, (0.0, 1.0, 1.0)),
    (-0.25, 3.0, (0.0, 1.0, 0.9378)),
    (-0.5, 3.0, (0.0, 1.0, 0.7506)),
    (-0.75, 3.0, (0.0, 1.0, 0.4386)),
    (-1.0, 3.0, (0.0, 1.0, 0.0)),
)


def _correlation(p: float, q: float, r: float) -> float:
    return behavioural_correlation(BehaviouralPoint(p, q, r))


class TestRootBranches:
    def test_rho_zero_collapses_to_q(self):
        p = np.linspace(0.01, 0.99, 50)
        q = np.linspace(0.0, 1.0, 50)
        for pi in p:
            for qi in q:
                assert abs(treeopt.r_plus(pi, qi, 0.0) - qi) < 1e-12

    def test_known_exact_value(self):
        # the discriminant is a perfect square here: r_plus = 3/4 exactly
        assert treeopt.r_plus(0.5, 0.25, 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_root_recovers_target_correlation(self):
        r = treeopt.r_plus(0.5, 0.25, 0.5)
        assert abs(_correlation(0.5, 0.25, r) - 0.5) < 1e-8

    def test_correlation_recovery_across_band(self):
        rng = np.random.default_rng(42)
        for rho in (0.75, 0.5, 0.25, -0.25, -0.5, -0.75):
            p = rng.uniform(0.01, 0.99, size=10_000)
            u = rng.uniform(0.005, 0.995, size=10_000)
            worst = 0.0
            for pi, ui in zip(p, u):
                b = treeopt.permissible_bound(pi, rho)
                qi = ui * b if rho > 0 else b + ui * (1.0 - b)
                r = treeopt.r_plus(pi, qi, rho)
                worst = max(worst, abs(_correlation(pi, qi, r) - rho))
            assert worst < 1e-8, f"rho={rho}: worst recovery error {worst}"

    def test_minus_branch_mirrors_plus(self):
        # the lower root at rho is the surface at -rho: correlation -rho
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(50):
            p = rng.uniform(0.05, 0.95)
            rho = rng.uniform(0.05, 0.95)
            q = rng.uniform(0.01, 0.99) * treeopt.permissible_bound(p, rho)
            lo = treeopt.r_plus(p, q, -rho)
            if 0.0 < lo < 1.0:
                assert abs(_correlation(p, q, lo) + rho) < 1e-8
                checked += 1
        assert checked >= 10

    def test_degenerate_top_edge_is_identically_one(self):
        # at q=1 both numerator and denominator reduce to 2(1-p+p rho^2):
        # the root exists formally but carries no defined correlation, which
        # is why the region predicate must not rely on the range check alone
        for p in np.linspace(0.05, 0.95, 7):
            for rho in (0.25, 0.5, 0.75):
                assert treeopt.r_plus(p, 1.0, rho) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_rho_is_finite(self):
        assert treeopt.r_plus(0.5, 0.25, 1.0) >= 1.0
        assert treeopt.r_plus(0.5, 0.25, -1.0) <= 0.0

    def test_singular_p(self):
        with pytest.raises(SingularP):
            treeopt.r_plus(0.0, 0.5, 0.5)
        with pytest.raises(SingularP):
            treeopt.r_plus(1.0, 0.5, 0.5)

    def test_out_of_range_arguments(self):
        with pytest.raises(OutOfRange):
            treeopt.r_plus(-0.1, 0.5, 0.5)
        with pytest.raises(OutOfRange):
            treeopt.r_plus(0.5, 1.1, 0.5)
        with pytest.raises(OutOfRange):
            treeopt.r_plus(0.5, 0.5, 1.0001)


class TestPermissibleBound:
    def test_positive_rho_example(self):
        # p/(p + 1/3) at p = 0.4831; the rho=+0.5 optimum sits on this curve
        assert treeopt.permissible_bound(0.4831, 0.5) == pytest.approx(
            0.5917, abs=1e-4)

    def test_negative_rho_at_p_one(self):
        assert treeopt.permissible_bound(1.0, -0.5) == pytest.approx(
            0.25, abs=1e-12)

    def test_small_rho_limit_fills_square(self):
        for p in (0.01, 0.3, 0.99):
            assert treeopt.permissible_bound(p, 1e-6) == pytest.approx(
                1.0, abs=1e-5)

    def test_near_unit_rho_pins_q_to_zero(self):
        for p in (0.1, 0.5, 0.9):
            assert treeopt.permissible_bound(p, 0.9999) < 1e-3

    def test_bound_separates_range_success_from_violation(self):
        rng = np.random.default_rng(7)
        for rho in (0.6, -0.35):
            p = rng.uniform(0.02, 0.98, size=400)
            q = rng.uniform(0.0, 1.0, size=400)
            for pi, qi in zip(p, q):
                b = treeopt.permissible_bound(pi, rho)
                r = treeopt.r_plus(pi, qi, rho)
                inside = qi <= b - 1e-6 if rho > 0 else qi >= b + 1e-6
                outside = qi >= b + 1e-6 if rho > 0 else qi <= b - 1e-6
                if inside:
                    assert -1e-9 <= r <= 1.0 + 1e-9
                elif outside:
                    assert not -1e-9 <= r <= 1.0 + 1e-9

    def test_singular_rho(self):
        with pytest.raises(SingularRho):
            treeopt.permissible_bound(0.5, 0.0)

    def test_domain_validation(self):
        with pytest.raises(OutOfRange):
            treeopt.permissible_bound(0.0, 0.5)
        with pytest.raises(OutOfRange):
            treeopt.permissible_bound(1.2, 0.5)
        with pytest.raises(OutOfRange):
            treeopt.permissible_bound(0.5, 1.0)


class TestCorrelationSlice:
    def test_zero_rho_surface_is_q(self):
        P, Q = np.meshgrid(np.linspace(0.0, 1.0, 30),
                           np.linspace(0.0, 1.0, 30), indexing="ij")
        np.testing.assert_allclose(treeopt.surface(P, Q, 0.0), Q,
                                   rtol=0, atol=1e-12)

    def test_surface_in_unit_interval_on_region(self):
        g = np.linspace(0.0, 1.0, 101)
        P, Q = np.meshgrid(g, g, indexing="ij")
        for rho in (0.6, 0.25, -0.25, -0.6):
            mask = treeopt.region(P, Q, rho)
            assert mask.any()
            r = treeopt.surface(P, Q, rho)[mask]
            assert r.min() >= -1e-9 and r.max() <= 1.0 + 1e-9

    def test_region_excludes_degenerate_top_edge(self):
        assert not treeopt.region(0.3, 1.0, 0.5)
        # for negative rho the top edge is a genuine part of the band
        assert treeopt.region(0.3, 1.0, -0.5)

    def test_region_excludes_degenerate_bottom_edge_for_negative_rho(self):
        assert not treeopt.region(0.3, 0.0, -0.5)
        assert treeopt.region(0.3, 0.0, 0.5)

    def test_region_tolerance_edges(self):
        # p is accepted up to 1e-9 past each edge of [0, 1], not further
        p = np.array([-1e-9, 1.0 + 1e-9, -1.1e-9, 1.0 + 1.1e-9, 0.0, 1.0])
        np.testing.assert_array_equal(treeopt.region(p, 0.5, 0.0),
                                      [True, True, False, False, True, True])

    def test_validation(self):
        with pytest.raises(OutOfRange):
            treeopt.surface(0.3, 0.5, 1.5)
        with pytest.raises(OutOfRange):
            treeopt.region(0.3, 0.5, -1.5)


class TestSurfacePoints:
    def test_pinned_lines(self):
        up = treeopt.surface_points(1.0, grid=5)
        np.testing.assert_allclose(up[:, 1:], [[0.0, 1.0]] * 5, atol=0)
        down = treeopt.surface_points(-1.0, grid=5)
        np.testing.assert_allclose(down[:, 1:], [[1.0, 0.0]] * 5, atol=0)

    def test_triples_carry_target_correlation(self):
        pts = treeopt.surface_points(0.5, grid=21)
        interior = pts[(pts[:, 0] >= 0.05) & (pts[:, 0] <= 0.95)]
        assert len(interior) > 50
        for p, q, r in interior:
            assert abs(_correlation(p, q, r) - 0.5) < 1e-6

    def test_zero_rho_covers_square(self):
        pts = treeopt.surface_points(0.0, grid=11)
        assert pts.shape == (121, 3)
        np.testing.assert_allclose(pts[:, 2], pts[:, 1], rtol=0, atol=1e-12)


class TestDiscrepancyPayoff:
    def test_closed_form_values(self):
        assert treeopt.discrepancy_payoff(0.0, 0.0, 0.0) == pytest.approx(-1.0)
        assert treeopt.discrepancy_payoff(0.5, 0.0, 1.0) == pytest.approx(0.5)
        assert treeopt.discrepancy_payoff(0.5, 0.5, 0.5) == pytest.approx(0.5)
        assert treeopt.discrepancy_payoff(
            0.37, 0.0, 1.0, mode="constrained") == pytest.approx(1.0)

    def test_agreement_probability_is_the_diagonal_mass(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            p, q, r = rng.uniform(0.0, 1.0, size=3)
            diag = (1.0 - p) * (1.0 - q) + p * r
            assert treeopt.agreement_probability(p, q, r) == pytest.approx(
                diag, abs=1e-12)

    def test_unconstrained_matches_ambient_engine(self):
        rng = np.random.default_rng(42)

        def f(z):
            return treeopt.agreement_probability(z[0], z[1], z[2])

        for _ in range(20):
            p, q, r = rng.uniform(0.05, 0.95, size=3)
            g = core.finite_difference(f, np.array([p, q, r]))
            engine = 1.0 - float(np.dot(g, g))
            assert treeopt.discrepancy_payoff(p, q, r) == pytest.approx(
                engine, abs=1e-9)

    def test_constrained_matches_pinned_engine(self):
        def f(z):
            return treeopt.agreement_probability(z[0], z[1], z[2])

        for p in (0.0, 0.37, 1.0):
            res = core.gradient(f, np.array([p, 0.0, 1.0]),
                                Constrained(ConstraintSet.pin({1: 0.0, 2: 1.0})))
            assert res.kind == "finite" and len(res) == 1
            np.testing.assert_allclose(res.basis, [(1.0, 0.0, 0.0)], atol=1e-9)
            engine = 1.0 - res.components[0] ** 2
            assert treeopt.discrepancy_payoff(
                p, 0.0, 1.0, mode="constrained") == pytest.approx(engine, abs=1e-9)

    def test_constrained_requires_the_pin(self):
        with pytest.raises(InfeasiblePoint):
            treeopt.discrepancy_payoff(0.5, 0.1, 1.0, mode="constrained")
        with pytest.raises(InfeasiblePoint):
            treeopt.discrepancy_payoff(0.5, 0.0, 0.9, mode="constrained")

    def test_unknown_mode(self):
        with pytest.raises(BadParams):
            treeopt.discrepancy_payoff(0.5, 0.5, 0.5, mode="subgradient")


class TestMaximizeDiscrepancy:
    def test_unconstrained_ridge(self):
        rep = treeopt.maximize_discrepancy()
        assert rep.value == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(rep.point, (0.5, 0.0, 1.0), atol=1e-9)
        assert rep.label == "unconstrained"
        assert rep.diagnostics["boundary"] is True

    def test_constrained_is_constant_one(self):
        rep = treeopt.maximize_discrepancy("constrained")
        assert rep.value == 1.0
        assert rep.point == (0.0, 0.0, 1.0)

    def test_value_respects_envelope(self):
        # 1-(1-p)^2-p^2 <= 1/2 bounds the payoff whatever (q, r) do
        rep = treeopt.maximize_discrepancy()
        assert rep.value <= 0.5 + 1e-12
        rng = np.random.default_rng(42)
        for _ in range(300):
            p, q, r = rng.uniform(0.0, 1.0, size=3)
            value = treeopt.discrepancy_payoff(p, q, r)
            assert value <= 1.0 - (1.0 - p) ** 2 - p ** 2 + 1e-12
            assert value <= 0.5 + 1e-12

    def test_corner_is_suboptimal(self):
        assert treeopt.discrepancy_payoff(0.0, 0.0, 0.0) == pytest.approx(-1.0)
        assert treeopt.maximize_discrepancy().value > 0.0

    def test_validation(self):
        with pytest.raises(BadParams):
            treeopt.maximize_discrepancy("lagrangian")


class TestSlicePayoff:
    def test_rho_zero_reduction(self):
        g = np.linspace(0.0, 1.0, 50)
        P, Q = np.meshgrid(g, g, indexing="ij")
        V = treeopt.slice_payoff(P, Q, 0.0)
        np.testing.assert_allclose(V, 2 * P + 3 * Q - 4 * P * Q,
                                   rtol=0, atol=1e-12)
        assert V.max() == pytest.approx(3.0, abs=1e-12)
        i, j = np.unravel_index(np.argmax(V), V.shape)
        assert (g[i], g[j]) == (0.0, 1.0)

    def test_off_region_is_zero(self):
        # q far above the rho=+0.5 bound at p=0.9 (bound ~ 0.73)
        assert treeopt.slice_payoff(0.9, 0.9, 0.5) == 0.0
        assert treeopt.slice_payoff(0.9, 0.5, 0.5) > 0.0

    def test_value_on_bound_curve(self):
        p = 0.4831
        q = treeopt.permissible_bound(p, 0.5)
        assert treeopt.slice_payoff(p, q, 0.5) == pytest.approx(1.40068, abs=1e-3)


class TestMaximizePayoffOnSlice:
    def test_matches_printed_sweep_rows(self):
        for rho, value, point in SWEEP_TABLE:
            rep = treeopt.maximize_payoff_on_slice(rho)
            assert rep.value == pytest.approx(value, abs=1e-3), f"rho={rho}"
            np.testing.assert_allclose(rep.point, point, rtol=0, atol=2e-2,
                                       err_msg=f"rho={rho}")

    def test_rho_zero_corner_exact(self):
        rep = treeopt.maximize_payoff_on_slice(0.0)
        assert rep.value == 3.0
        np.testing.assert_allclose(rep.point, (0.0, 1.0, 1.0), atol=1e-12)

    def test_pinned_slices(self):
        up = treeopt.maximize_payoff_on_slice(1.0)
        assert up.point == (1.0, 0.0, 1.0) and up.value == 1.0
        assert up.diagnostics["pinned"] is True
        down = treeopt.maximize_payoff_on_slice(-1.0)
        assert down.point == (0.0, 1.0, 0.0) and down.value == 3.0

    def test_reported_point_is_feasible(self):
        for rho in (0.75, 0.5, 0.25, 0.0, -0.25, -0.5, -0.75):
            rep = treeopt.maximize_payoff_on_slice(rho)
            p, q, r = rep.point
            assert abs(r - float(treeopt.surface(p, q, rho))) <= 1e-6
            assert bool(treeopt.region(p, q, rho))

    def test_negative_rho_edge_r_values(self):
        # at p -> 0 the optimal r equals 1 - rho^2 exactly
        for rho in (-0.25, -0.5, -0.75):
            rep = treeopt.maximize_payoff_on_slice(rho)
            assert rep.point[2] == pytest.approx(1.0 - rho * rho, abs=1e-9)

    def test_deterministic(self):
        a = treeopt.maximize_payoff_on_slice(0.5)
        b = treeopt.maximize_payoff_on_slice(0.5)
        assert a == b

    def test_coarse_grid_raises_convergence_failure(self):
        with pytest.raises(ConvergenceFailure):
            treeopt.maximize_payoff_on_slice(0.25, grid=51)

    def test_validation(self):
        with pytest.raises(OutOfRange):
            treeopt.maximize_payoff_on_slice(1.5)
        with pytest.raises(BadParams):
            treeopt.maximize_payoff_on_slice(0.5, grid=10)
        with pytest.raises(BadParams):
            treeopt.maximize_payoff_on_slice(0.5, grid=2.5)

    def test_diagnostics_fields(self):
        rep = treeopt.maximize_payoff_on_slice(0.5)
        for key in ("rho", "grid", "iterations", "boundary", "grid_value",
                    "disagreement"):
            assert key in rep.diagnostics
        assert rep.diagnostics["boundary"] is True
        assert rep.diagnostics["disagreement"] <= 1e-3
        assert rep.label == "rho=+0.5"
        assert rep.mode == "slice"


def _curve_maximum(rho: float) -> float:
    """Closed-form maximum of p + 3q(1 - p) on q = p/(p + k), p in [0, 1].

    The slope 1 + 3(k - 2pk - p^2)/(p + k)^2 vanishes at
    p = -k + sqrt(1.5 k (k + 1)) and is positive below it.
    """
    k = rho * rho / (1.0 - rho * rho)
    p = min(1.0, -k + math.sqrt(1.5 * k * (k + 1.0)))
    return p + 3.0 * p * (1.0 - p) / (p + k)


# about 60 slices across (-1, 1), with the two default-grid refusals
CLAIM_RHOS = sorted({round(x, 3) for x in np.linspace(-0.99, 0.99, 58)}
                    | {0.0, 0.13, 0.48})


class TestRefinementClaims:
    """The optimum lies on the bounding curve (rho > 0) or the corner."""

    def test_no_band_point_beats_the_refined_optimum(self):
        g = np.linspace(0.0, 1.0, 601)
        P, T = np.meshgrid(g, g, indexing="ij")
        for rho in CLAIM_RHOS:
            k = rho * rho / (1.0 - rho * rho)
            if rho > 0.0:
                Q = T * P / (P + k)
                best = _curve_maximum(rho)
            elif rho < 0.0:
                bound = 1.0 / (1.0 + P / k)
                Q = bound + T * (1.0 - bound)
                best = 3.0
            else:
                Q, best = T, 3.0
            excess = float(treeopt.slice_payoff(P, Q, rho).max()) - best
            assert excess <= 1e-9, f"rho={rho}: {excess:.3e} above"

    def test_refined_optimum_is_the_closed_form(self):
        for rho in CLAIM_RHOS:
            best = _curve_maximum(rho) if rho > 0.0 else 3.0
            try:
                value = treeopt.maximize_payoff_on_slice(rho).value
            except ConvergenceFailure as exc:
                value = float(re.search(r"refined optimum (\S+) ",
                                        str(exc)).group(1))
                assert value == pytest.approx(best, abs=1e-6), f"rho={rho}"
            else:
                # the region admits q up to 1e-9 past the bound
                assert value == pytest.approx(best, abs=1e-9), f"rho={rho}"


class TestSweep:
    def test_default_sweep_matches_table(self):
        result = treeopt.sweep()
        assert len(result.rows) == len(SWEEP_TABLE)
        for row, (rho, value, point) in zip(result.rows, SWEEP_TABLE):
            assert row.diagnostics["rho"] == rho
            assert row.value == pytest.approx(value, abs=1e-3)
            np.testing.assert_allclose(row.point, point, rtol=0, atol=2e-2)

    def test_global_best(self):
        result = treeopt.sweep()
        assert result.best.value == pytest.approx(3.0, abs=1e-9)
        # four slices tie at 3; the tie resolves to the most negative label
        assert result.best.diagnostics["rho"] == -1.0

    def test_to_dict_round_trip(self):
        result = treeopt.sweep()
        payload = dataclasses.asdict(result)
        assert [row["label"] for row in payload["rows"]] == [
            "rho=+1", "rho=+0.75", "rho=+0.5", "rho=+0.25", "rho=+0",
            "rho=-0.25", "rho=-0.5", "rho=-0.75", "rho=-1"]
        assert payload["best"]["label"] == "rho=-1"
        assert payload["best"]["value"] == pytest.approx(3.0)
