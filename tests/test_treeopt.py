"""Tests for the correlation-slice geometry and tree-payoff optimizers."""

import dataclasses
import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

from isograd import core, treeopt
from isograd.core import Constrained, ConstraintSet
from isograd.errors import (
    BadParams,
    ConvergenceFailure,
    InfeasiblePoint,
    NonFinite,
    OutOfRange,
)
from isograd.jointbinary import correlation_of_joint
from isograd.strategy import behavioural_joint_cells

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
    return correlation_of_joint(behavioural_joint_cells((p, q, r)))


def _region(p, q, rho: float):
    """Mask of the permissible (p, q) pairs of one slice, as
    :func:`treeopt.surface_points` and :func:`treeopt.slice_payoff` read it."""
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    return treeopt._mask(p, q, treeopt.surface(p, q, rho), rho)


def _agreement(z) -> float:
    """Probability that the two stage outcomes coincide: the diagonal mass
    (1 - p)(1 - q) + pr."""
    p, q, r = z
    return (1.0 - p) * (1.0 - q) + p * r


class TestRootBranches:
    def test_rho_zero_collapses_to_q(self):
        p = np.linspace(0.01, 0.99, 50)
        q = np.linspace(0.0, 1.0, 50)
        for pi in p:
            for qi in q:
                assert abs(treeopt.surface(pi, qi, 0.0) - qi) < 1e-12

    def test_known_exact_value(self):
        # the discriminant is a perfect square here: r = 3/4 exactly
        assert treeopt.surface(0.5, 0.25, 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_root_recovers_target_correlation(self):
        r = treeopt.surface(0.5, 0.25, 0.5)
        assert abs(_correlation(0.5, 0.25, r) - 0.5) < 1e-8

    def test_correlation_recovery_across_band(self):
        rng = np.random.default_rng(42)
        for rho in (0.75, 0.5, 0.25, -0.25, -0.5, -0.75):
            p = rng.uniform(0.01, 0.99, size=10_000)
            u = rng.uniform(0.005, 0.995, size=10_000)
            worst = 0.0
            for pi, ui in zip(p, u):
                b = treeopt._bound_clamped(pi, rho)
                qi = ui * b if rho > 0 else b + ui * (1.0 - b)
                r = treeopt.surface(pi, qi, rho)
                worst = max(worst, abs(_correlation(pi, qi, r) - rho))
            assert worst < 1e-8, f"rho={rho}: worst recovery error {worst}"

    def test_minus_branch_mirrors_plus(self):
        # the lower root at rho is the surface at -rho: correlation -rho
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(50):
            p = rng.uniform(0.05, 0.95)
            rho = rng.uniform(0.05, 0.95)
            q = rng.uniform(0.01, 0.99) * treeopt._bound_clamped(p, rho)
            lo = treeopt.surface(p, q, -rho)
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
                assert treeopt.surface(p, 1.0, rho) == pytest.approx(
                    1.0, abs=1e-12)

    def test_extreme_rho_is_finite(self):
        assert treeopt.surface(0.5, 0.25, 1.0) >= 1.0
        assert treeopt.surface(0.5, 0.25, -1.0) <= 0.0

    def test_singular_p(self):
        # the root is singular at p in {0, 1}: the surface reads it at p
        # clipped _P_EDGE inside, where it is finite
        for p, inside in ((0.0, treeopt._P_EDGE), (1.0, 1.0 - treeopt._P_EDGE)):
            r = treeopt.surface(p, 0.5, 0.5)
            assert np.isfinite(r)
            assert r == treeopt.surface(inside, 0.5, 0.5)

    def test_out_of_range_arguments(self):
        # p and q outside [0, 1] are clipped into it; rho outside [-1, 1] is
        # refused
        assert treeopt.surface(-0.1, 0.5, 0.5) == treeopt.surface(0.0, 0.5, 0.5)
        assert treeopt.surface(0.5, 1.1, 0.5) == treeopt.surface(0.5, 1.0, 0.5)
        with pytest.raises(OutOfRange):
            treeopt.surface(0.5, 0.5, 1.0001)


class TestPermissibleBound:
    def test_positive_rho_example(self):
        # p/(p + 1/3) at p = 0.4831; the rho=+0.5 optimum sits on this curve
        assert treeopt._bound_clamped(0.4831, 0.5) == pytest.approx(
            0.5917, abs=1e-4)

    def test_negative_rho_at_p_one(self):
        assert treeopt._bound_clamped(1.0, -0.5) == pytest.approx(
            0.25, abs=1e-12)

    def test_small_rho_limit_fills_square(self):
        for p in (0.01, 0.3, 0.99):
            assert treeopt._bound_clamped(p, 1e-6) == pytest.approx(
                1.0, abs=1e-5)

    def test_near_unit_rho_pins_q_to_zero(self):
        for p in (0.1, 0.5, 0.9):
            assert treeopt._bound_clamped(p, 0.9999) < 1e-3

    def test_bound_separates_range_success_from_violation(self):
        rng = np.random.default_rng(7)
        for rho in (0.6, -0.35):
            p = rng.uniform(0.02, 0.98, size=400)
            q = rng.uniform(0.0, 1.0, size=400)
            for pi, qi in zip(p, q):
                b = treeopt._bound_clamped(pi, rho)
                r = treeopt.surface(pi, qi, rho)
                inside = qi <= b - 1e-6 if rho > 0 else qi >= b + 1e-6
                outside = qi >= b + 1e-6 if rho > 0 else qi <= b - 1e-6
                if inside:
                    assert -1e-9 <= r <= 1.0 + 1e-9
                elif outside:
                    assert not -1e-9 <= r <= 1.0 + 1e-9

    def test_singular_rho(self):
        # at rho = 0 there is no bounding curve: every q in [0, 1] passes
        assert _region(0.5, np.linspace(0.0, 1.0, 11), 0.0).all()

    def test_domain_validation(self):
        # p is clipped into [_P_EDGE, 1], so the bound is finite at p = 0
        assert treeopt._bound_clamped(0.0, 0.5) == treeopt._bound_clamped(
            treeopt._P_EDGE, 0.5)
        assert treeopt._bound_clamped(1.2, 0.5) == treeopt._bound_clamped(
            1.0, 0.5)


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
            mask = _region(P, Q, rho)
            assert mask.any()
            r = treeopt.surface(P, Q, rho)[mask]
            assert r.min() >= -1e-9 and r.max() <= 1.0 + 1e-9

    def test_region_excludes_degenerate_top_edge(self):
        assert not _region(0.3, 1.0, 0.5)
        # for negative rho the top edge is a genuine part of the band
        assert _region(0.3, 1.0, -0.5)

    def test_region_excludes_degenerate_bottom_edge_for_negative_rho(self):
        assert not _region(0.3, 0.0, -0.5)
        assert _region(0.3, 0.0, 0.5)

    def test_region_tolerance_edges(self):
        # p is accepted up to 1e-9 past each edge of [0, 1], not further
        p = np.array([-1e-9, 1.0 + 1e-9, -1.1e-9, 1.0 + 1.1e-9, 0.0, 1.0])
        np.testing.assert_array_equal(_region(p, 0.5, 0.0),
                                      [True, True, False, False, True, True])

    def test_validation(self):
        with pytest.raises(OutOfRange):
            treeopt.surface(0.3, 0.5, 1.5)
        with pytest.raises(OutOfRange):
            treeopt.surface_points(-1.5)


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

    def test_unconstrained_matches_ambient_engine(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            p, q, r = rng.uniform(0.05, 0.95, size=3)
            g = core.finite_difference(_agreement, np.array([p, q, r]))
            engine = 1.0 - float(np.dot(g, g))
            assert treeopt.discrepancy_payoff(p, q, r) == pytest.approx(
                engine, abs=1e-9)

    def test_constrained_matches_pinned_engine(self):
        for p in (0.0, 0.37, 1.0):
            res = core.gradient(_agreement, np.array([p, 0.0, 1.0]),
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

    @pytest.mark.parametrize("mode", ["unconstrained", "constrained"])
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_non_finite_input_is_rejected(self, mode, slot):
        # abs(nan) > RANGE_TOL is False, so a NaN got past the pin check
        for bad in (math.nan, math.inf):
            point = [0.5, 0.0, 1.0]
            point[slot] = bad
            with pytest.raises(NonFinite):
                treeopt.discrepancy_payoff(*point, mode)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_is_rejected(self, bad):
        # a NaN fails every mask test, so without the check it read as 0
        for p, q in ((bad, 0.5), (0.5, bad), (np.array([[0.2], [bad]]),
                                              np.array([[0.1, 0.3]]))):
            with pytest.raises(NonFinite):
                treeopt.slice_payoff(p, q, 0.5)

    def test_value_on_bound_curve(self):
        p = 0.4831
        q = treeopt._bound_clamped(p, 0.5)
        assert treeopt.slice_payoff(p, q, 0.5) == pytest.approx(1.40068, abs=1e-3)

    @pytest.mark.parametrize("q", [1.0 + 1e-9, -1e-9])
    def test_tolerance_band_is_finite(self, q):
        # region accepts q up to RANGE_TOL outside [0, 1]; the payoff there
        # reads the surface at the clipped q (no sqrt of a negative, no NaN)
        assert _region(0.5, q, 0.0)
        value = treeopt.slice_payoff(0.5, q, 0.0)
        assert math.isfinite(value)
        edge = treeopt.slice_payoff(0.5, min(max(q, 0.0), 1.0), 0.0)
        assert value == pytest.approx(edge, abs=1e-8)

    @pytest.mark.parametrize("rho", [0.75, 0.5, 0.13, 0.0, -0.25, -0.75])
    def test_mesh_bitwise_unchanged_by_q_clip(self, rho):
        # the optimizer's sparse 401^2 mesh never leaves [0, 1], so clipping
        # q changes no bit of the payoff there
        g = np.linspace(0.0, 1.0, 401)
        P, Q = np.meshgrid(g, g, indexing="ij", sparse=True)
        R = treeopt._branch_raw(np.clip(P, treeopt._P_EDGE,
                                        1.0 - treeopt._P_EDGE), Q, rho)
        unclipped = np.where(treeopt._mask(P, Q, R, rho),
                             2.0 * P + 3.0 * Q - 3.0 * P * Q - P * R, 0.0)
        V = treeopt.slice_payoff(P, Q, rho)
        assert V.tobytes() == unclipped.tobytes()


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
            assert bool(_region(p, q, rho))

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


# the claim slices plus the smallest and most extreme correlations
BLOCK_RHOS = sorted(set(CLAIM_RHOS) | {0.003, 0.01, 0.999, -0.999})


@functools.cache
def _one_shot_grid_maximum(grid: int, rho: float) -> tuple[float, int, int]:
    """The reference: first maximum in C order of one whole-mesh call."""
    g = np.linspace(0.0, 1.0, grid)
    P, Q = np.meshgrid(g, g, indexing="ij", sparse=True)
    V = treeopt.slice_payoff(P, Q, rho)
    i, j = np.unravel_index(int(np.argmax(V)), V.shape)
    return float(V[i, j]), int(i), int(j)


class TestGridMaximum:
    """Row blocks over the feasible band find the whole mesh's maximum."""

    # the default blocks end in a partial block at 401 (1 row) and 803 (3
    # rows); the forced sizes run on the small grids, where one-row blocks
    # cost a call per row
    @pytest.mark.parametrize("grid, block", [
        (11, "default"), (51, "default"), (401, "default"), (803, "default"),
        (11, "one row"), (51, "one row"),
        (11, "partial last"), (51, "partial last")])
    def test_blocks_match_the_whole_mesh_bitwise(self, grid, block,
                                                 monkeypatch):
        nodes = {"default": treeopt._BLOCK_NODES, "one row": 1,
                 "partial last": 2 * grid + 1}[block]  # 2 rows, grid is odd
        monkeypatch.setattr(treeopt, "_BLOCK_NODES", nodes)
        g = np.linspace(0.0, 1.0, grid)
        for rho in BLOCK_RHOS:
            value, i, j = treeopt._grid_maximum(g, rho)
            ref_value, ref_i, ref_j = _one_shot_grid_maximum(grid, rho)
            assert (value.hex(), i, j) == (ref_value.hex(), ref_i, ref_j), \
                f"rho={rho}"

    @pytest.mark.parametrize("grid, nodes",
                             [(51, 1), (51, 2 * 51 + 1), (401, None)])
    def test_skipped_nodes_are_off_region(self, grid, nodes, monkeypatch):
        # every node no block evaluates, off the band or in a block the row
        # bound skips, reads strictly below the grid maximum
        if nodes is not None:
            monkeypatch.setattr(treeopt, "_BLOCK_NODES", nodes)
        g = np.linspace(0.0, 1.0, grid)
        P, Q = np.meshgrid(g, g, indexing="ij", sparse=True)
        real, blocks = treeopt.slice_payoff, []
        monkeypatch.setattr(treeopt, "slice_payoff", lambda p, q, rho: (
            blocks.append((p, q)), real(p, q, rho))[1])
        for rho in BLOCK_RHOS:
            blocks.clear()
            value = treeopt._grid_maximum(g, rho)[0]
            seen = np.zeros((grid, grid), dtype=bool)
            for p, q in blocks:
                seen[np.ix_(np.searchsorted(g, p.ravel()),
                            np.searchsorted(g, q.ravel()))] = True
            assert (real(P, Q, rho)[~seen] < value).all(), f"rho={rho}"
            if rho != 0.0:
                assert not seen.all(), f"rho={rho}: nothing trimmed"

    @pytest.mark.parametrize("grid", [401, 801])
    def test_non_positive_rho_evaluates_only_the_corner_block(self, grid,
                                                              monkeypatch):
        # the corner (0, 1) reads 3, and every later row's bound is below 3
        g = np.linspace(0.0, 1.0, grid)
        real, blocks = treeopt.slice_payoff, []
        monkeypatch.setattr(treeopt, "slice_payoff", lambda p, q, rho: (
            blocks.append(p), real(p, q, rho))[1])
        for rho in (0.0, -0.003, -0.25, -0.999):
            blocks.clear()
            assert treeopt._grid_maximum(g, rho) == (3.0, 0, grid - 1)
            assert len(blocks) == 1, f"rho={rho}: {len(blocks)} blocks"
            assert blocks[0][0, 0] == 0.0, f"rho={rho}"

    def test_ties_keep_the_first_block(self, monkeypatch):
        monkeypatch.setattr(treeopt, "_BLOCK_NODES", 1)
        monkeypatch.setattr(treeopt, "slice_payoff", lambda p, q, rho:
                            np.ones(np.broadcast_shapes(p.shape, q.shape)))
        assert treeopt._grid_maximum(np.linspace(0.0, 1.0, 11), 0.5) == \
            (1.0, 0, 0)

    def test_grid_801_slice_peak_memory(self):
        treeopt.maximize_payoff_on_slice(0.5, grid=801)  # loads the polish
        tracemalloc.start()
        try:
            treeopt.maximize_payoff_on_slice(0.5, grid=801)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # evaluated as one 801 x 801 mesh, the grid peaks at 15.3 MiB
        assert peak < 2 * 2**20


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
