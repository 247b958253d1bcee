"""Tests of the benchmark's own references (they never import isograd).

    python3 -m pytest perfbench/test_references.py -q
"""

from __future__ import annotations

import math
import random

import mpmath as mp
import pytest

import references as ref

README_SWEEP = {          # tree-opt --sweep, as the project README prints it
    0.75: (1.03032, 0.813848, 0.387628),
    0.5: (1.40068, 0.483163, 0.591752),
    0.25: (2.02694, 0.259932, 0.795876),
}


# -- dice ---------------------------------------------------------------------

@pytest.mark.parametrize("label, value", [
    ("Coin", math.log(2)), ("Triangle", math.log(3) / 4),
    ("Square", math.log(4) / 36)])
def test_die_closed_forms(label, value):
    got, point = ref.die_optimum(label)
    assert got == pytest.approx(value, rel=1e-15)
    assert ref.die_payoff(label, point) == pytest.approx(value, rel=1e-15)
    assert sum(point) == pytest.approx(1.0)


@pytest.mark.parametrize("label", list(ref.DIE_SIDES))
def test_die_optimum_beats_random_face_points(label):
    n = ref.DIE_SIDES[label]
    best, _ = ref.die_optimum(label)
    rng = random.Random(7)
    for _ in range(200):
        w = [rng.random() for _ in range(n)]
        point = [v / sum(w) for v in w] + [0.0] * (4 - n)
        assert ref.die_payoff(label, point) <= best + 1e-15


# -- tree slices --------------------------------------------------------------

def test_slice_rho_09_stays_inside_the_unit_interval():
    value, (p, q, r) = ref.slice_maximum(0.9)
    assert value == pytest.approx(1.0, abs=1e-15)
    assert p == 1.0 and r == 1.0
    # the unbounded stationary point leaves [0, 1] and overstates the value
    k = 0.81 / 0.19
    p_free = math.sqrt(1.5 * k * (1 + k)) - k
    assert p_free > 1.0
    assert p_free + 3 * p_free / (p_free + k) * (1 - p_free) > 1.1


@pytest.mark.parametrize("rho", sorted(README_SWEEP))
def test_slice_matches_readme_sweep_rows(rho):
    value, (p, q, r) = ref.slice_maximum(rho)
    want_value, want_p, want_q = README_SWEEP[rho]
    assert f"{value:.6g}" == f"{want_value:.6g}"
    assert f"{p:.6g}" == f"{want_p:.6g}"
    assert f"{q:.6g}" == f"{want_q:.6g}"
    assert r == 1.0


@pytest.mark.parametrize("rho", [0.0, -0.25, -0.5, -0.75, -1.0, -0.3])
def test_slice_nonpositive_rho_reaches_three(rho):
    value, (p, q, r) = ref.slice_maximum(rho)
    assert value == 3.0 and (p, q) == (0.0, 1.0)
    assert r == pytest.approx(1 - rho * rho)
    assert ref.tree_payoff(p, q, r) == 3.0


def test_slice_rho_one_is_the_pinned_line():
    assert ref.slice_maximum(1.0) == (1.0, (1.0, 0.0, 1.0))


def test_slice_search_agrees_with_the_closed_form():
    for i in range(1, 100):
        rho = i / 100
        value, (p, q, r) = ref.slice_maximum(rho)
        assert value == pytest.approx(ref.slice_maximum_closed_form(rho),
                                      abs=1e-12)
        assert 0.0 <= p <= 1.0
        assert ref.tree_payoff(p, q, r) == pytest.approx(value, abs=1e-12)
        if 1e-3 < p < 1 - 1e-3:
            assert ref.tree_correlation(p, q, r) == pytest.approx(rho,
                                                                  abs=1e-9)


def test_sweep_best_is_the_most_negative_tie():
    assert ref.sweep_best_rho((1.0, 0.5, 0.0, -0.5, -1.0)) == -1.0


def test_tree_correlation_matches_behavioural_formula():
    rng = random.Random(3)
    for _ in range(100):
        p, q, r = (rng.uniform(0.05, 0.95) for _ in range(3))
        y = q + p * (r - q)
        want = math.sqrt(p * (1 - p)) * (r - q) / math.sqrt(y * (1 - y))
        assert ref.tree_correlation(p, q, r) == pytest.approx(want, rel=1e-12)


# -- game ---------------------------------------------------------------------

def test_game_headline_contrast():
    game = ref.game_reference()
    assert game["baseline"] == ((0.0, 1.0), (2.0, 2.0))
    assert game["chosen"] == 1.0
    assert game["regimes"][1.0] == ((1.0, 1.0), (4.0, 3.0))
    assert game["regimes"][-1.0] == ((0.0, 1.0), (2.0, 2.0))
    assert game["regimes"][0.0] == ((0.5, 0.5), (2.5, 2.5))


# -- joints -------------------------------------------------------------------

@pytest.mark.parametrize("family", ["correlated", "independent"])
def test_relations_vanish_on_their_family(family):
    rng = random.Random(11)
    with mp.workdps(ref.DPS):
        for _ in range(20):
            if family == "correlated":
                a = mp.mpf(rng.uniform(0.05, 0.95))
                x = [a, mp.mpf(0), mp.mpf(0)]
            else:
                px, py = (mp.mpf(rng.uniform(0.1, 0.9)) for _ in range(2))
                x = [(1 - px) * (1 - py), (1 - px) * py, px * (1 - py)]
            for f in ref.JOINT_RELATIONS[family].values():
                assert abs(f(ref.cells_of(x))) < mp.mpf("1e-50")


def test_correlated_limits():
    x, d = (0.3, 0.0, 0.0), (0.0, 1 / math.sqrt(2), 1 / math.sqrt(2))
    kind, grad = ref.joint_relation_reference("correlated", "<x>-<y>", x,
                                              "limit", d)
    assert kind == "finite" and grad == pytest.approx([0, -1, 1], abs=1e-12)
    kind, _ = ref.joint_relation_reference("correlated", "E_xy-E_x", x,
                                           "limit", d)
    assert kind == "diverging"
    kind, norm = ref.joint_relation_reference("correlated", "E_xy-E_x", x,
                                              "constrained")
    assert kind == "finite-norm" and norm < 1e-15


def test_independent_limit_of_the_covariance():
    # <xy> - <x><y> = ad - bc on the simplex; its gradient in (a, b, c)
    # with d resolved is (d - a, -a - c, -a - b)
    px, py = 0.3, 0.6
    cells = ((1 - px) * (1 - py), (1 - px) * py, px * (1 - py), px * py)
    kind, grad = ref.joint_relation_reference(
        "independent", "<xy>-<x><y>", cells[:3], "limit", (1.0, 0.0, 0.0))
    a, b, c, d = cells
    assert kind == "finite"
    assert grad == pytest.approx([d - a, -a - c, -a - b], abs=1e-12)


def test_fisher_matrices():
    (row,) = ref.fisher_matrix((0.5, 0, 0, 0.5), [0])
    assert row == pytest.approx([4.0])
    a, b, c, d = 0.4, 0.1, 0.2, 0.3
    got = ref.fisher_matrix((a, b, c, d), [0, 1, 2])
    want = [[(1 / v if i == j else 0.0) + 1 / d for j in range(3)]
            for i, v in enumerate((a, b, c))]
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-12)


# -- gaussian -----------------------------------------------------------------

@pytest.mark.parametrize("relation", ["P_xy-P_xP_y", "P_x|y-P_x"])
def test_gaussian_pointwise_slopes(relation):
    params = (0.3, -0.2, 1.1, 0.7)
    for i in (-1, 0, 1):
        for j in (-1, 0, 1):
            probe = (params[0] + i * params[2] + 0.1,
                     params[1] + j * params[3] - 0.2)
            assert ref.gaussian_rho_slope(relation, params, probe) == \
                pytest.approx(ref.gaussian_slope_closed_form(
                    relation, params, probe), rel=1e-12, abs=1e-15)


def test_gaussian_covariance_slope():
    params = (0.3, -0.2, 1.1, 0.7)
    assert ref.gaussian_rho_slope("<xy>-<x><y>", params) == pytest.approx(
        1.1 * 0.7, rel=1e-8)


# -- projections and the table ------------------------------------------------

def test_projected_norm_drops_the_normal_part():
    x = [0.3, 0.4, 0.5]
    normals = [[2 * v for v in x]]
    assert ref.projected_norm(x, normals) < 1e-40
    tangent = [0.4, -0.3, 0.0]
    assert ref.projected_norm(tangent, normals) == pytest.approx(0.5)
    assert ref.tangent_slope_norm(lambda v: 3 * v[0] - 4 * v[1], x,
                                  [[0, 0, 1]]) == pytest.approx(5.0)


def test_table_cell_matches_hand_derivative():
    # a - (a+b)(a+c) in behavioural coordinates is p(1-p)(r-q)
    sample = {"p": 0.3, "q": 0.6}
    kind, comps = ref.table_cell_reference("independent", "P(0,0)-Px(0)Py(0)",
                                           "P_B", sample)
    k = 0.3 * 0.7
    assert kind == "finite"
    assert comps == pytest.approx([0.0, -k, k], abs=1e-12)
    kind, comps = ref.table_cell_reference("correlated", "<y>", "P_B",
                                           {"p": 0.3})
    assert kind == "finite" and comps == pytest.approx([1.0, 0.7, 0.3])


def test_quadratic_gradient():
    a = [[1.0, 2.0, 0.0], [2.0, -1.0, 0.5], [0.0, 0.5, 3.0]]
    b = [0.1, 0.2, 0.3]
    x = [0.5, -0.5, 1.0]
    f = lambda v: 0.5 * sum(a[i][j] * v[i] * v[j] for i in range(3)
                            for j in range(3)) + sum(b[i] * v[i]
                                                     for i in range(3))
    assert ref.quadratic_gradient(a, b, x) == pytest.approx(
        [float(g) for g in ref.gradient(f, x)], abs=1e-15)
