"""Dice payoff F = V^2 * E: values, optimizers, and the embedding conflict."""

import itertools
import math

import numpy as np
import pytest

from isograd.core import (
    Constrained,
    entropy_of_free,
    finite_difference,
    gradient,
    resolve,
    simplex_volume,
    xlogx,
)
from isograd import dice
from isograd.dice import (
    ALL_SPACES,
    COIN,
    SQUARE,
    TRIANGLE,
    maximize_constrained_target,
    maximize_per_space,
    maximize_unconstrained,
    objective_F,
)
from isograd.errors import InfeasiblePoint, NonFinite
from oracles import marginal_entropy_gradient

LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
LOG4 = math.log(4.0)


class TestSpaces:
    def test_embedding_constraint_counts(self):
        for space in ALL_SPACES:
            assert len(space.embedding) == 4 - space.sides

    def test_volumes(self):
        assert COIN.volume == 1.0
        assert TRIANGLE.volume == 0.5
        assert SQUARE.volume == simplex_volume(4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_face_point_rejects_non_finite(self, bad, slot):
        params = [0.2, 0.3]
        params[slot] = bad
        with pytest.raises(NonFinite, match=repr(bad)):
            TRIANGLE.face_point(params)


    def test_face_point_rejects_opposite_infinities(self):
        # the two would meet in math.fsum, which raises a bare ValueError
        with pytest.raises(NonFinite, match="inf"):
            TRIANGLE.face_point([math.inf, -math.inf])


class TestObjective:
    def test_coin_value(self):
        p = resolve((0.5, 0.5, 0.0, 0.0))
        assert objective_F(p, COIN) == pytest.approx(LOG2, abs=1e-12)

    def test_triangle_value(self):
        p = resolve((1 / 3, 1 / 3, 1 / 3, 0.0))
        assert objective_F(p, TRIANGLE) == pytest.approx(LOG3 / 4, abs=1e-12)

    def test_square_value(self):
        p = resolve((0.25, 0.25, 0.25, 0.25))
        assert objective_F(p, SQUARE) == pytest.approx(LOG4 / 36, abs=1e-12)

    def test_off_face_point_rejected(self):
        p = resolve((0.25, 0.25, 0.25, 0.25))
        with pytest.raises(InfeasiblePoint):
            objective_F(p, COIN)


class TestClosedFormGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        for sides in (2, 3, 4):
            for _ in range(100):
                p = rng.dirichlet(np.ones(sides)) * 0.9 + 0.05 / sides
                p = p / p.sum()
                free = p[:-1]
                got = marginal_entropy_gradient(free)
                ref = finite_difference(entropy_of_free, free)
                np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-7)


class TestDirectedGradient:
    """The slope along the coin line (a, 1 - a, 0, 0), read by the
    constrained engine on the Coin face, whose one tangent is DIR."""

    DIR = (1.0 / math.sqrt(2), -1.0 / math.sqrt(2), 0.0)

    def _payoff(self, free):
        return SQUARE.volume ** 2 * entropy_of_free(free)

    def _slope(self, a):
        res = gradient(self._payoff, resolve((a, 1 - a, 0.0, 0.0)),
                       Constrained(COIN.embedding))
        assert len(res.components) == 1
        return res.components[0]

    def test_slope_along_coin_line(self):
        # true directional derivative of V^2 E along (1,-1,0)/sqrt(2) at
        # (a, 1-a, 0, 0); the single-coordinate partials diverge there but the
        # difference is finite
        v2 = SQUARE.volume ** 2
        for a in (0.2, 0.35, 0.6, 0.8):
            want = v2 * math.log((1 - a) / a) / math.sqrt(2)
            np.testing.assert_allclose(self._slope(a), want, atol=1e-6)

    def test_optimum_at_half(self):
        assert self._slope(0.5) == pytest.approx(0.0, abs=1e-9)

    def test_agrees_with_constrained_engine_on_coin_face(self):
        # the coin face tangent is exactly this direction, so the constrained
        # engine's single component is the directed slope
        res = gradient(self._payoff, resolve((0.3, 0.7, 0.0, 0.0)),
                       Constrained(COIN.embedding))
        np.testing.assert_allclose(res.basis, (self.DIR,), rtol=0, atol=1e-15)
        want = SQUARE.volume ** 2 * math.log(0.7 / 0.3) / math.sqrt(2)
        np.testing.assert_allclose(res.components[0], want, rtol=1e-6,
                                   atol=1e-9)


class TestFaceConstraints:
    """The faces state their constraint gradients: c = 0 states e_2 and
    d = 1 - a - b - c = 0 states -(1, 1, 1)."""

    def test_basis_takes_no_function_evaluations(self, eval_calls):
        for space in ALL_SPACES:
            space.embedding.basis(space.live_uniform().free)
        assert eval_calls[0] == 0

    def test_coin_face_probes_stay_on_the_face(self):
        # with a differenced tangent a probe left the face by a rounding
        # error and the resolved cell d read -1.1e-16: a NaN entropy
        res = gradient(lambda x: SQUARE.volume ** 2 * entropy_of_free(x),
                       resolve((0.2, 0.8, 0, 0)), Constrained(COIN.embedding))
        assert res.kind == "finite"
        want = math.log(0.8 / 0.2) / (36 * math.sqrt(2))
        assert res.components[0] == pytest.approx(want, rel=0, abs=1e-10)


def _brute_force_grid(sides, n):
    """Lexicographically first composition of n of maximal entropy.

    Entropy log n - log(prod k^k) / n falls as the integer prod k^k grows,
    so comparing that product is exact.
    """
    comps = [c for c in itertools.product(range(n + 1), repeat=sides)
             if sum(c) == n]
    best = min(comps, key=lambda c: (math.prod(k ** k for k in c), c))
    entropy = -sum(k / n * math.log(k / n) for k in best if k)
    return tuple(k / n for k in best[:-1]), entropy


def _enumerated_grid(sides, n):
    """Reference: the enumeration of compositions that the max-plus search
    replaced, with the same table, lattice and lexicographic tie rule.

    The outer parts are looped in ascending order and the last one or two
    free parts are vectorized.
    """
    table = np.array([-xlogx(k / n) for k in range(n + 1)])
    score = np.rint(table * 2.0 ** 40).astype(np.int64)
    inner = min(sides - 1, 2)
    # the last `inner` free parts, sorted by their sum (lexicographically
    # within one sum), so the tuples summing to at most m form a prefix
    free = np.indices((n + 1,) * inner).reshape(inner, -1).T
    free = free[np.argsort(free.sum(axis=1), kind="stable")]
    used = free.sum(axis=1)
    free_score = score[free].sum(axis=1)
    best_score, best = -1, None
    for outer in itertools.product(range(n + 1), repeat=sides - 1 - inner):
        m = n - sum(outer)
        if m < 0:
            continue
        size = math.comb(m + inner, inner)
        chunk = free_score[:size] + score[m - used[:size]]
        peak = chunk.max()
        top = int(peak) + int(score[list(outer)].sum())
        if top > best_score:
            ties = np.flatnonzero(chunk == peak)
            last = min(tuple(int(v) for v in free[i]) for i in ties)
            best_score = top
            best = outer + last + (m - sum(last),)
    params = tuple(k / n for k in best[:-1])
    return params, float(table[list(best)].sum())


class TestEntropyGrid:
    @pytest.mark.parametrize("sides", [2, 3, 4])
    def test_matches_the_enumeration_bitwise(self, sides):
        for n in [*range(1, 61), 199, 200, 201]:
            params, value = dice._entropy_on_grid(sides, n)
            want_params, want_value = _enumerated_grid(sides, n)
            assert (params, value.hex()) == (want_params, want_value.hex()), \
                f"sides={sides} n={n}"

    @pytest.mark.parametrize("sides", [2, 3, 4])
    def test_matches_brute_force_enumeration(self, sides):
        for n in range(1, 13):
            params, value = dice._entropy_on_grid(sides, n)
            want_params, want_value = _brute_force_grid(sides, n)
            assert params == want_params, f"sides={sides} n={n}"
            assert value == pytest.approx(want_value, abs=1e-12)

    def test_ties_resolve_to_the_lexicographically_smallest_point(self):
        # 200 = 66 + 67 + 67 and its two other orders tie exactly
        params, _ = dice._entropy_on_grid(3, 200)
        assert params == (0.33, 0.335)


class TestMaximizers:
    def test_per_space_closed_forms(self):
        reports = maximize_per_space()
        values = {r.label: r.value for r in reports}
        assert values["Coin"] == pytest.approx(LOG2, abs=1e-12)
        assert values["Triangle"] == pytest.approx(LOG3 / 4, abs=1e-12)
        assert values["Square"] == pytest.approx(LOG4 / 36, abs=1e-12)
        points = {r.label: r.point for r in reports}
        np.testing.assert_allclose(points["Coin"], (0.5, 0.5, 0.0, 0.0),
                                   atol=1e-12)
        np.testing.assert_allclose(points["Triangle"],
                                   (1 / 3, 1 / 3, 1 / 3, 0.0), atol=1e-12)
        np.testing.assert_allclose(points["Square"], (0.25,) * 4, atol=1e-12)

    def test_overall_best_is_coin(self):
        reports = maximize_per_space()
        best = max(reports, key=lambda r: r.value)
        assert best.label == "Coin"
        ordered = sorted(reports, key=lambda r: r.value, reverse=True)
        assert [r.label for r in ordered] == ["Coin", "Triangle", "Square"]

    def test_constrained_target_matches_per_space(self):
        by_label = {r.label: r for r in maximize_per_space()}
        for rep in maximize_constrained_target():
            want = by_label[rep.label]
            assert rep.value == pytest.approx(want.value, abs=1e-8)
            np.testing.assert_allclose(rep.point, want.point, atol=1e-4)

    def test_unconstrained_searches_only_the_square(self, monkeypatch):
        sides = self._record_grid_sides(monkeypatch)
        maximize_unconstrained()
        assert sides == [4]

    def test_dice_command_searches_each_face_once(self, monkeypatch, capsys):
        from isograd import cli
        sides = self._record_grid_sides(monkeypatch)
        assert cli.main(["dice"]) == 0
        assert sides == [2, 3, 4]

    @staticmethod
    def _record_grid_sides(monkeypatch) -> list:
        sides, grid = [], dice._entropy_on_grid

        def recording(n, resolution):
            sides.append(n)
            return grid(n, resolution)
        monkeypatch.setattr(dice, "_entropy_on_grid", recording)
        return sides

    def test_unconstrained_lands_on_uniform(self):
        rep = maximize_unconstrained()
        assert rep.value == pytest.approx(LOG4 / 36, abs=1e-8)
        np.testing.assert_allclose(rep.point, (0.25,) * 4, atol=1e-4)
        assert rep.diagnostics["conflicts_with_constrained"] is True
        assert rep.diagnostics["best_constrained_label"] == "Coin"
