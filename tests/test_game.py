"""Tests for the two-stage game solvers and the coupling comparison."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from isograd.errors import BadParams, UnsupportedRho
from isograd.game import (
    DEFAULT_GAME,
    GameSpec,
    PayoffForm,
    backward_induction,
    global_comparison,
    solve_slice,
)

DEVIATION_GRID = np.linspace(0.0, 1.0, 101)


def _is_mutual_best_response(game: GameSpec, p: float, q: float) -> bool:
    x_best = max(game.x_payoff(pp, q) for pp in DEVIATION_GRID)
    y_best = max(game.y_payoff(p, qq) for qq in DEVIATION_GRID)
    return (game.x_payoff(p, q) >= x_best - 1e-9
            and game.y_payoff(p, q) >= y_best - 1e-9)


class TestPayoffForm:
    def test_evaluation(self):
        form = PayoffForm(3.0, -2.0, -1.0, 4.0)
        assert form(0, 0) == 3.0
        assert form(1, 1) == 4.0
        assert form(0.5, 0.5) == pytest.approx(3.0 - 1.0 - 0.5 + 1.0)

    def test_coefficients_round_trip(self):
        assert dataclasses.astuple(PayoffForm(1, 2, 3, 4)) == (1.0, 2.0, 3.0,
                                                               4.0)

    def test_rejects_non_finite(self):
        with pytest.raises(BadParams):
            PayoffForm(math.inf, 0, 0, 0)
        with pytest.raises(BadParams):
            PayoffForm(0, math.nan, 0, 0)

    @pytest.mark.parametrize("bad", ["x", "3", None, True, 1j])
    def test_rejects_a_non_number(self, bad):
        with pytest.raises(BadParams, match="must be a real number"):
            PayoffForm(bad, 0, 0, 0)

    def test_stores_floats(self):
        assert [type(v) for v in dataclasses.astuple(
            PayoffForm(1, 2, np.int64(3), 4.0))] == [float] * 4

    @pytest.mark.parametrize("coefficients", [
        (1e308, 1e308, 1e308, 0.0),      # +inf at (0, 1), (1, 0), (1, 1)
        (0.0, -1e308, 0.0, -1e308),      # -inf at (1, 1) only
        (-1e308, 0.0, -1e308, 0.0),      # -inf at (0, 1) and (1, 1)
    ])
    def test_rejects_a_pure_payoff_that_overflows(self, coefficients):
        # an infinite payoff would make a reply read inf - inf as a tie
        with pytest.raises(BadParams, match="not finite"):
            PayoffForm(*coefficients)

    def test_default_game_coefficients(self):
        assert dataclasses.astuple(DEFAULT_GAME.x_payoff) == (3.0, -2.0, -1.0,
                                                              4.0)
        assert dataclasses.astuple(DEFAULT_GAME.y_payoff) == (1.0, 3.0, 1.0,
                                                              -2.0)


class TestBackwardInduction:
    def test_default_game(self):
        outcome = backward_induction()
        assert outcome.strategy == (0.0, 1.0)
        assert outcome.payoffs == (2.0, 2.0)
        assert outcome.kind == "pure"
        assert outcome.label == "unconstrained"

    def test_dominant_strategies(self):
        game = GameSpec(x_payoff=PayoffForm(0, 1, 0, 0),
                        y_payoff=PayoffForm(0, 0, 1, 0))
        outcome = backward_induction(game)
        assert outcome.strategy == (1.0, 1.0)
        assert outcome.payoffs == (1.0, 1.0)

    def test_zero_payoffs_tie_break(self):
        game = GameSpec(x_payoff=PayoffForm(0, 0, 0, 0),
                        y_payoff=PayoffForm(0, 0, 0, 0))
        outcome = backward_induction(game)
        assert outcome.strategy == (0.0, 0.0)

    def test_payoffs_match_forms(self):
        outcome = backward_induction()
        x, y = outcome.strategy
        assert outcome.payoffs == (DEFAULT_GAME.x_payoff(x, y),
                                   DEFAULT_GAME.y_payoff(x, y))


class TestSolveSlice:
    def test_identified_actions(self):
        outcome = solve_slice(DEFAULT_GAME, 1.0)
        assert outcome.label == "rho=+1"
        assert outcome.kind == "pure"
        assert outcome.strategy == (1.0, 1.0)
        assert outcome.payoffs == (4.0, 3.0)

    def test_opposed_actions(self):
        outcome = solve_slice(DEFAULT_GAME, -1.0)
        assert outcome.strategy == (0.0, 1.0)
        assert outcome.payoffs == (2.0, 2.0)

    def test_independent_mixing(self):
        outcome = solve_slice(DEFAULT_GAME, 0.0)
        assert outcome.kind == "mixed"
        assert outcome.strategy == (0.5, 0.5)
        assert outcome.payoffs == (2.5, 2.5)

    def test_unsupported_rho(self):
        for rho in (0.5, -0.3, 2.0):
            with pytest.raises(UnsupportedRho):
                solve_slice(DEFAULT_GAME, rho)

    @pytest.mark.parametrize("rho", ["1", "a", True, None], ids=repr)
    def test_rho_must_be_a_real_number(self, rho):
        # float() read "1" and True as the rho = +1 slice
        with pytest.raises(BadParams, match="rho must be a real number"):
            solve_slice(DEFAULT_GAME, rho)

    def test_payoffs_match_forms_on_all_slices(self):
        for rho in (-1.0, 0.0, 1.0):
            outcome = solve_slice(DEFAULT_GAME, rho)
            sx, sy = outcome.strategy
            assert outcome.payoffs == (DEFAULT_GAME.x_payoff(sx, sy),
                                       DEFAULT_GAME.y_payoff(sx, sy))

    def test_interior_stationary_point_is_mutual_best_response(self):
        rng = np.random.default_rng(42)
        interior_seen = 0
        fallback_seen = 0
        for _ in range(100):
            cx = rng.uniform(-5.0, 5.0, size=4)
            cy = rng.uniform(-5.0, 5.0, size=4)
            game = GameSpec(x_payoff=PayoffForm(*cx), y_payoff=PayoffForm(*cy))
            outcome = solve_slice(game, 0.0)
            p, q = outcome.strategy
            assert 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0
            assert _is_mutual_best_response(game, p, q)
            if 0.0 < p < 1.0 or 0.0 < q < 1.0:
                interior_seen += 1
            else:
                fallback_seen += 1
        # the draw must exercise both solver branches to mean anything
        # (with this seed: 4 interior stationary points, 96 boundary plays)
        assert interior_seen >= 3
        assert fallback_seen >= 50

    def test_outcome_is_mutual_best_response_on_coefficient_grid(self):
        # every slope sign pattern, with zero slopes and roots on 0 and 1
        values = np.linspace(-3.0, 3.0, 9)
        for xcx, xcxy, ycy, ycxy in itertools.product(values, repeat=4):
            game = GameSpec(x_payoff=PayoffForm(0.0, xcx, 1.0, xcxy),
                            y_payoff=PayoffForm(0.0, 1.0, ycy, ycxy))
            p, q = solve_slice(game, 0.0).strategy
            assert _is_mutual_best_response(game, p, q), (xcx, xcxy, ycy, ycxy)

    def test_boundary_fallback_when_roots_leave_the_square(self):
        # X's indifference root sits at q = 5 > 1: no interior equilibrium
        game = GameSpec(x_payoff=PayoffForm(0.0, -5.0, 0.0, 1.0),
                        y_payoff=PayoffForm(0.0, 0.0, 1.0, 0.0))
        outcome = solve_slice(game, 0.0)
        assert outcome.strategy == (0.0, 1.0)
        assert _is_mutual_best_response(game, *outcome.strategy)


class TestGlobalComparison:
    def test_default_game_picks_full_coupling(self):
        table, chosen = global_comparison()
        assert [o.label for o in table] == ["rho=-1", "rho=0", "rho=+1"]
        assert [o.payoffs for o in table] == [(2.0, 2.0), (2.5, 2.5), (4.0, 3.0)]
        assert chosen.label == "rho=+1"
        assert chosen.payoffs == (4.0, 3.0)

    def test_headline_contrast_with_backward_induction(self):
        baseline = backward_induction()
        _, chosen = global_comparison()
        assert baseline.payoffs == (2.0, 2.0)
        assert chosen.payoffs == (4.0, 3.0)
        assert baseline.payoffs != chosen.payoffs

    def test_game_where_independence_dominates(self):
        # Y's indifference root p*=1/2 pays Y 2.5 mixed, while X's slopes
        # push both pure couplings toward outcomes worth at most 2 to Y
        game = GameSpec(x_payoff=PayoffForm(0.0, -2.0, -1.5, 3.0),
                        y_payoff=PayoffForm(0.0, 5.0, 2.0, -4.0))
        table, chosen = global_comparison(game)
        assert chosen.label == "rho=0"
        assert chosen.payoffs[1] == pytest.approx(2.5)
        assert all(o.payoffs[1] < 2.5 for o in table if o.label != "rho=0")

    def test_tie_breaks_toward_smallest_rho(self):
        game = GameSpec(y_payoff=PayoffForm(2.0, 0.0, 0.0, 0.0))
        table, chosen = global_comparison(game)
        assert all(o.payoffs[1] == 2.0 for o in table)
        assert chosen.label == "rho=-1"

    def test_outcome_serialization(self):
        _, chosen = global_comparison()
        payload = dataclasses.asdict(chosen)
        assert payload == {"label": "rho=+1", "kind": "pure",
                           "strategy": (1.0, 1.0), "payoffs": (4.0, 3.0)}
