"""Core simplex types and the two gradient semantics."""

import math

import numpy as np
import pytest

from isograd.core import (
    ConstraintSet,
    DEFAULT_LADDER,
    MODES,
    Constrained,
    GradientResult,
    Limit,
    ProbVector,
    _null_space,
    directed_gradient,
    entropy,
    entropy_of_cells,
    entropy_of_free,
    finite_difference,
    gradient,
    mode_named,
    resolve,
    simplex_volume,
    xlogx,
)
from isograd.errors import (
    BadDimension,
    DomainError,
    InfeasiblePoint,
    NonFinite,
    NotNormalized,
    OutOfRange,
    PreconditionError,
)

SQRT2 = math.sqrt(2.0)


def joint_entropy(free):
    """Entropy of a 4-outcome point as a function of its 3 free coords."""
    return entropy_of_free(free)


class TestResolve:
    def test_coin_point(self):
        pv = resolve((0.5, 0.5))
        assert pv.free == (0.5,)
        assert pv.resolved_index == 1
        assert pv.resolved == 0.5

    def test_uniform_square(self):
        pv = resolve((0.25, 0.25, 0.25, 0.25))
        assert pv.free == (0.25, 0.25, 0.25)
        assert pv.resolved_index == 3

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            resolve((0.3, 0.3, 0.3))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            resolve((1.5, -0.5))
        with pytest.raises(OutOfRange):
            resolve((-1e-6, 0.5, 0.5 + 1e-6))

    def test_tiny_noise_is_cleaned(self):
        # inputs inside the 1e-9 normalization tolerance resolve cleanly
        pv = resolve((0.3, 0.7 + 3e-10))
        assert abs(sum(pv.probs) - 1.0) <= 1e-12
        pv = resolve((-5e-13, 0.4, 0.6))
        assert pv.probs[0] == 0.0

    def test_too_small(self):
        with pytest.raises(BadDimension):
            resolve((1.0,))

    def test_with_free_roundtrip(self):
        pv = resolve((0.2, 0.3, 0.1, 0.4))
        again = pv.with_free(pv.free)
        np.testing.assert_allclose(again.probs, pv.probs, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 3])
    def test_non_finite_rejected(self, bad, slot):
        point = [0.3, 0.0, 0.0, 0.7]
        point[slot] = bad
        with pytest.raises(NonFinite, match=repr(bad)):
            resolve(point)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_prob_vector_rejects_non_finite(self, bad):
        with pytest.raises(NonFinite, match=repr(bad)):
            ProbVector((0.5, bad), 1)


class TestSimplexScalars:
    def test_volumes(self):
        assert simplex_volume(2) == 1.0
        assert simplex_volume(3) == 0.5
        assert simplex_volume(4) == pytest.approx(1.0 / 6.0, abs=0)

    def test_volume_factorial_identity_exact(self):
        for n in range(2, 9):
            assert simplex_volume(n) * math.factorial(n - 1) == 1.0

    def test_bad_dimension(self):
        for bad in (1, 0, -3):
            with pytest.raises(BadDimension):
                simplex_volume(bad)

    def test_entropy_values(self):
        assert entropy(resolve((0.5, 0.5))) == pytest.approx(math.log(2), abs=1e-15)
        assert entropy(resolve((1.0, 0.0))) == 0.0
        assert entropy((0.25, 0.25, 0.25, 0.25)) == pytest.approx(
            math.log(4), abs=1e-15)

    def test_entropy_uniform_is_maximum(self):
        rng = np.random.default_rng(42)
        for n in range(2, 9):
            top = entropy(np.full(n, 1.0 / n))
            for _ in range(200):
                p = rng.dirichlet(np.ones(n))
                assert entropy(p) <= top


class TestFiniteDifference:
    def test_coin_entropy_slope(self):
        # d/da [-a log a - (1-a) log(1-a)] = -log(a/(1-a))
        f = lambda x: entropy_of_free(x)
        got = finite_difference(f, resolve((0.3, 0.7)))
        np.testing.assert_allclose(got, [-math.log(0.3 / 0.7)], atol=1e-6)

    def test_polynomial_gradient(self):
        f = lambda x: x[0] ** 2 + 3.0 * x[0] * x[1]
        got = finite_difference(f, np.array([0.2, 0.4]))
        np.testing.assert_allclose(got, [2 * 0.2 + 3 * 0.4, 3 * 0.2], atol=1e-9)

    def test_domain_error(self):
        f = lambda x: math.log(x[0])
        with pytest.raises(DomainError):
            finite_difference(f, np.array([0.0]))

    def test_non_finite_value_is_a_domain_error(self):
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError, match="not finite"):
                finite_difference(lambda x: value, np.array([0.5]))


class TestDirectedGradient:
    def test_requires_unit_direction(self):
        f = lambda x: float(x.sum())
        with pytest.raises(PreconditionError):
            directed_gradient(f, np.array([0.5, 0.5]), (0.0, 0.0))
        with pytest.raises(PreconditionError):
            directed_gradient(f, np.array([0.5, 0.5]), (1.0, 1.0))

    def test_matches_dot_product_in_interior(self):
        rng = np.random.default_rng(42)
        f = lambda x: entropy_of_free(x)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
            p = p / p.sum()
            x = p[:3]
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            expect = float(finite_difference(f, x) @ d)
            got = directed_gradient(f, x, d)
            np.testing.assert_allclose(got, expect, rtol=1e-6, atol=1e-9)

    def test_entropy_slope_along_coin_line(self):
        # full entropy along (1,-1,0)/sqrt(2) through (a, 1-a, 0, 0):
        # the slope is log((1-a)/a)/sqrt(2) even though single-coordinate
        # partials blow up on this face (d = 0)
        d = (1.0 / SQRT2, -1.0 / SQRT2, 0.0)
        for a in (0.2, 0.3, 0.5, 0.7):
            got = directed_gradient(joint_entropy, np.array([a, 1 - a, 0.0]), d)
            np.testing.assert_allclose(
                got, math.log((1 - a) / a) / SQRT2, atol=1e-6)
            assert directed_gradient(
                joint_entropy, np.array([0.5, 0.5, 0.0]), d) == pytest.approx(
                    0.0, abs=1e-9)


class TestConstrainedGradient:
    def test_pinned_face_slope(self):
        # joint entropy restricted to b=c=0 leaves one component, -log(a/(1-a))
        cs = ConstraintSet.pin({1: 0.0, 2: 0.0}, "b=c=0")
        res = gradient(joint_entropy, resolve((0.5, 0.0, 0.0, 0.5)),
                       Constrained(cs))
        assert res.kind == "finite"
        assert len(res.components) == 1
        np.testing.assert_allclose(res.components, [0.0], atol=1e-9)

        res = gradient(joint_entropy, resolve((0.3, 0.0, 0.0, 0.7)),
                       Constrained(cs))
        np.testing.assert_allclose(
            res.components, [-math.log(0.3 / 0.7)], atol=1e-6)
        # the surviving tangent direction is the a axis
        np.testing.assert_allclose(res.basis[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_infeasible_point_rejected(self):
        cs = ConstraintSet.pin({1: 0.0, 2: 0.0}, "b=c=0")
        with pytest.raises(InfeasiblePoint):
            gradient(joint_entropy, resolve((0.25, 0.25, 0.25, 0.25)),
                     Constrained(cs))

    def test_dimension_drops_by_rank_not_count(self):
        # duplicated constraint counts once
        cs = ConstraintSet((
            (lambda x: float(x[1]), 0.0),
            (lambda x: float(2.0 * x[1]), 0.0),
        ), "b=0 twice")
        res = gradient(joint_entropy, resolve((0.3, 0.0, 0.2, 0.5)),
                       Constrained(cs))
        assert len(res.components) == 2

    def test_empty_constraints_match_finite_difference(self):
        rng = np.random.default_rng(42)
        f = lambda x: entropy_of_free(x)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4)) * 0.9 + 0.025
            p = p / p.sum()
            res = gradient(f, p[:3], Constrained(ConstraintSet.empty()))
            fd = finite_difference(f, p[:3])
            np.testing.assert_allclose(res.components, fd, rtol=1e-5, atol=1e-10)

    def test_tangential_derivative_on_curved_manifold(self):
        # f == 0 on {ad = bc}: every tangential component vanishes
        cs = ConstraintSet((
            (lambda x: float(x[0] * (1 - x[0] - x[1] - x[2]) - x[1] * x[2]), 0.0),
        ), "ad=bc")
        f = lambda x: float(x[0] * (1 - x[0] - x[1] - x[2]) - x[1] * x[2])
        res = gradient(f, resolve((0.25, 0.25, 0.25, 0.25)), Constrained(cs))
        assert len(res.components) == 2
        np.testing.assert_allclose(res.components, [0.0, 0.0], atol=1e-8)


class TestLimitGradient:
    DIVE_DIR = (0.0, 1.0 / SQRT2, 1.0 / SQRT2)

    def test_entropy_ladder_diverges(self):
        res = gradient(joint_entropy, resolve((0.5, 0.0, 0.0, 0.5)),
                       Limit(self.DIVE_DIR))
        assert res.kind == "diverging"
        assert res.blowup_direction is not None
        # blow-up lives in the b,c components
        assert abs(res.blowup_direction[1]) > 0.5
        assert res.magnitude == math.inf

    def test_constant_function_is_finite_zero(self):
        res = gradient(lambda x: 1.0, resolve((0.5, 0.0, 0.0, 0.5)),
                       Limit(self.DIVE_DIR))
        assert res.kind == "finite"
        np.testing.assert_allclose(res.components, np.zeros(3), atol=1e-9)

    def test_linear_drift_extrapolates_to_closed_form(self):
        # V(x)-V(y) = (c-b)(a-d): limit gradient (0, 1-2a, -(1-2a))
        def vx_minus_vy(x):
            a, b, c = x
            d = 1 - a - b - c
            return (c + d) * (a + b) - (b + d) * (a + c)

        for a in (0.3, 0.45, 0.6):
            res = gradient(vx_minus_vy, resolve((a, 0.0, 0.0, 1.0 - a)),
                           Limit(self.DIVE_DIR))
            assert res.kind == "finite"
            np.testing.assert_allclose(
                res.components, [0.0, 1 - 2 * a, -(1 - 2 * a)], atol=1e-7)

    def test_classification_stable_under_ladder_shrink(self):
        shrunk = tuple(e / 10.0 for e in (1e-3, 1e-4, 1e-5))
        res = gradient(joint_entropy, resolve((0.5, 0.0, 0.0, 0.5)),
                       Limit(self.DIVE_DIR, epsilons=shrunk))
        assert res.kind == "diverging"

        def vx_minus_vy(x):
            a, b, c = x
            d = 1 - a - b - c
            return (c + d) * (a + b) - (b + d) * (a + c)

        res = gradient(vx_minus_vy, resolve((0.3, 0.0, 0.0, 0.7)),
                       Limit(self.DIVE_DIR, epsilons=shrunk))
        assert res.kind == "finite"
        np.testing.assert_allclose(res.components, [0.0, 0.4, -0.4], atol=1e-7)

    def test_ladder_validation(self):
        with pytest.raises(PreconditionError):
            Limit(self.DIVE_DIR, epsilons=(1e-3,))
        with pytest.raises(PreconditionError):
            Limit(self.DIVE_DIR, epsilons=(1e-4, 1e-3, 1e-5))
        with pytest.raises(PreconditionError):
            Limit(self.DIVE_DIR, epsilons=(1e-3, 0.0))
        with pytest.raises(PreconditionError):
            Limit((0.0, 0.0, 0.0))

    @pytest.mark.parametrize("direction, epsilons", [
        ((math.nan,), DEFAULT_LADDER),
        ((math.inf,), DEFAULT_LADDER),
        ((1.0,), (1e-3, math.nan)),
        ((1.0,), (math.inf, 1e-3)),
    ])
    def test_non_finite_parameters_rejected(self, direction, epsilons):
        with pytest.raises(NonFinite):
            Limit(direction, epsilons)

    def test_probe_must_stay_interior(self):
        away = (0.0, -1.0 / SQRT2, -1.0 / SQRT2)
        with pytest.raises(PreconditionError):
            gradient(joint_entropy, resolve((0.5, 0.0, 0.0, 0.5)), Limit(away))

    def test_probe_along_a_face_is_not_interior(self):
        # the first free coordinate stays 0 on every rung
        with pytest.raises(PreconditionError, match="not interior"):
            gradient(lambda x: x[0], resolve((0.0, 0.5, 0.5)),
                     Limit((0.0, 1.0)))

    def test_direction_must_match_the_free_coordinates(self):
        with pytest.raises(PreconditionError, match="2 components, expected 1"):
            gradient(lambda x: x[0], [0.5], Limit((0.0, 1.0)))

    def test_oscillating_ladder_is_undefined(self):
        # sin(1/x) has no one-sided derivative trend at 0
        res = gradient(lambda x: math.sin(1.0 / x[0]), [0.0], Limit((1.0,)))
        assert res.kind == "undefined"
        assert res.components is None and res.blowup_direction is None
        assert len(res.ladder) == 3
        assert math.isnan(res.magnitude)

    def test_ladder_recorded(self):
        res = gradient(joint_entropy, resolve((0.5, 0.0, 0.0, 0.5)),
                       Limit(self.DIVE_DIR))
        assert len(res.ladder) == 3
        assert res.max_ladder_magnitude > 1.0


class TestModeNamed:
    PIN = ConstraintSet.pin({0: 0.5})

    def test_constrained_substitutes_the_constraints(self):
        assert mode_named("constrained", self.PIN) == Constrained(self.PIN)

    def test_unconstrained_substitutes_none(self):
        mode = mode_named("unconstrained", self.PIN)
        assert isinstance(mode, Constrained) and len(mode.constraints) == 0

    def test_limit_approaches_along_the_direction(self):
        mode = mode_named("limit", self.PIN, (0.0, 1.0))
        assert mode == Limit((0.0, 1.0), DEFAULT_LADDER)
        with pytest.raises(PreconditionError, match="direction"):
            mode_named("limit", self.PIN)

    def test_every_name_is_known(self):
        for name in MODES:
            assert isinstance(mode_named(name, self.PIN, (1.0, 0.0)),
                              (Constrained, Limit))

    def test_unknown_name_lists_the_modes(self):
        with pytest.raises(PreconditionError) as info:
            mode_named("sideways", self.PIN, (1.0, 0.0))
        assert all(name in str(info.value) for name in MODES)


class TestEntropyStationarity:
    def test_gradient_zero_at_uniform_both_modes(self):
        pv = resolve((0.25, 0.25, 0.25, 0.25))
        res = gradient(joint_entropy, pv, Constrained(ConstraintSet.empty()))
        np.testing.assert_allclose(res.components, np.zeros(3), atol=1e-8)
        d = np.array([1.0, 1.0, -1.0]) / math.sqrt(3.0)
        res = gradient(joint_entropy, pv, Limit(tuple(d)))
        assert res.kind == "finite"
        np.testing.assert_allclose(res.components, np.zeros(3), atol=1e-7)


class TestSharedFormulas:
    """xlogx, the cell entropy and the null space are bitwise the SciPy and
    numpy forms they replaced."""

    def test_xlogx_matches_xlogy_bitwise(self):
        xlogy = pytest.importorskip("scipy.special").xlogy
        rng = np.random.default_rng(9)
        values = np.concatenate((
            [0.0, 1.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 2.0 ** -53],
            rng.uniform(size=20_000), 10.0 ** rng.uniform(-300, 0, 20_000)))
        got = np.array([xlogx(v) for v in values.tolist()])
        assert got.tobytes() == xlogy(values, values).tobytes()

    def test_xlogx_is_nan_below_zero(self):
        assert all(math.isnan(xlogx(v)) for v in (-1e-300, -0.5, -1.0))
        assert xlogx(0.0) == 0.0 and xlogx(1.0) == 0.0

    def test_cell_entropy_matches_numpy_sum_bitwise(self):
        xlogy = pytest.importorskip("scipy.special").xlogy
        rng = np.random.default_rng(10)
        for n in (2, 3, 4):
            cells = rng.dirichlet(np.ones(n), size=3000)
            cells[::7, 0] = 0.0
            for c in cells:
                assert entropy_of_cells(c) == float(-xlogy(c, c).sum())

    def test_null_space_matches_scipy_bitwise(self):
        null_space = pytest.importorskip("scipy.linalg").null_space
        rng = np.random.default_rng(11)
        for shape in ((1, 2), (1, 3), (1, 5), (1, 7), (2, 2), (2, 3)):
            for i in range(300):
                a = rng.normal(size=shape)
                if i % 3 == 0:
                    a[:, rng.integers(shape[1])] = 0.0
                got, want = _null_space(a), null_space(a)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestGradientResult:
    def test_magnitude_of_finite(self):
        r = GradientResult(kind="finite", components=(3.0, 4.0))
        assert r.magnitude == pytest.approx(5.0)
        assert len(r) == 2

    def test_undefined_magnitude_is_nan(self):
        r = GradientResult(kind="undefined")
        assert math.isnan(r.magnitude)
