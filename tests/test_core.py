"""Core simplex types and the two gradient semantics."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isograd import core
from isograd.core import (
    ConstraintSet,
    DEFAULT_LADDER,
    MODES,
    Constrained,
    GradientResult,
    Limit,
    ProbVector,
    entropy,
    entropy_of_cells,
    entropy_of_free,
    finite_difference,
    gradient,
    gradients,
    mode_named,
    resolve,
    simplex_volume,
    xlogx,
)
from isograd.errors import (
    BadDimension,
    BadParams,
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
        assert pv.probs == (0.5, 0.5)

    def test_uniform_square(self):
        pv = resolve((0.25, 0.25, 0.25, 0.25))
        assert pv.free == (0.25, 0.25, 0.25)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("slot", [0, 3])
    def test_non_finite_rejected(self, bad, slot):
        point = [0.3, 0.0, 0.0, 0.7]
        point[slot] = bad
        with pytest.raises(NonFinite, match=repr(bad)):
            resolve(point)

    @pytest.mark.parametrize("bad", ["0.5", True, None, 0.5j])
    def test_non_real_cells_rejected(self, bad):
        # float() would read "0.5" and True as numbers
        with pytest.raises(BadParams, match="probability must be a real"):
            resolve((bad, 0.0, 0.0, 0.5))

    def test_numpy_and_integer_cells_are_real(self):
        assert resolve((np.float64(0.5), 0, np.int64(0), 0.5)).probs == \
            (0.5, 0.0, 0.0, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_prob_vector_rejects_non_finite(self, bad):
        with pytest.raises(NonFinite, match=repr(bad)):
            ProbVector((0.5, bad))

    def test_prob_vector_stores_floats(self):
        assert ProbVector((1, 0)).probs == (1.0, 0.0)
        for probs in ((1, 0), (np.float64(0.5), 0.5), (np.int64(0), 1)):
            assert all(type(p) is float for p in ProbVector(probs).probs)

    @pytest.mark.parametrize("probs", [("0.5", 0.5), (True, 0.0),
                                       (None, 1.0), 0.5], ids=repr)
    def test_prob_vector_rejects_non_real(self, probs):
        # math.isfinite and len raised bare TypeErrors; True passed as 1
        with pytest.raises(BadParams, match="probability"):
            ProbVector(probs)


class TestSimplexScalars:
    def test_volumes(self):
        assert simplex_volume(2) == 1.0
        assert simplex_volume(3) == 0.5
        assert simplex_volume(4) == pytest.approx(1.0 / 6.0, abs=0)

    def test_volume_factorial_identity_exact(self):
        for n in range(2, 9):
            assert simplex_volume(n) * math.factorial(n - 1) == 1.0

    def test_bad_dimension(self):
        for bad in (1, 0):
            with pytest.raises(BadDimension):
                simplex_volume(bad)
        # not a count at all: the shared count check refuses it
        for bad in (-3, 2.0, True, "3"):
            with pytest.raises(BadParams, match="n must be"):
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
    """Slopes along a direction: a Limit direction must be a unit vector,
    and the constrained engine reads the slope along a face's tangent."""

    def test_requires_unit_direction(self):
        with pytest.raises(PreconditionError):
            Limit((0.0, 0.0))
        with pytest.raises(PreconditionError):
            Limit((1.0, 1.0))

    def test_entropy_slope_along_coin_line(self):
        # full entropy along (1,-1,0)/sqrt(2) through (a, 1-a, 0, 0), the one
        # tangent of the face c = d = 0: the slope is log((1-a)/a)/sqrt(2)
        # even though single-coordinate partials blow up on this face (d = 0)
        face = ConstraintSet((
            (lambda x: float(x[2]), 0.0, lambda x: np.eye(3)[2]),
            (lambda x: float(1.0 - x.sum()), 0.0, lambda x: -np.ones(3))),
            "c=d=0")
        for a in (0.2, 0.3, 0.5, 0.7):
            res = gradient(joint_entropy, np.array([a, 1 - a, 0.0]),
                           Constrained(face))
            np.testing.assert_allclose(res.basis, [(1 / SQRT2, -1 / SQRT2, 0)],
                                       atol=1e-15)
            np.testing.assert_allclose(
                res.components, [math.log((1 - a) / a) / SQRT2], atol=1e-6)
            if a == 0.5:
                assert res.components[0] == pytest.approx(0.0, abs=1e-9)


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

    @pytest.mark.parametrize("index", [-1, 1.5, True, np.float64(0.0), "0"])
    def test_pin_rejects_a_bad_index(self, index):
        # -1 would pin the last free coordinate through negative indexing
        with pytest.raises(BadParams, match="pin index must be"):
            ConstraintSet.pin({index: 0.3})

    def test_pin_past_the_free_coordinates(self):
        cs = ConstraintSet.pin({5: 0.0}, "far pin")
        message = r"'far pin' pins x\[5\] of a point with 2 free coordinates"
        with pytest.raises(BadDimension, match=message):
            gradient(lambda x: float(x.sum()), [0.2, 0.3], Constrained(cs))
        with pytest.raises(BadDimension, match=r"'pin x\[2\]=0'"):
            ConstraintSet.pin({2: 0.0}).basis(np.array([0.2, 0.3]))
        numpy_index = ConstraintSet.pin({np.int64(1): 0.0})
        assert numpy_index.basis(np.array([0.2, 0.3])) == ((1.0, 0.0),)

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


@st.composite
def jacobians(draw):
    """1-2 constraint rows over 2-7 coordinates: small integers, some columns
    zeroed, and a second row that may be a scaled copy of the first."""
    n = draw(st.integers(2, 7))
    entries = st.lists(st.integers(-9, 9).map(float), min_size=n, max_size=n)
    rows = [draw(entries)]
    kind = draw(st.sampled_from(("one", "free", "copy")))
    if kind == "free":
        rows.append(draw(entries))
    elif kind == "copy":
        scale = draw(st.sampled_from((1.0, -1.0, 2.0, -0.5, 3.0, 1e-3)))
        rows.append([scale * v for v in rows[0]])
    jac = np.array(rows)
    jac[:, draw(st.lists(st.integers(0, n - 1), max_size=n))] = 0.0
    return jac


class TestTangentBasis:
    def test_ad_equals_bc_basis_is_canonical(self):
        # at (0.36, .24, .24, .16) the normal of ad = bc is (-0.2, -0.6, -0.6):
        # e_1 minus its normal part, (0.973329, -0.162221, -0.162221), then
        # (0, 1, -1)/sqrt(2); e_3 is spanned already
        cs = ConstraintSet((
            (lambda x: float(x[0] * (1 - x[0] - x[1] - x[2]) - x[1] * x[2]),
             0.0),), "ad=bc")
        res = gradient(joint_entropy, resolve((0.36, 0.24, 0.24, 0.16)),
                       Constrained(cs))
        first = np.array([0.72, -0.12, -0.12]) / math.sqrt(0.5472)
        np.testing.assert_allclose(
            res.basis, [first, (0.0, 1.0 / SQRT2, -1.0 / SQRT2)],
            rtol=0, atol=1e-9)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(jacobians())
    def test_orthonormal_tangent_columns_of_the_right_count(self, jac):
        # every row stated, so the basis is the pass over these rows
        basis = ConstraintSet(tuple((None, 0.0, lambda x, r=r: r)
                                    for r in jac)).basis(np.zeros(jac.shape[1]))
        n = jac.shape[1]
        assert len(basis) == n - np.linalg.matrix_rank(jac)
        assert all(len(q) == n for q in basis)
        vectors = np.array(basis).reshape(len(basis), n)
        np.testing.assert_allclose(vectors @ vectors.T, np.eye(len(basis)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(jac @ vectors.T, 0.0, rtol=0,
                                   atol=1e-12 * max(1.0, np.abs(jac).max()))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_pins_leave_exactly_the_remaining_axes(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = rng.dirichlet(np.ones(n + 1))[:n]
            pinned = sorted(rng.choice(n, size=rng.integers(1, n + 1),
                                       replace=False).tolist())
            cs = ConstraintSet.pin({i: x[i] for i in pinned})
            basis = cs.basis(x)
            keep = [i for i in range(n) if i not in pinned]
            assert (np.array(basis).reshape(len(keep), n).tobytes()
                    == np.eye(n)[keep].tobytes())

    def test_stated_rows_take_no_evaluations(self, eval_calls):
        x = np.array([0.2, 0.3, 0.1])
        ConstraintSet.pin({0: 0.2, 2: 0.1}).basis(x)
        assert eval_calls == [0]
        # an equality that states no gradient falls back to central
        # differences: two probes per coordinate
        ConstraintSet(((lambda v: float(v[0]), 0.2),)).basis(x)
        assert eval_calls == [6]

    def test_a_stated_row_of_the_wrong_length_is_refused(self):
        cs = ConstraintSet(((lambda v: float(v[0]), 0.2,
                             lambda v: (1.0, 0.0)),), "short row")
        with pytest.raises(BadDimension, match="'short row' states a "
                           "gradient whose length is not 3"):
            cs.basis((0.2, 0.3, 0.1))

    def test_stated_gradient_is_the_row_used(self):
        # x0 + x1 = 0.5 stated as (1, 1, 0): the surviving axes are e_1
        # minus its normal part, (1, -1, 0)/sqrt(2), and e_3
        cs = ConstraintSet(((lambda v: float(v[0] + v[1]), 0.5,
                             lambda v: np.array([1.0, 1.0, 0.0])),))
        basis = cs.basis(np.array([0.2, 0.3, 0.1]))
        expected = [[1.0 / SQRT2, -1.0 / SQRT2, 0.0], [0.0, 0.0, 1.0]]
        np.testing.assert_allclose(basis, expected, rtol=0, atol=1e-15)


class TestNonFinitePoints:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mode", [Constrained(), Limit((1.0, 0.0))])
    def test_gradient_rejects(self, bad, mode):
        with pytest.raises(NonFinite):
            gradient(lambda x: 1.0, [bad, 0.5], mode)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_finite_difference_rejects(self, bad):
        with pytest.raises(NonFinite):
            finite_difference(lambda x: 1.0, [0.5, bad])

    @pytest.mark.parametrize("at", [("0.5", True), (b"1", 0.5), (None, 0.5),
                                    (True, False), ("a", 0.5)], ids=repr)
    @pytest.mark.parametrize("mode", [Constrained(), Limit((1.0, 0.0))])
    def test_gradient_rejects_a_non_real_point(self, at, mode, eval_calls):
        # np.asarray(at, dtype=float) would read "0.5" and True as
        # (0.5, 1.0), and None as NaN
        with pytest.raises(BadParams, match="coordinate must be a real"):
            gradient(lambda x: float(x[0] ** 2 + x[1]), at, mode)
        assert eval_calls == [0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_pin_rejects_a_non_finite_target(self, bad):
        with pytest.raises(NonFinite):
            ConstraintSet.pin({0: bad})

    @pytest.mark.parametrize("bad", ["a", True, None], ids=repr)
    def test_pin_rejects_a_non_real_target(self, bad):
        with pytest.raises(BadParams, match="pin target must be a real"):
            ConstraintSet.pin({0: bad})


class TestPointShape:
    """A point is a 1-D vector: a matrix's rows would share the steps, and
    a row vector would sum its partials into one component."""

    BAD = [np.ones((2, 2)), [[0.1, 0.2, 0.3]], 0.5, np.float64(0.5)]
    IDS = ["2x2", "row", "float", "numpy-scalar"]

    @pytest.mark.parametrize("at", BAD, ids=IDS)
    @pytest.mark.parametrize("mode", [Constrained(), Limit((1.0,))])
    def test_gradient_rejects(self, at, mode, eval_calls):
        with pytest.raises(BadDimension, match=r"got shape \("):
            gradient(lambda x: float(x.sum()), at, mode)
        with pytest.raises(BadDimension, match=r"got shape \("):
            gradients(lambda x: (float(x.sum()),), at, mode)
        assert eval_calls == [0]

    @pytest.mark.parametrize("at", BAD, ids=IDS)
    def test_finite_difference_rejects(self, at, eval_calls):
        with pytest.raises(BadDimension, match=r"got shape \("):
            finite_difference(lambda x: float(x.sum()), at)
        assert eval_calls == [0]

    @pytest.mark.parametrize("at", [[[0.1, 0.2], [0.3]], [0.1, [0.2, 0.3]]],
                             ids=repr)
    def test_ragged_point_rejected(self, at, eval_calls):
        # numpy finds no shape for an inhomogeneous nesting
        with pytest.raises(BadDimension, match="1-D vector of coordinates"):
            gradient(lambda x: float(x.sum()), at, Constrained())
        assert eval_calls == [0]

    def test_names_the_shape(self):
        with pytest.raises(BadDimension, match=r"got shape \(1, 3\)$"):
            gradient(lambda x: float(x.sum()), [[0.1, 0.2, 0.3]],
                     Constrained())


class TestLimitGradient:
    DIVE_DIR = (0.0, 1.0 / SQRT2, 1.0 / SQRT2)

    @pytest.mark.parametrize("bad", ["ab", (1.0, "x"), (True,), (None, 1.0),
                                     1.0], ids=repr)
    def test_direction_components_must_be_real(self, bad):
        with pytest.raises(BadParams, match="direction component"):
            Limit(bad)

    def test_direction_is_stored_as_floats(self):
        mode = Limit([np.float64(0.6), 0.8])
        assert mode.direction == (0.6, 0.8)
        assert all(type(v) is float for v in mode.direction)

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

    def test_classification_stable_under_ladder_shrink(self, monkeypatch):
        shrunk = tuple(e / 10.0 for e in (1e-3, 1e-4, 1e-5))
        monkeypatch.setattr(core, "DEFAULT_LADDER", shrunk)
        res = gradient(joint_entropy, resolve((0.5, 0.0, 0.0, 0.5)),
                       Limit(self.DIVE_DIR))
        assert res.kind == "diverging"

        def vx_minus_vy(x):
            a, b, c = x
            d = 1 - a - b - c
            return (c + d) * (a + b) - (b + d) * (a + c)

        res = gradient(vx_minus_vy, resolve((0.3, 0.0, 0.0, 0.7)),
                       Limit(self.DIVE_DIR))
        assert res.kind == "finite"
        np.testing.assert_allclose(res.components, [0.0, 0.4, -0.4], atol=1e-7)

    def test_ladder_validation(self):
        # every Limit walks the one ladder: strictly decreasing and positive
        assert len(DEFAULT_LADDER) >= 2 and min(DEFAULT_LADDER) > 0
        assert all(a > b for a, b in zip(DEFAULT_LADDER, DEFAULT_LADDER[1:]))
        with pytest.raises(PreconditionError):
            Limit((0.0, 0.0, 0.0))

    @pytest.mark.parametrize("direction", [(math.nan,), (math.inf,)])
    def test_non_finite_parameters_rejected(self, direction):
        with pytest.raises(NonFinite):
            Limit(direction)

    def test_probe_must_stay_interior(self):
        # leaving through a free cell (b, c < 0) and through the resolved
        # cell (a + b > 1) are both refused as not interior
        away = (0.0, -1.0 / SQRT2, -1.0 / SQRT2)
        with pytest.raises(PreconditionError, match="not interior"):
            gradient(joint_entropy, resolve((0.5, 0.0, 0.0, 0.5)), Limit(away))
        with pytest.raises(PreconditionError, match="not interior"):
            gradient(joint_entropy, resolve((0.3, 0.7, 0.0)),
                     Limit((1.0 / SQRT2, 1.0 / SQRT2)))

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


@st.composite
def statistics(draw, n):
    """A statistic of n free coordinates: a polynomial with small integer
    coefficients, the cell entropy, or the entropy of a two-cell merge."""
    kind = draw(st.sampled_from(("polynomial", "entropy", "merged")))
    if kind == "polynomial":
        coeffs = st.lists(st.integers(-3, 3).map(float),
                          min_size=n * n + n, max_size=n * n + n)
        c = np.array(draw(coeffs))
        quad, lin = c[:n * n].reshape(n, n), c[n * n:]
        return lambda x: float(x @ quad @ x + lin @ x + x[0] ** 3)
    if kind == "entropy":
        return entropy_of_free
    return lambda x: entropy_of_cells((x[0] + x[-1], 1.0 - x[0] - x[-1]))


@st.composite
def vector_problems(draw):
    """(statistics, point, mode): 1-4 statistics on 2-4 free coordinates,
    under a pin, under ad = bc, with no constraints, or along a random unit
    approach direction."""
    how = draw(st.sampled_from(("pin", "ad=bc", "none", "limit")))
    n = 3 if how == "ad=bc" else draw(st.integers(2, 4))
    stats = draw(st.lists(statistics(n), min_size=1, max_size=4))
    if how == "ad=bc":
        px, py = (draw(st.floats(0.15, 0.85)) for _ in range(2))
        at = resolve(((1 - px) * (1 - py), (1 - px) * py, px * (1 - py),
                      px * py))
        return stats, at, Constrained(ConstraintSet((
            (lambda x: float(x[0] * (1 - x[0] - x[1] - x[2]) - x[1] * x[2]),
             0.0),), "ad=bc"))
    weights = draw(st.lists(st.floats(1.0, 10.0), min_size=n + 1,
                            max_size=n + 1))
    at = resolve([w / math.fsum(weights) for w in weights])
    if how == "pin":
        pinned = draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=n, unique=True))
        return stats, at, Constrained(
            ConstraintSet.pin({i: at.probs[i] for i in pinned}))
    if how == "none":
        return stats, at, Constrained()
    d = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                               max_size=n)))
    assume(np.linalg.norm(d) > 0.1)
    return stats, at, Limit(tuple(d / np.linalg.norm(d)))


class TestGradients:
    """One vector gradient is bitwise the scalar gradient of each output."""

    @staticmethod
    def assert_each_output_alone(stats, at, mode):
        together = gradients(lambda x: [f(x) for f in stats], at, mode)
        alone = [gradient(f, at, mode) for f in stats]
        assert [repr(r) for r in together] == [repr(r) for r in alone]

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(vector_problems())
    def test_each_output_is_its_scalar_gradient(self, problem):
        self.assert_each_output_alone(*problem)

    def test_diverging_and_undefined_ladders(self):
        stats = [lambda x: x[0] * math.log(x[0]),
                 lambda x: math.sin(1.0 / x[0]),
                 lambda x: x[0] ** 2]
        results = gradients(lambda x: [f(x) for f in stats], [0.0],
                            Limit((1.0,)))
        assert [r.kind for r in results] == ["diverging", "undefined",
                                             "finite"]
        self.assert_each_output_alone(stats, [0.0], Limit((1.0,)))

    def test_no_tangent_direction_gives_empty_components(self):
        at = resolve((0.2, 0.3, 0.5))
        mode = Constrained(ConstraintSet.pin({0: 0.2, 1: 0.3}))
        results = gradients(lambda x: (x[0], x[1] ** 2), at, mode)
        assert [(r.components, r.basis) for r in results] == [((), ())] * 2
        self.assert_each_output_alone([lambda x: x[0]], at, mode)

    @pytest.mark.parametrize("mode", [Constrained(), Limit((1.0,))])
    def test_a_domain_error_in_any_output_propagates(self, mode):
        with pytest.raises(DomainError, match="not evaluable"):
            gradients(lambda x: (x[0], math.log(x[0] - 0.5)), [0.3], mode)
        with pytest.raises(DomainError, match=r"not finite at .*: nan$"):
            gradients(lambda x: (x[0], math.nan, math.inf), [0.3], mode)


class TestModeNamed:
    PIN = ConstraintSet.pin({0: 0.5})

    def test_constrained_substitutes_the_constraints(self):
        assert mode_named("constrained", self.PIN) == Constrained(self.PIN)

    def test_unconstrained_substitutes_none(self):
        mode = mode_named("unconstrained", self.PIN)
        assert isinstance(mode, Constrained) and len(mode.constraints) == 0

    def test_limit_approaches_along_the_direction(self):
        mode = mode_named("limit", self.PIN, (0.0, 1.0))
        assert mode == Limit((0.0, 1.0))
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


def spread_floats():
    """Zero, or a float of either sign with magnitude in [1e-300, 1e150)."""
    scaled = st.builds(
        lambda m, e, sign: sign * m * 10.0 ** e,
        st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 149),
        st.sampled_from((1.0, -1.0)))
    return st.just(0.0) | scaled


class TestSharedFormulas:
    """xlogx and the cell entropy are bitwise the SciPy and numpy forms they
    replaced, and the norm of every gradient is within an ulp of exact."""

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

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.lists(spread_floats(), max_size=7))
    def test_magnitude_is_within_an_ulp_of_the_exact_norm(self, components):
        # the oracle owes nothing to the host's BLAS or SIMD kernels
        mp = pytest.importorskip("mpmath").mp
        with mp.workdps(60):
            exact = float(mp.sqrt(mp.fsum(mp.mpf(v) ** 2 for v in components)))
        res = GradientResult(kind="finite", components=tuple(components),
                             ladder=(tuple(components),))
        for magnitude in (res.magnitude, res.max_ladder_magnitude):
            assert abs(magnitude - exact) <= math.ulp(exact)


class TestGradientResult:
    def test_magnitude_of_finite(self):
        r = GradientResult(kind="finite", components=(3.0, 4.0))
        assert r.magnitude == pytest.approx(5.0)
        assert len(r) == 2

    def test_undefined_magnitude_is_nan(self):
        r = GradientResult(kind="undefined")
        assert math.isnan(r.magnitude)


class TestPolishSearches:
    @pytest.mark.parametrize("x0", [np.array([0.3, 0.2]), [0, 0.5, 0.1]],
                             ids=["array", "list"])
    def test_nelder_mead_runs_on_float_tuples(self, x0):
        seen = []

        def fun(x):
            seen.append(x)
            return math.fsum((v - 0.25) ** 2 for v in x)

        res = core.minimize(fun, x0, xatol=1e-10, fatol=1e-13, maxiter=500)
        assert seen and all(type(x) is tuple and len(x) == len(x0)
                            and all(type(v) is float for v in x)
                            for x in seen)
        assert type(res.x) is tuple and all(type(v) is float for v in res.x)
        assert type(res.fun) is float
        assert res.fun == pytest.approx(0.0, abs=1e-12)

    def test_nan_value_is_reported_as_numpy_min_would(self):
        # a NaN vertex sorts last and makes the reported minimum NaN
        res = core.minimize(lambda x: math.nan if x[0] > 1.0 else x[0] ** 2,
                            (1.0,), xatol=1e-10, fatol=1e-13, maxiter=1)
        assert res.nit == 1 and res.x == (1.0,) and math.isnan(res.fun)
