"""Tests for the two-binary-variable joint space."""

import math

import numpy as np
import pytest
import sympy as sp

from isograd.core import (
    Constrained,
    ConstraintSet,
    finite_difference,
    gradient,
    mode_named,
)
from isograd.errors import (
    BadParams,
    DegenerateMarginal,
    DomainError,
    EmptyData,
    InfeasiblePoint,
    NonFinite,
    NotNormalized,
    OutOfRange,
    PreconditionError,
)
from isograd.jointbinary import (
    CORRELATED_CONSTRAINTS,
    FAMILIES,
    INDEPENDENT_CONSTRAINTS,
    CountData,
    JointPoint,
    conditional_x0_given_y,
    correlation_of_joint,
    entropy_gradient,
    entropy_x,
    entropy_xy,
    entropy_y,
    fisher_information,
    joint_from_free,
    log_likelihood_gradient,
    mean_x,
    mean_xy,
    mean_y,
    mle,
    relation_suite,
    var_x,
    var_y,
)
from oracles import log_likelihood

SQRT2 = math.sqrt(2.0)


class TestJointPoint:
    def test_resolves_and_cleans(self):
        p = JointPoint(0.4, 0.1, 0.2, 0.3)
        np.testing.assert_allclose(p.probs, (0.4, 0.1, 0.2, 0.3), atol=1e-15)
        assert p.d == 1.0 - math.fsum((p.a, p.b, p.c))   # last cell resolved
        assert p.pv.free == p.probs[:3]

    def test_validates(self):
        with pytest.raises(NotNormalized):
            JointPoint(0.4, 0.4, 0.4, 0.4)
        with pytest.raises(OutOfRange):
            JointPoint(1.2, -0.2, 0.0, 0.0)

    @pytest.mark.parametrize("cells", [("0.5", 0, 0, 0.5), (True, 0, 0, 0)],
                             ids=repr)
    def test_non_real_cells_rejected(self, cells):
        with pytest.raises(BadParams, match="must be a real number"):
            JointPoint(*cells)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("cell", range(4))
    def test_non_finite_rejected(self, bad, cell):
        cells = [0.3, 0.0, 0.0, 0.7]
        cells[cell] = bad
        with pytest.raises(NonFinite, match=repr(bad)):
            JointPoint(*cells)


class TestCountData:
    def test_totals(self):
        c = CountData(7, 0, 0, 3)
        assert c.n == 10
        assert c.counts == (7, 0, 0, 3)

    def test_rejects_bad_counts(self):
        with pytest.raises(PreconditionError):
            CountData(-1, 0, 0, 1)
        with pytest.raises(PreconditionError):
            CountData(1.5, 0, 0, 1)
        with pytest.raises(PreconditionError):
            CountData(True, 0, 0, 1)


class TestJointStatistics:
    J = (0.4, 0.1, 0.2, 0.3)

    def test_moments(self):
        assert mean_x(self.J) == pytest.approx(0.5, abs=1e-15)
        assert mean_y(self.J) == pytest.approx(0.4, abs=1e-15)
        assert mean_xy(self.J) == pytest.approx(0.3, abs=1e-15)
        assert var_x(self.J) == pytest.approx(0.25, abs=1e-15)
        assert var_y(self.J) == pytest.approx(0.24, abs=1e-15)

    def test_entropies(self):
        assert entropy_x(self.J) == pytest.approx(math.log(2.0), abs=1e-15)
        expected_y = -(0.6 * math.log(0.6) + 0.4 * math.log(0.4))
        assert entropy_y(self.J) == pytest.approx(expected_y, abs=1e-15)
        expected_xy = -sum(v * math.log(v) for v in self.J)
        assert entropy_xy(self.J) == pytest.approx(expected_xy, abs=1e-14)

    def test_conditionals(self):
        assert conditional_x0_given_y(self.J, 0) == pytest.approx(0.4 / 0.6)
        assert conditional_x0_given_y(self.J, 1) == pytest.approx(0.25)

    def test_joint_from_free(self):
        np.testing.assert_allclose(joint_from_free([0.4, 0.1, 0.2]),
                                   [0.4, 0.1, 0.2, 0.3], atol=1e-15)


class TestCorrelation:
    def test_perfectly_correlated(self):
        assert correlation_of_joint((0.5, 0.0, 0.0, 0.5)) == 1.0
        assert correlation_of_joint((0.3, 0.0, 0.0, 0.7)) == 1.0

    def test_perfectly_anticorrelated(self):
        assert correlation_of_joint((0.0, 0.5, 0.5, 0.0)) == -1.0

    def test_independent_is_zero(self):
        assert correlation_of_joint((0.25, 0.25, 0.25, 0.25)) == 0.0
        assert correlation_of_joint((0.24, 0.16, 0.36, 0.24)) == pytest.approx(
            0.0, abs=1e-15)

    def test_known_value(self):
        # ad - bc = 0.1, all four marginal factors give sqrt(0.06)
        rho = correlation_of_joint((0.4, 0.1, 0.2, 0.3))
        assert rho == pytest.approx(0.1 / math.sqrt(0.06), rel=1e-12)

    def test_degenerate_marginals(self):
        with pytest.raises(DegenerateMarginal):
            correlation_of_joint((0.5, 0.5, 0.0, 0.0))   # x never 1
        with pytest.raises(DegenerateMarginal):
            correlation_of_joint((0.7, 0.0, 0.3, 0.0))   # y never 1

    def test_bounded_on_random_joints(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            j = rng.dirichlet(np.ones(4))
            p = JointPoint(*j)
            assert abs(correlation_of_joint(p.probs)) <= 1.0 + 1e-12


class TestEntropyGradient:
    def test_constrained_single_component(self):
        p = JointPoint(0.3, 0.0, 0.0, 0.7)
        res = entropy_gradient(p, "constrained")
        assert res.is_finite and len(res) == 1
        assert res.components[0] == pytest.approx(-math.log(0.3 / 0.7), abs=1e-6)
        np.testing.assert_allclose(res.basis, [(1.0, 0.0, 0.0)], atol=1e-12)

    def test_unconstrained_matches_closed_form(self):
        p = JointPoint(0.4, 0.1, 0.2, 0.3)
        res = entropy_gradient(p, "unconstrained")
        expected = [-math.log(v / 0.3) for v in (0.4, 0.1, 0.2)]
        np.testing.assert_allclose(res.components, expected, atol=1e-6)

    def test_exactly_flat_at_the_symmetric_pin(self):
        res = entropy_gradient(JointPoint(0.5, 0.0, 0.0, 0.5), "constrained")
        assert res.components == (0.0,)

    def test_finite_modes_match_engine_differences(self):
        from isograd.jointbinary import CORRELATED_CONSTRAINTS

        rng = np.random.default_rng(42)
        f = lambda x: entropy_xy(joint_from_free(x))
        for _ in range(25):
            a = rng.uniform(0.05, 0.95)
            pinned = JointPoint(a, 0.0, 0.0, 1.0 - a)
            engine = gradient(f, pinned.pv,
                              Constrained(CORRELATED_CONSTRAINTS))
            np.testing.assert_allclose(
                entropy_gradient(pinned, "constrained").components,
                engine.components, atol=1e-6)
            j = 0.9 * rng.dirichlet(np.ones(4)) + 0.025
            interior = JointPoint(*j)
            engine = gradient(f, interior.pv,
                              Constrained(ConstraintSet.empty()))
            np.testing.assert_allclose(
                entropy_gradient(interior, "unconstrained").components,
                engine.components, atol=1e-6)

    def test_limit_diverges_off_the_face(self):
        res = entropy_gradient(JointPoint(0.3, 0.0, 0.0, 0.7), "limit")
        assert res.kind == "diverging"
        # blow-up lives in the b, c coordinates; the a component is the
        # bounded part and shrinks relative to the log terms
        bd = np.asarray(res.blowup_direction)
        np.testing.assert_allclose(bd[1:], 1 / SQRT2, atol=0.01)
        assert abs(bd[0]) < 0.1

    def test_unknown_mode(self):
        with pytest.raises(PreconditionError):
            entropy_gradient(JointPoint(0.3, 0.0, 0.0, 0.7), "sideways")


class TestPullback:
    """The finite readings against their closed forms and bases."""

    def test_unconstrained_entropy_gradient_and_score_use_identity_basis(self):
        p = JointPoint(0.4, 0.1, 0.2, 0.3)
        for res in (entropy_gradient(p, "unconstrained"),
                    log_likelihood_gradient(CountData(1, 2, 3, 4), p,
                                            "unconstrained")):
            assert res.basis == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                 (0.0, 0.0, 1.0))

    def test_readings_match_closed_forms(self):
        rng = np.random.default_rng(7)
        counts = CountData(3, 5, 2, 7)
        for _ in range(50):
            a = rng.uniform(0.01, 0.99)
            pin = JointPoint(a, 0.0, 0.0, 1.0 - a)
            d = pin.d
            np.testing.assert_allclose(
                entropy_gradient(pin, "constrained").components,
                [math.log(d / a)], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(
                fisher_information(pin, "constrained"), [[1 / a + 1 / d]],
                rtol=1e-12)
            np.testing.assert_allclose(
                log_likelihood_gradient(CountData(4, 0, 0, 9), pin,
                                        "constrained").components,
                [4 / a - 9 / d], rtol=1e-12, atol=1e-12)
            p = JointPoint(*(0.9 * rng.dirichlet(np.ones(4)) + 0.025))
            cells, d = np.array(p.probs[:3]), p.d
            np.testing.assert_allclose(
                entropy_gradient(p, "unconstrained").components,
                [math.log(d / v) for v in cells], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(
                fisher_information(p, "unconstrained"),
                np.diag(1 / cells) + 1 / d, rtol=1e-12)
            np.testing.assert_allclose(
                log_likelihood_gradient(counts, p, "unconstrained").components,
                np.array(counts.counts[:3]) / cells - counts.n_d / d,
                rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("statistic", [
        lambda p: fisher_information(p, "limit"),
        lambda p: log_likelihood_gradient(CountData(5, 0, 0, 5), p, "limit"),
        lambda p: mle(CountData(5, 0, 0, 5), "limit"),
    ])
    def test_limit_has_no_finite_reading(self, statistic):
        with pytest.raises(PreconditionError, match="'limit'"):
            statistic(JointPoint(0.5, 0.0, 0.0, 0.5))

    def test_unconstrained_relations_need_an_interior_point(self):
        with pytest.raises(DomainError, match="unconstrained"):
            relation_suite(JointPoint(0.3, 0.0, 0.0, 0.7), "correlated",
                           "unconstrained")


def float_tuples(value, depth: int) -> bool:
    """Whether ``value`` is a tuple of Python floats (depth 1) or a tuple
    of such tuples (depth 2)."""
    if depth == 1:
        return type(value) is tuple and all(type(v) is float for v in value)
    return type(value) is tuple and all(float_tuples(v, 1) for v in value)


class TestFloatRepresentation:
    """The finite readings and their bases are tuples of Python floats, and
    a reading's basis is the one ``core.gradient`` uses for its
    constraints."""

    READINGS = [
        ("constrained", JointPoint(0.3, 0.0, 0.0, 0.7), CountData(4, 0, 0, 9)),
        ("unconstrained", JointPoint(0.4, 0.1, 0.2, 0.3),
         CountData(3, 5, 2, 7)),
    ]

    def test_constraint_bases(self):
        x = (0.36, 0.24, 0.24)
        for constraints, n in ((CORRELATED_CONSTRAINTS, 1),
                               (INDEPENDENT_CONSTRAINTS, 2),
                               (ConstraintSet.empty(), 3)):
            basis = constraints.basis(x)
            assert float_tuples(basis, 2) and len(basis) == n
            assert basis == constraints.basis(np.array(x))

    @pytest.mark.parametrize("mode, p, counts", READINGS)
    def test_finite_readings(self, mode, p, counts):
        matrix = fisher_information(p, mode)
        assert float_tuples(matrix, 2)
        assert all(len(row) == len(matrix) for row in matrix)
        engine = gradient(lambda x: entropy_xy(joint_from_free(x)), p.pv,
                          mode_named(mode, CORRELATED_CONSTRAINTS))
        for res in (entropy_gradient(p, mode),
                    log_likelihood_gradient(counts, p, mode)):
            assert float_tuples(res.components, 1)
            assert float_tuples(res.basis, 2)
            assert res.basis == engine.basis
            assert len(res.components) == len(matrix)


class TestFisherInformation:
    def test_constrained_values(self):
        np.testing.assert_allclose(
            fisher_information(JointPoint(0.5, 0, 0, 0.5), "constrained"),
            [[4.0]], rtol=1e-12)
        np.testing.assert_allclose(
            fisher_information(JointPoint(0.2, 0, 0, 0.8), "constrained"),
            [[6.25]], rtol=1e-12)

    def test_constrained_grid_matches_reciprocal_variance(self):
        for a in np.arange(0.01, 0.995, 0.01):
            F = fisher_information(JointPoint(a, 0, 0, 1 - a), "constrained")
            assert len(F) == 1 and len(F[0]) == 1
            np.testing.assert_allclose(F[0][0], 1.0 / (a * (1.0 - a)),
                                       rtol=1e-10)

    def test_constrained_preconditions(self):
        with pytest.raises(InfeasiblePoint):
            fisher_information(JointPoint(0.4, 0.1, 0.2, 0.3), "constrained")
        with pytest.raises(DomainError):
            fisher_information(JointPoint(1.0, 0.0, 0.0, 0.0), "constrained")

    def test_unconstrained_uniform(self):
        F = fisher_information(JointPoint(0.25, 0.25, 0.25, 0.25),
                               "unconstrained")
        np.testing.assert_allclose(F, 4.0 * np.eye(3) + 4.0, rtol=1e-12)

    def test_unconstrained_matches_defining_sum(self):
        # oracle: F_ij = sum_o p_o (d log p_o)(d log p_o)^T with the
        # per-outcome log derivatives taken by central differences
        points = [JointPoint(0.25, 0.25, 0.25, 0.25),
                  JointPoint(0.4, 0.1, 0.2, 0.3),
                  JointPoint(0.1, 0.3, 0.15, 0.45)]
        for p in points:
            F = fisher_information(p, "unconstrained")
            brute = np.zeros((3, 3))
            for o in range(4):
                g = finite_difference(
                    lambda x, o=o: math.log(joint_from_free(x)[o]),
                    p.probs[:3], h=1e-6)
                brute += p.probs[o] * np.outer(g, g)
            np.testing.assert_allclose(F, brute, rtol=1e-8)

    def test_unconstrained_needs_interior(self):
        with pytest.raises(DomainError):
            fisher_information(JointPoint(0.5, 0.5, 0.0, 0.0), "unconstrained")


class TestLikelihood:
    def test_log_likelihood_value(self):
        ll = log_likelihood(CountData(7, 0, 0, 3), (0.5, 0.0, 0.0, 0.5))
        assert ll == pytest.approx(10.0 * math.log(0.5), rel=1e-12)

    def test_counts_on_impossible_cell(self):
        assert log_likelihood(CountData(7, 1, 0, 3),
                              (0.5, 0.0, 0.0, 0.5)) == -math.inf

    def test_constrained_gradient(self):
        counts = CountData(7, 0, 0, 3)
        res = log_likelihood_gradient(counts, JointPoint(0.5, 0, 0, 0.5),
                                      "constrained")
        assert res.is_finite and len(res) == 1
        assert res.components[0] == pytest.approx(8.0, rel=1e-12)
        res = log_likelihood_gradient(counts, JointPoint(0.7, 0, 0, 0.3),
                                      "constrained")
        assert res.components[0] == pytest.approx(0.0, abs=1e-10)

    def test_unconstrained_gradient(self):
        res = log_likelihood_gradient(CountData(1, 2, 3, 4),
                                      JointPoint(0.25, 0.25, 0.25, 0.25),
                                      "unconstrained")
        np.testing.assert_allclose(res.components, [-12.0, -8.0, -4.0],
                                   rtol=1e-12)

    def test_preconditions(self):
        with pytest.raises(EmptyData):
            log_likelihood_gradient(CountData(0, 0, 0, 0),
                                    JointPoint(0.5, 0, 0, 0.5), "constrained")
        with pytest.raises(DomainError):
            log_likelihood_gradient(CountData(5, 1, 0, 4),
                                    JointPoint(0.5, 0, 0, 0.5), "constrained")
        with pytest.raises(InfeasiblePoint):
            log_likelihood_gradient(CountData(5, 0, 0, 5),
                                    JointPoint(0.4, 0.1, 0.2, 0.3),
                                    "constrained")


class TestMLE:
    def test_constrained_exact(self):
        for n in (10, 100, 1000):
            for n_a in (0, 1, n // 2, n):
                est = mle(CountData(n_a, 0, 0, n - n_a), "constrained")
                assert est.a == n_a / n
                assert est.b == 0.0 and est.c == 0.0
                assert est.d == (n - n_a) / n

    def test_unconstrained_frequencies(self):
        est = mle(CountData(1, 2, 3, 4), "unconstrained")
        assert est.probs == (0.1, 0.2, 0.3, 0.4)

    def test_empty_and_infeasible(self):
        with pytest.raises(EmptyData):
            mle(CountData(0, 0, 0, 0))
        with pytest.raises(DomainError):
            mle(CountData(3, 1, 0, 6), "constrained")

    def test_mle_maximizes_likelihood(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            counts = CountData(*(int(v) for v in rng.integers(0, 50, size=4)))
            if counts.n == 0:
                continue
            est = mle(counts, "unconstrained")
            best = log_likelihood(counts, est.probs)
            j = np.array(est.probs)
            for i in range(4):
                for k in range(4):
                    if i == k or j[i] < 2e-3:
                        continue
                    moved = j.copy()
                    moved[i] -= 1e-3
                    moved[k] += 1e-3
                    assert log_likelihood(counts, moved) <= best + 1e-12


class TestRelationSuiteCorrelated:
    POINTS = [JointPoint(0.3, 0.0, 0.0, 0.7), JointPoint(0.55, 0.0, 0.0, 0.45)]

    def test_constrained_all_vanish(self):
        for p in self.POINTS:
            for label, res in relation_suite(p, "correlated", "constrained"):
                assert res.is_finite, label
                assert len(res) == 1, label
                assert res.magnitude <= 1e-8, label

    def test_limit_mean_difference(self):
        for p in self.POINTS:
            suite = dict(relation_suite(p, "correlated", "limit"))
            res = suite["<x>-<y>"]
            assert res.is_finite and len(res) == 3
            np.testing.assert_allclose(res.components, (0.0, -1.0, 1.0),
                                       atol=1e-7)

    def test_limit_variance_difference(self):
        for p in self.POINTS:
            suite = dict(relation_suite(p, "correlated", "limit"))
            res = suite["V(x)-V(y)"]
            w = 1.0 - 2.0 * p.a
            np.testing.assert_allclose(res.components, (0.0, w, -w), atol=1e-7)

    def test_limit_entropy_difference_diverges(self):
        for p in self.POINTS:
            suite = dict(relation_suite(p, "correlated", "limit"))
            assert suite["E_xy-E_x"].kind == "diverging"

    def test_limit_correlation_stays_away_from_zero(self):
        for p in self.POINTS:
            suite = dict(relation_suite(p, "correlated", "limit"))
            res = suite["rho_xy-1"]
            assert res.kind == "diverging" or res.max_ladder_magnitude > 1e-6

    def test_relations_share_the_probes(self, eval_calls):
        # 3 rungs x 2 x 3 probes for all four relations; one by one, 72
        relation_suite(self.POINTS[0], "correlated", "limit")
        assert eval_calls == [18]

    def test_constrained_suite_probes_one_direction(self, eval_calls):
        # the b = c = 0 pins state their rows: 2 probes along a, none for
        # the basis (differencing the two rows took 12 more)
        relation_suite(self.POINTS[0], "correlated", "constrained")
        assert eval_calls == [2]

    def test_each_relation_is_its_scalar_gradient(self):
        for mode in ("constrained", "limit"):
            for p in self.POINTS:
                assert_relations_alone(p, "correlated", mode)


class TestRelationSuiteIndependent:
    UNIFORM = JointPoint(0.25, 0.25, 0.25, 0.25)
    SKEWED = JointPoint(0.24, 0.16, 0.36, 0.24)   # marginals 0.6, 0.4

    def test_constrained_all_vanish(self):
        for p in (self.UNIFORM, self.SKEWED):
            for label, res in relation_suite(p, "independent", "constrained"):
                assert res.is_finite, label
                assert len(res) == 2, label
                assert res.magnitude <= 1e-8, label

    def test_limit_probability_relations(self):
        suite = dict(relation_suite(self.UNIFORM, "independent", "limit"))
        np.testing.assert_allclose(suite["P(0,0)-Px(0)Py(0)"].components,
                                   (0.0, -0.5, -0.5), atol=1e-7)
        np.testing.assert_allclose(suite["<xy>-<x><y>"].components,
                                   (0.0, -0.5, -0.5), atol=1e-7)
        np.testing.assert_allclose(suite["P(x=0|y=0)-Px(0)"].components,
                                   (0.0, -1.0, -1.0), atol=1e-7)

    def test_limit_relations_nonzero_along_ladder(self):
        for p in (self.UNIFORM, self.SKEWED):
            for label, res in relation_suite(p, "independent", "limit"):
                assert (res.kind == "diverging"
                        or res.max_ladder_magnitude > 1e-6), label

    def test_unknown_family(self):
        with pytest.raises(PreconditionError):
            relation_suite(self.UNIFORM, "anticorrelated", "constrained")

    def test_constrained_suite_probes_two_directions(self, eval_calls):
        # ad = bc states its row: 2 probes along each of the 2 tangent
        # directions, none for the basis (differencing the row took 6 more)
        relation_suite(self.SKEWED, "independent", "constrained")
        assert eval_calls == [4]

    def test_each_relation_is_its_scalar_gradient(self):
        for mode in ("constrained", "unconstrained", "limit"):
            for p in (self.UNIFORM, self.SKEWED):
                assert_relations_alone(p, "independent", mode)


def assert_relations_alone(p, family, mode):
    """The suite's results are bitwise each relation's own gradient."""
    relations, approach, (constraints, _) = FAMILIES[family]
    m = mode_named(mode, constraints, approach)
    alone = [(label, gradient(
        lambda x, rel=rel: float(rel(joint_from_free(x))), p.pv, m))
        for label, rel in relations]
    assert repr(relation_suite(p, family, mode)) == repr(alone)


class TestIndependenceTangent:
    """The stated ad = bc row and its tangent basis against sympy's exact
    ones at rational points of the family."""

    SHARES = ("3/20", "1/4", "1/3", "2/5", "1/2", "3/5", "17/20")

    @staticmethod
    def exact(px, py):
        a, b, c = sp.symbols("a b c")
        g = a * (1 - a - b - c) - b * c
        at = {a: (1 - px) * (1 - py), b: (1 - px) * py, c: px * (1 - py)}
        row = sp.Matrix([sp.diff(g, v).subs(at) for v in (a, b, c)])
        # the Gram-Schmidt pass of core, in exact arithmetic: the row first,
        # then the axes; the axes that survive are the basis
        found, axes = [], []
        for i, v in enumerate([row] + [sp.eye(3).col(k) for k in range(3)]):
            for q in found:
                v = v - q.dot(v) * q
            if v.norm() != 0:
                found.append(v / v.norm())
                if i > 0:
                    axes.append(found[-1])
        x = [float(at[v]) for v in (a, b, c)]
        as_float = lambda m: np.array(m.evalf(30).tolist(), dtype=float)
        return x, as_float(row).ravel(), as_float(
            sp.Matrix.vstack(*(q.T for q in axes)))

    @pytest.mark.parametrize("px", SHARES)
    @pytest.mark.parametrize("py", SHARES)
    def test_row_and_basis(self, px, py):
        x, row, basis = self.exact(sp.Rational(px), sp.Rational(py))
        stated = INDEPENDENT_CONSTRAINTS.equalities[0][2](np.array(x))
        np.testing.assert_allclose(stated, row, rtol=0, atol=4e-16)
        np.testing.assert_allclose(INDEPENDENT_CONSTRAINTS.basis(np.array(x)),
                                   basis, rtol=0, atol=2e-15)
