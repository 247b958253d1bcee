"""Tests for the mixed/behavioural strategy spaces and the comparison table."""

import math
from dataclasses import replace

import numpy as np
import pytest

from isograd import jointbinary, strategy
from isograd.core import gradient
from isograd.errors import DegenerateMarginal, PreconditionError
from isograd.jointbinary import JointPoint, correlation_of_joint
from isograd.strategy import (
    CASES,
    behavioural_joint_cells,
    mixed_joint_cells,
    sample_points,
    table1,
)


class TestInducedJoints:
    def test_pure_strategies(self):
        assert mixed_joint_cells((1.0, 1.0, 0.0, 0.0)) == (0.0, 0.0, 0.0, 1.0)

    def test_correlated_mixed_point(self):
        assert mixed_joint_cells((0.5, 1.0, 0.0, 0.0)) == (0.5, 0.0, 0.0, 0.5)

    def test_independent_mixed_point(self):
        a, b, c, d = mixed_joint_cells((0.5, 0.25, 0.25, 0.0))
        assert a * d == pytest.approx(b * c, abs=1e-15)

    def test_behavioural_extremes(self):
        assert behavioural_joint_cells((0.5, 0.0, 1.0)) == (0.5, 0.0, 0.0, 0.5)
        assert behavioural_joint_cells((0.5, 1.0, 0.0)) == (0.0, 0.5, 0.5, 0.0)

    def test_behavioural_independence_when_branches_agree(self):
        a, b, c, d = behavioural_joint_cells((0.4, 0.3, 0.3))
        assert a * d == pytest.approx(b * c, abs=1e-15)

    def test_mapping_preserves_joint(self):
        # (p, q, r) = (alpha1, beta2 + beta3, beta1 + beta3)
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            betas = rng.dirichlet(np.ones(4))
            a1, b1, b2, b3 = rng.uniform(), betas[1], betas[2], betas[3]
            direct = mixed_joint_cells((a1, b1, b2, b3))
            via_map = behavioural_joint_cells((a1, b2 + b3, b1 + b3))
            np.testing.assert_allclose(direct, via_map, atol=1e-12)


class TestCorrelations:
    def test_behavioural_perfect(self):
        for p in (0.2, 0.5, 0.8):
            assert correlation_of_joint(behavioural_joint_cells(
                (p, 0.0, 1.0))) == pytest.approx(1.0, rel=1e-14)
            assert correlation_of_joint(behavioural_joint_cells(
                (p, 1.0, 0.0))) == pytest.approx(-1.0, rel=1e-14)

    def test_behavioural_uncorrelated_branches(self):
        assert correlation_of_joint(
            behavioural_joint_cells((0.3, 0.4, 0.4))) == 0.0

    def test_mixed_perfect(self):
        assert correlation_of_joint(mixed_joint_cells(
            (0.5, 1.0, 0.0, 0.0))) == pytest.approx(1.0, rel=1e-14)

    def test_three_routes_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            betas = rng.dirichlet(np.ones(4))
            a1, b1, b2, b3 = (rng.uniform(0.05, 0.95),
                              betas[1], betas[2], betas[3])
            cells = mixed_joint_cells((a1, b1, b2, b3))
            rho_m = correlation_of_joint(cells)
            rho_b = correlation_of_joint(
                behavioural_joint_cells((a1, b2 + b3, b1 + b3)))
            rho_j = correlation_of_joint(JointPoint(*cells).probs)
            assert rho_m == pytest.approx(rho_b, abs=1e-10)
            assert rho_m == pytest.approx(rho_j, abs=1e-10)

    def test_degenerate_marginals(self):
        with pytest.raises(DegenerateMarginal):
            correlation_of_joint(mixed_joint_cells((0.0, 1.0, 0.0, 0.0)))
        with pytest.raises(DegenerateMarginal):
            correlation_of_joint(behavioural_joint_cells((0.0, 0.3, 0.7)))
        with pytest.raises(DegenerateMarginal):
            correlation_of_joint(behavioural_joint_cells((0.5, 0.0, 0.0)))


class TestMoments:
    """jointbinary's statistics of the cells a strategy induces."""

    def test_independent_fair_coins(self):
        j = behavioural_joint_cells((0.5, 0.5, 0.5))
        assert jointbinary.mean_x(j) == jointbinary.mean_y(j) == 0.5
        assert jointbinary.mean_xy(j) == 0.25
        assert jointbinary.var_x(j) == jointbinary.var_y(j) == 0.25
        assert jointbinary.entropy_x(j) == jointbinary.entropy_y(j) == \
            pytest.approx(math.log(2), rel=1e-14)
        assert jointbinary.entropy_xy(j) == pytest.approx(math.log(4),
                                                          rel=1e-14)

    def test_always_play_one(self):
        j = mixed_joint_cells((0.3, 0.0, 0.0, 1.0))
        assert jointbinary.mean_y(j) == 1.0
        assert jointbinary.var_y(j) == 0.0
        assert jointbinary.entropy_y(j) == 0.0

    def test_functional_equality_under_perfect_correlation(self):
        j = behavioural_joint_cells((0.3, 0.0, 1.0))
        assert jointbinary.mean_x(j) == jointbinary.mean_y(j) == \
            jointbinary.mean_xy(j) == pytest.approx(0.3)

    def test_matches_joint_statistics(self):
        # the table's raw cells read the same as the validated joint point
        stats = (jointbinary.mean_x, jointbinary.mean_y, jointbinary.mean_xy,
                 jointbinary.var_x, jointbinary.var_y, jointbinary.entropy_x,
                 jointbinary.entropy_y, jointbinary.entropy_xy)
        rng = np.random.default_rng(42)
        for _ in range(50):
            betas = rng.dirichlet(np.ones(4))
            for cells in (mixed_joint_cells((rng.uniform(), *betas[1:])),
                          behavioural_joint_cells(rng.uniform(size=3))):
                j = JointPoint(*cells).probs
                for stat in stats:
                    assert stat(cells) == pytest.approx(stat(j), abs=1e-12)


@pytest.fixture(scope="module")
def corr_report():
    return table1("correlated")


@pytest.fixture(scope="module")
def ind_report():
    return table1("independent")


class TestTableCorrelated:
    @pytest.fixture
    def report(self, corr_report):
        return corr_report

    def test_report_shape(self, report):
        assert report.case == "correlated"
        assert len(report.entries) == 40
        assert [c.dimension for c in report.columns] == [4, 3, 1, 1]
        assert report.columns[2].parameters == ("alpha1",)
        assert report.columns[3].parameters == ("p",)

    def test_everything_passes(self, report):
        failed = [(e.row, e.column) for e in report.entries if not e.passed]
        assert failed == []

    def test_probability_conservation_components(self, report):
        s = sample_points("correlated", 1, report.seed)[0]
        e = report.entry("P(0,0)+P(1,1)", "P_B")
        p = s["p"]
        np.testing.assert_allclose(e.components, (0.0, -(1 - p), p), atol=1e-6)
        e = report.entry("P(0,0)+P(1,1)", "P_M")
        a = s["alpha1"]
        np.testing.assert_allclose(e.components,
                                   (0.0, a, -(1 - a), 2 * a - 1), atol=1e-6)

    def test_constrained_columns_are_flat_or_unit(self, report):
        for e in report.entries:
            if e.column not in ("P_M|beta1=1", "P_B|(q,r)=(0,1)"):
                continue
            assert e.dimension == 1
            if e.row in ("<x>", "<y>", "<xy>"):
                assert e.expected == "unit"
            else:
                assert e.expected == "zero"
                assert e.worst_error <= 1e-8

    def test_entropy_row_diverges_in_limit(self, report):
        for col in ("P_M", "P_B"):
            e = report.entry("E_xy-E_x", col)
            assert e.kinds == ("diverging",)
            assert e.passed

    def test_correlation_row_nonzero_in_limit(self, report):
        for col in ("P_M", "P_B"):
            e = report.entry("rho_xy", col)
            assert e.expected == "nonzero"
            assert e.passed
            assert e.kinds == ("diverging",) or e.evidence > 1e-6


class TestTableIndependent:
    @pytest.fixture
    def report(self, ind_report):
        return ind_report

    def test_report_shape(self, report):
        assert len(report.entries) == 36
        assert [c.dimension for c in report.columns] == [4, 3, 2, 2]
        assert report.columns[2].parameters == ("alpha1", "beta_bar")
        assert report.columns[3].parameters == ("p", "q")

    def test_everything_passes(self, report):
        failed = [(e.row, e.column) for e in report.entries if not e.passed]
        assert failed == []

    def test_conditional_component_pattern(self, report):
        s = sample_points("independent", 1, report.seed)[0]
        p, q = s["p"], s["q"]
        e = report.entry("P_x|y(0|0)-Px(0)", "P_B")
        w = p * (1 - p) / (1 - q)
        np.testing.assert_allclose(e.components, (0.0, -w, w), atol=1e-6)
        a, bb = s["alpha1"], s["beta12"] + s["beta3"]
        e = report.entry("P_x|y(0|0)-Px(0)", "P_M")
        w = a * (1 - a) / (1 - bb)
        np.testing.assert_allclose(e.components, (0.0, w, -w, 0.0), atol=1e-6)

    def test_entropy_row_nonzero_along_ladder(self, report):
        for col in ("P_M", "P_B"):
            e = report.entry("E_xy-E_x-E_y", col)
            assert e.passed
            assert e.kinds == ("diverging",) or e.evidence > 1e-6

    def test_constrained_columns_vanish(self, report):
        for e in report.entries:
            if e.column in ("P_M|beta1=beta2", "P_B|r=q"):
                assert e.expected == "zero"
                assert e.worst_error <= 1e-8
                assert e.dimension == 2


class TestTablePlumbing:
    def test_unknown_case(self):
        with pytest.raises(PreconditionError):
            table1("anticorrelated")

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_needs_a_sample(self, n_samples):
        with pytest.raises(PreconditionError, match="at least 1"):
            table1("correlated", n_samples=n_samples)

    def test_seeded_reproducibility(self):
        a = table1("correlated", n_samples=3, seed=7)
        b = table1("correlated", n_samples=3, seed=7)
        for ea, eb in zip(a.entries, b.entries):
            assert ea == eb

    def test_to_dict_round_trip_fields(self):
        d = table1("independent", n_samples=2, seed=1).to_dict()
        assert d["case"] == "independent"
        assert d["passed"] is True
        assert len(d["entries"]) == 36
        assert all(set(e) >= {"row", "column", "expected", "passed"}
                   for e in d["entries"])

    @pytest.mark.parametrize("case, evals", [("correlated", 46),
                                             ("independent", 50)])
    def test_rows_share_the_probes(self, eval_calls, case, evals):
        # one probe pass per column for all rows; row by row it took 460
        # (10 rows) and 450 (9 rows)
        table1(case, n_samples=1)
        assert eval_calls == [evals]

    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_entries_match_per_cell_gradients(self, case, seed):
        rows, columns = CASES[case]
        samples = sample_points(case, 20, seed)
        report = table1(case, n_samples=20, seed=seed)
        for row in rows:
            for col in columns:
                rel = lambda z: float(row.relation(col.joint_of(z)))
                alone = [gradient(rel, col.point_of(s), col.mode)
                         for s in samples]
                entry = report.entry(row.label, col.name)
                assert entry.kinds == tuple(sorted({r.kind for r in alone}))
                assert repr(entry.components) == repr(alone[0].components)


def _mixed_joint_array(z):
    """The joint as a numpy 4-vector: the reference the float cells must
    match bitwise."""
    a1, b1, b2, b3 = (float(v) for v in z)
    return np.array([(1.0 - a1) * (1.0 - b2 - b3), (1.0 - a1) * (b2 + b3),
                     a1 * (1.0 - b1 - b3), a1 * (b1 + b3)])


def _behavioural_joint_array(z):
    p, q, r = (float(v) for v in z)
    return np.array([(1.0 - p) * (1.0 - q), (1.0 - p) * q,
                     p * (1.0 - r), p * r])


class TestJointCells:
    def test_cells_are_plain_floats(self):
        for cells in (mixed_joint_cells(np.array([0.3, 0.2, 0.1, 0.4])),
                      mixed_joint_cells((np.float64(0.3), 1.0, 0.0, 0.0)),
                      behavioural_joint_cells(np.array([0.3, 0.2, 0.6])),
                      behavioural_joint_cells((np.float64(0.3), 0.2, 0.2))):
            assert type(cells) is tuple and len(cells) == 4
            assert all(type(c) is float for c in cells)

    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_table_matches_numpy_array_joints_bitwise(self, monkeypatch,
                                                      case, seed):
        floats = repr(table1(case, seed=seed))
        arrays = {mixed_joint_cells: _mixed_joint_array,
                  behavioural_joint_cells: _behavioural_joint_array}
        calls = []

        def counted(build):
            def wrapped(z):
                calls.append(build)
                return build(z)
            return wrapped

        for cells, array in arrays.items():
            monkeypatch.setattr(strategy, cells.__name__, counted(array))
        rows, columns = CASES[case]
        columns = tuple(
            replace(c, joint_of=counted(arrays[c.joint_of]))
            if c.joint_of in arrays else c for c in columns)
        monkeypatch.setitem(strategy.CASES, case, (rows, columns))
        assert repr(table1(case, seed=seed)) == floats
        assert {_mixed_joint_array, _behavioural_joint_array} <= set(calls)
