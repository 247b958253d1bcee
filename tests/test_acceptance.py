"""Acceptance gate: every headline claim checked at its stated tolerance.

Each criterion prints one ``ACCEPTANCE n: PASS/FAIL — description`` line
(run with ``pytest tests/test_acceptance.py -s`` to see them as they
happen; without ``-s`` pytest shows them for failures).
"""

import contextlib
import functools
import io
import json
import math
import time
from dataclasses import astuple

import numpy as np
import pytest

from isograd import (
    cli,
    core,
    dice,
    game,
    gaussian,
    jointbinary,
    strategy,
    treeopt,
)
from isograd.core import (
    Constrained,
    ConstraintSet,
    Limit,
    entropy,
    entropy_of_free,
    finite_difference,
    gradient,
    simplex_volume,
)
from isograd.jointbinary import CountData, JointPoint, joint_from_free
from oracles import marginal_entropy_gradient

LOG2 = math.log(2.0)
LOG3_OVER_4 = math.log(3.0) / 4.0
LOG4_OVER_36 = math.log(4.0) / 36.0


def criterion(n: int, description: str):
    """Print the verdict line for one acceptance criterion."""
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n}: FAIL — {description}", flush=True)
                raise
            print(f"ACCEPTANCE {n}: PASS — {description}", flush=True)
        return inner
    return wrap


def run_command(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@criterion(1, "die-rolling payoff maxima match the closed forms")
def test_criterion_1_dice():
    start = time.perf_counter()
    per = {r.label: r for r in dice.maximize_per_space()}
    assert per["Coin"].value == pytest.approx(LOG2, abs=1e-12)
    assert per["Triangle"].value == pytest.approx(LOG3_OVER_4, abs=1e-12)
    assert per["Square"].value == pytest.approx(LOG4_OVER_36, abs=1e-12)

    constrained = {r.label: r for r in dice.maximize_constrained_target()}
    assert constrained["Coin"].value == pytest.approx(LOG2, abs=1e-8)
    assert constrained["Triangle"].value == pytest.approx(LOG3_OVER_4,
                                                          abs=1e-8)
    assert constrained["Square"].value == pytest.approx(LOG4_OVER_36,
                                                        abs=1e-8)

    unconstrained = dice.maximize_unconstrained()
    np.testing.assert_allclose(unconstrained.point, [0.25] * 4, atol=1e-4)
    assert unconstrained.value == pytest.approx(LOG4_OVER_36, abs=1e-8)
    assert time.perf_counter() - start < 5.0


@criterion(2, "pinned-family report separates the two semantics "
              "categorically")
def test_criterion_2_headline_report():
    code, out = run_command(["report-eq1-4", "--format", "json"])
    assert code == 0
    rows = {r["quantity"]: r for r in json.loads(out)["rows"]}
    assert rows["dim(F)"]["constrained"] == 1
    assert rows["dim(F)"]["limit"] == 3
    assert rows["dim(grad L)"]["constrained"] == 1
    assert rows["dim(grad L)"]["limit"] == 3
    assert rows["|grad E_xy|"]["constrained"] == 0.0
    assert rows["|grad E_xy|"]["limit"] == "diverging"
    assert rows["d"]["constrained"] == 1
    assert rows["d"]["limit"] == 3
    assert rows["V"]["constrained"] == 1.0
    assert rows["V"]["limit"] == pytest.approx(1.0 / 6.0, abs=1e-6)


@criterion(3, "Fisher information matches its defining forms")
def test_criterion_3_fisher():
    for a in np.linspace(0.01, 0.99, 99):
        scalar = jointbinary.fisher_information(
            JointPoint(a, 0.0, 0.0, 1.0 - a), "constrained")[0][0]
        np.testing.assert_allclose(scalar, 1.0 / (a * (1.0 - a)),
                                   rtol=1e-10)

    rng = np.random.default_rng(42)
    for _ in range(5):
        j = 0.8 * rng.dirichlet(np.ones(4)) + 0.05
        p = JointPoint(*j)
        matrix = jointbinary.fisher_information(p, "unconstrained")
        brute = np.zeros((3, 3))
        for o in range(4):
            score = finite_difference(
                lambda x, o=o: math.log(joint_from_free(x)[o]), p.pv)
            brute += p.probs[o] * np.outer(score, score)
        np.testing.assert_allclose(matrix, brute, atol=1e-8)


@criterion(4, "maximum-likelihood estimates are the exact relative "
              "frequencies")
def test_criterion_4_mle():
    for n in (10, 100, 1000):
        for n_a in (1, 3, n // 2, n - 1):
            counts = CountData(n_a, 0, 0, n - n_a)
            for mode in ("constrained", "unconstrained"):
                estimate = jointbinary.mle(counts, mode)
                assert abs(estimate.a - n_a / n) <= 1e-14
                assert estimate.b == 0.0 and estimate.c == 0.0
                assert abs(estimate.d - (n - n_a) / n) <= 1e-14


@criterion(5, "two-route comparison table: zeros, closed forms, and "
              "nonzero rows all hold")
def test_criterion_5_table():
    start = time.perf_counter()
    for case in ("correlated", "independent"):
        report = strategy.table1(case, n_samples=20, seed=42)
        assert report.passed
        constrained_columns = {c.name for c in report.columns
                               if c.kind == "constrained"}
        zero_entries = [e for e in report.entries
                        if e.column in constrained_columns
                        and e.expected in ("zero", "unit")]
        assert len(zero_entries) >= 4
        for e in zero_entries:
            assert e.worst_error <= 1e-8
        for e in report.entries:
            if e.expected == "components":
                assert e.worst_error <= 1e-5
            if e.expected == "nonzero":
                assert ("diverging" in e.kinds
                        or (e.evidence is not None and e.evidence > 1e-6))
    assert time.perf_counter() - start < 10.0


@criterion(6, "bivariate-normal relation gradients vanish under the "
              "constraint and match the closed slopes in the limit")
def test_criterion_6_gaussian():
    rng = np.random.default_rng(42)
    for _ in range(10):
        params = gaussian.NormalParams(
            mu_x=float(rng.uniform(-1.0, 1.0)),
            mu_y=float(rng.uniform(-1.0, 1.0)),
            sigma_x=float(rng.uniform(0.5, 1.5)),
            sigma_y=float(rng.uniform(0.5, 1.5)),
            rho=0.0,
        )
        for check in gaussian.check_suite(params):
            if check.mode == "constrained":
                assert check.statistic < 1e-6
        # the expectation statistic's one relation is <xy> - <x><y>
        res, = gaussian._kind_gradients(params, "expectation", "limit", None)
        slope = gaussian.rho_component(res)
        assert slope == pytest.approx(params.sigma_x * params.sigma_y,
                                      abs=1e-4)


@criterion(7, "agreement-payoff maxima: 0.5 over the open cube, "
              "1.0 on the pinned edge")
def test_criterion_7_discrepancy():
    free = treeopt.maximize_discrepancy("unconstrained")
    assert free.value == pytest.approx(0.5, abs=1e-9)
    p, q, r = free.point
    assert p == pytest.approx(0.5, abs=1e-9)
    assert q + r == pytest.approx(1.0, abs=1e-9)

    pinned = treeopt.maximize_discrepancy("constrained")
    assert pinned.value == 1.0


@criterion(8, "correlation-slice sweep reproduces the nine-row table and "
              "round-trips the correlation")
def test_criterion_8_sweep():
    start = time.perf_counter()
    result = treeopt.sweep(grid=401)
    values = [r.value for r in result.rows]
    np.testing.assert_allclose(
        values, [1.0, 1.03032, 1.40068, 2.02693, 3.0, 3.0, 3.0, 3.0, 3.0],
        atol=1e-3)
    printed_points = [
        (1.0, 0.0, 1.0),
        (0.8138, 0.3876, 1.0),
        (0.4831, 0.5917, 1.0),
        (0.2590, 0.7953, 1.0),
        (0.0, 1.0, 1.0),
        (0.0, 1.0, 0.9378),
        (0.0, 1.0, 0.7506),
        (0.0, 1.0, 0.4386),
        (0.0, 1.0, 0.0),
    ]
    for row, point in zip(result.rows, printed_points):
        np.testing.assert_allclose(row.point, point, atol=2e-2)
    assert result.best.diagnostics["rho"] == -1.0

    grid = np.linspace(0.02, 0.98, 50)
    for p in grid:
        for q in grid:
            assert abs(treeopt._surface_clamped(p, q, 0.0) - q) <= 1e-12

    rng = np.random.default_rng(42)
    for rho in (0.6, 0.3, -0.3, -0.6):
        bound_side = rho > 0.0
        for _ in range(50):
            p = float(rng.uniform(0.05, 0.95))
            bound = treeopt._bound_clamped(p, rho)
            u = float(rng.uniform(0.01, 0.99))
            q = u * bound if bound_side else bound + u * (1.0 - bound)
            r = treeopt._surface_clamped(p, q, rho)
            recovered = jointbinary.correlation_of_joint(
                strategy.behavioural_joint_cells((p, q, r)))
            assert recovered == pytest.approx(rho, abs=1e-8)
    assert time.perf_counter() - start < 60.0


@criterion(9, "two-stage game outcomes are exact under every coupling")
def test_criterion_9_game():
    start = time.perf_counter()
    baseline = game.backward_induction()
    assert baseline.strategy == (0.0, 1.0)
    assert baseline.payoffs == (2.0, 2.0)

    assert game.solve_slice(game.DEFAULT_GAME, 1.0).payoffs == (4.0, 3.0)
    assert game.solve_slice(game.DEFAULT_GAME, -1.0).payoffs == (2.0, 2.0)
    assert game.solve_slice(game.DEFAULT_GAME, 0.0).payoffs == (2.5, 2.5)

    table, chosen = game.global_comparison()
    assert chosen.label == "rho=+1"
    assert chosen.payoffs == (4.0, 3.0)
    assert time.perf_counter() - start < 1.0


def _engine_vs_reference_cases():
    """100 seeded engine-vs-closed-form comparisons for every module."""
    rng = np.random.default_rng(42)

    # core: random quadratics, ambient-limit engine vs the exact gradient
    for _ in range(100):
        A = rng.normal(size=(3, 3))
        b = rng.normal(size=3)
        x0 = rng.uniform(0.1, 0.9, size=3)
        f = lambda z, A=A, b=b: float(z @ A @ z + b @ z)
        exact = (A + A.T) @ x0 + b
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        res = gradient(f, x0, Limit(tuple(d)))
        assert res.kind == "finite"
        yield "core", res.components, exact
        yield "core-fd", finite_difference(f, x0), exact

    # dice: closed-form marginal entropy gradient vs central differences
    for _ in range(100):
        k = int(rng.integers(1, 4))
        free = rng.dirichlet(np.ones(k + 1))[:k] * 0.9 + 0.02
        yield ("dice", marginal_entropy_gradient(free),
               finite_difference(entropy_of_free, free))

    # jointbinary: closed-form entropy gradient vs central differences
    for _ in range(100):
        j = 0.8 * rng.dirichlet(np.ones(4)) + 0.05
        p = JointPoint(*j)
        yield ("jointbinary",
               jointbinary.entropy_gradient(p, "unconstrained").components,
               finite_difference(lambda x: jointbinary.entropy_xy(
                   joint_from_free(x)), p.pv))

    # gaussian: density gradient through the engine vs step-halved FD
    for _ in range(100):
        params = gaussian.NormalParams(
            float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)),
            float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.5, 1.5)),
            float(rng.uniform(-0.5, 0.5)))
        z = np.array([*rng.uniform(-1, 1, size=2), *astuple(params)])
        f = lambda w: gaussian._joint(*w)
        res = gradient(f, z, Constrained(ConstraintSet.empty()))
        yield "gaussian", res.components, finite_difference(f, z, h=5e-7)

    # strategy: mixed-coordinate correlation, smooth limit vs closed FD
    for _ in range(100):
        alpha1 = float(rng.uniform(0.2, 0.8))
        betas = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
        z = np.array([alpha1, betas[1], betas[2], betas[3]])
        f = lambda w: jointbinary.correlation_of_joint(
            strategy.mixed_joint_cells(w))
        d = rng.normal(size=4)
        d /= np.linalg.norm(d)
        res = gradient(f, z, Limit(tuple(d)))
        assert res.kind == "finite"
        yield "strategy", res.components, finite_difference(f, z)

    # treeopt: quadratic detection objective vs its exact partials
    for _ in range(100):
        p, q, r = rng.uniform(0.05, 0.95, size=3)
        f = lambda w: treeopt.discrepancy_payoff(w[0], w[1], w[2])
        exact = np.array([2.0 - 4.0 * p,
                          -2.0 * (q + r - 1.0),
                          -2.0 * (q + r - 1.0)])
        res = gradient(f, np.array([p, q, r]),
                       Constrained(ConstraintSet.empty()))
        yield "treeopt", res.components, exact

    # game: bilinear payoff forms vs their exact partial derivatives
    for _ in range(100):
        c0, cx, cy, cxy = rng.normal(size=4)
        form = game.PayoffForm(c0, cx, cy, cxy)
        x, y = rng.uniform(0.0, 1.0, size=2)
        f = lambda w: form(w[0], w[1])
        exact = np.array([cx + cxy * y, cy + cxy * x])
        yield "game", finite_difference(f, np.array([x, y])), exact


@criterion(10, "property suites: engine vs closed forms, the "
               "representation mapping, and the entropy/volume identities")
def test_criterion_10_properties():
    for label, actual, reference in _engine_vs_reference_cases():
        np.testing.assert_allclose(actual, reference, rtol=1e-5, atol=1e-7,
                                   err_msg=label)

    rng = np.random.default_rng(42)
    for _ in range(10_000):
        alpha1 = float(rng.uniform())
        betas = rng.dirichlet(np.ones(4))
        # (p, q, r) = (alpha1, beta2 + beta3, beta1 + beta3)
        direct = strategy.mixed_joint_cells(
            (alpha1, betas[1], betas[2], betas[3]))
        via_map = strategy.behavioural_joint_cells(
            (alpha1, betas[2] + betas[3], betas[1] + betas[3]))
        np.testing.assert_allclose(via_map, direct, atol=1e-12)

    for n in range(2, 7):
        uniform = np.full(n, 1.0 / n)
        top = entropy(uniform)
        assert top == pytest.approx(math.log(n), rel=1e-14)
        for _ in range(200):
            p = rng.dirichlet(np.ones(n))
            assert entropy(p) <= top + 1e-12
        assert simplex_volume(n) == 1.0 / math.factorial(n - 1)
