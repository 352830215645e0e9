"""Curve construction and the two interpolation kernels.

The monotone cubic kernel is checked against the package's scalar
reference implementation (plain-float loops, no shared code) and against
the analytic behaviour forced by log-linearity.
"""

import math

import numpy as np
import pytest

from flopit import (
    Clamped,
    CurveDomainError,
    InterpolationMethod,
    eval_curve,
    fc_slopes,
    fritsch_carlson_derivatives,
    make_curve,
    monotone_cubic_interpolate,
)
from flopit.synth import scalar_fc_slopes, scalar_hermite_eval, scalar_loglinear_eval

SPLINE = InterpolationMethod.MONOTONE_CUBIC
LOGLIN = InterpolationMethod.LOG_LINEAR


def random_monotone_dataset(rng, n=None, decreasing=None, allow_flats=True):
    n = n or int(rng.integers(2, 21))
    x = np.cumsum(rng.uniform(0.1, 2.0, n)) + rng.uniform(-5, 5)
    steps = rng.uniform(0.05, 2.0, n - 1)
    if allow_flats:
        steps[rng.random(n - 1) < 0.15] = 0.0
    if decreasing is None:
        decreasing = bool(rng.integers(0, 2))
    y = np.concatenate([[rng.uniform(-3, 3)], steps]).cumsum()
    if decreasing:
        y = -y
    return x, y


# --- make_curve ---------------------------------------------------------


def test_make_curve_monotone_input():
    curve = make_curve([(5, 0.1), (7, 0.01), (8, 0.002)])
    assert len(curve) == 3
    assert curve.elevations.tolist() == [5, 7, 8]
    assert curve.probabilities.tolist() == [0.1, 0.01, 0.002]


def test_make_curve_drops_backward_knot():
    curve = make_curve([(5, 0.1), (4.9, 0.01), (8, 0.002)])
    assert len(curve) == 2
    assert curve.elevations.tolist() == [5, 8]
    assert curve.probabilities.tolist() == [0.1, 0.002]


def test_make_curve_degenerate():
    assert make_curve([(5, 0.1), (5, 0.01)]) is None


def test_make_curve_sorts_by_probability():
    curve = make_curve([(8, 0.002), (5, 0.1), (7, 0.01)])
    assert curve.elevations.tolist() == [5, 7, 8]


def test_make_curve_rejects_bad_probability():
    with pytest.raises(CurveDomainError):
        make_curve([(5, 0.0), (7, 0.01)])
    with pytest.raises(CurveDomainError):
        make_curve([(5, 1.5), (7, 0.01)])


# --- Fritsch-Carlson slopes ---------------------------------------------


def test_slopes_linear_data_reproduced():
    # ln p moving linearly by -1 per elevation unit: slope -1 at every knot
    slopes = fc_slopes(np.array([0.0, 1.0, 2.0]), np.array([0.0, -1.0, -2.0]))
    assert slopes.tolist() == [-1.0, -1.0, -1.0]


def test_curve_derivatives_interpolate_log_p():
    curve = make_curve([(5, 0.1), (7, 0.01), (8, 0.002)])
    slopes = fritsch_carlson_derivatives(curve)
    ref = scalar_fc_slopes(
        list(curve.elevations), [math.log(p) for p in curve.probabilities]
    )
    assert np.allclose(slopes, ref, rtol=1e-12, atol=1e-12)
    assert (slopes < 0).all()  # rarer floods sit higher


def test_slopes_two_knots_equal_secant():
    x = np.array([3.0, 7.0])
    y = np.array([2.0, 1.0])
    slopes = fc_slopes(x, y)
    assert slopes.tolist() == [-0.25, -0.25]


def test_slopes_need_two_knots():
    with pytest.raises(ValueError, match="need at least two knots"):
        fc_slopes(np.array([3.0]), np.array([2.0]))


def test_end_slope_limited_to_three_secants_across_a_turn():
    # secants 1 then -10: the one-sided estimate at x = 0 is 6.5, three
    # times the first secant at most; the interior knot turns, so it is flat
    xs, ys = [0.0, 1.0, 2.0], [0.0, 1.0, -9.0]
    assert scalar_fc_slopes(xs, ys) == [3.0, 0.0, -15.5]
    assert fc_slopes(np.array(xs), np.array(ys)).tolist() == [3.0, 0.0, -15.5]


def test_slopes_match_scalar_reference():
    xs = [0.0, 1.0, 2.0]
    ys = [0.0, -2.0, -2.2]
    got = fc_slopes(np.array(xs), np.array(ys))
    ref = scalar_fc_slopes(xs, ys)
    assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_slopes_match_reference_randomised(rng):
    for _ in range(300):
        x, y = random_monotone_dataset(rng)
        got = fc_slopes(x, y)
        ref = scalar_fc_slopes(list(x), list(y))
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_evaluations_match_reference_randomised(rng):
    for _ in range(100):
        x, y = random_monotone_dataset(rng)
        zq = rng.uniform(x[0], x[-1], 40)
        got = monotone_cubic_interpolate(x, y, zq)
        slopes = scalar_fc_slopes(list(x), list(y))
        ref = [scalar_hermite_eval(list(x), list(y), slopes, z) for z in zq]
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


# --- eval_curve ---------------------------------------------------------


def test_loglinear_geometric_midpoint():
    curve = make_curve([(10, 0.1), (12, 0.01)])
    res = eval_curve(curve, LOGLIN, 11.0)
    assert res.clamped is Clamped.NO
    assert res.probability == pytest.approx(10**-1.5, rel=1e-12)


def test_loglinear_quarter_point():
    curve = make_curve([(10, 0.1), (12, 0.01)])
    res = eval_curve(curve, LOGLIN, 10.5)
    assert res.probability == pytest.approx(10**-1.25, rel=1e-12)


def test_knot_exactness():
    curve = make_curve([(5, 0.1), (7, 0.01), (8, 0.002)])
    for method in (SPLINE, LOGLIN):
        for z, p in [(5, 0.1), (7, 0.01), (8, 0.002)]:
            res = eval_curve(curve, method, z)
            assert res.probability == p
            assert res.clamped is Clamped.NO


def test_spline_interior_in_range_and_matches_reference():
    curve = make_curve([(5, 0.1), (7, 0.01), (8, 0.002)])
    res = eval_curve(curve, SPLINE, 6.0)
    assert 0.01 < res.probability < 0.1
    xs = [5.0, 7.0, 8.0]
    ys = [math.log(0.1), math.log(0.01), math.log(0.002)]
    expected = math.exp(scalar_hermite_eval(xs, ys, scalar_fc_slopes(xs, ys), 6.0))
    assert res.probability == pytest.approx(expected, rel=1e-12)


def test_clamping():
    curve = make_curve([(5, 0.1), (7, 0.01)])
    low = eval_curve(curve, SPLINE, 4.0)
    assert low.probability == 0.1 and low.clamped is Clamped.HIGH
    high = eval_curve(curve, SPLINE, 9.0)
    assert high.probability == 0.01 and high.clamped is Clamped.LOW


def test_methods_agree_with_two_knots(rng):
    for _ in range(200):
        p1 = rng.uniform(0.02, 0.5)
        p2 = p1 * rng.uniform(0.01, 0.8)
        x1 = rng.uniform(0, 100)
        x2 = x1 + rng.uniform(0.5, 20)
        curve = make_curve([(x1, p1), (x2, p2)])
        z = rng.uniform(x1, x2)
        a = eval_curve(curve, SPLINE, z).probability
        b = eval_curve(curve, LOGLIN, z).probability
        assert a == pytest.approx(b, rel=1e-12)


def test_monotonicity_of_evaluations(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        elev = np.cumsum(rng.uniform(0.5, 3.0, n))
        probs = np.sort(rng.uniform(1e-4, 0.5, n))[::-1]
        curve = make_curve(list(zip(elev, probs)))
        z = np.sort(rng.uniform(elev[0] - 1, elev[-1] + 1, 50))
        for method in (SPLINE, LOGLIN):
            p = [eval_curve(curve, method, zi).probability for zi in z]
            assert all(a >= b for a, b in zip(p, p[1:]))


def test_monotonicity_full_scale(rng):
    # 1000 random curves x 100 sorted queries, both methods, via the same
    # kernel eval_curve wraps (batched so the property holds at scale);
    # queries outside the knots take the clamped endpoint probabilities
    from flopit.curves import _evaluate_knot_batch

    for _ in range(1000):
        n = int(rng.integers(2, 7))
        elev = np.cumsum(rng.uniform(0.5, 3.0, n)) + rng.uniform(-10, 10)
        probs = np.sort(rng.uniform(1e-5, 0.9, n))[::-1]
        curve = make_curve(list(zip(elev, probs)))
        z = np.sort(rng.uniform(elev[0] - 1, elev[-1] + 1, 100))
        below = z < curve.elevations[0]
        above = z > curve.elevations[-1]
        inner = z[~below & ~above]
        x = np.broadcast_to(curve.elevations[:, None], (n, inner.size))
        for method in (SPLINE, LOGLIN):
            p = np.concatenate([
                np.full(np.count_nonzero(below), curve.probabilities[0]),
                _evaluate_knot_batch(
                    x, curve.log_probabilities, curve.probabilities, inner, method
                ),
                np.full(np.count_nonzero(above), curve.probabilities[-1]),
            ])
            assert (np.diff(p) <= 0).all()


def test_interior_range_strict():
    curve = make_curve([(5, 0.1), (7, 0.01), (8, 0.002)])
    for method in (SPLINE, LOGLIN):
        for z in (5.5, 6.0, 6.5, 7.5):
            p = eval_curve(curve, method, z).probability
            assert 0.002 < p < 0.1


def test_loglinear_equals_scalar_reference(rng):
    for _ in range(100):
        x, y = random_monotone_dataset(rng, decreasing=True, allow_flats=False)
        probs = np.exp(np.clip(y, -20, -0.01))
        curve = make_curve(list(zip(x, probs)))
        z = float(rng.uniform(x[0], x[-1]))
        got = eval_curve(curve, LOGLIN, z).probability
        ref = math.exp(
            scalar_loglinear_eval(
                list(curve.elevations), [math.log(p) for p in curve.probabilities], z
            )
        )
        assert got == pytest.approx(ref, rel=1e-13)
