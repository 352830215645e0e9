"""Per-cell elevation/probability curves and their interpolation kernels.

A hazard curve relates flood surface elevations to annual exceedance
probabilities: higher surfaces correspond to rarer floods, so elevation is
strictly increasing while probability strictly decreases. Interpolation is
carried out on ln(p) against elevation, which makes the two supported
methods directly comparable and keeps probabilities positive:

* log-linear - straight-line interpolation of ln(p);
* monotone cubic - piecewise cubic Hermite with Fritsch-Carlson slope
  limiting, which guarantees the interpolant is monotone wherever the data
  are.

Queries below the lowest knot clamp to the most frequent probability,
queries above the highest knot clamp to the rarest; there is no
extrapolation. Evaluation at a knot elevation reproduces the knot
probability exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import CurveDomainError


# A knot not more than this above the last kept one is dropped. Then every
# interval has h > 2^-330, so h^3 > 8*745/1.8e308: |d ln p| < 745 between
# any two probabilities and limited slopes stay within 3 secants, so neither
# c3 = .../(h*h) nor d ln p / h can overflow.
MIN_KNOT_GAP = 2.0**-330


class InterpolationMethod(Enum):
    MONOTONE_CUBIC = "spline"
    LOG_LINEAR = "loglinear"


class Clamped(Enum):
    NO = 0
    HIGH = 1  # query below all knots, clamped to the most frequent probability
    LOW = 2  # query above all knots, clamped to the rarest probability


@dataclass(frozen=True)
class ClampedResult:
    probability: float
    clamped: Clamped


@dataclass(frozen=True, eq=False)
class HazardCurve:
    """Sorted knots: strictly increasing elevation, strictly decreasing p."""

    elevations: np.ndarray
    probabilities: np.ndarray
    log_probabilities: np.ndarray

    def __len__(self) -> int:
        return self.elevations.shape[0]


def make_curve(points: Iterable[tuple[float, float]]) -> HazardCurve | None:
    """Build a hazard curve from (elevation, exceedance probability) pairs.

    Points are sorted by descending probability. A point whose elevation is
    not more than MIN_KNOT_GAP above that of the previous retained (more
    frequent) point is dropped: real flood surfaces contain errors, and
    dropping restores monotonicity without inventing data. Returns None
    when fewer than two points survive.
    """
    pts = list(points)
    for _, p in pts:
        if not 0.0 < p < 1.0:
            raise CurveDomainError(f"exceedance probability {p} outside (0, 1)")
    pts.sort(key=lambda t: -t[1])
    kept: list[tuple[float, float]] = []
    for elev, p in pts:
        if kept and (elev <= kept[-1][0] + MIN_KNOT_GAP or p >= kept[-1][1]):
            continue
        kept.append((elev, p))
    if len(kept) < 2:
        return None
    elev = np.array([e for e, _ in kept])
    prob = np.array([p for _, p in kept])
    return HazardCurve(elev, prob, np.log(prob))


def fc_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Monotone-limited Hermite slopes for monotone data, array form.

    ``x`` has shape (n, m) with strictly increasing columns; ``y`` has a
    broadcast-compatible shape with columns monotone in either direction.
    Secants seed the slopes: interior points take the weighted harmonic
    mean of their adjacent secants (zero when the secants differ in sign or
    vanish), endpoints a one-sided three-point estimate clamped to preserve
    monotonicity. A left-to-right pass then rescales any interval whose
    normalised slopes (a, b) = (m_i, m_i+1)/secant leave the disc
    a^2 + b^2 <= 9, which is what guarantees a monotone interpolant.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    scalar_input = x.ndim == 1
    if scalar_input:
        x = x[:, None]
        y = y[:, None]
    n = x.shape[0]
    if n < 2:
        raise ValueError("need at least two knots")
    h = np.diff(x, axis=0)
    d = np.diff(y, axis=0) / h  # secants, (n-1, m)
    shape = np.broadcast_shapes(x.shape, y.shape)
    slopes = np.empty(shape)
    if n == 2:
        slopes[0] = d[0]
        slopes[1] = d[0]
    else:
        d_left, d_right = d[:-1], d[1:]
        h_left, h_right = h[:-1], h[1:]
        w1 = 2.0 * h_right + h_left
        w2 = h_right + 2.0 * h_left
        usable = (np.sign(d_left) == np.sign(d_right)) & (d_left != 0) & (d_right != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            harmonic = (w1 + w2) / (w1 / d_left + w2 / d_right)
        slopes[1:-1] = np.where(usable, harmonic, 0.0)
        slopes[0] = _edge_slope(h[0], h[1], d[0], d[1])
        slopes[-1] = _edge_slope(h[-1], h[-2], d[-1], d[-2])

    # Fritsch-Carlson limiter, one pass; both ends of a violating interval
    # shrink together, later intervals see the updated values.
    for i in range(n - 1):
        di = d[i]
        nz = di != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(nz, slopes[i] / di, 0.0)
            b = np.where(nz, slopes[i + 1] / di, 0.0)
        s2 = a * a + b * b
        viol = nz & (s2 > 9.0)
        if viol.any():
            tau = 3.0 / np.sqrt(s2[viol])
            dv = di[viol]
            slopes[i][viol] = tau * a[viol] * dv
            slopes[i + 1][viol] = tau * b[viol] * dv
    return slopes[:, 0] if scalar_input else slopes


def _edge_slope(h0, h1, d0, d1):
    """Three-point endpoint slope with the standard monotonicity clamps."""
    est = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    est = np.where(np.sign(est) != np.sign(d0), 0.0, est)
    flip = (np.sign(d0) != np.sign(d1)) & (np.abs(est) > 3.0 * np.abs(d0))
    return np.where(flip, 3.0 * d0, est)


def fritsch_carlson_derivatives(curve: HazardCurve) -> np.ndarray:
    """Per-knot slopes of ln(p) against elevation for a hazard curve."""
    return fc_slopes(curve.elevations, curve.log_probabilities)


def _interval_index(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Index of the knot interval containing each query (knots on the left
    edge of their interval, so evaluation at a knot is exact)."""
    n = x.shape[0]
    return np.clip(np.sum(x <= z, axis=0) - 1, 0, n - 2)


def _hermite_eval(x, y, slopes, idx, z):
    cols = np.arange(z.shape[0])
    xi = x[idx, cols]
    h = x[idx + 1, cols] - xi
    yi = y[idx]
    di = (y[idx + 1] - yi) / h
    mi = slopes[idx, cols]
    mi1 = slopes[idx + 1, cols]
    s = z - xi
    c2 = (3.0 * di - 2.0 * mi - mi1) / h
    c3 = (mi + mi1 - 2.0 * di) / (h * h)
    return yi + s * (mi + s * (c2 + s * c3))


def _loglinear_eval(x, y, idx, z):
    cols = np.arange(z.shape[0])
    xi = x[idx, cols]
    yi = y[idx]
    di = (y[idx + 1] - yi) / (x[idx + 1, cols] - xi)
    return yi + di * (z - xi)


def monotone_cubic_interpolate(x, y, zq) -> np.ndarray:
    """Evaluate the monotone cubic through (x, y) at query points ``zq``.

    One-dimensional convenience over the same kernel the map pipeline uses;
    queries outside [x[0], x[-1]] clamp to the endpoint values.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    zq = np.atleast_1d(np.asarray(zq, dtype=np.float64))
    slopes = fc_slopes(x, y)
    x2 = np.broadcast_to(x[:, None], (x.shape[0], zq.shape[0]))
    s2 = np.broadcast_to(slopes[:, None], x2.shape)
    idx = _interval_index(x2, zq)
    out = _hermite_eval(x2, y, s2, idx, zq)
    out = np.where(zq <= x[0], y[0], out)
    out = np.where(zq >= x[-1], y[-1], out)
    return out


def _evaluate_knot_batch(
    x: np.ndarray,
    log_p: np.ndarray,
    p: np.ndarray,
    z: np.ndarray,
    method: InterpolationMethod,
) -> np.ndarray:
    """Evaluate many single-celled curves that share per-knot probabilities.

    ``x`` is (n, m): per-cell knot elevations, strictly increasing down the
    columns. ``log_p`` and ``p`` are (n,): the shared probabilities per knot
    row. Every query must lie in [x[0], x[-1]]; clamping is the caller's
    job. Returns the probability at each query, with exact knot hits set
    to the knot's probability bit for bit.
    """
    idx = _interval_index(x, z)
    if method is InterpolationMethod.LOG_LINEAR:
        y_val = _loglinear_eval(x, log_p, idx, z)
    else:
        slopes = fc_slopes(x, log_p[:, None])
        y_val = _hermite_eval(x, log_p, slopes, idx, z)
    # keep interior results inside their interval: y_val and exp(ln p) may
    # each stray from it by an ulp
    prob = np.clip(np.exp(y_val), p[idx + 1], p[idx])

    at_knot = x[idx, np.arange(z.shape[0])] == z
    prob[at_knot] = p[idx[at_knot]]
    prob[z == x[-1]] = p[-1]
    return prob


def eval_curve(
    curve: HazardCurve, method: InterpolationMethod, z: float
) -> ClampedResult:
    """Exceedance probability of a curve at ground elevation ``z``.

    Inside the knot range this interpolates; outside it clamps to the
    nearest endpoint probability and reports which side was clamped.
    """
    x = curve.elevations
    if z < x[0]:
        return ClampedResult(float(curve.probabilities[0]), Clamped.HIGH)
    if z > x[-1]:
        return ClampedResult(float(curve.probabilities[-1]), Clamped.LOW)
    prob = _evaluate_knot_batch(
        x[:, None], curve.log_probabilities, curve.probabilities,
        np.array([float(z)]), method,
    )
    return ClampedResult(float(prob[0]), Clamped.NO)
