"""Deterministic synthetic terrain fixtures with closed-form expectations.

Real FEMA-derived datasets are large and not redistributable, so testing
and demos use generated terrain whose correct probabilities are known in
closed form: a planar ramp (elevation = row * slope), a V-shaped valley
(elevation = |col - ncols/2| * slope) and a ramp with seeded uniform noise.
Flood surfaces are constant elevations masked to the cells they actually
cover, mimicking extent-limited flood grids.

:func:`oracle_probability` evaluates the same elevation/probability curve
mathematics as the map pipeline but through an independently written
scalar code path that shares no interpolation code with it; agreement
between the two is evidence, not tautology.

The noise generator is a fixed linear congruential generator
(state = (1664525 * state + 1013904223) mod 2^32, uniform = state / 2^32)
so fixtures are reproducible bit-for-bit anywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .curves import InterpolationMethod
from .hazard import MAX_ABS_ELEVATION, LayerKind, ReturnPeriodLayer
from .raster import DEFAULT_NODATA, GridHeader, Raster, locked, write_ascii_grid

# noise amplitude of the noisy ramp, in multiples of the row-to-row relief
NOISE_CELLS = 5.0

_LCG_MULT = 1664525
_LCG_ADD = 1013904223
_LCG_MOD = 2**32


class FixtureShape(Enum):
    RAMP = "ramp"
    VALLEY = "valley"
    NOISY_RAMP = "noisyramp"


@dataclass(frozen=True)
class FixtureSpec:
    """Recipe for one synthetic terrain plus its constant flood surfaces.

    ``wse_levels`` pairs each return period with the constant surface
    elevation of that flood, strictly increasing in both.
    """

    shape: FixtureShape
    ncols: int = 50
    nrows: int = 40
    slope: float = 0.5
    wse_levels: tuple[tuple[float, float], ...] = ((10.0, 5.0), (100.0, 7.0), (500.0, 8.0))
    seed: int = 0

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError("fixture must be at least 1x1")
        if not 0 < self.slope < math.inf:
            raise ValueError(f"slope must be positive and finite, got {self.slope}")
        # bounds |elevation| on every shape, noise included
        relief = (max(self.ncols, self.nrows) + NOISE_CELLS) * self.slope
        if relief > MAX_ABS_ELEVATION:
            raise ValueError(
                f"DEM relief up to {relief:g} is beyond ±{MAX_ABS_ELEVATION:g}"
            )
        if len(self.wse_levels) < 2:
            raise ValueError("need at least two WSE levels")
        periods = [t for t, _ in self.wse_levels]
        levels = [w for _, w in self.wse_levels]
        if not all(map(math.isfinite, periods + levels)):
            raise ValueError(
                f"return periods and WSE levels must be finite, got {self.wse_levels}"
            )
        if any(b <= a for a, b in zip(periods, periods[1:])):
            raise ValueError(f"return periods must be strictly increasing, got {periods}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError(f"WSE levels must be strictly increasing, got {levels}")


def lcg_uniforms(seed: int, count: int) -> np.ndarray:
    """``count`` uniforms in [0, 1) from the fixed 32-bit LCG."""
    out = np.empty(count)
    state = seed % _LCG_MOD
    for i in range(count):
        state = (_LCG_MULT * state + _LCG_ADD) % _LCG_MOD
        out[i] = state / _LCG_MOD
    return out


def generate_fixture(spec: FixtureSpec) -> tuple[Raster, list[ReturnPeriodLayer]]:
    """DEM and extent-masked constant WSE layers for a fixture spec."""
    hdr = GridHeader(
        ncols=spec.ncols,
        nrows=spec.nrows,
        xllcorner=0.0,
        yllcorner=0.0,
        cellsize=1.0,
        nodata_value=DEFAULT_NODATA,
    )
    rows = np.arange(spec.nrows, dtype=np.float64)[:, None]
    cols = np.arange(spec.ncols, dtype=np.float64)[None, :]
    if spec.shape is FixtureShape.VALLEY:
        dem = np.broadcast_to(np.abs(cols - spec.ncols / 2.0) * spec.slope, hdr.shape).copy()
    else:
        dem = np.broadcast_to(rows * spec.slope, hdr.shape).copy()
        if spec.shape is FixtureShape.NOISY_RAMP:
            noise = lcg_uniforms(spec.seed, spec.nrows * spec.ncols)
            dem += (2.0 * noise.reshape(hdr.shape) - 1.0) * NOISE_CELLS * spec.slope

    dem_raster = Raster(hdr, locked(dem))
    layers = []
    for t_years, level in spec.wse_levels:
        vals = np.where(level > dem, level, hdr.nodata_value)
        layers.append(
            ReturnPeriodLayer(t_years, LayerKind.WSE, Raster(hdr, locked(vals)))
        )
    return dem_raster, layers


def write_fixture(spec: FixtureSpec, outdir: str | Path, decimals: int = 6) -> dict:
    """Write fixture rasters plus a manifest; returns the manifest dict."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    dem, layers = generate_fixture(spec)
    write_ascii_grid(dem, outdir / "dem.asc", decimals)
    manifest = {
        "shape": spec.shape.value,
        "ncols": spec.ncols,
        "nrows": spec.nrows,
        "slope": spec.slope,
        "seed": spec.seed,
        "dem": "dem.asc",
        "layers": [],
    }
    for lyr in layers:
        name = f"wse_T{lyr.return_period_years:g}.asc"
        write_ascii_grid(lyr.grid, outdir / name, decimals)
        manifest["layers"].append(
            {
                "return_period_years": lyr.return_period_years,
                "kind": lyr.kind.value,
                "path": name,
            }
        )
    with open(outdir / "manifest.json", "w", encoding="ascii", newline="") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


# --- independent scalar curve mathematics -------------------------------
#
# Deliberately plain loops over Python floats: this is the reference the
# vectorised kernels are judged against, so it must not share code with
# them.


def scalar_fc_slopes(xs: list[float], ys: list[float]) -> list[float]:
    """Monotone-limited Hermite slopes, scalar reference implementation."""
    n = len(xs)
    h = [xs[i + 1] - xs[i] for i in range(n - 1)]
    d = [(ys[i + 1] - ys[i]) / h[i] for i in range(n - 1)]
    if n == 2:
        return [d[0], d[0]]

    def sign(v: float) -> int:
        return 1 if v > 0 else (-1 if v < 0 else 0)

    slopes = [0.0] * n
    for i in range(1, n - 1):
        dl, dr = d[i - 1], d[i]
        if dl == 0.0 or dr == 0.0 or sign(dl) != sign(dr):
            slopes[i] = 0.0
        else:
            w1 = 2.0 * h[i] + h[i - 1]
            w2 = h[i] + 2.0 * h[i - 1]
            slopes[i] = (w1 + w2) / (w1 / dl + w2 / dr)
    for i, h0, h1, d0, d1 in ((0, h[0], h[1], d[0], d[1]),
                              (n - 1, h[-1], h[-2], d[-1], d[-2])):
        est = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
        if sign(est) != sign(d0):
            est = 0.0
        elif sign(d0) != sign(d1) and abs(est) > 3.0 * abs(d0):
            est = 3.0 * d0
        slopes[i] = est
    for i in range(n - 1):
        if d[i] == 0.0:
            continue
        a = slopes[i] / d[i]
        b = slopes[i + 1] / d[i]
        s2 = a * a + b * b
        if s2 > 9.0:
            tau = 3.0 / math.sqrt(s2)
            slopes[i] = tau * a * d[i]
            slopes[i + 1] = tau * b * d[i]
    return slopes


def scalar_hermite_eval(
    xs: list[float], ys: list[float], slopes: list[float], z: float
) -> float:
    """Cubic Hermite evaluation at ``z`` inside [xs[0], xs[-1]]."""
    i = _scalar_interval(xs, z)
    hi = xs[i + 1] - xs[i]
    di = (ys[i + 1] - ys[i]) / hi
    s = z - xs[i]
    c2 = (3.0 * di - 2.0 * slopes[i] - slopes[i + 1]) / hi
    c3 = (slopes[i] + slopes[i + 1] - 2.0 * di) / (hi * hi)
    return ys[i] + s * (slopes[i] + s * (c2 + s * c3))


def scalar_loglinear_eval(xs: list[float], ys: list[float], z: float) -> float:
    i = _scalar_interval(xs, z)
    di = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
    return ys[i] + di * (z - xs[i])


def _scalar_interval(xs: list[float], z: float) -> int:
    i = 0
    while i < len(xs) - 2 and z >= xs[i + 1]:
        i += 1
    return i


def oracle_probability(
    spec: FixtureSpec, method: InterpolationMethod, z: float
) -> float:
    """Closed-form per-cell probability for a constant-WSE fixture.

    Clamps to the endpoint probabilities outside the level range, returns
    exact knot probabilities at the levels themselves, and otherwise
    interpolates ln(p) by the chosen method.
    """
    levels = [w for _, w in spec.wse_levels]
    probs = [1.0 / t for t, _ in spec.wse_levels]
    if z <= levels[0]:
        return probs[0]
    if z >= levels[-1]:
        return probs[-1]
    for lev, p in zip(levels, probs):
        if z == lev:
            return p
    ys = [math.log(p) for p in probs]
    if method is InterpolationMethod.LOG_LINEAR:
        y = scalar_loglinear_eval(levels, ys, z)
    else:
        y = scalar_hermite_eval(levels, ys, scalar_fc_slopes(levels, ys), z)
    return math.exp(y)
