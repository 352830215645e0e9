"""Invariants checked on generated inputs rather than hand-picked fixtures.

* every cell of a probability map is exactly what the scalar path
  (``make_curve`` + ``eval_curve``) gives for that cell's pairs, flag
  included, or nodata where the map has nothing to evaluate;
* probabilities stay between the rarest and the most frequent layer's;
* output is independent of the worker count;
* the Fritsch-Carlson slopes agree with SciPy's PCHIP wherever SciPy's
  slopes already satisfy the monotonicity disc, so the limiter is idle.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from flopit import (  # noqa: E402
    InterpolationMethod,
    LayerKind,
    ReturnPeriodLayer,
    eval_curve,
    fc_slopes,
    interpolate_map,
    make_curve,
    validate_stack,
)
from flopit import probability  # noqa: E402

from conftest import make_raster  # noqa: E402

NODATA = -9999.0

# half-unit steps make equal surfaces and exact knot hits common
_cell = st.one_of(
    st.just(NODATA),
    st.integers(0, 20).map(lambda v: v / 2),
    st.floats(0.0, 10.0, allow_subnormal=False),
)


@st.composite
def stacks(draw):
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    periods = draw(
        st.lists(st.integers(2, 1000), min_size=2, max_size=6, unique=True).map(sorted)
    )
    dem = make_raster(draw(hnp.arrays(np.float64, shape, elements=_cell)), NODATA)
    layers = [
        ReturnPeriodLayer(
            float(t),
            LayerKind.WSE,
            make_raster(draw(hnp.arrays(np.float64, shape, elements=_cell)), NODATA),
        )
        for t in periods
    ]
    return validate_stack(dem, layers)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(stacks(), st.sampled_from(list(InterpolationMethod)), st.integers(1, 20))
def test_map_equals_per_cell_curves(stack, method, band_cells):
    # the default band holds the whole grid; a small one splits it into
    # bands of one or more rows, often not a whole number of rows per band
    maps = [interpolate_map(stack, None, method)]
    with mock.patch.object(probability, "_BAND_CELLS", band_cells):
        maps += [interpolate_map(stack, None, method, workers=w) for w in (1, 2, 3)]
    for other in maps[1:]:
        for name in ("probability", "return_period", "clamp_flags"):
            assert (
                getattr(other, name).values.tobytes()
                == getattr(maps[0], name).values.tobytes()
            )

    pm = maps[0]
    prob = pm.probability.values
    rp = pm.return_period.values
    flags = pm.clamp_flags.values
    nodata = pm.probability.nodata
    p_frequent, p_rarest = stack.probabilities[0], stack.probabilities[-1]
    dem = stack.dem
    for r, c in np.ndindex(prob.shape):
        curve = make_curve(
            (lyr.grid.values[r, c], lyr.exceedance_probability)
            for lyr in stack.layers
            if lyr.grid.data_mask[r, c]
        )
        has_curve = (
            curve is not None
            and dem.data_mask[r, c]
            and stack.layers[-1].grid.data_mask[r, c]
        )
        if has_curve:
            res = eval_curve(curve, method, dem.values[r, c])
            assert prob[r, c] == res.probability
            assert flags[r, c] == res.clamped.value
            assert rp[r, c] == 1.0 / res.probability
            assert p_rarest <= prob[r, c] <= p_frequent
        else:
            assert prob[r, c] == rp[r, c] == flags[r, c] == nodata


@st.composite
def monotone_data(draw):
    n = draw(st.integers(2, 12))
    x_steps = draw(st.lists(st.floats(0.05, 5.0), min_size=n - 1, max_size=n - 1))
    y_steps = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 5.0)),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    x = np.cumsum([draw(st.floats(-50.0, 50.0))] + x_steps)
    y = np.cumsum([draw(st.floats(-5.0, 5.0))] + y_steps)
    return x, (-y if draw(st.booleans()) else y)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(monotone_data())
def test_fc_slopes_match_scipy_pchip(data):
    interpolate = pytest.importorskip("scipy.interpolate")
    x, y = data
    ref = interpolate.PchipInterpolator(x, y).derivative()(x)
    secants = np.diff(y) / np.diff(x)
    nz = secants != 0
    a = ref[:-1][nz] / secants[nz]
    b = ref[1:][nz] / secants[nz]
    # outside the disc the limiter rescales and the two must differ
    assume(np.all(a * a + b * b <= 9.0))
    tol = 1e-12 * np.max(np.abs(secants))
    assert np.all(np.abs(fc_slopes(x, y) - ref) <= tol)
