"""Invariants checked on generated inputs rather than hand-picked fixtures.

* every cell of a probability map is exactly what the scalar path
  (``make_curve`` + ``eval_curve``) gives for that cell's pairs, flag
  included, or nodata where the map has nothing to evaluate;
* probabilities stay between the rarest and the most frequent layer's,
  and stay finite for elevations up to the stack's ±1e150 limit;
* p never falls below the p = 1/T of the cell's flood zone, and raising
  the ground under fixed surfaces never raises p;
* output is independent of the worker count;
* the Fritsch-Carlson slopes agree with SciPy's PCHIP wherever SciPy's
  slopes already satisfy the monotonicity disc, so the limiter is idle;
* a truncated or byte-mutated input grid never escapes the CLI's exit-code
  contract (0, 1, 2 or 3, no exception);
* the grid writer's bytes equal ``%``-formatting each cell, for every
  ``decimals`` and wherever the row blocks end.
"""

import contextlib
import io
import tempfile
from pathlib import Path
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
    derive_zones,
    eval_curve,
    fc_slopes,
    interpolate_map,
    make_curve,
    validate_stack,
    write_ascii_grid,
)
from flopit import probability, raster  # noqa: E402
from flopit.hazard import MAX_ABS_ELEVATION  # noqa: E402
from flopit.raster import _format_geo  # noqa: E402
from flopit.cli import main  # noqa: E402

from conftest import make_raster  # noqa: E402

NODATA = -9999.0

# half-unit steps make equal surfaces and exact knot hits common
_level = st.one_of(
    st.integers(0, 20).map(lambda v: v / 2),
    st.floats(0.0, 10.0, allow_subnormal=False),
)
_cell = st.one_of(st.just(NODATA), _level)


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


_LAYERS = ("wse_T10.asc", "wse_T100.asc", "wse_T500.asc")
_OUTPUTS = ("run_prob.asc", "run_zones.asc")


def _argv(root, name, path, out):
    """The run that reads grid ``name`` under ``root``: interpolate for the
    synth inputs, compare for the interpolate outputs; it reads that grid
    from ``path`` and writes to ``out``."""
    grids = {n: str(root / n) for n in ("dem.asc", *_LAYERS, *_OUTPUTS)}
    grids[name] = str(path)
    if name in _OUTPUTS:
        return ["compare", "--prob", grids["run_prob.asc"],
                "--zones", grids["run_zones.asc"], "--out", f"{out}.csv"]
    argv = ["interpolate", "--dem", grids["dem.asc"], "--out", str(out)]
    for t, layer in zip((10, 100, 500), _LAYERS):
        argv += ["--layer", f"{t}:wse:{grids[layer]}"]
    return argv


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A 6x5 synth fixture and the outputs of one interpolate run on it."""
    root = tmp_path_factory.mktemp("mutation")
    args = ["synth", "--ncols", "6", "--nrows", "5", "--slope", "2.5"]
    assert main(args + ["--out", str(root)]) == 0
    dem = root / "dem.asc"
    assert main(_argv(root, "dem.asc", dem, root / "run")) == 0
    return root


# bytes that turn one number or header value into another are most telling
_byte = st.one_of(st.sampled_from(b"0123456789.-+eEnaif \n"), st.integers(0, 255))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from(["dem.asc", *_LAYERS, *_OUTPUTS]),
    st.booleans(),
    st.integers(0, 2**16),
    _byte,
)
def test_mutated_grid_stays_in_exit_contract(small_run, name, truncate, pos, byte):
    data = (small_run / name).read_bytes()
    pos %= len(data)
    mutated = data[:pos] if truncate else data[:pos] + bytes([byte]) + data[pos + 1:]
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        (tmp / name).write_bytes(mutated)
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        code = main(_argv(small_run, name, tmp / name, tmp / "out"))
    assert code in (0, 1, 2, 3)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(stacks(), st.sampled_from(list(InterpolationMethod)), st.data())
def test_zone_dominance_and_rising_ground(stack, method, data):
    pm = interpolate_map(stack, None, method)
    prob = pm.probability.values
    valid = pm.probability.data_mask

    # the zone communicates p = 1/T; the map never reports a rarer flood
    zones = derive_zones(stack).zones
    both = valid & zones.data_mask
    assert (prob[both] >= 1.0 / zones.values[both] - 1e-12).all()

    # raising the ground under the same surfaces never raises p
    dem = stack.dem
    rise = data.draw(hnp.arrays(np.float64, dem.values.shape, elements=_level))
    higher = np.where(dem.data_mask, dem.values + rise, NODATA)
    raised = validate_stack(make_raster(higher, NODATA), list(stack.layers))
    prob_raised = interpolate_map(raised, None, method).probability
    assert (prob_raised.data_mask == valid).all()
    assert (prob_raised.values[valid] <= prob[valid]).all()


@st.composite
def huge_stacks(draw):
    # values k·M/2 for |k| <= 4 at one magnitude M per stack, so knots sit
    # at least 0.5 apart whatever M is
    scale = draw(st.floats(1.0, MAX_ABS_ELEVATION / 2))
    halves = st.one_of(st.just(NODATA), st.integers(-4, 4).map(lambda k: k * scale / 2))
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    periods = draw(
        st.lists(st.integers(2, 1000), min_size=2, max_size=5, unique=True).map(sorted)
    )

    def grid():
        return make_raster(draw(hnp.arrays(np.float64, shape, elements=halves)), NODATA)

    layers = [ReturnPeriodLayer(float(t), LayerKind.WSE, grid()) for t in periods]
    return validate_stack(grid(), layers)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(huge_stacks(), st.sampled_from(list(InterpolationMethod)))
def test_elevations_up_to_the_limit_give_finite_p(stack, method):
    pm = interpolate_map(stack, None, method)
    p = pm.probability.values[pm.probability.data_mask]
    assert np.isfinite(p).all()
    assert ((p >= stack.probabilities[-1]) & (p <= stack.probabilities[0])).all()


# -- ASCII grid writer -------------------------------------------------------


def _reference_grid_text(raster, decimals):
    """The grid text as formatted one cell at a time with ``%``."""
    hdr = raster.header
    nodata_text = _format_geo(hdr.nodata_value)
    lines = [
        f"NCOLS {hdr.ncols}",
        f"NROWS {hdr.nrows}",
        f"XLLCORNER {_format_geo(hdr.xllcorner)}",
        f"YLLCORNER {_format_geo(hdr.yllcorner)}",
        f"CELLSIZE {_format_geo(hdr.cellsize)}",
        f"NODATA_VALUE {nodata_text}",
    ]
    fmt = f"%.{decimals}f"
    for row in raster.values:
        lines.append(" ".join(nodata_text if v == hdr.nodata_value else fmt % v for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


@st.composite
def written_cells(draw, decimals, nodata):
    """Values where fixed-point printing is hardest at ``decimals`` places."""
    kind = draw(st.integers(0, 6))
    if kind == 0:  # exact ties, when representable, and their neighbours
        v = (draw(st.integers(-10**7, 10**7)) + 0.5) / 10.0**decimals
        return float(np.nextafter(v, draw(st.sampled_from([-np.inf, v, np.inf]))))
    if kind == 1:
        return draw(st.sampled_from([0.0, -0.0, -1e-9, -1e-300, -5e-324, nodata]))
    if kind == 2:  # around the 2^52 end of the integer path
        y = 2.0**52 * draw(st.floats(0.25, 4.0))
        return draw(st.sampled_from([-1.0, 1.0])) * np.floor(y) / 10.0**decimals
    if kind == 3:
        return draw(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
    if kind == 4:
        return draw(st.floats(-1e-307, 1e-307))
    if kind == 5:
        return draw(st.integers(-10**9, 10**9)) / 2.0**draw(st.integers(0, 30))
    return draw(st.floats(-1e6, 1e6))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_writer_bytes_equal_percent_formatting(tmp_path_factory, data):
    decimals = data.draw(st.integers(0, 20))
    nodata = data.draw(st.sampled_from([-9999.0, 0.0, 2.5, -1.5e300]))
    shape = data.draw(st.sampled_from([(1, 9), (9, 1), (3, 4), (5, 2)]))
    vals = data.draw(hnp.arrays(np.float64, shape, elements=written_cells(decimals, nodata)))
    block_cells = data.draw(st.integers(1, 12))  # whole rows, often fewer than the grid's
    r = make_raster(vals, nodata, cellsize=0.5, xll=-3.25, yll=1e20)
    path = tmp_path_factory.mktemp("w") / "g.asc"
    with mock.patch.object(raster, "_BLOCK_CELLS", block_cells):
        write_ascii_grid(r, path, decimals)
    assert path.read_bytes() == _reference_grid_text(r, decimals)
