"""Invariants checked on generated inputs rather than hand-picked fixtures.

* every cell of a probability map is exactly what the scalar path
  (``make_curve`` + ``eval_curve``) gives for that cell's pairs, flag
  included, or nodata where the map has nothing to evaluate, whatever
  each grid's nodata sentinel; the logged per-layer repair drops equal a
  cell-by-cell count;
* probabilities stay between the rarest and the most frequent layer's,
  and stay finite for elevations up to the stack's ±1e150 limit and for
  knots down to the smallest float apart;
* p never falls below the p = 1/T of the cell's flood zone, and raising
  the ground under fixed surfaces never raises p;
* output is independent of the worker count;
* the Fritsch-Carlson slopes agree with SciPy's PCHIP wherever SciPy's
  slopes already satisfy the monotonicity disc, so the limiter is idle;
* a truncated or byte-mutated input grid never escapes the CLI's exit-code
  contract (0, 1, 2 or 3, no exception), and interpolate exits with the
  same code and error at 2 workers as at 1;
* when 2 or 3 input grids are faulty at once, interpolate reports the
  first fault in command-line order, with the same exit code and error at
  3 workers as at 1;
* IDW fill and smooth give the same bytes whether a cell whose nearest
  neighbourhood is full takes the fixed K-tap stencil or the gather, for
  any mask, radius, neighbour counts and row band;
* the grid writer's bytes equal ``%``-formatting each cell, for every
  ``decimals`` and wherever the row blocks end, also in blocks whose cells
  all print at one length and in blocks that miss that by one cell;
* the grid reader's values, or its exception class and message, equal
  those of parsing the whole body at once, wherever the blocks end, for
  tokens at the edges of what numpy's C reader and ``float()`` accept,
  and for bodies of tokens of one width, as the writer prints them, with
  or without a token or separator that must send its block elsewhere.
"""

import contextlib
import io
import logging
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
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
from flopit import idw, probability, raster  # noqa: E402
from flopit.curves import MIN_KNOT_GAP  # noqa: E402
from flopit.hazard import MAX_ABS_ELEVATION  # noqa: E402
from flopit.cli import main  # noqa: E402

from conftest import (  # noqa: E402
    _parse_tokens,
    _reference_grid_text,
    gather_reference,
    make_raster,
)

NODATA = -9999.0

# half-unit steps make equal surfaces and exact knot hits common
_level = st.one_of(
    st.integers(0, 20).map(lambda v: v / 2),
    st.floats(0.0, 10.0, allow_subnormal=False),
)


@st.composite
def stacks(draw, levels=_level):
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    periods = draw(
        st.lists(st.integers(2, 1000), min_size=2, max_size=6, unique=True).map(sorted)
    )

    def grid():  # each grid with its own sentinel
        nodata = draw(st.sampled_from([NODATA, -1e300]))
        cells = st.one_of(st.just(nodata), levels)
        return make_raster(draw(hnp.arrays(np.float64, shape, elements=cells)), nodata)

    dem = grid()
    layers = [ReturnPeriodLayer(float(t), LayerKind.WSE, grid()) for t in periods]
    return validate_stack(dem, layers)


def _repair_drops(stack):
    """Per layer, the cells whose surface the monotonicity repair drops,
    walking each cell's surfaces from the most frequent flood upward."""
    drops = [0] * len(stack.layers)
    for r, c in np.ndindex(stack.dem.values.shape):
        last = -np.inf
        for k, lyr in enumerate(stack.layers):
            if not lyr.grid.data_mask[r, c]:
                continue
            if lyr.grid.values[r, c] > last + MIN_KNOT_GAP:
                last = lyr.grid.values[r, c]
            else:
                drops[k] += 1
    return drops


@settings(
    max_examples=120, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(stacks(), st.sampled_from(list(InterpolationMethod)), st.integers(1, 20))
def test_map_equals_per_cell_curves(caplog, stack, method, band_cells):
    # the default band holds the whole grid; a small one splits it into
    # bands of one or more rows, often not a whole number of rows per band
    caplog.clear()
    with caplog.at_level(logging.INFO, logger=probability.logger.name):
        maps = [interpolate_map(stack, None, method)]
    logged = [rec.getMessage() for rec in caplog.records if "repair" in rec.getMessage()]
    assert logged == [
        f"monotonicity repair dropped layer T={t:g} at {n} cells"
        for t, n in zip(stack.periods, _repair_drops(stack))
        if n
    ]
    with mock.patch.object(raster, "_BAND_CELLS", band_cells):
        maps += [interpolate_map(stack, None, method, workers=w) for w in (1, 2, 3)]
    for other in maps[1:]:
        for name in ("probability", "return_period", "clamp_flags"):
            assert (
                getattr(other, name).values.tobytes()
                == getattr(maps[0], name).values.tobytes()
            )
    _assert_cells_equal_curves(stack, method, maps[0])


def _assert_cells_equal_curves(stack, method, pm):
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
def close_knot_stacks(draw):
    # one gap per stack, log-uniform from the smallest subnormal up to 2:
    # surfaces at multiples of half of it around 0, and at 1
    gap = float(np.ldexp(draw(st.floats(1.0, 2.0)), draw(st.integers(-1074, 0))))
    near_zero = st.integers(-8, 8).map(lambda k: k * gap / 2)
    return draw(stacks(levels=st.one_of(near_zero, st.just(1.0))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(close_knot_stacks(), st.sampled_from(list(InterpolationMethod)))
def test_close_knots_give_finite_p(stack, method):
    # a Raster holds only finite values, so building the map checks that
    _assert_cells_equal_curves(stack, method, interpolate_map(stack, None, method))


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
    outcomes = []
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        (tmp / name).write_bytes(mutated)
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        argv = _argv(small_run, name, tmp / name, tmp / "out")
        # interpolate also runs at 2 workers: forked processes read, threads write
        for workers in [[]] if name in _OUTPUTS else [[], ["--workers", "2"]]:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv + workers)
            lines = err.getvalue().splitlines()
            outcomes.append((code, [line for line in lines if line.startswith("flopit")]))
    assert outcomes[0][0] in (0, 1, 2, 3)
    assert all(outcome == outcomes[0] for outcome in outcomes)


_INPUTS = ("dem.asc", *_LAYERS)
_FAULTS = ("token", "extra", "nan", "origin", "missing", "non-ascii")


def _faulty(data: bytes, fault: str, i: int) -> bytes | None:
    """The grid ``data`` with one fault at body token ``i``: an unparsable
    token, an extra token, a NaN, a non-ASCII byte, or its origin one cell
    west; None for a missing file."""
    lines = data.split(b"\n")
    head, tokens = lines[:6], b" ".join(lines[6:]).split()
    if fault == "missing":
        return None
    if fault == "origin":
        xll, cellsize = float(head[2].split()[1]), float(head[4].split()[1])
        head[2] = f"XLLCORNER {xll - cellsize!r}".encode()
    else:
        edit = {"token": b"1x", "extra": tokens[i] + b" 1", "nan": b"nan",
                "non-ascii": tokens[i] + b"\xe9"}
        tokens[i] = edit[fault]
    return b"\n".join(head + [b" ".join(tokens)]) + b"\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from(_INPUTS), min_size=2, max_size=3, unique=True),
    st.lists(st.sampled_from(_FAULTS), min_size=3, max_size=3),
    st.integers(0, 29),
)
def test_first_fault_in_cli_order_wins_across_workers(small_run, names, faults, i):
    faulted = dict(zip(names, faults))
    outcomes = []
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        for name in _INPUTS:
            data = (small_run / name).read_bytes()
            if name in faulted:
                data = _faulty(data, faulted[name], i)
            if data is not None:
                (tmp / name).write_bytes(data)
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        argv = _argv(tmp, "dem.asc", tmp / "dem.asc", tmp / "out")
        for workers in ("1", "3"):
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv + ["--workers", workers])
            lines = err.getvalue().splitlines()
            outcomes.append((code, [line for line in lines if line.startswith("flopit")]))
    assert outcomes[0] == outcomes[1]
    # the first grid in CLI order that fails its read, or the first layer
    # whose origin differs from the DEM's, is the one reported
    shifted = faulted.get("dem.asc") == "origin"
    first = next(
        name for name in _INPUTS
        if faulted.get(name, "origin") != "origin"
        or name != "dem.asc" and (faulted.get(name) == "origin") != shifted
    )
    code, lines = outcomes[0]
    assert code == (3 if faulted.get(first) == "missing" else 2)
    assert len(lines) == 1 and first in lines[0]


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


# -- IDW ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_idw_stencil_equals_gather(data):
    shape = (data.draw(st.integers(1, 12)), data.draw(st.integers(1, 12)))
    # mostly-data masks, so that many cells have a full neighbourhood
    holes = data.draw(st.integers(0, 10))
    mask = data.draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 9))) >= holes
    # mostly one value, where the clip keeps the weighted mean in range
    values = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.integers(-20, 20).map(lambda v: v / 2),  # ties
        st.floats(-1e6, 1e6, allow_subnormal=False),  # -0.0 among them
    ), fill=st.sampled_from([0.1, 5.0, 1 / 3])))
    nodata = data.draw(st.sampled_from([NODATA, -1e300, -1.7e308]))
    values[~mask] = nodata
    max_neighbors = data.draw(st.integers(1, 30))
    params = idw.IdwParams(
        power=data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.5])),
        radius_cells=data.draw(st.integers(1, 6)),
        max_neighbors=max_neighbors,
        min_neighbors=data.draw(st.integers(1, max_neighbors)),
    )
    band_cells = data.draw(st.integers(1, 40))
    r = make_raster(values, nodata)
    with mock.patch.object(raster, "_BAND_CELLS", band_cells):
        for op, smooth in ((idw.idw_fill, False), (idw.idw_smooth, True)):
            expected = gather_reference(r, params, smooth)
            assert op(r, params).values.tobytes() == expected.tobytes()


# -- ASCII grid writer -------------------------------------------------------


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


@st.composite
def one_length_grids(draw, decimals, nodata):
    """Grids whose cells all print text of one length, or all but one:
    all one value, nodata or a zero of either sign or one that ``%``
    prints; or all of one sign, each printed with the same digit count,
    every cell perhaps reaching it by a rounding carry."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    n = shape[0] * shape[1]
    kind = draw(st.sampled_from(["positive", "negative", "carry", "one"]))
    if kind == "one":  # below 9 decimals -1e-9 prints as -0.000...
        ndig = decimals + 1
        vals = np.full(n, draw(st.sampled_from([0.0, -0.0, -1e-9, 1e20, nodata])))
    else:
        # digits printed; q stays below 2^51, so every cell is printed
        # from its digits
        ndig = draw(st.integers(max(decimals + 1, 1 + (kind == "carry")), min(decimals + 4, 16)))
        lo = 0 if ndig == decimals + 1 else 10 ** (ndig - 1)
        off = draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 0.45)))
        if kind == "carry":  # 9.9999996 prints as 10.000000
            q = 10.0 ** (ndig - 1) - np.maximum(off, 0.05)
        else:
            ints = st.integers(lo, min(10**ndig - 1, 2**51))
            q = np.array(draw(st.lists(ints, min_size=n, max_size=n)), float)
            q += np.where(q > lo, -off, off)
        vals = q / 10.0**decimals
        if kind == "negative":
            vals = -vals
            if ndig == decimals + 1:  # -0 prints as many digits as zero
                zeros = draw(hnp.arrays(bool, n))
                vals[zeros] = draw(st.sampled_from([-0.0, -5e-324]))
    miss = draw(st.sampled_from(["none", "digit", "sign", "nodata", "percent"]))
    if miss != "none":
        i = draw(st.integers(0, n - 1))
        v = 1.0 if vals[i] == nodata else vals[i]
        vals[i] = {
            "digit": np.copysign(10.0 ** (ndig - decimals), v),
            "sign": -v,
            "nodata": nodata,
            "percent": draw(st.sampled_from([np.copysign(1e20, v), 0.5, -2.5])),
        }[miss]
    return vals.reshape(shape)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_writer_bytes_equal_percent_formatting_in_one_length_blocks(tmp_path_factory, data):
    decimals = data.draw(st.sampled_from([0, 1, 6, 15]))
    nodata = data.draw(st.sampled_from([-9999.0, 0.0, -1.5e300]))
    vals = data.draw(one_length_grids(decimals, nodata))
    block_cells = data.draw(st.integers(1, vals.size))
    r = make_raster(vals, nodata)
    path = tmp_path_factory.mktemp("w") / "g.asc"
    with mock.patch.object(raster, "_BLOCK_CELLS", block_cells):
        write_ascii_grid(r, path, decimals)
    assert path.read_bytes() == _reference_grid_text(r, decimals)


# -- ASCII grid reader -------------------------------------------------------

# what the C reader and float() read alike, what only float() reads
# (1_0), and what neither reads
_BODY_TOKENS = [
    "+1.5", ".5", "5.", "007", "-0", "-0.0", "1e-400", "1e999",
    "4.9e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
    "nan", "-nan", "inf", "Infinity", "1_0", "1\x00",
    "x", "0x10", "1d5", "1,5", "\x00", "1\x002",
]
_BODY_SEPARATORS = [" ", "\n", "\r\n", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]


def _outcome(parse):
    try:
        return parse().tobytes()
    except (raster.GridDimensionError, raster.GridParseError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_reader_equals_whole_body_parse(tmp_path_factory, data):
    hdr = raster.GridHeader(
        ncols=data.draw(st.integers(1, 4)), nrows=data.draw(st.integers(1, 4)),
        xllcorner=0.0, yllcorner=0.0, cellsize=1.0,
    )
    n_tokens = hdr.ncols * hdr.nrows + data.draw(st.sampled_from([-1, 0, 0, 1]))
    digits = st.text("0123456789", min_size=1, max_size=1)
    plain = st.one_of(
        st.integers(-10**6, 10**6).map(str),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        # 17 and 400 significant digits: correct rounding needs them all
        st.tuples(digits, st.text("0123456789", min_size=16, max_size=16),
                  st.integers(-340, 310)).map(lambda t: f"{t[0]}.{t[1]}e{t[2]}"),
        st.tuples(digits, st.text("0123456789", min_size=399, max_size=399),
                  st.integers(-340, 310)).map(lambda t: f"-{t[0]}.{t[1]}e{t[2]}"),
    )
    tokens = data.draw(st.lists(
        st.one_of(plain, plain, plain, st.sampled_from(_BODY_TOKENS)),
        min_size=n_tokens, max_size=n_tokens,
    ))
    seps = data.draw(st.lists(
        st.sampled_from(_BODY_SEPARATORS), min_size=n_tokens + 1, max_size=n_tokens + 1,
    ))
    body = seps[0] * data.draw(st.booleans()) + "".join(map(str.__add__, tokens, seps[1:]))
    path = tmp_path_factory.mktemp("r") / "g.asc"
    path.write_text(
        f"NCOLS {hdr.ncols}\nNROWS {hdr.nrows}\nXLLCORNER 0\nYLLCORNER 0\n"
        f"CELLSIZE 1\nNODATA_VALUE -9999\n{body}",
        encoding="ascii",
    )
    with mock.patch.object(raster, "_BLOCK_CELLS", data.draw(st.integers(1, 12))):
        got = _outcome(lambda: raster.read_ascii_grid(path).values)
    assert got == _outcome(lambda: _parse_tokens("g.asc", body, hdr))


# what turns a block of tokens of one width into one that must take
# another path; each keeps the token's width or the separator's place
_NEAR_MISSES = {
    "plus": lambda tok: "+" + tok[1:],  # +5, or a lone +
    "sign": lambda tok: "-" + tok[1:],  # -5 among 15
    "no sign": lambda tok: "5" + tok[1:],  # 15 among -5
    "exponent": lambda tok: tok[:-2] + "e" + tok[-1] if len(tok) > 2 else "e",
    "letter": lambda tok: tok[:-1] + "x",
    "no point": lambda tok: tok.replace(".", "0"),  # 1025 among 1.25
}

_SEPARATOR_MISSES = {"tab": "\t", "crlf": "\r\n", "double": "  ", "joined": "7"}


@st.composite
def one_width_bodies(draw, n_tokens):
    """A body of ``n_tokens`` tokens laid out alike: a sign or none, 0 to
    16 digits before a point or none, and 0 to 16 after it, at most 17
    bytes in all; each followed by ' ' or '\\n', the last perhaps by
    none. Sometimes one token or separator is a near miss."""
    sign = draw(st.sampled_from(["", "-"]))
    point = draw(st.sampled_from(["", "."]))
    # 16 digits read exactly only below 2^53; "." and "-." are no number
    room = min(16, 17 - len(sign) - len(point))
    decimals = draw(st.integers(0, room)) if point else 0
    whole = draw(st.integers(0 if point else 1, room - decimals))
    n_digits = whole + decimals
    digits = st.one_of(
        st.just("0" * n_digits),  # zero, -0.0 with a sign
        st.just("9" * n_digits),  # above 2^53 at 16 digits
        st.text("0123456789", min_size=n_digits, max_size=n_digits),
    )
    tokens = []
    for _ in range(n_tokens):
        ds = draw(digits)
        tokens.append(sign + ds[:whole] + point + ds[whole:])
    seps = draw(st.lists(st.sampled_from([" ", "\n"]), min_size=n_tokens, max_size=n_tokens))
    miss = draw(st.sampled_from(["none", "none", *_NEAR_MISSES, *_SEPARATOR_MISSES]))
    i = draw(st.integers(0, n_tokens - 1))
    if miss in _NEAR_MISSES:
        tokens[i] = _NEAR_MISSES[miss](tokens[i])
    elif miss != "none":
        seps[i] = _SEPARATOR_MISSES[miss]
    if draw(st.booleans()):
        seps[-1] = ""
    lead = draw(st.sampled_from(["", " ", "\n"]))
    return lead + "".join(map(str.__add__, tokens, seps))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_reader_of_one_width_tokens_equals_whole_body_parse(tmp_path_factory, data):
    hdr = raster.GridHeader(
        ncols=data.draw(st.integers(1, 8)), nrows=data.draw(st.integers(1, 6)),
        xllcorner=0.0, yllcorner=0.0, cellsize=1.0,
    )
    n_tokens = hdr.ncols * hdr.nrows + data.draw(st.sampled_from([-1, 0, 0, 0, 1]))
    assume(n_tokens > 0)
    body = data.draw(one_width_bodies(n_tokens))
    path = tmp_path_factory.mktemp("r") / "g.asc"
    path.write_text(
        f"NCOLS {hdr.ncols}\nNROWS {hdr.nrows}\nXLLCORNER 0\nYLLCORNER 0\n"
        f"CELLSIZE 1\nNODATA_VALUE -9999\n{body}",
        encoding="ascii",
    )
    with mock.patch.object(raster, "_BLOCK_CELLS", data.draw(st.integers(1, 12))):
        got = _outcome(lambda: raster.read_ascii_grid(path).values)
    # bytes, so the sign of each zero counts
    assert got == _outcome(lambda: _parse_tokens("g.asc", body, hdr))
