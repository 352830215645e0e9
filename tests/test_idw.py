"""IDW fill/smooth against a brute-force re-implementation and the
documented hand-computed cases."""

import math

import numpy as np
import pytest

from flopit import (
    FlopitError, IdwMode, IdwParams, LayerKind, ReturnPeriodLayer, fill_stack, idw,
    idw_fill, idw_smooth, raster, validate_stack,
)
from flopit.idw import _box_counts

from conftest import gather_reference, make_raster

NODATA = -9999.0


def brute_neighbors(values, mask, row, col, params):
    """All data cells in the Chebyshev box, nearest max_neighbors first.

    Mirrors the documented selection rule: ascending Euclidean distance,
    ties broken by (row offset, column offset).
    """
    nrows, ncols = values.shape
    found = []
    rad = params.radius_cells
    for dr in range(-rad, rad + 1):
        for dc in range(-rad, rad + 1):
            if dr == 0 and dc == 0:
                continue
            rr, cc = row + dr, col + dc
            if 0 <= rr < nrows and 0 <= cc < ncols and mask[rr, cc]:
                found.append((dr * dr + dc * dc, dr, dc, values[rr, cc]))
    found.sort(key=lambda t: t[:3])
    return found[: params.max_neighbors]


def brute_idw(values, mask, row, col, params):
    neigh = brute_neighbors(values, mask, row, col, params)
    if not neigh:
        return None
    num = den = 0.0
    for d2, _, _, v in neigh:
        w = float(d2) ** (-0.5 * params.power)
        num += w * v
        den += w
    vals = [v for *_, v in neigh]
    return min(max(num / den, min(vals)), max(vals)), len(neigh)


def test_constant_hole_filled():
    vals = np.full((5, 5), 5.0)
    vals[2, 2] = NODATA
    out = idw_fill(make_raster(vals), IdwParams())
    assert out.values[2, 2] == 5.0


def test_two_equidistant_neighbors():
    vals = np.full((1, 3), NODATA)
    vals[0, 0], vals[0, 2] = 0.0, 10.0
    out = idw_fill(make_raster(vals), IdwParams())
    assert out.values[0, 1] == pytest.approx(5.0, abs=1e-12)


def test_weighted_pair():
    # hole with value 0 at distance 1 and value 10 at distance 2, power 2:
    # (0*1 + 10*0.25) / 1.25 = 2.0
    vals = np.array([[0.0, NODATA, NODATA, 10.0, NODATA]])
    out = idw_fill(make_raster(vals), IdwParams())
    assert out.values[0, 1] == pytest.approx(2.0, abs=1e-12)


def test_fill_only_keeps_data_cells(rng):
    vals = rng.uniform(0, 10, (8, 8))
    vals[rng.random((8, 8)) < 0.4] = NODATA
    r = make_raster(vals)
    out = idw_fill(r, IdwParams())
    mask = r.data_mask
    assert (out.values[mask] == r.values[mask]).all()


def test_unreachable_hole_stays_nodata():
    vals = np.full((9, 9), NODATA)
    vals[0, 0] = 3.0
    out = idw_fill(make_raster(vals), IdwParams(radius_cells=2))
    assert out.values[8, 8] == NODATA
    assert out.values[1, 1] == 3.0


def test_min_neighbors_threshold():
    vals = np.full((1, 4), NODATA)
    vals[0, 0] = 2.0
    out = idw_fill(make_raster(vals), IdwParams(min_neighbors=2, radius_cells=3))
    assert (out.values[0, 1:] == NODATA).all()


def test_smooth_checkerboard_blend():
    # centre 0 with four 4-neighbours of 10 (w=1) and four diagonal 0s
    # (w=0.5): idw = 40/6, blended = 0.5*0 + 0.5*40/6 = 10/3
    vals = np.zeros((3, 3))
    vals[0, 1] = vals[1, 0] = vals[1, 2] = vals[2, 1] = 10.0
    out = idw_smooth(make_raster(vals), IdwParams(radius_cells=1))
    assert out.values[1, 1] == pytest.approx(10.0 / 3.0, rel=1e-12)


def test_smooth_constant_field_unchanged():
    vals = np.full((6, 6), 4.25)
    out = idw_smooth(make_raster(vals), IdwParams())
    assert (out.values == 4.25).all()


def test_smooth_isolated_cell_unchanged():
    # 0.5*v + 0.5*v rounds a subnormal v, so no blend may touch the cell
    for value in (8.0, 5e-324):
        vals = np.full((7, 7), NODATA)
        vals[3, 3] = value
        out = idw_smooth(make_raster(vals), IdwParams(radius_cells=2))
        assert out.values[3, 3] == value


# single rows and columns, and radii at or beyond the grid's extent, are
# where a neighbour off the grid's edge could wrap into the next row
_BRUTE_CASES = [
    ((10, 10), IdwParams(power=1.7, radius_cells=3, max_neighbors=5)),
    ((1, 13), IdwParams(power=1.7, radius_cells=3, max_neighbors=5)),
    ((13, 1), IdwParams(power=1.7, radius_cells=3, max_neighbors=5)),
    ((1, 7), IdwParams(radius_cells=20, max_neighbors=4)),
    ((6, 1), IdwParams(radius_cells=6, max_neighbors=3, min_neighbors=2)),
    ((4, 9), IdwParams(radius_cells=9, max_neighbors=40, min_neighbors=2)),
    ((5, 3), IdwParams(power=3.0, radius_cells=4, max_neighbors=6, min_neighbors=3)),
]


@pytest.mark.parametrize("op", [idw_fill, idw_smooth])
def test_matches_brute_force(op, rng):
    for shape, params in _BRUTE_CASES:
        for _ in range(8):
            vals = rng.uniform(-5, 20, shape)
            vals[rng.random(shape) < 0.5] = NODATA
            r = make_raster(vals)
            mask = r.data_mask
            out = op(r, params)
            for row, col in np.ndindex(shape):
                got = out.values[row, col]
                res = brute_idw(vals, mask, row, col, params)
                if mask[row, col]:
                    if op is idw_fill:
                        expected = vals[row, col]
                    else:
                        expected = (
                            vals[row, col]
                            if res is None
                            else 0.5 * vals[row, col] + 0.5 * res[0]
                        )
                elif res is None or res[1] < params.min_neighbors:
                    expected = NODATA
                else:
                    expected = res[0]
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12), (
                    shape, row, col)


def test_box_counts_match_brute_force(rng):
    for _ in range(30):
        shape = tuple(rng.integers(1, 9, 2))
        mask = rng.random(shape) < rng.random()
        radius = int(rng.integers(1, 12))  # often wider than the grid
        got = _box_counts(np.pad(mask, radius), radius)
        for row, col in np.ndindex(shape):
            box = mask[max(row - radius, 0):row + radius + 1,
                       max(col - radius, 0):col + radius + 1]
            assert got[row, col] == box.sum(), (shape, radius, row, col)


@pytest.mark.parametrize("op", [idw_fill, idw_smooth])
def test_radius_beyond_grid_is_exact(op, rng):
    vals = rng.uniform(0, 9, (7, 4))
    vals[rng.random((7, 4)) < 0.6] = NODATA
    r = make_raster(vals)
    wide = op(r, IdwParams(radius_cells=7, max_neighbors=40))
    huge = op(r, IdwParams(radius_cells=10**6, max_neighbors=40))
    assert wide.values.tobytes() == huge.values.tobytes()


def test_nothing_to_fill_returns_input(rng):
    r = make_raster(rng.uniform(0, 9, (6, 6)))
    assert idw_fill(r, IdwParams()) is r
    empty = make_raster(np.full((6, 6), NODATA))
    assert idw_fill(empty, IdwParams()) is empty
    assert idw_smooth(empty, IdwParams()) is empty


def test_fill_stack_returns_a_stack_left_unchanged(rng):
    dem = make_raster(np.zeros((6, 6)))
    grids = [rng.uniform(t, t + 1, (6, 6)) for t in (1.0, 2.0)]

    def stack_of(grids):
        return validate_stack(dem, [
            ReturnPeriodLayer(t, LayerKind.WSE, make_raster(g)) for t, g in zip((10, 100), grids)
        ])

    stack = stack_of(grids)
    assert fill_stack(stack, IdwParams()) is stack
    # smoothing changes every data cell, and a fillable hole changes its layer
    smoothed = fill_stack(stack, IdwParams(mode=IdwMode.SMOOTH_ALL))
    assert smoothed is not stack and smoothed.dem is dem
    grids[1][2, 3] = NODATA
    holed = stack_of(grids)
    filled = fill_stack(holed, IdwParams())
    assert filled is not holed and filled.periods == holed.periods
    assert filled.layers[0].grid is holed.layers[0].grid
    assert filled.layers[1].grid.data_mask.all()


def test_repeated_runs_identical(rng):
    vals = rng.uniform(0, 9, (9, 9))
    vals[rng.random((9, 9)) < 0.4] = NODATA
    r = make_raster(vals)
    out1 = idw_fill(r, IdwParams())
    out2 = idw_fill(r, IdwParams())
    assert out1.values.tobytes() == out2.values.tobytes()


def test_params_validation():
    # a library caller gets the data error the CLI maps to exit 2, still a ValueError
    assert issubclass(FlopitError, ValueError)
    with pytest.raises(FlopitError):
        IdwParams(power=0)
    with pytest.raises(FlopitError):
        IdwParams(radius_cells=0)
    with pytest.raises(FlopitError):
        IdwParams(min_neighbors=5, max_neighbors=4)
    with pytest.raises(FlopitError, match="min_neighbors must be >= 1"):
        IdwParams(min_neighbors=0)
    assert IdwParams().mode is IdwMode.FILL_ONLY
    for power in (1100.0, float("inf")):
        with pytest.raises(FlopitError, match=r"not in \(0, "):
            IdwParams(power=power)
    with pytest.raises(FlopitError, match=r"not in \(0, "):  # not OverflowError
        IdwParams(radius_cells=10**400)
    assert IdwParams(power=1e-3, radius_cells=10**400).radius_cells == 10**400
    # the bound is where the farthest weight, (2 r^2)^(-power/2), turns 0
    for radius in (1, 10, 10**6):
        limit = 2 * 1074 / (1 + 2 * math.log2(radius))
        IdwParams(power=0.999 * limit, radius_cells=radius)
        assert np.float64(2 * radius**2) ** (-0.5 * 0.999 * limit) > 0
        with pytest.raises(FlopitError, match=r"not in \(0, "):
            IdwParams(power=1.001 * limit, radius_cells=radius)
        assert np.float64(2 * radius**2) ** (-0.5 * 1.001 * limit) == 0


def test_cached_offsets_are_read_only():
    # every IDW call in the process, forked readers included, shares them
    for arr in idw._offsets(2):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def _stencil_cells(op, raster, params):
    """``op``'s output values, and how many cells the fixed-stencil path took."""
    taken = []
    stencil = idw._stencil

    def spy(padded, taps, full, out):
        taken.append(int(full.sum()))
        return stencil(padded, taps, full, out)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(idw, "_stencil", spy)
        return op(raster, params).values, sum(taken)


# K = min(max_neighbors, offsets in the box); the offsets at d2 = 1, 2, 4
# number 4 each, so K = 14 and 18 end inside the 8 offsets at d2 = 5
_STENCIL_CASES = [
    ((12, 9), IdwParams(radius_cells=1)),  # 8 offsets < max_neighbors 16
    ((12, 9), IdwParams(radius_cells=3, max_neighbors=1)),
    ((12, 9), IdwParams(radius_cells=3, max_neighbors=14)),
    ((12, 9), IdwParams(power=1.3, radius_cells=3, max_neighbors=18)),
    ((12, 9), IdwParams(radius_cells=2, max_neighbors=6, min_neighbors=4)),
    ((12, 9), IdwParams(radius_cells=10)),  # the box is cut to the grid
    ((1, 30), IdwParams(radius_cells=3, max_neighbors=4)),
    ((30, 1), IdwParams(radius_cells=3, max_neighbors=1)),
    ((30, 1), IdwParams(radius_cells=3, max_neighbors=3, min_neighbors=2)),
]


@pytest.mark.parametrize("band_cells", [None, 1, 22])  # default, 1 row, 22 = 2*9 + 4
@pytest.mark.parametrize("shape,params", _STENCIL_CASES)
@pytest.mark.parametrize("op", [idw_fill, idw_smooth])
def test_stencil_equals_gather(op, shape, params, band_cells, rng, monkeypatch):
    if band_cells is not None:
        monkeypatch.setattr(raster, "_BAND_CELLS", band_cells)
    taken = 0
    for nodata_frac in (0.0, 0.05, 0.3, 0.7):
        # mostly one value: the weighted mean can round outside the
        # neighbours' range, where the clip is what keeps it inside
        for common in (None, 0.1, 5.0):
            vals = rng.uniform(-5, 20, shape)
            if common is not None:
                vals[rng.random(shape) < 0.9] = common
            vals[rng.random(shape) < nodata_frac] = NODATA
            vals[shape[0] // 2, shape[1] // 2] = NODATA  # a hole to fill
            r = make_raster(vals)
            got, n = _stencil_cells(op, r, params)
            taken += n
            expected = gather_reference(r, params, smooth=op is idw_smooth)
            assert got.tobytes() == expected.tobytes(), (shape, params, nodata_frac)
    dr, dc, _ = idw._offsets(min(params.radius_cells, max(shape) - 1))
    k = min(params.max_neighbors, dr.size)
    # the path runs wherever the K-tap stencil fits in the grid, as it does
    # around the centre hole at nodata_frac 0
    assert (taken > 0) == (np.ptp(dr[:k]) < shape[0] and np.ptp(dc[:k]) < shape[1])


@pytest.mark.parametrize("band_cells", [27, 41])  # bands of 3 and 4 rows of 9
@pytest.mark.parametrize("op", [idw_fill, idw_smooth])
def test_stencil_nodata_on_band_edges(op, band_cells, rng, monkeypatch):
    monkeypatch.setattr(raster, "_BAND_CELLS", band_cells)
    step = band_cells // 9
    at_edge = np.isin(np.arange(14) % step, [0, step - 1])[:, None]
    params = IdwParams(radius_cells=1)
    for _ in range(10):
        vals = rng.uniform(0, 9, (14, 9))
        vals[at_edge & (rng.random((14, 9)) < 0.15)] = NODATA
        r = make_raster(vals)
        got, taken = _stencil_cells(op, r, params)
        assert got.tobytes() == gather_reference(r, params, op is idw_smooth).tobytes()
        assert taken > 0
