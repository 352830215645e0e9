"""Probability map evaluation, coercion rules and zone derivation."""

import os
import re
import sys
from unittest import mock

import numpy as np
import pytest

from flopit import probability, raster
from flopit import (
    CLAMP_HIGH,
    CLAMP_INTERIOR,
    CLAMP_LOW,
    FixtureShape,
    FixtureSpec,
    FlopitError,
    IdwParams,
    InterpolationMethod,
    LayerKind,
    ReturnPeriodLayer,
    StackError,
    derive_zones,
    fill_stack,
    generate_fixture,
    interpolate_map,
    validate_stack,
)
from flopit.hazard import check_periods

from conftest import make_raster

SPLINE = InterpolationMethod.MONOTONE_CUBIC
LOGLIN = InterpolationMethod.LOG_LINEAR
NODATA = -9999.0

RAMP = FixtureSpec(shape=FixtureShape.RAMP, ncols=8, nrows=60, slope=0.25)


def ramp_map(method=LOGLIN):
    dem, layers = generate_fixture(RAMP)
    stack = fill_stack(validate_stack(dem, layers), IdwParams())
    return dem, stack, interpolate_map(stack, None, method)


def cell_for_z(dem, z):
    rows, cols = np.nonzero(dem.values == z)
    assert rows.size, f"no cell with elevation {z}"
    return rows[0], cols[0]


def test_interior_cell_loglinear():
    # ln p linear between (5, ln 0.1) and (7, ln 0.01): z=6 -> 10**-1.5
    dem, _, pm = ramp_map()
    r, c = cell_for_z(dem, 6.0)
    assert pm.probability.values[r, c] == pytest.approx(10**-1.5, rel=1e-12)
    assert pm.return_period.values[r, c] == pytest.approx(10**1.5, rel=1e-12)
    assert pm.clamp_flags.values[r, c] == CLAMP_INTERIOR


def test_clamped_high_cell():
    dem, _, pm = ramp_map()
    r, c = cell_for_z(dem, 4.5)
    assert pm.probability.values[r, c] == 0.1
    assert pm.clamp_flags.values[r, c] == CLAMP_HIGH


def test_clamped_low_cell():
    dem, _, pm = ramp_map()
    r, c = cell_for_z(dem, 8.25)  # above all surfaces, inside filled extent
    assert pm.probability.values[r, c] == 0.002
    assert pm.clamp_flags.values[r, c] == CLAMP_LOW


def test_outside_widest_extent_is_nodata():
    dem, stack, pm = ramp_map()
    widest = stack.layers[-1].grid
    outside = ~widest.data_mask
    assert outside.any()
    assert (~pm.probability.data_mask[outside]).all()
    assert (~pm.return_period.data_mask[outside]).all()
    assert (~pm.clamp_flags.data_mask[outside]).all()


def test_degenerate_single_knot_cell_is_nodata():
    dem = make_raster([[5.0, 5.0]])
    layers = [
        ReturnPeriodLayer(10, LayerKind.WSE, make_raster([[6.0, NODATA]])),
        ReturnPeriodLayer(100, LayerKind.WSE, make_raster([[7.0, 7.0]])),
    ]
    pm = interpolate_map(validate_stack(dem, layers), None, LOGLIN)
    assert pm.probability.data_mask[0, 0]
    assert not pm.probability.data_mask[0, 1]  # one knot only


@pytest.mark.parametrize("method", [SPLINE, LOGLIN])
def test_32_layer_cells_need_two_kept_layers(method):
    # kept layers per cell: none, layer 0 alone (layer 31 is no higher, so
    # it is dropped), layer 31 alone, layers 0 and 31, layers 30 and 31;
    # the retained set is a uint32 bit pattern, full at bit 31
    dem = make_raster([[7.0] * 5])
    wse = np.full((32, 5), NODATA)
    wse[0, [1, 3]] = 10.0, 5.0
    wse[30, 4] = 5.0
    wse[31, 1:] = 10.0
    layers = [ReturnPeriodLayer(k + 2.0, LayerKind.WSE, make_raster(wse[k:k + 1]))
              for k in range(32)]
    pm = interpolate_map(validate_stack(dem, layers), None, method)
    assert pm.probability.data_mask.tolist() == [[False, False, False, True, True]]
    for col, low_t in ((3, 2.0), (4, 32.0)):
        pair = [ReturnPeriodLayer(low_t, LayerKind.WSE, make_raster([[5.0]])),
                ReturnPeriodLayer(33.0, LayerKind.WSE, make_raster([[10.0]]))]
        two = interpolate_map(validate_stack(make_raster([[7.0]]), pair), None, method)
        assert pm.probability.values[0, col] == two.probability.values[0, 0]
        assert pm.clamp_flags.values[0, col] == CLAMP_INTERIOR


def test_monotonic_repair_drops_bad_knot():
    # middle surface below the 10-year one: dropped, curve is (6, 0.1), (8, 0.002)
    dem = make_raster([[7.0]])
    layers = [
        ReturnPeriodLayer(10, LayerKind.WSE, make_raster([[6.0]])),
        ReturnPeriodLayer(100, LayerKind.WSE, make_raster([[5.9]])),
        ReturnPeriodLayer(500, LayerKind.WSE, make_raster([[8.0]])),
    ]
    pm = interpolate_map(validate_stack(dem, layers), None, LOGLIN)
    expected = np.exp(
        np.log(0.1) + (np.log(0.002) - np.log(0.1)) * (7.0 - 6.0) / (8.0 - 6.0)
    )
    assert pm.probability.values[0, 0] == pytest.approx(expected, rel=1e-12)


def test_depth_layers_equivalent_to_wse():
    dem, wse_layers = generate_fixture(RAMP)
    depth_layers = []
    for lyr in wse_layers:
        depth = np.where(
            lyr.grid.data_mask, lyr.grid.values - dem.values, NODATA
        )
        depth_layers.append(
            ReturnPeriodLayer(lyr.return_period_years, LayerKind.DEPTH, make_raster(depth))
        )
    pm_wse = interpolate_map(validate_stack(dem, wse_layers), IdwParams(), LOGLIN)
    pm_depth = interpolate_map(validate_stack(dem, depth_layers), IdwParams(), LOGLIN)
    assert (pm_wse.probability.data_mask == pm_depth.probability.data_mask).all()
    mask = pm_wse.probability.data_mask
    assert np.allclose(
        pm_wse.probability.values[mask], pm_depth.probability.values[mask], rtol=1e-12
    )


def test_dem_nodata_cell_is_nodata():
    dem = make_raster([[NODATA]])
    layers = [
        ReturnPeriodLayer(10, LayerKind.WSE, make_raster([[6.0]])),
        ReturnPeriodLayer(100, LayerKind.WSE, make_raster([[7.0]])),
    ]
    pm = interpolate_map(validate_stack(dem, layers), None, LOGLIN)
    assert not pm.probability.data_mask[0, 0]


def test_probabilities_within_input_range():
    _, stack, pm = ramp_map(SPLINE)
    p = pm.probability.values[pm.probability.data_mask]
    assert p.min() >= min(stack.probabilities)
    assert p.max() <= max(stack.probabilities)


def test_return_period_is_reciprocal():
    _, _, pm = ramp_map()
    mask = pm.probability.data_mask
    assert np.array_equal(
        pm.return_period.values[mask], 1.0 / pm.probability.values[mask]
    )


def test_return_period_past_the_largest_float_is_rejected():
    # 1/T of the largest float is subnormal, and its reciprocal, the return
    # period grid's value, rounds to inf: the period is rejected as given
    big = sys.float_info.max
    rejected = "^" + re.escape(f"return period {big} is too large: ")
    with pytest.raises(StackError, match=rejected):
        ReturnPeriodLayer(big, LayerKind.WSE, make_raster([[10.0] * 3]))
    with pytest.raises(StackError, match=rejected):
        check_periods([2.0, big])
    with pytest.raises(StackError, match=rejected):
        FixtureSpec(shape=FixtureShape.RAMP, wse_levels=((2.0, 5.0), (big, 7.0)))
    check_periods([2.0, 1.7976931348623151e308])  # the largest period whose 1/(1/T) is finite


def test_zones_on_ramp():
    dem, stack, pm = ramp_map()
    zones = derive_zones(stack).zones
    r, c = cell_for_z(dem, 6.0)
    assert zones.values[r, c] == 100.0  # covered by the 7 m surface, not 5 m
    r, c = cell_for_z(dem, 4.0)
    assert zones.values[r, c] == 10.0
    r, c = cell_for_z(dem, 9.0)
    assert zones.values[r, c] == NODATA  # above every surface


def test_zone_bands_match_thresholds():
    # smallest covering flood: zone 10 below 5 m, zone 100 in [5, 7),
    # zone 500 in [7, 8), nothing above 8 m
    dem, stack, _ = ramp_map()
    zones = derive_zones(stack).zones
    z = dem.values
    assert (zones.values[z < 5.0] == 10.0).all()
    assert (zones.values[(z >= 5.0) & (z < 7.0)] == 100.0).all()
    assert (zones.values[(z >= 7.0) & (z < 8.0)] == 500.0).all()
    assert (zones.values[z >= 8.0] == NODATA).all()


def test_zone_dominance_on_ramp():
    for method in (SPLINE, LOGLIN):
        dem, stack, pm = ramp_map(method)
        zones = derive_zones(stack).zones
        both = pm.probability.data_mask & zones.data_mask
        p = pm.probability.values[both]
        zone_p = 1.0 / zones.values[both]
        assert (p >= zone_p - 1e-12).all()


def test_worker_count_does_not_change_bytes():
    spec = FixtureSpec(shape=FixtureShape.VALLEY, ncols=60, nrows=45, slope=0.4)
    dem, layers = generate_fixture(spec)
    stack = fill_stack(validate_stack(dem, layers), IdwParams())
    ref = interpolate_map(stack, None, SPLINE, workers=1)  # a single band
    # 45, 12 or 7 bands of 1, 4 or 7 rows; the last band is shorter
    for band_cells in (1, 250, 7 * 60):
        with mock.patch.object(raster, "_BAND_CELLS", band_cells):
            for workers in (1, 2, 3, 7):
                other = interpolate_map(stack, None, SPLINE, workers=workers)
                for name in ("probability", "return_period", "clamp_flags"):
                    assert (
                        getattr(other, name).values.tobytes()
                        == getattr(ref, name).values.tobytes()
                    ), (band_cells, workers, name)


def test_banded_writes_under_thread_switching():
    # more bands than cores, switching threads as often as the interpreter
    # allows: every band writes its rows of the shared output grids
    workers = (os.cpu_count() or 1) + 2
    spec = FixtureSpec(
        shape=FixtureShape.NOISY_RAMP, ncols=23, nrows=3 * workers, slope=1.0
    )
    dem, layers = generate_fixture(spec)
    stack = fill_stack(validate_stack(dem, layers), IdwParams())
    ref = interpolate_map(stack, None, SPLINE, workers=1)
    assert min(ref.clamp_counts()) > 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # 50 cells = 2 rows of 23: 1.5 bands per worker
        with mock.patch.object(raster, "_BAND_CELLS", 50):
            other = interpolate_map(stack, None, SPLINE, workers=workers)
    finally:
        sys.setswitchinterval(interval)
    assert ref.probability.values.tobytes() == other.probability.values.tobytes()
    assert ref.return_period.values.tobytes() == other.return_period.values.tobytes()
    assert ref.clamp_flags.values.tobytes() == other.clamp_flags.values.tobytes()


def test_threads_capped_at_cpus_and_bands(monkeypatch):
    dem, layers = generate_fixture(RAMP)
    stack = fill_stack(validate_stack(dem, layers), IdwParams())
    asked = []
    pool = probability.ThreadPoolExecutor

    def spy(max_workers):
        asked.append(max_workers)
        return pool(max_workers)

    monkeypatch.setattr(probability, "ThreadPoolExecutor", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for workers in (64, 0, 1):
        interpolate_map(stack, None, SPLINE, workers=workers)  # a single band
    # 60 bands of one 8-cell row
    monkeypatch.setattr(raster, "_BAND_CELLS", 8)
    for workers in (64, 0, 1):
        interpolate_map(stack, None, SPLINE, workers=workers)
    assert asked == [1, 1, 1, 2, 2, 1]


def test_pool_counts_the_cpus_this_process_may_run_on(monkeypatch):
    # a process pinned to one of the host's 64 CPUs gets one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    assert [probability.pool_size(w, 8) for w in (0, 1, 4)] == [1, 1, 1]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert [probability.pool_size(w, 8) for w in (0, 1, 4)] == [8, 1, 4]
    # a negative count is the library's data error, worded as the CLI's
    with pytest.raises(FlopitError, match=r"^workers must be >= 0, got -1$"):
        probability.pool_size(-1, 8)


def test_repeated_runs_bit_identical():
    dem, layers = generate_fixture(RAMP)
    stack = validate_stack(dem, layers)
    a = interpolate_map(stack, IdwParams(), SPLINE)
    b = interpolate_map(stack, IdwParams(), SPLINE)
    assert a.probability.values.tobytes() == b.probability.values.tobytes()


def test_clamp_counts():
    _, _, pm = ramp_map()
    interior, high, low = pm.clamp_counts()
    total_data = pm.probability.data_mask.sum()
    assert interior + high + low == total_data
    assert high > 0 and low > 0 and interior > 0


def test_nonnegative_nodata_remapped():
    dem = make_raster([[5.0, 9.0]], nodata=0.0)
    layers = [
        ReturnPeriodLayer(10, LayerKind.WSE, make_raster([[6.0, 6.0]], nodata=0.0)),
        ReturnPeriodLayer(100, LayerKind.WSE, make_raster([[7.0, 7.0]], nodata=0.0)),
    ]
    pm = interpolate_map(validate_stack(dem, layers), None, LOGLIN)
    # flag raster uses 0 for interpolated cells: sentinel 0 would collide
    assert pm.clamp_flags.header.nodata_value == NODATA
    assert pm.clamp_flags.values[0, 0] == CLAMP_HIGH
