"""Layer validation and depth-to-WSE conversion."""

import pytest

from flopit import (
    AlignmentError,
    HazardStack,
    LayerKind,
    ReturnPeriodLayer,
    StackError,
    build_wse,
    validate_stack,
)

from conftest import make_raster


def layer(t, kind, values, **kw):
    return ReturnPeriodLayer(t, kind, make_raster(values, **kw))


def test_build_wse_adds_depth():
    dem = make_raster([[10.0]])
    out = build_wse(dem, layer(100, LayerKind.DEPTH, [[2.0]]))
    assert out.values[0, 0] == 12.0


def test_build_wse_nodata_depth():
    dem = make_raster([[10.0, 10.0, 10.0, -9999.0]])
    out = build_wse(dem, layer(100, LayerKind.DEPTH, [[-9999.0, 0.0, -1.0, 2.0]]))
    # nodata depth, non-positive depth, and nodata ground all give nodata
    assert out.values.tolist() == [[-9999.0] * 4]


def test_build_wse_passthrough():
    dem = make_raster([[10.0, 11.0]])
    grid = [[15.3, -9999.0]]
    out = build_wse(dem, layer(100, LayerKind.WSE, grid))
    assert out.values.tolist() == grid


def test_build_wse_never_below_dem(rng):
    dem_vals = rng.uniform(0, 50, (6, 6))
    depth_vals = rng.uniform(-1, 5, (6, 6))
    dem = make_raster(dem_vals)
    out = build_wse(dem, layer(10, LayerKind.DEPTH, depth_vals))
    mask = out.data_mask
    assert (out.values[mask] >= dem_vals[mask]).all()


def test_build_wse_overflow_names_layer():
    dem = make_raster([[1.0, 1e308]])
    with pytest.raises(StackError, match=r"T=100: DEM \+ depth overflows at cell \(0, 1\)"):
        build_wse(dem, layer(100, LayerKind.DEPTH, [[2.0, 1e308]]))


def test_build_wse_ignores_overflow_in_nodata_cells():
    # the depth grid's nodata over a DEM of 1e308 sums to inf, in a cell
    # whose sum is discarded; pyproject's filterwarnings fails the test on a
    # RuntimeWarning
    dem = make_raster([[1.0, 1e308]])
    out = build_wse(dem, layer(100, LayerKind.DEPTH, [[2.0, 1e308]], nodata=1e308))
    assert out.values.tolist() == [[3.0, 1e308]]
    assert out.data_mask.tolist() == [[True, False]]


def test_build_wse_misaligned():
    dem = make_raster([[1.0]])
    with pytest.raises(AlignmentError):
        build_wse(dem, layer(10, LayerKind.DEPTH, [[1.0]], xll=99.0))


def test_validate_stack_sorts():
    dem = make_raster([[1.0]])
    layers = [
        layer(500, LayerKind.WSE, [[8.0]]),
        layer(10, LayerKind.WSE, [[5.0]]),
        layer(100, LayerKind.WSE, [[7.0]]),
    ]
    stack = validate_stack(dem, layers)
    assert stack.periods == (10.0, 100.0, 500.0)
    assert stack.probabilities == (0.1, 0.01, 0.002)
    assert all(lyr.kind is LayerKind.WSE for lyr in stack.layers)


def test_validate_stack_converts_depths():
    dem = make_raster([[10.0]])
    stack = validate_stack(
        dem,
        [layer(10, LayerKind.DEPTH, [[1.5]]), layer(100, LayerKind.DEPTH, [[3.0]])],
    )
    assert stack.layers[0].grid.values[0, 0] == 11.5
    assert stack.layers[1].grid.values[0, 0] == 13.0


def test_stack_rejects_depth_layers():
    # depths read as surfaces would give p = [0.1, 0.1, 0.01] here, where
    # validate_stack, converting them first, gives [0.1, 0.1, 0.1]
    dem = make_raster([[0.0, 1.0, 2.0]])
    depths = [layer(10, LayerKind.DEPTH, [[1.0] * 3]),
              layer(100, LayerKind.DEPTH, [[2.0] * 3])]
    with pytest.raises(StackError, match=r"^layer T=10 is a depth grid"):
        HazardStack(dem, tuple(depths))
    assert validate_stack(dem, depths).periods == (10.0, 100.0)


def test_validate_stack_needs_two_layers():
    dem = make_raster([[1.0]])
    with pytest.raises(StackError, match="at least two"):
        validate_stack(dem, [layer(100, LayerKind.WSE, [[7.0]])])


def test_stack_caps_layers_at_32():
    dem = make_raster([[1.0]])
    layers = [layer(t, LayerKind.WSE, [[1.0 + t]]) for t in range(2, 34)]
    assert len(validate_stack(dem, layers).layers) == 32
    layers.append(layer(34, LayerKind.WSE, [[35.0]]))
    with pytest.raises(StackError, match="at most 32"):
        validate_stack(dem, layers)


@pytest.mark.parametrize(
    "dem, wse100, name",
    [(1e150 * 1.0000001, 2.0, "DEM"), (1.0, -2e150, "layer T=100")],
)
def test_stack_rejects_values_beyond_1e150(dem, wse100, name):
    with pytest.raises(StackError, match=f"^{name}: value .* at cell \\(0, 1\\)"):
        validate_stack(
            make_raster([[0.0, dem]]),
            [layer(10, LayerKind.WSE, [[1.0, 1.0]]),
             layer(100, LayerKind.WSE, [[2.0, wse100]])],
        )


def test_stack_limit_ignores_nodata_cells():
    huge = -1e300
    stack = validate_stack(
        make_raster([[1e150, huge]], nodata=huge),
        [layer(10, LayerKind.WSE, [[-1e150, huge]], nodata=huge),
         layer(100, LayerKind.WSE, [[1e150, 2.0]], nodata=huge)],
    )
    assert stack.periods == (10.0, 100.0)


def test_validate_stack_duplicate_period():
    dem = make_raster([[1.0]])
    with pytest.raises(StackError, match="duplicate"):
        validate_stack(
            dem,
            [layer(100, LayerKind.WSE, [[7.0]]), layer(100, LayerKind.WSE, [[8.0]])],
        )


def test_validate_stack_misaligned_layer_named():
    dem = make_raster([[1.0]])
    with pytest.raises(AlignmentError, match="T=100"):
        validate_stack(
            dem,
            [
                layer(10, LayerKind.WSE, [[5.0]]),
                layer(100, LayerKind.WSE, [[7.0]], cellsize=2.0),
            ],
        )


def test_stack_built_directly_checks_order_and_alignment():
    dem = make_raster([[1.0]])
    with pytest.raises(StackError, match=r"strictly increasing in T, got \[100, 10\]"):
        HazardStack(dem, (layer(100, LayerKind.WSE, [[7.0]]),
                          layer(10, LayerKind.WSE, [[5.0]])))
    with pytest.raises(AlignmentError, match="^layer T=100 grid is not aligned"):
        HazardStack(dem, (layer(10, LayerKind.WSE, [[5.0]]),
                          layer(100, LayerKind.WSE, [[7.0]], xll=1.0)))


def test_validate_stack_accepts_non_monotone_surfaces():
    # crossing surfaces are real-data errors; validation keeps them and the
    # curve construction repairs per cell later
    dem = make_raster([[1.0]])
    stack = validate_stack(
        dem,
        [layer(10, LayerKind.WSE, [[6.0]]), layer(100, LayerKind.WSE, [[5.5]])],
    )
    assert stack.layers[0].grid.values[0, 0] == 6.0
    assert stack.layers[1].grid.values[0, 0] == 5.5


def test_return_period_must_exceed_one_year():
    with pytest.raises(StackError):
        layer(1.0, LayerKind.WSE, [[5.0]])


@pytest.mark.parametrize("t", [float("inf"), float("nan")])
def test_return_period_must_be_finite(t):
    # p = 1/T = 0 has no logarithm, so the curve would be all NaN
    with pytest.raises(StackError, match="finite"):
        layer(t, LayerKind.WSE, [[5.0]])


def test_probability_is_derived():
    lyr = layer(250, LayerKind.WSE, [[5.0]])
    assert lyr.exceedance_probability == 1.0 / 250.0
