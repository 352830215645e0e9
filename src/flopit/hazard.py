"""Input bundle assembly: return-period layers, depth-to-WSE conversion.

A hazard stack is one DEM plus two or more flood surfaces, each tagged with
its return period T in years (annual exceedance probability p = 1/T). Depth
grids are converted to water surface elevation by adding the DEM; layers
already expressed as WSE pass through unchanged.

Units (feet or metres) are the caller's responsibility and must be uniform
across all inputs; no conversion is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AlignmentError, FlopitError, StackError
from .raster import GridHeader, Raster, grids_aligned, locked

# curve evaluation multiplies differences of elevations; within ±1e150 no
# product of two of them can overflow a float64
MAX_ABS_ELEVATION = 1e150


class LayerKind(Enum):
    DEPTH = "depth"
    WSE = "wse"


def _check_period(t: float) -> None:
    if not 1 < t < math.inf:
        raise StackError(f"return period must be finite and exceed 1 year, got {t}")


def check_periods(periods: list[float]) -> None:
    """Raise StackError unless ``periods``, in any order, can make a stack:
    each finite and above 1 year, 2 to 32 of them, no two equal. Needs no
    grid, so a command line can be checked before any is read."""
    for t in periods:
        _check_period(t)
    if len(periods) < 2:
        raise StackError("at least two return periods required")
    if len(periods) > 32:  # evaluation keeps retained layers in a uint32
        raise StackError(f"at most 32 return periods are supported, got {len(periods)}")
    ordered = sorted(periods)
    for a, b in zip(ordered, ordered[1:]):
        if b == a:
            raise StackError(f"duplicate return period T={a:g}")


def check_aligned(dem: Raster, header: GridHeader, name: str) -> None:
    """Raise AlignmentError, naming ``name``, unless ``header`` describes
    the DEM's cells."""
    if not grids_aligned(dem.header, header):
        raise AlignmentError(f"{name} is not aligned with the DEM")


@dataclass(frozen=True)
class ReturnPeriodLayer:
    """One flood surface (depth or WSE grid) tagged with its return period."""

    return_period_years: float
    kind: LayerKind
    grid: Raster

    def __post_init__(self):
        _check_period(self.return_period_years)

    @property
    def exceedance_probability(self) -> float:
        """Annual exceedance probability, always derived as 1/T."""
        return 1.0 / self.return_period_years


@dataclass(frozen=True)
class HazardStack:
    """Validated bundle: DEM plus 2 to 32 WSE layers sorted by ascending T,
    every data value within ±MAX_ABS_ELEVATION."""

    dem: Raster
    layers: tuple[ReturnPeriodLayer, ...] = field(default=())

    def __post_init__(self):
        periods = [lyr.return_period_years for lyr in self.layers]
        check_periods(periods)
        if periods != sorted(periods):
            raise StackError(f"layers must be strictly increasing in T, got {periods}")
        for lyr in self.layers:
            if lyr.kind is not LayerKind.WSE:  # validate_stack converts depths
                raise StackError(
                    f"layer T={lyr.return_period_years:g} is a {lyr.kind.value} "
                    f"grid; a stack holds WSE layers only"
                )
            check_aligned(self.dem, lyr.grid.header,
                          f"layer T={lyr.return_period_years:g} grid")
        named = [("DEM", self.dem)] + [
            (f"layer T={lyr.return_period_years:g}", lyr.grid) for lyr in self.layers
        ]
        for name, grid in named:
            huge = grid.data_mask & (np.abs(grid.values) > MAX_ABS_ELEVATION)
            if huge.any():
                r, c = np.argwhere(huge)[0]
                raise StackError(
                    f"{name}: value {grid.values[r, c]:g} at cell ({r}, {c}) is "
                    f"beyond ±{MAX_ABS_ELEVATION:g}"
                )

    @property
    def periods(self) -> tuple[float, ...]:
        return tuple(lyr.return_period_years for lyr in self.layers)

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(lyr.exceedance_probability for lyr in self.layers)


def build_wse(dem: Raster, layer: ReturnPeriodLayer) -> Raster:
    """Convert one layer to water surface elevation.

    Depth grids become dem + depth where both cells hold data and depth is
    positive; zero or negative depths carry no flood surface information and
    map to nodata, as do cells where either input is nodata. WSE grids pass
    through unchanged. Raises StackError if a sum overflows to infinity.
    """
    check_aligned(dem, layer.grid.header, f"layer T={layer.return_period_years:g} grid")
    if layer.kind is LayerKind.WSE:
        return layer.grid
    depth = layer.grid.values
    nodata = layer.grid.nodata
    ok = (depth != nodata) & (depth > 0) & dem.data_mask
    with np.errstate(over="ignore"):
        out = np.where(ok, dem.values + depth, nodata)
    try:
        return Raster(layer.grid.header, locked(out))
    except FlopitError:  # Raster rejects a non-finite cell, here only an overflow
        r, c = np.argwhere(~np.isfinite(out))[0]
        raise StackError(
            f"layer T={layer.return_period_years:g}: DEM + depth overflows "
            f"at cell ({r}, {c})"
        ) from None


def validate_stack(dem: Raster, layers: list[ReturnPeriodLayer]) -> HazardStack:
    """Sort, validate and convert layers into a HazardStack.

    Raises AlignmentError naming the layer whose grid does not match the
    DEM and, through :class:`HazardStack`, StackError for duplicate return
    periods or fewer than two or more than 32 layers.
    """
    ordered = sorted(layers, key=lambda lyr: lyr.return_period_years)
    converted = tuple(
        ReturnPeriodLayer(lyr.return_period_years, LayerKind.WSE, build_wse(dem, lyr))
        for lyr in ordered
    )
    return HazardStack(dem=dem, layers=converted)
