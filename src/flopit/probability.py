"""Continuous flood probability surface and derived flood zones.

Every DEM cell gathers the (WSE, p) pairs of the layers that hold data
there, repairs them into a monotone curve and evaluates that curve at the
cell's ground elevation. Coercion rules for cells the curve cannot reach:

* outside the widest flood extent (rarest layer nodata after filling):
  nodata, there is nothing to extrapolate from;
* ground below the most frequent surface: clamped to that surface's
  probability (flag 1);
* ground above the rarest surface but inside the widest extent: clamped to
  the rarest probability (flag 2);
* fewer than two usable surfaces: nodata.

The per-cell work is independent, so the grid is processed in the row
bands of :func:`~flopit.raster.row_bands`, and each band fills its rows of
all four outputs. The worker count only sets how many bands run at once,
at most one per CPU: the output bytes never depend on it, and each running
band adds its own temporaries to the peak memory.
"""

from __future__ import annotations

import dataclasses
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .curves import MIN_KNOT_GAP, Clamped, InterpolationMethod, _evaluate_knot_batch
from .hazard import HazardStack
from .idw import IdwParams, fill_stack
from .raster import DEFAULT_NODATA, GridHeader, Raster, locked, row_bands
from .workers import pool_size

logger = logging.getLogger(__name__)

CLAMP_INTERIOR = Clamped.NO.value
CLAMP_HIGH = Clamped.HIGH.value
CLAMP_LOW = Clamped.LOW.value


@dataclass(frozen=True, eq=False)
class ProbabilityMap:
    """Continuous annual exceedance probability plus companion rasters.

    ``return_period`` is 1/probability; ``clamp_flags`` records how each
    cell was obtained (0 interpolated, 1 clamped high, 2 clamped low) so
    the coerced share of a map can be audited; ``zones`` holds the discrete
    flood zones of the same stack, as :func:`derive_zones` gives them.
    """

    probability: Raster
    return_period: Raster
    clamp_flags: Raster
    zones: Raster

    def clamp_counts(self) -> tuple[int, int, int]:
        """(interior, clamped-high, clamped-low) cell counts."""
        flags = self.clamp_flags.values[self.clamp_flags.data_mask]
        return tuple(int(np.count_nonzero(flags == c.value)) for c in Clamped)


@dataclass(frozen=True, eq=False)
class ZoneRaster:
    """Discrete flood zones; each cell carries the smallest return period
    (years) whose flood surface lies above the ground there."""

    zones: Raster


def _set_zones(zones: np.ndarray, stack: HazardStack, rows: slice) -> np.ndarray:
    """Set each cell of ``zones``, the grid's ``rows``, whose ground holds
    data to the smallest return period whose surface holds data strictly
    above that ground; leave the other cells as they are. Returns the
    rows' mask of cells whose ground holds data."""
    z = stack.dem.values[rows]
    ground = z != stack.dem.nodata
    for lyr in reversed(stack.layers):  # descending T; smallest wins last
        vals = lyr.grid.values[rows]
        zones[ground & (vals != lyr.grid.nodata) & (vals > z)] = lyr.return_period_years
    return ground


def _output_header(hdr: GridHeader) -> GridHeader:
    # probabilities, return periods and flags are all non-negative, so a
    # non-negative input sentinel cannot be reused safely
    if hdr.nodata_value < 0:
        return hdr
    return dataclasses.replace(hdr, nodata_value=DEFAULT_NODATA)


def interpolate_map(
    stack: HazardStack,
    params: IdwParams | None = None,
    method: InterpolationMethod = InterpolationMethod.MONOTONE_CUBIC,
    workers: int = 1,
) -> ProbabilityMap:
    """Interpolate the probability surface for every cell of the stack.

    When ``params`` is given the layers are IDW-filled/smoothed first; pass
    None for a stack that has already been through :func:`fill_stack`.
    ``workers`` counts threads (0 = one per CPU), capped by
    :func:`~flopit.workers.pool_size` at one per CPU and per band; it
    only sets how many of the fixed-size row bands run at once, so any
    value produces bit-identical output.
    """
    if params is not None:
        stack = fill_stack(stack, params)
    out_hdr = _output_header(stack.dem.header)
    nodata = out_hdr.nodata_value
    dem = stack.dem
    grids = [lyr.grid for lyr in stack.layers]
    p_arr = np.array(stack.probabilities)
    log_p = np.log(p_arr)
    prob, rp, flags, zones = (np.full(out_hdr.shape, nodata) for _ in range(4))

    def run_band(rows: slice) -> np.ndarray:
        """Evaluate one row band into its disjoint slice of the outputs;
        returns the per-layer drop counts."""
        z = dem.values[rows].reshape(-1)
        wse = [grid.values[rows].reshape(-1) for grid in grids]
        drops = np.zeros(len(grids), dtype=np.int64)
        pattern = np.zeros(z.shape, dtype=np.uint32)
        # monotonicity repair: walking from the most frequent flood upward,
        # drop any surface not more than MIN_KNOT_GAP above the last kept one
        last = np.full(z.shape, -np.inf)
        for k, (grid, vals) in enumerate(zip(grids, wse)):
            has = vals != grid.nodata
            keep = has & (vals > last + MIN_KNOT_GAP)
            drops[k] = np.count_nonzero(has & ~keep)
            pattern |= keep.astype(np.uint32) << k
            last = np.where(keep, vals, last)
        ground = _set_zones(zones[rows], stack, rows).reshape(-1)
        # ``has`` is now the rarest layer's extent; a pattern with two or
        # more bits set keeps at least two layers
        cells = np.flatnonzero(ground & has & (pattern & (pattern - 1) != 0))
        z, pattern = z[cells], pattern[cells]

        band_prob = prob[rows].reshape(-1)
        band_flags = flags[rows].reshape(-1)
        # each pattern once, ascending, as np.unique gives them: its hash table
        # is slower on a band's few patterns, and numpy 2's np.unique imports
        # numpy.ma on its first call
        ordered = np.sort(pattern)
        for pat in np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]])):
            sel = pattern == pat
            at, z_pat = cells[sel], z[sel]
            bits = [k for k in range(len(grids)) if pat >> k & 1]
            high = z_pat < wse[bits[0]][at]
            low = z_pat > wse[bits[-1]][at]
            band_prob[at[high]] = p_arr[bits[0]]
            band_flags[at[high]] = CLAMP_HIGH
            band_prob[at[low]] = p_arr[bits[-1]]
            band_flags[at[low]] = CLAMP_LOW
            inner = ~(high | low)
            at = at[inner]
            x = np.stack([wse[k][at] for k in bits])
            band_prob[at] = _evaluate_knot_batch(
                x, log_p[bits], p_arr[bits], z_pat[inner], method
            )
            band_flags[at] = CLAMP_INTERIOR
        np.divide(1.0, prob[rows], out=rp[rows], where=prob[rows] != nodata)
        return drops

    bands = row_bands(out_hdr.shape)
    with ThreadPoolExecutor(max_workers=pool_size(workers, len(bands))) as pool:
        drop_lists = list(pool.map(run_band, bands))
    for k, n_drop in enumerate(np.sum(drop_lists, axis=0)):
        if n_drop:
            logger.info(
                "monotonicity repair dropped layer T=%g at %d cells",
                stack.periods[k], int(n_drop),
            )
    # a data cell holds a flag, one of the stack's T, a p that evaluation
    # (which cannot overflow within the stack's ±1e150) clips between two of
    # the stack's, or 1/p for such a p: at most 1/p of the rarest layer,
    # which the return-period rule (hazard._check_period) keeps finite
    return ProbabilityMap(
        probability=Raster._derived(out_hdr, locked(prob)),
        return_period=Raster._derived(out_hdr, locked(rp)),
        clamp_flags=Raster._derived(out_hdr, locked(flags)),
        zones=Raster._derived(out_hdr, locked(zones)),
    )


def derive_zones(stack: HazardStack) -> ZoneRaster:
    """Assign each cell the smallest return period whose flood covers it.

    A flood covers a cell when its (already filled) surface holds data and
    lies strictly above the ground elevation. Cells no flood covers are
    nodata. Assigning the smallest qualifying period keeps zones nested
    even when raw extents are not.
    """
    out_hdr = _output_header(stack.dem.header)
    zones = np.full(out_hdr.shape, out_hdr.nodata_value)
    _set_zones(zones, stack, slice(None))
    return ZoneRaster(zones=Raster(out_hdr, locked(zones)))
