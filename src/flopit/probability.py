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

The per-cell work is independent, so the grid is processed in row bands of
a fixed number of cells, cut from the grid's shape alone. The worker count
only sets how many bands run at once: neither the output bytes nor the
peak memory of evaluation depend on it.
"""

from __future__ import annotations

import dataclasses
import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .curves import Clamped, InterpolationMethod, _evaluate_knot_batch
from .hazard import HazardStack
from .idw import IdwParams, fill_stack
from .raster import DEFAULT_NODATA, GridHeader, Raster, locked

logger = logging.getLogger(__name__)

CLAMP_INTERIOR = Clamped.NO.value
CLAMP_HIGH = Clamped.HIGH.value
CLAMP_LOW = Clamped.LOW.value

# cells per evaluation band; bounds the batch the curve kernel sees
_BAND_CELLS = 1 << 14


@dataclass(frozen=True, eq=False)
class ProbabilityMap:
    """Continuous annual exceedance probability plus companion rasters.

    ``return_period`` is 1/probability; ``clamp_flags`` records how each
    cell was obtained (0 interpolated, 1 clamped high, 2 clamped low) so
    the coerced share of a map can be audited.
    """

    probability: Raster
    return_period: Raster
    clamp_flags: Raster

    def clamp_counts(self) -> tuple[int, int, int]:
        """(interior, clamped-high, clamped-low) cell counts."""
        flags = self.clamp_flags.values[self.clamp_flags.data_mask]
        return tuple(int(np.count_nonzero(flags == c.value)) for c in Clamped)


@dataclass(frozen=True, eq=False)
class ZoneRaster:
    """Discrete flood zones; each cell carries the smallest return period
    (years) whose flood surface lies above the ground there."""

    zones: Raster


def _output_header(hdr: GridHeader) -> GridHeader:
    # probabilities, return periods and flags are all non-negative, so a
    # non-negative input sentinel cannot be reused safely
    if hdr.nodata_value < 0:
        return hdr
    return dataclasses.replace(hdr, nodata_value=DEFAULT_NODATA)


class _Evaluator:
    """Shared state and output grids for banded evaluation of one map."""

    def __init__(self, stack: HazardStack, method: InterpolationMethod, nodata: float):
        self.dem_vals = stack.dem.values
        self.dem_mask = stack.dem.data_mask
        self.wse_vals = [lyr.grid.values for lyr in stack.layers]
        self.wse_masks = [lyr.grid.data_mask for lyr in stack.layers]
        self.p_arr = np.array(stack.probabilities)
        self.log_p = np.log(self.p_arr)
        self.method = method
        shape = stack.dem.header.shape
        self.prob = np.full(shape, nodata)
        self.flags = np.full(shape, nodata)

    def run_band(self, rows: slice) -> np.ndarray:
        """Evaluate one horizontal band; returns per-layer drop counts.

        Bands write disjoint slices of the shared outputs, so any number
        of bands may run concurrently.
        """
        k_layers = len(self.wse_vals)
        dem = self.dem_vals[rows]
        shape = dem.shape
        drops = np.zeros(k_layers, dtype=np.int64)

        # monotonicity repair: walking from the most frequent flood upward,
        # drop any surface not strictly above the last retained one
        last = np.full(shape, -np.inf)
        retained = np.empty((k_layers,) + shape, dtype=bool)
        for k in range(k_layers):
            mask_k = self.wse_masks[k][rows]
            vals_k = self.wse_vals[k][rows]
            keep = mask_k & (vals_k > last)
            retained[k] = keep
            drops[k] = np.count_nonzero(mask_k & ~keep)
            last = np.where(keep, vals_k, last)

        counts = retained.sum(axis=0)
        valid = self.dem_mask[rows] & self.wse_masks[-1][rows] & (counts >= 2)
        if not valid.any():
            return drops

        flat = np.flatnonzero(valid)
        z = dem.reshape(-1)[flat]
        pattern = np.zeros(flat.shape[0], dtype=np.uint32)
        for k in range(k_layers):
            pattern |= retained[k].reshape(-1)[flat].astype(np.uint32) << k

        # views of this band's rows in the output grids
        prob = self.prob[rows].reshape(-1)
        flags = self.flags[rows].reshape(-1)
        wse = [v[rows].reshape(-1) for v in self.wse_vals]
        for pat in np.unique(pattern):
            sel = pattern == pat
            cells = flat[sel]
            z_pat = z[sel]
            bits = [k for k in range(k_layers) if pat >> k & 1]
            high = z_pat < wse[bits[0]][cells]
            low = z_pat > wse[bits[-1]][cells]
            prob[cells[high]] = self.p_arr[bits[0]]
            flags[cells[high]] = CLAMP_HIGH
            prob[cells[low]] = self.p_arr[bits[-1]]
            flags[cells[low]] = CLAMP_LOW
            inner = ~(high | low)
            cells = cells[inner]
            x = np.stack([wse[k][cells] for k in bits])
            prob[cells] = _evaluate_knot_batch(
                x, self.log_p[bits], self.p_arr[bits], z_pat[inner], self.method
            )
            flags[cells] = CLAMP_INTERIOR
        return drops


def interpolate_map(
    stack: HazardStack,
    params: IdwParams | None = None,
    method: InterpolationMethod = InterpolationMethod.MONOTONE_CUBIC,
    workers: int = 1,
) -> ProbabilityMap:
    """Interpolate the probability surface for every cell of the stack.

    When ``params`` is given the layers are IDW-filled/smoothed first; pass
    None for a stack that has already been through :func:`fill_stack`.
    ``workers`` counts threads (0 = one per CPU); it only sets how many of
    the fixed-size row bands run at once, so any value produces
    bit-identical output.
    """
    if params is not None:
        stack = fill_stack(stack, params)
    out_hdr = _output_header(stack.dem.header)
    nodata = out_hdr.nodata_value

    ev = _Evaluator(stack, method, nodata)
    nrows, ncols = out_hdr.shape
    step = max(1, _BAND_CELLS // ncols)
    bands = [slice(r, min(r + step, nrows)) for r in range(0, nrows, step)]
    with ThreadPoolExecutor(max_workers=workers or os.cpu_count() or 1) as pool:
        drop_lists = list(pool.map(ev.run_band, bands))
    for k, n_drop in enumerate(np.sum(drop_lists, axis=0)):
        if n_drop:
            logger.info(
                "monotonicity repair dropped layer T=%g at %d cells",
                stack.periods[k], int(n_drop),
            )

    rp = np.full(out_hdr.shape, nodata)
    np.divide(1.0, ev.prob, out=rp, where=ev.prob != nodata)
    return ProbabilityMap(
        probability=Raster(out_hdr, locked(ev.prob)),
        return_period=Raster(out_hdr, locked(rp)),
        clamp_flags=Raster(out_hdr, locked(ev.flags)),
    )


def derive_zones(stack: HazardStack) -> ZoneRaster:
    """Assign each cell the smallest return period whose flood covers it.

    A flood covers a cell when its (already filled) surface holds data and
    lies strictly above the ground elevation. Cells no flood covers are
    nodata. Assigning the smallest qualifying period keeps zones nested
    even when raw extents are not.
    """
    dem = stack.dem
    out_hdr = _output_header(dem.header)
    zones = np.full(out_hdr.shape, out_hdr.nodata_value)
    dem_mask = dem.data_mask
    for lyr in reversed(stack.layers):  # descending T; smallest wins last
        covered = lyr.grid.data_mask & (lyr.grid.values > dem.values) & dem_mask
        zones[covered] = lyr.return_period_years
    return ZoneRaster(zones=Raster(out_hdr, locked(zones)))
