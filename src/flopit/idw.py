"""Inverse-distance-weighted smoothing and gap filling of WSE rasters.

Filling extends each flood surface to nearby nodata cells so that every
cell inside the widest flood extent can see a surface elevation for every
layer. Smoothing additionally blends each data cell with the IDW average of
its neighbourhood; it is opt-in because perturbing engineered flood
surfaces by default is rarely what you want.

Distances are Euclidean centre-to-centre in cell units; the search window
is the Chebyshev box of ``radius_cells``. Neighbour selection is fully
deterministic: candidates take the nearest ``max_neighbors`` data cells,
with distance ties broken by (row offset, column offset) ascending. All
reads come from the input raster, never the output under construction, so
results are independent of cell visitation order.

A cell whose K = ``max_neighbors`` nearest offsets (or the whole box, if it
holds fewer) all hold data costs a fixed K taps: such cells are computed
together, K shifted slices of the grid per row band. Only the other cells
are gathered, nearest offset first, from up to all (2r+1)^2 - 1 cells of
their box, so for them IDW's cost grows as ``radius_cells``^2. Both paths
read one padded copy of the grid and of its mask, with one set of weights,
and one rule then gives each nodata cell its estimate and each data cell
the 0.5/0.5 blend, in the same :func:`~flopit.raster.row_bands` as evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import FlopitError
from .hazard import HazardStack, ReturnPeriodLayer
from .raster import Raster, locked, row_bands


class IdwMode(Enum):
    FILL_ONLY = "fill"
    SMOOTH_ALL = "smooth"


@dataclass(frozen=True)
class IdwParams:
    """Weighting and search parameters; weights are 1/distance**power."""

    power: float = 2.0
    radius_cells: int = 10
    max_neighbors: int = 16
    min_neighbors: int = 1
    mode: IdwMode = IdwMode.FILL_ONLY

    def __post_init__(self):
        if self.radius_cells < 1:
            raise FlopitError(f"radius_cells must be >= 1, got {self.radius_cells}")
        # above top the farthest weight, (2 r^2)^(-power/2), is < 2^-1074, i.e. 0
        top = 2 * 1074 / (1 + 2 * math.log2(self.radius_cells))  # log2: no overflow
        if not 0 < self.power <= top:
            raise FlopitError(
                f"power {self.power} not in (0, {top:.10g}] at radius {self.radius_cells}"
            )
        if self.min_neighbors < 1:
            raise FlopitError("min_neighbors must be >= 1")
        if self.min_neighbors > self.max_neighbors:
            raise FlopitError(
                f"min_neighbors {self.min_neighbors} exceeds "
                f"max_neighbors {self.max_neighbors}"
            )


@lru_cache(maxsize=32)
def _offsets(radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dr, dc, d2) for the Chebyshev box, sorted by (d2, dr, dc), no centre;
    read-only, as every caller in the process shares the cached arrays."""
    span = np.arange(-radius, radius + 1)
    dr, dc = (a.ravel() for a in np.meshgrid(span, span, indexing="ij"))
    d2 = dr * dr + dc * dc
    order = np.lexsort((dc, dr, d2))[1:]  # the centre, d2 = 0, sorts first
    offsets = dr[order], dc[order], d2[order]
    for arr in offsets:
        arr.flags.writeable = False
    return offsets


def _box_counts(padded: np.ndarray, radius: int) -> np.ndarray:
    """Count of True cells in the (2r+1)^2 box around each cell of a mask
    that ``padded`` pads with ``radius`` False cells on each side."""
    w = 2 * radius + 1
    # no partial sum exceeds the cell count, so int32 is exact below 2^31
    # cells and its two passes take about half the time of int64's
    dtype = np.int32 if padded.size < 2**31 else np.int64
    summed = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1), dtype=dtype)
    inner = summed[1:, 1:]
    inner[...] = padded
    np.cumsum(inner, axis=0, out=inner)
    np.cumsum(inner, axis=1, out=inner)
    return summed[w:, w:] - summed[:-w, w:] - summed[w:, :-w] + summed[:-w, :-w]


def _accumulate(
    padded: np.ndarray,
    padded_mask: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    radius: int,
    weights: np.ndarray,
    max_neighbors: int,
) -> tuple[np.ndarray, np.ndarray]:
    """IDW estimate over the nearest data cells of each candidate.

    Returns (estimate, neighbour count) per candidate; the estimate is the
    weighted mean clipped into the neighbours' value range, and is only
    meaningful where the count is positive. Offsets are visited in
    ascending distance order, so once a candidate has max_neighbors
    contributions no nearer neighbour can exist and it drops out of the
    scan. The grids are padded by ``radius``, which makes each offset one
    flat step that stays in the arrays.
    """
    width = padded.shape[1]
    flat_values, flat_mask = padded.ravel(), padded_mask.ravel()
    base = (rows + radius) * width + cols + radius
    m = base.shape[0]
    num, den = np.zeros(m), np.zeros(m)
    cnt = np.zeros(m, dtype=np.int64)
    vmin, vmax = np.full(m, np.inf), np.full(m, -np.inf)

    dr, dc, _ = _offsets(radius)
    active = np.arange(m)
    for step, w in zip(dr * width + dc, weights):
        nb = base[active] + step
        hit = flat_mask[nb]
        sel = active[hit]
        if sel.size:
            # sel holds unique indices (one neighbour position per candidate)
            v = flat_values[nb[hit]]
            num[sel] += w * v
            den[sel] += w
            cnt[sel] += 1
            vmin[sel] = np.minimum(vmin[sel], v)
            vmax[sel] = np.maximum(vmax[sel], v)
            active = active[cnt[active] < max_neighbors]
            if active.size == 0:
                break
    with np.errstate(invalid="ignore"):  # 0/0 where no neighbour was found
        return np.clip(num / den, vmin, vmax), cnt


def _stencil(padded: np.ndarray, taps: list, full: np.ndarray, out: np.ndarray) -> None:
    """Write into ``out`` the estimate of each ``full`` cell of a row band,
    one whose K nearest offsets, the ``taps`` (weight, row and column in
    ``padded``), all hold data. :func:`_accumulate` takes exactly these K
    neighbours of such a cell, in this order, and then retires it, so the
    same float operations run here on K shifted slices of ``padded``; as
    every such cell sums the same weights in the same order, their sum is
    one float."""
    h, ncols = full.shape
    num, wv = np.zeros(full.shape), np.empty(full.shape)
    vmin, vmax = np.full(full.shape, np.inf), np.full(full.shape, -np.inf)
    den = 0.0
    for w, a, b in taps:
        v = padded[a:a + h, b:b + ncols]
        np.multiply(w, v, out=wv)
        num += wv
        den += w
        np.minimum(vmin, v, out=vmin)
        np.maximum(vmax, v, out=vmax)
    np.copyto(out, np.clip(num / den, vmin, vmax), where=full)


def _idw(wse: Raster, params: IdwParams, smooth: bool) -> Raster:
    """One IDW scan over the nodata cells to fill and, when smoothing,
    every data cell as well; all reads come from ``wse``. Returns ``wse``
    itself when no cell needs an estimate."""
    # no offset beyond the grid's extent can land in it, so a wider box
    # changes nothing but the cost of scanning it
    radius = min(params.radius_cells, max(1, max(wse.header.shape) - 1))
    values, mask = wse.values, wse.data_mask
    padded_mask = np.pad(mask, radius)
    cand = ~mask
    if cand.any():
        cand &= _box_counts(padded_mask, radius) >= params.min_neighbors
    if smooth:
        cand |= mask
    if not cand.any():
        return wse
    # nodata reads as 0 so the stencil's cells that are not full, whose
    # results are discarded, cannot overflow on a sentinel
    padded = np.pad(values, radius)
    padded[~padded_mask] = 0.0
    dr, dc, d2 = _offsets(radius)
    weights = d2.astype(np.float64) ** (-0.5 * params.power)
    k = min(params.max_neighbors, dr.size)
    taps = list(zip(weights[:k], dr[:k] + radius, dc[:k] + radius))
    nrows, ncols = mask.shape
    full = cand.copy()
    for _, a, b in taps:
        full &= padded_mask[a:a + nrows, b:b + ncols]
    out = values.copy()
    rows, cols = np.nonzero(cand & ~full)
    if rows.size:
        est, cnt = _accumulate(
            padded, padded_mask, rows, cols, radius, weights, params.max_neighbors
        )
        hit = cnt > 0  # only data cells miss: a nodata candidate has data in its box
        out[rows[hit], cols[hit]] = est[hit]
        cand[rows[~hit], cols[~hit]] = False
    # cand now marks the cells given an estimate: nodata cells take it, data
    # cells the 0.5/0.5 blend
    for band in row_bands(mask.shape):
        if full[band].any():
            halo = slice(band.start, band.stop + 2 * radius)
            _stencil(padded[halo], taps, full[band], out[band])
        blend = cand[band] & mask[band]
        if blend.any():
            np.copyto(out[band], 0.5 * values[band] + 0.5 * out[band], where=blend)
    return Raster(wse.header, locked(out))


def idw_fill(wse: Raster, params: IdwParams | None = None) -> Raster:
    """Fill nodata cells that have enough data within the search radius.

    A nodata cell with at least ``min_neighbors`` data cells in the
    Chebyshev box receives the IDW average of its nearest ``max_neighbors``
    data cells (clamped into their value range, so filling is always a
    convex combination). Data cells are never modified; nodata cells with
    no qualifying neighbours stay nodata.
    """
    return _idw(wse, params or IdwParams(), smooth=False)


def idw_smooth(wse: Raster, params: IdwParams | None = None) -> Raster:
    """Fill nodata cells, then blend every data cell with its neighbourhood.

    Data cells become 0.5*original + 0.5*idw(neighbours), neighbours taken
    exactly as in :func:`idw_fill` but excluding the cell itself. A data
    cell with no neighbours in range is left unchanged.
    """
    return _idw(wse, params or IdwParams(), smooth=True)


def fill_stack(stack: HazardStack, params: IdwParams | None = None) -> HazardStack:
    """Apply the configured IDW pass to every layer of a stack; a stack it
    leaves unchanged comes back itself rather than checked again."""
    params = params or IdwParams()
    op = idw_smooth if params.mode is IdwMode.SMOOTH_ALL else idw_fill
    grids = [op(lyr.grid, params) for lyr in stack.layers]
    if all(grid is lyr.grid for grid, lyr in zip(grids, stack.layers)):
        return stack
    layers = tuple(
        ReturnPeriodLayer(lyr.return_period_years, lyr.kind, grid)
        for lyr, grid in zip(stack.layers, grids)
    )
    return HazardStack(dem=stack.dem, layers=layers)
