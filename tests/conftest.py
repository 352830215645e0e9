import numpy as np
import pytest

from flopit import GridHeader, Raster
from flopit.idw import _accumulate, _box_counts


def make_raster(values, nodata=-9999.0, cellsize=1.0, xll=0.0, yll=0.0):
    """Raster from a nested list / array, nodata encoded as the sentinel."""
    arr = np.asarray(values, dtype=np.float64)
    hdr = GridHeader(
        ncols=arr.shape[1],
        nrows=arr.shape[0],
        xllcorner=xll,
        yllcorner=yll,
        cellsize=cellsize,
        nodata_value=nodata,
    )
    return Raster(hdr, arr)


def gather_reference(wse, params, smooth):
    """IDW values with every candidate sent through ``idw._accumulate``,
    none through the fixed-stencil path."""
    radius = min(params.radius_cells, max(1, max(wse.header.shape) - 1))
    mask = wse.data_mask
    cand = ~mask & (_box_counts(mask, radius) >= params.min_neighbors)
    if smooth:
        cand |= mask
    out = wse.values.copy()
    rows, cols = np.nonzero(cand)
    est, cnt = _accumulate(wse.values, mask, rows, cols, radius, params)
    fill = ~mask[rows, cols]
    out[rows[fill], cols[fill]] = est[fill]
    blend = ~fill & (cnt > 0)
    r, c = rows[blend], cols[blend]
    out[r, c] = 0.5 * wse.values[r, c] + 0.5 * est[blend]
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(17)
