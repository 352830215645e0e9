import numpy as np
import pytest

from flopit import GridDimensionError, GridHeader, GridParseError, Raster
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


# The reader's whole-body parser before it parsed and checked in one
# blockwise pass; kept as the reference for that pass's values and errors.
def _parse_tokens(name: str, text: str, hdr: GridHeader) -> np.ndarray:
    """Parse a whole body at once; raises the error a bad body deserves."""
    tokens = text.split()
    n_expected = hdr.ncols * hdr.nrows
    if len(tokens) != n_expected:
        raise GridDimensionError(
            f"{name}: expected {n_expected} values "
            f"({hdr.nrows} rows x {hdr.ncols} cols), found {len(tokens)}"
        )
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        for tok in tokens:
            try:
                float(tok)
            except ValueError:
                raise GridParseError(f"{name}: cannot parse body token {tok!r}") from None
        raise
    bad = ~np.isfinite(values)
    if bad.any():
        raise GridParseError(
            f"{name}: body contains {tokens[int(np.argmax(bad))]!r}; "
            f"NaN/Inf are not valid cell values"
        )
    return values


@pytest.fixture
def rng():
    return np.random.default_rng(17)
