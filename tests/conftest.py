import os
import sys
from pathlib import Path

import numpy as np
import pytest

import flopit
from flopit import GridDimensionError, GridHeader, GridParseError, Raster
from flopit.idw import IdwParams, _offsets
from flopit.raster import _format_geo


def child_env(with_src: bool = True) -> dict[str, str]:
    """The environment of a child process. With ``with_src``, this
    checkout's ``src`` leads its PYTHONPATH; without, it has no
    PYTHONPATH, so the child imports the flopit its interpreter has.
    The child runs in dev mode and under the warning options if the
    tests do, so a file it leaves open fails the same way. Like the
    tests under pyproject's filter, it fails on a RuntimeWarning."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    if with_src:
        src = str(Path(flopit.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if sys.flags.dev_mode:
        env["PYTHONDEVMODE"] = "1"
    # pyproject's filterwarnings reaches this process's filters, not
    # sys.warnoptions; a later option takes precedence
    env["PYTHONWARNINGS"] = ",".join([*sys.warnoptions, "error::RuntimeWarning"])
    return env


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


# The IDW gather and box counts as they were before the two IDW estimators
# shared their padded inputs; kept as the reference for both estimators.
def _box_counts(mask: np.ndarray, radius: int) -> np.ndarray:
    """Count of True cells in the clipped (2r+1)^2 box around each cell."""
    w = 2 * radius + 1
    padded = np.pad(mask, radius)
    summed = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1), dtype=np.int64)
    summed[1:, 1:] = padded.cumsum(axis=0).cumsum(axis=1)
    return summed[w:, w:] - summed[:-w, w:] - summed[w:, :-w] + summed[:-w, :-w]


def _accumulate(
    values: np.ndarray,
    mask: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    radius: int,
    params: IdwParams,
) -> tuple[np.ndarray, np.ndarray]:
    """IDW estimate over the nearest data cells of each candidate.

    Returns (estimate, neighbour count) per candidate; the estimate is the
    weighted mean clipped into the neighbours' value range, and is only
    meaningful where the count is positive. Offsets are visited in
    ascending distance order, so once a candidate has max_neighbors
    contributions no nearer neighbour can exist and it drops out of the
    scan. ``radius``, not ``params.radius_cells``, bounds the box; padding
    by it makes each offset one flat step that stays in the arrays.
    """
    width = values.shape[1] + 2 * radius
    flat_values = np.pad(values, radius).ravel()
    flat_mask = np.pad(mask, radius).ravel()
    base = (rows + radius) * width + cols + radius
    m = base.shape[0]
    num, den = np.zeros(m), np.zeros(m)
    cnt = np.zeros(m, dtype=np.int64)
    vmin, vmax = np.full(m, np.inf), np.full(m, -np.inf)

    dr_all, dc_all, d2_all = _offsets(radius)
    weights = d2_all.astype(np.float64) ** (-0.5 * params.power)
    active = np.arange(m)
    for step, w in zip(dr_all * width + dc_all, weights):
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
            active = active[cnt[active] < params.max_neighbors]
            if active.size == 0:
                break
    with np.errstate(invalid="ignore"):  # 0/0 where no neighbour was found
        return np.clip(num / den, vmin, vmax), cnt


def gather_reference(wse, params, smooth):
    """IDW values with every candidate sent through the reference gather,
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
        k = int(np.argmax(bad))
        r, c = divmod(k, hdr.ncols)
        raise GridParseError(
            f"{name}: non-finite value {values[k]} at cell ({r}, {c}); "
            f"use the nodata sentinel for missing cells"
        )
    return values


def _reference_grid_text(raster, decimals):
    """The grid text as formatted one cell at a time with ``%``."""
    hdr = raster.header
    nodata_text = _format_geo(hdr.nodata_value)
    lines = [
        f"NCOLS {hdr.ncols}",
        f"NROWS {hdr.nrows}",
        f"XLLCORNER {_format_geo(hdr.xllcorner)}",
        f"YLLCORNER {_format_geo(hdr.yllcorner)}",
        f"CELLSIZE {_format_geo(hdr.cellsize)}",
        f"NODATA_VALUE {nodata_text}",
    ]
    fmt = f"%.{decimals}f"
    for row in raster.values:
        lines.append(" ".join(nodata_text if v == hdr.nodata_value else fmt % v for v in row))
    return ("\n".join(lines) + "\n").encode("ascii")


@pytest.fixture
def rng():
    return np.random.default_rng(17)
