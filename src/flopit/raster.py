"""Grid data model and ESRI ASCII grid I/O.

The interchange format is the plain-text Arc/Info ASCII grid: six header
lines (NCOLS, NROWS, XLLCORNER, YLLCORNER, CELLSIZE, NODATA_VALUE) followed
by nrows lines of ncols whitespace-separated numbers, row 0 = northernmost
row. It is human readable, byte-auditable and needs no GIS libraries.

Values are stored as 64-bit floats. Cells without data carry the header's
nodata sentinel exactly; NaN and infinities are rejected on input rather
than silently converted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridDimensionError, GridParseError

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


@dataclass(frozen=True)
class GridHeader:
    """Geometry and nodata sentinel of a rectangular grid."""

    ncols: int
    nrows: int
    xllcorner: float
    yllcorner: float
    cellsize: float
    nodata_value: float = DEFAULT_NODATA

    def __post_init__(self):
        if self.ncols < 1 or self.nrows < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.ncols}x{self.nrows}")
        for name in ("xllcorner", "yllcorner", "cellsize", "nodata_value"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.cellsize > 0:
            raise ValueError(f"cellsize must be positive, got {self.cellsize}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)


@dataclass(frozen=True, eq=False)
class Raster:
    """A georeferenced grid of float64 values, immutable after construction.

    ``values`` has shape (nrows, ncols) with row 0 the northernmost row.
    Every cell is either finite or exactly equal to the nodata sentinel,
    so rasters are safe to share read-only across worker threads.
    """

    header: GridHeader
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.shape != self.header.shape:
            raise ValueError(
                f"values shape {arr.shape} does not match header {self.header.shape}"
            )
        if arr.flags.writeable:
            arr = arr.copy()
            arr.flags.writeable = False
        bad = ~np.isfinite(arr)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise ValueError(
                f"non-finite value {arr[r, c]} at cell ({r}, {c}); "
                f"use the nodata sentinel for missing cells"
            )
        object.__setattr__(self, "values", arr)

    @property
    def nodata(self) -> float:
        return self.header.nodata_value

    @property
    def data_mask(self) -> np.ndarray:
        """Boolean array, True where the cell holds data."""
        return self.values != self.header.nodata_value


def locked(arr: np.ndarray) -> np.ndarray:
    """Mark an array read-only so Raster can adopt it without copying."""
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def grids_aligned(a: GridHeader, b: GridHeader, tol: float | None = None) -> bool:
    """True if two headers describe the same cells.

    Dimensions must match exactly; origin and cellsize may differ by up to
    ``tol`` map units (default 1e-6 of a's cellsize).
    """
    if tol is None:
        tol = 1e-6 * a.cellsize
    return (
        a.ncols == b.ncols
        and a.nrows == b.nrows
        and abs(a.xllcorner - b.xllcorner) <= tol
        and abs(a.yllcorner - b.yllcorner) <= tol
        and abs(a.cellsize - b.cellsize) <= tol
    )


def read_ascii_grid(path: str | Path) -> Raster:
    """Parse an ESRI ASCII grid file.

    The six header keys are matched case-insensitively in canonical order;
    NODATA_VALUE may be omitted (default -9999). The body is read as a
    whitespace-delimited token stream, so line wrapping is irrelevant;
    scientific notation is accepted. NaN or infinite body values are an
    error, they are never coerced to nodata.
    """
    path = Path(path)
    with open(path, "rb") as f:
        try:
            text = f.read().decode("ascii")
        except UnicodeDecodeError as exc:
            raise GridParseError(
                f"{path.name}: non-ASCII byte {exc.object[exc.start]:#04x} at "
                f"byte offset {exc.start}; ASCII grids must be plain ASCII"
            ) from None

    lines = text.splitlines()
    header: dict[str, float] = {}
    body_start = 0
    n_keys = 0
    for lineno, line in enumerate(lines, start=1):
        if n_keys >= len(_HEADER_KEYS):
            break
        parts = line.split()
        if not parts:
            continue
        key = parts[0].lower()
        if key not in _HEADER_KEYS:
            # numeric token means the body has started (legal once the five
            # mandatory keys are in; NODATA_VALUE is optional)
            try:
                float(parts[0])
            except ValueError:
                raise GridParseError(
                    f"{path.name}: unknown header key {parts[0]!r} on line {lineno}"
                ) from None
            break
        want = _HEADER_KEYS[n_keys]
        if key != want:
            raise GridParseError(
                f"{path.name}: expected header key {want.upper()!r} "
                f"on line {lineno}, found {parts[0]!r}"
            )
        if len(parts) != 2:
            raise GridParseError(
                f"{path.name}: header key {parts[0]!r} on line {lineno} "
                f"needs exactly one value"
            )
        try:
            header[key] = float(parts[1])
        except ValueError:
            raise GridParseError(
                f"{path.name}: cannot parse value {parts[1]!r} for header key "
                f"{parts[0]!r} on line {lineno}"
            ) from None
        body_start = lineno
        n_keys += 1

    missing = [k for k in _HEADER_KEYS[:5] if k not in header]
    if missing:
        raise GridParseError(
            f"{path.name}: missing header key {missing[0].upper()!r}"
        )
    for key in ("ncols", "nrows"):
        if not header[key].is_integer():  # False for nan and inf too
            raise GridParseError(f"{path.name}: header {key.upper()} must be an integer")

    try:
        hdr = GridHeader(
            ncols=int(header["ncols"]),
            nrows=int(header["nrows"]),
            xllcorner=header["xllcorner"],
            yllcorner=header["yllcorner"],
            cellsize=header["cellsize"],
            nodata_value=header.get("nodata_value", DEFAULT_NODATA),
        )
    except ValueError as exc:
        raise GridParseError(f"{path.name}: {exc}") from None

    tokens = "\n".join(lines[body_start:]).split()
    n_expected = hdr.ncols * hdr.nrows
    if len(tokens) != n_expected:
        raise GridDimensionError(
            f"{path.name}: expected {n_expected} values "
            f"({hdr.nrows} rows x {hdr.ncols} cols), found {len(tokens)}"
        )
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        for tok in tokens:
            try:
                float(tok)
            except ValueError:
                raise GridParseError(
                    f"{path.name}: cannot parse body token {tok!r}"
                ) from None
        raise
    bad = ~np.isfinite(values)
    if bad.any():
        raise GridParseError(
            f"{path.name}: body contains {tokens[int(np.argmax(bad))]!r}; "
            f"NaN/Inf are not valid cell values"
        )
    return Raster(hdr, locked(values.reshape(hdr.shape)))


def _format_geo(x: float) -> str:
    """Shortest exact representation; integers without a trailing .0."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def write_ascii_grid(raster: Raster, path: str | Path, decimals: int = 6) -> None:
    """Write a raster as an ESRI ASCII grid.

    Data cells are printed with ``decimals`` fixed-point digits; nodata
    cells carry the literal nodata value. Output bytes are fully determined
    by the raster and ``decimals``.
    """
    if decimals < 0:
        raise ValueError("decimals must be >= 0")
    hdr = raster.header
    nodata_text = _format_geo(hdr.nodata_value)
    out = [
        f"NCOLS {hdr.ncols}",
        f"NROWS {hdr.nrows}",
        f"XLLCORNER {_format_geo(hdr.xllcorner)}",
        f"YLLCORNER {_format_geo(hdr.yllcorner)}",
        f"CELLSIZE {_format_geo(hdr.cellsize)}",
        f"NODATA_VALUE {nodata_text}",
    ]
    nodata = hdr.nodata_value
    fmt = f"%.{decimals}f"
    for row in raster.values:
        out.append(" ".join(nodata_text if v == nodata else fmt % v for v in row))
    with open(path, "w", encoding="ascii", newline="") as f:
        f.write("\n".join(out))
        f.write("\n")
