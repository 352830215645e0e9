"""Grid data model and ESRI ASCII grid I/O.

The interchange format is the plain-text Arc/Info ASCII grid: six header
lines (NCOLS, NROWS, XLLCORNER, YLLCORNER, CELLSIZE, NODATA_VALUE) followed
by nrows lines of ncols whitespace-separated numbers, row 0 = northernmost
row. It is human readable, byte-auditable and needs no GIS libraries.

Values are stored as 64-bit floats. Cells without data carry the header's
nodata sentinel exactly; NaN and infinities are rejected on input rather
than silently converted. On output each data cell is exactly what
``%.{decimals}f`` prints for it.

Both directions work on the body in blocks of about ``_BLOCK_CELLS``
cells (whole rows when writing), so besides the file's bytes and the
value array, the memory a read or a write holds is bounded. Only a body
the blocks cannot parse (a fault, or \\x1c-\\x1f used as separators) is
split whole again, as text.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import GridDimensionError, GridParseError

DEFAULT_NODATA = -9999.0

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")

# cells per I/O block; bounds the text a read or a write holds at once
_BLOCK_CELLS = 1 << 16

# the ASCII line breaks of str.splitlines; the whitespace of bytes.split
_LINE_BREAK = re.compile(rb"\r\n|[\n\r\x0b\x0c\x1c-\x1e]")
_SPACE = re.compile(rb"\s")


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


def grids_aligned(a: GridHeader, b: GridHeader) -> bool:
    """True if two headers describe the same cells.

    Dimensions must match exactly; origin and cellsize may differ by up to
    1e-6 of a's cellsize.
    """
    tol = 1e-6 * a.cellsize
    return (
        a.ncols == b.ncols
        and a.nrows == b.nrows
        and abs(a.xllcorner - b.xllcorner) <= tol
        and abs(a.yllcorner - b.yllcorner) <= tol
        and abs(a.cellsize - b.cellsize) <= tol
    )


def _lines(data: bytes):
    """(line, end offset) pairs, cut where ``str.splitlines`` cuts ASCII text."""
    pos = 0
    for m in _LINE_BREAK.finditer(data):
        yield data[pos:m.start()].decode("ascii"), m.end()
        pos = m.end()
    if pos < len(data):
        yield data[pos:].decode("ascii"), len(data)


def _parse_blocks(data: bytes, start: int, n_cells: int) -> np.ndarray | None:
    """The body ``data[start:]`` parsed in blocks of about ``_BLOCK_CELLS``
    tokens, or None unless it holds exactly ``n_cells`` finite numbers.

    ``bytes.split`` does not split at \\x1c-\\x1f as ``str.split`` does; a
    body using them as separators holds tokens that fail to parse, so it
    gets None too and is parsed whole as text.
    """
    # a separator follows every token but the last
    if n_cells > (len(data) - start + 1) // 2:
        return None
    values = np.empty(n_cells)
    step = max(1, (len(data) - start) * _BLOCK_CELLS // n_cells)
    filled = 0
    while start < len(data):
        cut = _SPACE.search(data, start + step)
        end = cut.start() if cut else len(data)
        tokens = data[start:end].split()
        start = end
        if filled + len(tokens) > n_cells:
            return None
        try:
            values[filled:filled + len(tokens)] = np.array(tokens, dtype=np.float64)
        except ValueError:
            return None
        filled += len(tokens)
    if filled < n_cells or not np.isfinite(values).all():
        return None
    return values


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
        data = f.read()
    if not data.isascii():
        offset = re.search(rb"[\x80-\xff]", data).start()
        raise GridParseError(
            f"{path.name}: non-ASCII byte {data[offset]:#04x} at "
            f"byte offset {offset}; ASCII grids must be plain ASCII"
        )

    header: dict[str, float] = {}
    body_start = 0
    n_keys = 0
    for lineno, (line, line_end) in enumerate(_lines(data), start=1):
        if n_keys >= len(_HEADER_KEYS):
            break
        # the key, its value and the rest: a body line is not split further
        parts = line.split(None, 2)
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
        body_start = line_end
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

    values = _parse_blocks(data, body_start, hdr.ncols * hdr.nrows)
    if values is None:  # wrong count, a bad token or a non-finite value
        values = _parse_tokens(path.name, data[body_start:].decode("ascii"), hdr)
    return Raster(hdr, locked(values.reshape(hdr.shape)))


def _format_geo(x: float) -> str:
    """Shortest exact representation; integers without a trailing .0."""
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _format_rows(
    vals: np.ndarray, ncols: int, decimals: int, nodata: float, nodata_text: str
) -> bytes:
    """Text of the whole rows in ``vals`` (flat, row-major): each cell as
    ``%.{decimals}f`` or ``nodata_text``, followed by ' ' or, at the end of
    its row, '\\n'.

    Each cell owns one row of a byte matrix: its text, then a separator
    in the last column. The zero bytes padding the text are dropped.
    """
    nod = vals == nodata
    fast = np.zeros_like(nod)
    n = np.zeros_like(vals)
    if decimals <= 15:
        with np.errstate(over="ignore", invalid="ignore"):
            y = vals * 10.0**decimals
            n = np.rint(y)
            # 10^d is exact, so y is the exact x = v·10^d rounded once.
            # Below 2^52 the ties n ± 0.5 are doubles themselves and
            # rounding is monotone, so |y - n| < 0.5 puts x strictly
            # within 0.5 of n as well: x is no tie and %.{d}f, which
            # rounds x itself, prints the digits of |n|.
            fast = ~nod & (np.abs(y) < 2.0**52) & (np.abs(y - n) < 0.5)
    q = np.where(fast, np.abs(n), 0)
    q_max = int(q.max())
    q = q.astype(np.min_scalar_type(q_max))  # narrow ints divide faster
    ndig = max(decimals + 1, len(str(q_max)))
    slow = np.flatnonzero(~(fast | nod))
    texts = [(f"%.{decimals}f" % v).encode("ascii") for v in vals[slow].tolist()]
    lens = np.array([len(t) for t in texts], dtype=np.intp)
    width = 1 + max(1 + ndig + (decimals > 0), len(nodata_text), lens.max(initial=0))

    # sign, digits and point go into every row; other rows are then redone
    mat = np.zeros((vals.size, width), dtype=np.uint8)
    mat[:, -1] = ord(" ")
    mat[ncols - 1::ncols, -1] = ord("\n")
    mat[:, 0] = np.where(np.signbit(vals), ord("-"), 0)
    if decimals:
        mat[:, -2 - decimals] = ord(".")
    for k in range(ndig):
        shown = q > 0  # beyond the last d+1 digits, only while value remains
        q, digit = np.divmod(q, 10)
        digit += ord("0")
        mat[:, -2 - k - (0 < decimals <= k)] = digit if k <= decimals else shown * digit
    nodata_row = np.zeros(width - 1, dtype=np.uint8)
    nodata_row[:len(nodata_text)] = np.frombuffer(nodata_text.encode("ascii"), np.uint8)
    mat[nod, :-1] = nodata_row
    if texts:
        mat[slow, :-1] = 0
        rows = np.repeat(slow, lens)
        cols = np.arange(rows.size) - np.repeat(np.cumsum(lens) - lens, lens)
        mat[rows, cols] = np.frombuffer(b"".join(texts), np.uint8)
    return mat[mat != 0].tobytes()


def write_ascii_grid(raster: Raster, path: str | Path, decimals: int = 6) -> None:
    """Write a raster as an ESRI ASCII grid.

    Each data cell is printed exactly as ``%.{decimals}f`` prints it;
    nodata cells carry the literal nodata value. Output bytes are fully
    determined by the raster and ``decimals``. The body is formatted in
    row blocks of about ``_BLOCK_CELLS`` cells, so the text held in memory
    at once is bounded.
    """
    if decimals < 0:
        raise ValueError("decimals must be >= 0")
    hdr = raster.header
    nodata_text = _format_geo(hdr.nodata_value)
    header = (
        f"NCOLS {hdr.ncols}\n"
        f"NROWS {hdr.nrows}\n"
        f"XLLCORNER {_format_geo(hdr.xllcorner)}\n"
        f"YLLCORNER {_format_geo(hdr.yllcorner)}\n"
        f"CELLSIZE {_format_geo(hdr.cellsize)}\n"
        f"NODATA_VALUE {nodata_text}\n"
    )
    step = max(1, _BLOCK_CELLS // hdr.ncols)
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        for r in range(0, hdr.nrows, step):
            f.write(_format_rows(
                raster.values[r:r + step].reshape(-1), hdr.ncols, decimals,
                hdr.nodata_value, nodata_text,
            ))
