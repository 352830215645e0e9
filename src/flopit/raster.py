"""Grid data model and ESRI ASCII grid I/O.

The interchange format is the plain-text Arc/Info ASCII grid: six header
lines (NCOLS, NROWS, XLLCORNER, YLLCORNER, CELLSIZE, NODATA_VALUE) followed
by nrows lines of ncols whitespace-separated numbers, row 0 = northernmost
row. It is human readable, byte-auditable and needs no GIS libraries.

Values are stored as 64-bit floats. Cells without data carry the header's
nodata sentinel exactly; NaN and infinities are rejected on input rather
than silently converted. On output each data cell is exactly what
``%.{decimals}f`` prints for it.

Both directions work on the body in blocks: a write in the row bands of
:func:`row_bands` at ``_BLOCK_CELLS`` cells, with no padding to drop
from a block whose cells all print at one length; a read in a single
pass over blocks of a fixed ``2 * _BLOCK_CELLS`` bytes that both parses
and checks them. So besides the file's bytes and the value array, the memory a read
or a write holds is bounded, for a faulty body as much as for a good one.
A block of one value is one token repeated both ways: written as the
first cell's text when every cell has the first cell's bits, value and
sign bit alike (0.0 and -0.0 are equal but print differently), and read
from its first token when its byte rows are all equal.
A block whose tokens all have one width and one layout of sign, digits
and point, as the writer prints them, is parsed as a byte matrix; any
other block by numpy's C text reader as one line, and a block that
reader rejects by ``float()``'s rules. All three give each token's
correctly rounded value, and every block's values are stored and
counted; :class:`Raster` then rejects a NaN/Inf, naming its cell.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FlopitError, GridDimensionError, GridParseError

DEFAULT_NODATA = -9999.0

# every double prints exactly with 1074 decimals; more would only append zeros
MAX_DECIMALS = 1074

_HEADER_KEYS = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")

# cells per I/O block; bounds the text a read or a write holds at once
_BLOCK_CELLS = 1 << 16
# cells per row band of IDW and evaluation; IDW, and evaluation on threads,
# run faster in bands this small, text formatting in whole I/O blocks
_BAND_CELLS = 1 << 14

# the ASCII line breaks of str.splitlines and whitespace of str.split;
# with all of it turned into spaces, a block is one line in which
# bytes.split and the C reader find the tokens that str.split finds
_LINE_BREAK = re.compile(rb"\r\n|[\n\r\x0b\x0c\x1c-\x1e]")
_SPACE = re.compile(rb"[\s\x1c-\x1f]")
_SPACE_OF_STR = bytes.maketrans(b"\t\n\r\x0b\x0c\x1c\x1d\x1e\x1f", b" " * 9)


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
            raise FlopitError(f"grid must be at least 1x1, got {self.ncols}x{self.nrows}")
        if self.ncols * self.nrows * 8 > np.iinfo(np.intp).max:
            raise FlopitError(
                f"a {self.ncols}x{self.nrows} grid of float64 is more bytes "
                "than this platform can address"
            )
        for name in ("xllcorner", "yllcorner", "cellsize", "nodata_value"):
            if not math.isfinite(getattr(self, name)):
                raise FlopitError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.cellsize > 0:
            raise FlopitError(f"cellsize must be positive, got {self.cellsize}")

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
            raise FlopitError(
                f"values shape {arr.shape} does not match header {self.header.shape}"
            )
        if arr.flags.writeable:
            arr = arr.copy()
            arr.flags.writeable = False
        bad = ~np.isfinite(arr)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise FlopitError(
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


def row_bands(shape: tuple[int, int], cells: int | None = None) -> list[slice]:
    """Row slices cutting ``shape``, in order, into bands of max(1, cells // ncols)
    rows, the last one shorter; ``cells`` defaults to ``_BAND_CELLS`` at call time."""
    nrows, ncols = shape
    step = max(1, (_BAND_CELLS if cells is None else cells) // ncols)
    return [slice(r, min(r + step, nrows)) for r in range(0, nrows, step)]


def _lines(data: bytes):
    """(line, end offset) pairs, cut where ``str.splitlines`` cuts ASCII text."""
    pos = 0
    for m in _LINE_BREAK.finditer(data):
        yield data[pos:m.start()].decode("ascii"), m.end()
        pos = m.end()
    if pos < len(data):
        yield data[pos:].decode("ascii"), len(data)


def _parse_rejected(line: bytes) -> tuple[np.ndarray, str | None]:
    """The values of a block the C reader rejected, by ``float()``'s rules
    (``1_0`` is 10.0), and None; or one zero per token and the first token
    that is no number. The zeros are stored and counted like any values,
    which is harmless: that token is always reported first."""
    tokens = line.split()
    try:
        return np.array(tokens, dtype=np.float64), None
    except ValueError:
        for tok in tokens:
            try:
                float(tok)
            except ValueError:
                return np.zeros(len(tokens)), tok.decode("ascii")
        raise


def _parse_exact(data: bytes, start: int, end: int) -> np.ndarray | None:
    """The values of the block ``data[start:end]`` if it is exactly wide,
    else None.

    Past at most one leading ' ' or '\\n', an exactly-wide block is n
    tokens of one width w, each followed by one ' ' or '\\n' (the last
    perhaps by none), and each laid out as the first one is: a '-' in
    column 0 of every token or of none, a '.' in one column of every
    token or of none, and 1 to 16 digits in the other columns. Then the
    block is an (n, w + 1) byte matrix. Less '0', with the separator,
    sign and point columns zeroed once checked, its one maximum over the
    contiguous buffer is at most 9 only if every digit column holds
    digits. Those columns give each token's digits as one integer q,
    built in float64: exactly, as long as q < 2^53, which every 15-digit
    token is. With d <= 16 decimals, 10^d is exact too, so q / 10^d is
    rounded once, correctly: the value strtod gives (Clinger's fast
    path). The sign is applied after the division, so ``-0.0`` reads as
    -0.0. A block of one value, whose byte rows are all equal, folds its
    first row alone by these same steps and returns that value, read-only,
    for each of its n tokens.

    The first token's width and digit count and the block's length are
    tested first; a block that passes them and is of any other form costs
    the strided compares of its separator, sign and point columns.
    """
    start += data[start] in b" \n"
    # a sign, digits, a point and digits, each perhaps absent; the widest
    # token, with 16 digits, is 18 bytes, and a 19th shows a wider one
    layout = re.compile(rb"(-?)([0-9]*)(\.?)([0-9]*)")
    tok = layout.match(data, start, min(end, start + 19))
    sign, whole, point, frac = tok.groups()
    width = tok.end() - start
    n, rest = divmod(end - start, width + 1)
    n += rest > 0
    if rest not in (0, width) or not 0 < len(whole) + len(frac) <= 16:
        return None
    raw = np.frombuffer(data, np.uint8, end - start, start)
    seps = raw[width::width + 1]
    if not ((seps == ord(" ")) | (seps == ord("\n"))).all():
        return None
    if sign and not (raw[::width + 1] == ord("-")).all():
        return None
    if point and not (raw[len(sign) + len(whole)::width + 1] == ord(".")).all():
        return None
    # each token's row, its digits as 0..9 and any other byte as 10 or
    # more: a byte below '0' wraps to 208 or more
    mat = np.empty((n, width + 1), dtype=np.uint8)
    flat = mat.reshape(-1)
    np.subtract(raw, np.uint8(ord("0")), out=flat[:raw.size])
    mat[:, width] = 0  # also the separator the last token may lack
    if sign:
        mat[:, 0] = 0
    if point:
        mat[:, len(sign) + len(whole)] = 0
    if flat.max() > 9:
        return None
    # a block of one value: every row equal to the one before it; the
    # last row, compared first, turns most other blocks away
    one = (mat[-1] == mat[0]).all() and (flat[width + 1:] == flat[:-width - 1]).all()
    if one:
        mat = mat[:1]
    cols = [*range(len(sign), len(sign) + len(whole)), *range(width - len(frac), width)]
    q = mat[:, cols[0]].astype(np.float64)
    for col in cols[1:]:
        q *= 10.0
        q += mat[:, col]
    # no partial sum exceeds q; below 2^53 none rounded, and rounding,
    # being monotone, leaves a q of 2^53 or more at 2^53 or more
    if q.max() >= 2.0**53:
        return None
    q /= 10.0 ** len(frac)
    if sign:
        np.negative(q, out=q)
    return np.broadcast_to(q, (n,)) if one else q


def _parse_body(name: str, data: bytes, start: int, hdr: GridHeader) -> np.ndarray:
    """The ``hdr.ncols * hdr.nrows`` numbers of the body ``data[start:]``.

    One pass parses and checks the body in blocks of ``2 * _BLOCK_CELLS``
    bytes, each cut at whitespace; at 128 KiB, a block and the C reader's
    4-byte copy of it stay in a 2 MB L2 cache. A block whose tokens are
    all one width is parsed as a byte matrix (:func:`_parse_exact`).
    Any other block, its whitespace turned into spaces, is one line to
    numpy's C text reader, so wrapped rows read as fast as whole ones;
    only a block that it rejects is split into tokens
    (:func:`_parse_rejected`). Every block's values are stored while
    they fit and counted; a wrong count is reported first, then the
    first unparsable token. A NaN/Inf is left to :class:`Raster`.
    """
    n_cells = hdr.ncols * hdr.nrows
    # a separator follows every token but the last; a body too short for
    # n_cells tokens is only counted
    values = np.empty(n_cells if n_cells <= (len(data) - start + 1) // 2 else 0)
    count = 0
    unparsable = None
    end = start
    while end < len(data):
        cut = _SPACE.search(data, end + 2 * _BLOCK_CELLS)
        start, end = end, cut.start() if cut else len(data)
        vals = _parse_exact(data, start, end)
        if vals is None:
            line = data[start:end].translate(_SPACE_OF_STR)
            if line.isspace():
                continue  # no token, on which the C reader would warn of no data
            try:
                vals = np.loadtxt(io.BytesIO(line), dtype=np.float64, comments=None, ndmin=1)
            except ValueError:
                vals, bad = _parse_rejected(line)
                unparsable = unparsable or bad
        if count + len(vals) <= values.size:
            values[count:count + len(vals)] = vals
        count += len(vals)
    if count != n_cells:
        raise GridDimensionError(
            f"{name}: expected {n_cells} values "
            f"({hdr.nrows} rows x {hdr.ncols} cols), found {count}"
        )
    if unparsable is not None:
        raise GridParseError(f"{name}: cannot parse body token {unparsable!r}")
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
    for lineno, (line, line_end) in enumerate(_lines(data), start=1):
        if len(header) == len(_HEADER_KEYS):
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
        want = _HEADER_KEYS[len(header)]
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

    values = _parse_body(path.name, data, body_start, hdr)
    try:
        return Raster(hdr, locked(values.reshape(hdr.shape)))
    except FlopitError as exc:  # Raster rejects a NaN/Inf cell
        raise GridParseError(f"{path.name}: {exc}") from None


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
    in the last column. A cell whose digits are those of the integer
    ``q = |rint(v·10^d)|`` gets them one column at a time, split off by
    floor division in the narrowest unsigned type that holds the block's
    largest ``q``; a column above the d+1 digits that are always printed
    keeps its digit only while value remains. Any other cell is printed
    by ``%``. When every cell is printed from ``q`` with one sign and one
    digit count, the matrix is exactly as wide as each cell's text and
    separator, and every byte of it is written; otherwise it is as wide
    as the longest text, and the zero bytes padding the shorter ones are
    dropped. A block of one value, every cell with the bits of the first
    (so one sign bit: 0.0 and -0.0 are equal but print differently), is
    one row's text repeated: ``nodata_text`` if that value is nodata,
    else its ``%`` text.
    """
    bits = vals.view(np.int64)
    if (bits == bits[0]).all():
        text = nodata_text if vals[0] == nodata else f"%.{decimals}f" % vals[0]
        row = " ".join([text] * ncols) + "\n"
        return row.encode("ascii") * (vals.size // ncols)
    nod = vals == nodata
    if decimals > 15:
        fast = np.zeros_like(nod)
        n = np.zeros_like(vals)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            # 10^d is exact, so y is the exact x = |v|·10^d rounded once.
            # Below 2^52 the ties n ± 0.5 are doubles themselves and
            # rounding is monotone, so |y - n| < 0.5 puts x strictly
            # within 0.5 of n as well: x is no tie and %.{d}f, which
            # rounds x itself, prints the digits of n.
            y = vals * 10.0**decimals
            n = np.rint(np.abs(y, out=y))
            fast = y < 2.0**52
            y -= n
            fast &= np.abs(y, out=y) < 0.5
            fast &= ~nod
        n[~fast] = 0
    q_max = int(n.max())
    q = n.astype(np.min_scalar_type(q_max))  # narrow ints divide faster
    ndig = max(decimals + 1, len(str(q_max)))
    neg = np.signbit(vals)
    # every cell has a sign or none, and exactly ndig digits
    exact = (
        fast.all()
        and (neg.all() or not neg.any())
        and (ndig == decimals + 1 or int(q.min()) >= 10 ** (ndig - 1))
    )
    sign = not exact or bool(neg[0])
    if exact:
        mat = np.empty((vals.size, sign + ndig + (decimals > 0) + 1), dtype=np.uint8)
    else:
        slow = np.flatnonzero(~(fast | nod))
        texts = [(f"%.{decimals}f" % v).encode("ascii") for v in vals[slow].tolist()]
        lens = np.array([len(t) for t in texts], dtype=np.intp)
        width = 1 + max(1 + ndig + (decimals > 0), len(nodata_text), lens.max(initial=0))
        mat = np.zeros((vals.size, width), dtype=np.uint8)

    # sign, digits and point go into every row; other rows are then redone
    mat[:, -1] = ord(" ")
    mat[ncols - 1::ncols, -1] = ord("\n")
    if sign:
        mat[:, 0] = neg * np.uint8(ord("-"))
    if decimals:
        mat[:, -2 - decimals] = ord(".")
    ten = q.dtype.type(10)
    for k in range(ndig):
        col = mat[:, -2 - k - (0 < decimals <= k)]
        high = q // ten
        # above the d+1 digits always printed, only while value remains
        shown = q > 0 if k > decimals and not exact else None
        q -= high * ten  # this column's digit
        q += ord("0")
        col[...] = q
        if shown is not None:
            col *= shown
        q = high
    if exact:
        return mat.tobytes()
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
    :func:`row_bands` of ``_BLOCK_CELLS`` cells, so the text held in memory
    at once is bounded.
    """
    if not 0 <= decimals <= MAX_DECIMALS:
        raise FlopitError(f"decimals must be in [0, {MAX_DECIMALS}], got {decimals}")
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
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        for band in row_bands(hdr.shape, _BLOCK_CELLS):
            f.write(_format_rows(
                raster.values[band].reshape(-1), hdr.ncols, decimals,
                hdr.nodata_value, nodata_text,
            ))
