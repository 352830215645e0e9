"""ASCII grid parsing, writing and round-trip behaviour."""

import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from flopit import raster
from flopit import (
    FlopitError,
    GridDimensionError,
    GridHeader,
    GridParseError,
    Raster,
    grids_aligned,
    read_ascii_grid,
    write_ascii_grid,
)

from conftest import _reference_grid_text, make_raster

DATA_DIR = Path(__file__).parent / "data"


def write_text(path, text):
    path.write_text(text, encoding="ascii")
    return path


def test_parse_2x2(tmp_path):
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\nNODATA_VALUE -9999\n"
        "1 2\n3 4\n",
    )
    r = read_ascii_grid(f)
    assert r.header.ncols == 2 and r.header.nrows == 2
    assert r.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_nodata_sentinel_passthrough(tmp_path):
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\nNODATA_VALUE -9999\n"
        "-9999 7\n",
    )
    r = read_ascii_grid(f)
    assert r.values[0, 0] == -9999.0
    assert not r.data_mask[0, 0]
    assert r.data_mask[0, 1]


def test_nodata_value_optional(tmp_path):
    f = write_text(
        tmp_path / "g.asc",
        "ncols 1\nnrows 1\nxllcorner 2\nyllcorner 3\ncellsize 0.5\n8.25\n",
    )
    r = read_ascii_grid(f)
    assert r.header.nodata_value == -9999.0
    assert r.values[0, 0] == 8.25


def test_golden_grid_parses_bit_exactly():
    r = read_ascii_grid(DATA_DIR / "golden_grid.asc")
    expected = np.array(
        [
            [1.0, 2.5, -3.75, 150.0],
            [-9999.0, 0.001, 6.02e23, -1e-3],
            [42.0, -9999.0, 3.141592653589793, 0.0625],
        ]
    )
    assert r.values.tobytes() == expected.tobytes()
    assert r.header.xllcorner == 100.5
    assert r.header.yllcorner == -250.25
    assert r.header.cellsize == 2.5


def test_write_formatting(tmp_path):
    r = make_raster([[0.5]])
    write_ascii_grid(r, tmp_path / "o.asc", decimals=3)
    lines = (tmp_path / "o.asc").read_text().splitlines()
    assert lines[-1] == "0.500"


def test_write_nodata_literal(tmp_path):
    r = make_raster([[-9999.0, 1.0]])
    write_ascii_grid(r, tmp_path / "o.asc", decimals=2)
    assert (tmp_path / "o.asc").read_text().splitlines()[-1] == "-9999 1.00"


@pytest.mark.parametrize("decimals", [0, 6])
def test_write_zeros_of_both_signs(tmp_path, decimals):
    # 0.0 and -0.0 are equal but print differently, so no block of both
    # is one value; -0.0 equals a nodata of 0.0 and prints as nodata
    zero, neg = "%.*f" % (decimals, 0.0), "%.*f" % (decimals, -0.0)
    for vals, nodata, want in [
        ([[0.0, -0.0], [0.0, 0.0]], -9999.0, [f"{zero} {neg}", f"{zero} {zero}"]),
        ([[-0.0, 0.0], [-0.0, -0.0]], -9999.0, [f"{neg} {zero}", f"{neg} {neg}"]),
        ([[-0.0, -0.0], [-0.0, -0.0]], 0.0, ["0 0", "0 0"]),
    ]:
        write_ascii_grid(make_raster(vals, nodata), tmp_path / "o.asc", decimals)
        assert (tmp_path / "o.asc").read_text().splitlines()[6:] == want


def test_write_decimals_range(tmp_path):
    # every double prints exactly with 1074 decimals, the most accepted
    r = make_raster([[2.0**-1074, -1.0 / 3.0]])
    write_ascii_grid(r, tmp_path / "o.asc", decimals=1074)
    body = (tmp_path / "o.asc").read_text().splitlines()[-1]
    assert body == "%.1074f %.1074f" % (2.0**-1074, -1.0 / 3.0)
    assert body.split()[0].endswith("625")  # 2^-1074 needs all 1074 decimals
    for decimals in (-1, 1075, 3_000_000_000):
        with pytest.raises(ValueError, match=r"decimals must be in \[0, 1074\]"):
            write_ascii_grid(r, tmp_path / "bad.asc", decimals=decimals)
    assert not (tmp_path / "bad.asc").exists()


@pytest.mark.parametrize("decimals", [-1, 1075])
def test_write_decimals_fault_is_data_error(tmp_path, decimals):
    with pytest.raises(FlopitError, match=rf"^decimals must be in \[0, 1074\], got {decimals}$"):
        write_ascii_grid(make_raster([[1.0]]), tmp_path / "bad.asc", decimals=decimals)
    assert not (tmp_path / "bad.asc").exists()


@pytest.mark.parametrize(
    "shape, cells",
    [((1, 1), 1), ((7, 3), 1), ((7, 3), 5), ((7, 3), 6), ((7, 3), 21), ((7, 3), 10**6),
     ((5, 40), 16), ((5, 40), 39), ((5, 40), 41), ((12, 9), 27), ((12, 9), 41)],
)
def test_row_bands_cover_rows_in_order(shape, cells):
    nrows, ncols = shape
    bands = raster.row_bands(shape, cells)
    rows = max(1, cells // ncols)  # one row each when ncols > cells
    assert bands[0].start == 0 and bands[-1].stop == nrows
    for band, after in zip(bands, bands[1:]):
        assert band.stop == after.start  # no gap, no overlap
        assert band.stop - band.start == rows
    assert 1 <= bands[-1].stop - bands[-1].start <= rows
    assert all(band.step is None for band in bands)


def test_row_bands_default_is_read_when_called():
    assert raster.row_bands((100, 1000)) == raster.row_bands((100, 1000), 1 << 14)
    with mock.patch.object(raster, "_BAND_CELLS", 2000):
        assert raster.row_bands((5, 1000)) == [slice(0, 2), slice(2, 4), slice(4, 5)]


def test_write_golden_bytes(tmp_path):
    r = make_raster([[1.0, -9999.0], [2.25, -0.5]], xll=10.5, yll=-3.0, cellsize=2.0)
    write_ascii_grid(r, tmp_path / "o.asc", decimals=2)
    assert (tmp_path / "o.asc").read_text() == (
        "NCOLS 2\nNROWS 2\nXLLCORNER 10.5\nYLLCORNER -3\nCELLSIZE 2\n"
        "NODATA_VALUE -9999\n1.00 -9999\n2.25 -0.50\n"
    )


def test_write_is_deterministic(tmp_path):
    r = make_raster([[1.234567, 8.9], [-9999.0, 0.0]])
    write_ascii_grid(r, tmp_path / "a.asc", decimals=4)
    write_ascii_grid(r, tmp_path / "b.asc", decimals=4)
    assert (tmp_path / "a.asc").read_bytes() == (tmp_path / "b.asc").read_bytes()


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
@pytest.mark.parametrize("decimals", [0, 1, 6, 15])
def test_write_bytes_equal_percent_formatting_at_block_scale(tmp_path, decimals, bits):
    # two default blocks, of 218 and 2 rows; the printed integers
    # q = |rint(v·10^d)| run log-uniformly up to the largest that needs
    # `bits` bits (below 2^52, where % takes over), so every narrower q
    # is there too and the block splits its digits in uint<bits>
    shape = (220, 300)
    assert len(raster.row_bands(shape, raster._BLOCK_CELLS)) == 2
    rng = np.random.default_rng(1000 * bits + decimals)
    q = np.floor((0.9 * min(2.0**bits, 2.0**52)) ** rng.random(shape))
    assert np.min_scalar_type(int(q.max())).itemsize * 8 == bits
    vals = np.where(rng.random(shape) < 0.5, -q, q) / 10.0**decimals
    ties = (rng.integers(0, 10**6, 300) + 0.5) / 10.0**decimals
    specials = np.concatenate([
        ties, -ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf),
        [0.0, -0.0, -1e-300, -5e-324, 2.0**53 / 10.0**decimals, -1e300],
        np.full(3000, -9999.0),
    ])
    flat = vals.reshape(-1)
    flat[rng.choice(flat.size, specials.size, replace=False)] = specials
    r = make_raster(vals)
    write_ascii_grid(r, tmp_path / "g.asc", decimals)
    assert (tmp_path / "g.asc").read_bytes() == _reference_grid_text(r, decimals)


def test_write_holds_bounded_memory(tmp_path):
    # in blocks of 10 rows, writing a grid ten times as tall must not take
    # more memory than the blocks it is cut into, whether a block's cells
    # print at many lengths or all at one
    rng = np.random.default_rng(5)

    def mixed(nrows):
        vals = rng.uniform(-100, 100, (nrows, 300))
        vals[rng.random(vals.shape) < 0.1] = -9999.0
        return vals

    def one_length(nrows):  # "dd.dddddd" in every cell
        return rng.uniform(10, 99, (nrows, 300))

    def peak(values, nrows):
        r = make_raster(values(nrows))
        tracemalloc.start()
        try:
            write_ascii_grid(r, tmp_path / "g.asc")
        finally:
            size = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return size

    with mock.patch.object(raster, "_BLOCK_CELLS", 3000):
        for values in (mixed, one_length):
            assert peak(values, 1000) <= 1.2 * peak(values, 100)


def test_roundtrip_random_grids(tmp_path, rng):
    for i in range(25):
        nrows = int(rng.integers(1, 12))
        ncols = int(rng.integers(1, 12))
        decimals = int(rng.integers(0, 9))
        vals = rng.uniform(-100, 100, size=(nrows, ncols))
        vals[rng.random((nrows, ncols)) < 0.3] = -9999.0
        r = make_raster(vals)
        path = tmp_path / f"g{i}.asc"
        write_ascii_grid(r, path, decimals)
        back = read_ascii_grid(path)
        mask = r.data_mask
        assert (back.data_mask == mask).all()
        assert np.abs(back.values[mask] - r.values[mask]).max() <= 0.5 * 10**-decimals + 1e-12


def test_scientific_notation_and_wrapping(tmp_path):
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 3\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
        "1e-3\n2E+2 3.0\n",
    )
    assert read_ascii_grid(f).values.tolist() == [[0.001, 200.0, 3.0]]


def test_missing_header_key(tmp_path):
    f = write_text(tmp_path / "g.asc", "NCOLS 1\nNROWS 1\nXLLCORNER 0\n1\n")
    with pytest.raises(GridParseError, match="YLLCORNER"):
        read_ascii_grid(f)


def test_misordered_header(tmp_path):
    f = write_text(
        tmp_path / "g.asc",
        "NROWS 1\nNCOLS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1\n",
    )
    with pytest.raises(GridParseError, match="NCOLS"):
        read_ascii_grid(f)


def test_unknown_header_key(tmp_path):
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 1\nNROWS 1\nXLLCENTER 0\nYLLCORNER 0\nCELLSIZE 1\n1\n",
    )
    with pytest.raises(GridParseError, match="XLLCENTER"):
        read_ascii_grid(f)


def test_bad_header_value(tmp_path):
    f = write_text(tmp_path / "g.asc", "NCOLS abc\nNROWS 1\n")
    with pytest.raises(GridParseError, match="abc"):
        read_ascii_grid(f)


def test_blank_lines_inside_header_skipped(tmp_path):
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 2\n\nNROWS 1\n \t\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n\n1 2\n",
    )
    g = read_ascii_grid(f)
    assert g.header == GridHeader(2, 1, 0.0, 0.0, 1.0)
    assert g.values.tolist() == [[1.0, 2.0]]


@pytest.mark.parametrize(
    "ncols, nrows, cellsize, error",
    [(0, 3, 1.0, "at least 1x1, got 0x3"), (3, 0, 1.0, "at least 1x1, got 3x0"),
     (3, 3, 0.0, "cellsize must be positive"), (3, 3, -1.0, "cellsize must be positive")],
)
def test_header_geometry_validated(ncols, nrows, cellsize, error):
    with pytest.raises(ValueError, match=error):
        GridHeader(ncols, nrows, 0.0, 0.0, cellsize)


@pytest.mark.parametrize(
    "key, value",
    [
        ("NCOLS", "nan"),
        ("NCOLS", "inf"),
        ("NCOLS", "1e400"),
        ("NROWS", "-inf"),
        ("XLLCORNER", "nan"),
        ("YLLCORNER", "inf"),
        ("CELLSIZE", "inf"),
        ("NODATA_VALUE", "nan"),
    ],
)
def test_non_finite_header_value_rejected(tmp_path, key, value):
    header = {"NCOLS": "2", "NROWS": "1", "XLLCORNER": "0", "YLLCORNER": "0",
              "CELLSIZE": "1", "NODATA_VALUE": "-9999", key: value}
    text = "".join(f"{k} {v}\n" for k, v in header.items()) + "1 2\n"
    f = write_text(tmp_path / "g.asc", text)
    with pytest.raises(GridParseError, match=f"(?i)g.asc: .*{key}"):
        read_ascii_grid(f)


def test_header_key_with_two_values(tmp_path):
    f = write_text(tmp_path / "g.asc", "NCOLS 2 3\nNROWS 1\n")
    with pytest.raises(GridParseError, match="'NCOLS' on line 1 needs exactly one value"):
        read_ascii_grid(f)


def test_wrong_value_count(tmp_path):
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 2\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2 3\n",
    )
    with pytest.raises(GridDimensionError, match="expected 4"):
        read_ascii_grid(f)


def test_nan_in_body_rejected(tmp_path):
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 nan\n",
    )
    with pytest.raises(GridParseError, match=(
        r"^g\.asc: non-finite value nan at cell \(0, 1\); "
        r"use the nodata sentinel for missing cells$"
    )):
        read_ascii_grid(f)


def test_decimal_point_only(tmp_path):
    # decimal comma is never accepted, whatever the locale
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 1\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1,5\n",
    )
    with pytest.raises(GridParseError):
        read_ascii_grid(f)


def test_bad_body_token(tmp_path):
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 x2\n",
    )
    with pytest.raises(GridParseError, match="x2"):
        read_ascii_grid(f)


@pytest.mark.parametrize(
    "prefix, body, offset",
    [
        (b"\xef\xbb\xbf", b"1 2", 0),  # UTF-8 byte order mark
        (b"", "1 \u00b2".encode("utf-8"), None),
    ],
    ids=["bom", "superscript-two"],
)
def test_non_ascii_byte_rejected(tmp_path, prefix, body, offset):
    head = b"NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n"
    f = tmp_path / "bom.asc"
    f.write_bytes(prefix + head + body + b"\n")
    if offset is None:
        offset = len(head) + 2
    with pytest.raises(GridParseError, match=f"bom.asc: non-ASCII byte .* offset {offset}"):
        read_ascii_grid(f)


_HEAD = "NCOLS 3\nNROWS 4\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\nNODATA_VALUE -9999\n"
# tokens of uneven width, so block cuts land at varied places
_TOKENS = ["1", "-2.5", "1e3", "1_0", "+.5", "5.", "-0", "0.000001",
           "123456.789", "-9999", "6.02E+23", "1e-400"]
_SEPARATORS = [" ", "\r\n", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", " \n"]


@pytest.mark.parametrize("block_cells", [1, 2, 5, 12, 1 << 16])
@pytest.mark.parametrize("sep", _SEPARATORS, ids=repr)
@pytest.mark.parametrize("layout", ["rows", "wrapped", "one-line", "no-final-newline"])
def test_body_read_in_blocks(tmp_path, block_cells, sep, layout):
    if layout == "rows":
        body = "\n".join(sep.join(_TOKENS[i:i + 3]) for i in range(0, 12, 3)) + "\n"
    elif layout == "wrapped":
        body = "\n".join(sep.join(_TOKENS[i:i + 5]) for i in range(0, 12, 5)) + "\n"
    elif layout == "one-line":
        body = sep.join(_TOKENS) + sep
    else:
        body = sep.join(_TOKENS)
    text = _HEAD + body
    f = write_text(tmp_path / "g.asc", text)
    with mock.patch.object(raster, "_BLOCK_CELLS", block_cells):
        r = read_ascii_grid(f)
    want = np.array([float(tok) for tok in text.split()[12:]])
    assert r.values.tobytes() == want.reshape(4, 3).tobytes()


@pytest.mark.parametrize("block_cells", [1, 5, 1 << 16])
@pytest.mark.parametrize("sep", _SEPARATORS, ids=repr)
def test_wrapped_rows_and_any_separator_take_the_c_reader(
    tmp_path, monkeypatch, block_cells, sep
):
    # a block of mixed widths reaches numpy's C reader as one line, so
    # neither the row layout nor a separator of str.split sends plain
    # numbers on to the token-by-token parse
    def rejected(line):
        raise AssertionError(f"block fell back: {line!r}")

    monkeypatch.setattr(raster, "_parse_rejected", rejected)
    tokens = [tok.replace("_", "") for tok in _TOKENS]
    body = "\n".join(sep.join(tokens[i:i + 5]) for i in range(0, 12, 5)) + sep
    f = write_text(tmp_path / "g.asc", _HEAD + body)
    with mock.patch.object(raster, "_BLOCK_CELLS", block_cells):
        r = read_ascii_grid(f)
        assert r.values.tobytes() == np.array([float(t) for t in tokens]).reshape(4, 3).tobytes()
        # 1_0 is no number to the C reader: that block does fall back
        with pytest.raises(AssertionError, match="block fell back"):
            read_ascii_grid(write_text(tmp_path / "u.asc", _HEAD + sep.join(_TOKENS)))


@pytest.mark.parametrize("block", [
    "1.5 2.5 3.5", "1.5 2.5 3.5\n", "\n1.5 2.5\n3.5", "007 000 120", "-0.0 -1.5 -2.0",
    "5. 6. 7.", ".5 .0 .9", "-.5 -.0", "7", "123456789012345.6 000000000000000.1",
    "9.007199254740991 0.000000000000001", "-12 -34 -56", "-12.34 -56.78 -90.12",
    "12.34 56.78 90.12", "-1. -2.", "-.25 -.75",
    # blocks of one value, and near misses of one differing token
    "2.5 2.5 2.5", "2.5 2.5\n2.5\n", "\n-9999 -9999 -9999", "-0.0 -0.0", "007 007",
    "2.6 2.5 2.5", "2.5 2.6 2.5", "2.5 2.5 2.6", "-2.5 -2.5 -2.4",
])
def test_exactly_wide_blocks_read_as_strtod_reads_them(block):
    vals = raster._parse_exact(block.encode(), 0, len(block))
    assert vals is not None
    assert vals.tobytes() == np.array([float(t) for t in block.split()]).tobytes()


def _with_bad_byte(token: str, col: int, bad: str) -> str:
    """Three copies of ``token``, the middle one with ``bad`` at ``col``."""
    return " ".join([token, token[:col] + bad + token[col + 1:], token])


@pytest.mark.parametrize("block", [
    # a byte one above '9', one below '0' or a letter in the first and the
    # last digit column, just after '-', just before '.' and just after '.'
    *(_with_bad_byte(token, col, bad)
      for token, col in [("12.34", 0), ("12.34", 4), ("-12.34", 1), ("-12.34", 2), ("-12.34", 4)]
      for bad in ":/a"),
    "9007199254740993 1000000000000000",  # 16 digits, the first above 2^53
    ". .", "-. -.", "+5 +6", "-5 15", "15 -5", "1e5 2e5", "1.5 2.x", "1.5 2.5 3.x",
    "1.25 1025", "1.5\t2.5", "1.5\r\n2.5", "1.5  2.5", "1.5 2.5\t", "1.5 2.573.5",
    "\t1.5 2.5", "  1.5 2.5", "1_0 2_0", "12345678901234567",
])
def test_blocks_that_are_not_exactly_wide_are_left_to_the_text_readers(block):
    assert raster._parse_exact(block.encode(), 0, len(block)) is None


@pytest.mark.parametrize("decimals", [0, 6, 15])
def test_only_blocks_of_mixed_widths_reach_the_c_reader(tmp_path, monkeypatch, decimals):
    # cells of 1 .. 9 print at one width, and so do those of -9 .. -1; a
    # single 10.25 makes its block, and a block of both signs, mixed
    vals = np.random.default_rng(decimals).uniform(1, 9, (150, 1000))
    vals[50:100] *= -1
    vals[120, 500] = 10.25
    path = tmp_path / "g.asc"
    write_ascii_grid(make_raster(vals), path, decimals)
    blocks = []
    loadtxt = np.loadtxt

    def counted(file, *args, **kwargs):
        blocks.append(file.getvalue())
        return loadtxt(file, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    got = read_ascii_grid(path).values
    want = np.array(path.read_bytes().split()[12:], dtype=np.float64).reshape(vals.shape)
    assert got.tobytes() == want.tobytes()
    assert 1 <= len(blocks) <= 3
    assert all(len({len(tok) for tok in block.split()}) > 1 for block in blocks)


@pytest.mark.parametrize("block_cells", [1, 1 << 16])
@pytest.mark.parametrize(
    "body, want",
    [("", None), (" \r\n\t\x0b\x0c\n", None), ("\x1c" * 40, None),
     ("1" + " \x1c\n" * 40 + "2\n" + "\x1f" * 40, [1.0, 2.0])],
    ids=["empty", "whitespace", "unit-separators", "tokens-apart"],
)
def test_blocks_without_a_token_raise_no_warning(tmp_path, block_cells, body, want):
    # the C reader warns on input without data; such blocks never reach it
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 2\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\nNODATA_VALUE -9\n" + body,
    )
    with warnings.catch_warnings(), mock.patch.object(raster, "_BLOCK_CELLS", block_cells):
        warnings.simplefilter("error")
        if want is None:
            with pytest.raises(GridDimensionError, match="found 0$"):
                read_ascii_grid(f)
        else:
            assert read_ascii_grid(f).values.tolist() == [want]


@pytest.mark.parametrize("brk", ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"], ids=repr)
def test_header_lines_break_where_splitlines_breaks(tmp_path, brk):
    f = write_text(tmp_path / "g.asc", _HEAD.replace("\n", brk) + " ".join(_TOKENS))
    r = read_ascii_grid(f)
    assert r.header.nodata_value == -9999.0
    assert r.values[3, 2] == 0.0  # "1e-400"


@pytest.mark.parametrize("block_cells", [1, 2, 5, 11, 12])
@pytest.mark.parametrize("change", ["drop", "add"])
@pytest.mark.parametrize("at", [0, 4, 5, 6, 11])
def test_count_error_next_to_block_cut(tmp_path, block_cells, change, at):
    tokens = list(_TOKENS)
    if change == "drop":
        del tokens[at]
    else:
        tokens.insert(at, "7")
    f = write_text(tmp_path / "g.asc", _HEAD + " ".join(tokens) + "\n")
    with mock.patch.object(raster, "_BLOCK_CELLS", block_cells):
        with pytest.raises(GridDimensionError) as exc:
            read_ascii_grid(f)
    assert str(exc.value) == (
        f"g.asc: expected 12 values (4 rows x 3 cols), found {len(tokens)}"
    )


def test_header_counting_more_cells_than_the_body_can_hold(tmp_path):
    # 10^10 cells cannot fit in a 4-byte body; nothing that size is allocated
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 100000\nNROWS 100000\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2\n",
    )
    with pytest.raises(GridDimensionError, match="expected 10000000000 values .* found 2"):
        read_ascii_grid(f)


def test_header_beyond_the_address_space(tmp_path):
    # 1.6e19 cells of 8 bytes: rejected at the header, before the body is counted
    f = write_text(
        tmp_path / "g.asc",
        "NCOLS 4000000000\nNROWS 4000000000\nXLLCORNER 0\nYLLCORNER 0\nCELLSIZE 1\n1 2 3\n",
    )
    with pytest.raises(GridParseError) as exc:
        read_ascii_grid(f)
    assert type(exc.value) is GridParseError
    assert str(exc.value) == (
        "g.asc: a 4000000000x4000000000 grid of float64 is more bytes than this "
        "platform can address"
    )


@pytest.mark.parametrize("block_cells", [1, 3, 12])
@pytest.mark.parametrize(
    "token, error",
    # the NaN/Inf cases keep ids that name what the body holds
    [("x2", "cannot parse body token 'x2'"),
     pytest.param("nan", "non-finite value nan at cell (0, 2)", id="nan-body contains 'nan'"),
     ("0x10", "cannot parse body token '0x10'"),
     pytest.param("-inf", "non-finite value -inf at cell (0, 2)",
                  id="-inf-body contains '-inf'")],
)
def test_first_bad_token_reported_across_blocks(tmp_path, block_cells, token, error):
    # a non-finite value early and an unparsable one late: the unparsable
    # one wins, as it does when the whole body is parsed at once
    tokens = list(_TOKENS)
    tokens[10] = token
    if error.startswith("non-finite"):
        tokens[2] = token
    else:
        tokens[1] = "inf"
    f = write_text(tmp_path / "g.asc", _HEAD + " ".join(tokens) + "\n")
    with mock.patch.object(raster, "_BLOCK_CELLS", block_cells):
        with pytest.raises(GridParseError) as exc:
            read_ascii_grid(f)
    assert str(exc.value).startswith(f"g.asc: {error}")


@pytest.mark.parametrize("fault", ["nan", "x", "extra", "1x1"])
def test_faulty_body_read_in_no_more_memory_than_a_good_one(tmp_path, fault):
    # blocks of 1024 cells bound a good read; a faulty one must not go
    # past them by parsing or splitting its body whole
    vals = np.random.default_rng(3).uniform(-100, 100, (300, 300))
    good = tmp_path / "good.asc"
    write_ascii_grid(make_raster(vals), good)
    text = good.read_bytes()
    last = text.rstrip().rfind(b" ") + 1
    faulty = {
        "nan": text[:last] + b"nan\n",
        "x": text[:last] + b"x\n",
        "extra": text + b"1\n",
        "1x1": text.replace(b"NCOLS 300\nNROWS 300", b"NCOLS 1\nNROWS 1", 1),
    }
    bad = tmp_path / "bad.asc"
    bad.write_bytes(faulty[fault])

    def peak(path):
        tracemalloc.start()
        try:
            read_ascii_grid(path)
        except (GridDimensionError, GridParseError):
            pass
        finally:
            size = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return size

    with mock.patch.object(raster, "_BLOCK_CELLS", 1024):
        assert peak(bad) <= 1.2 * peak(good)


def test_missing_file():
    with pytest.raises(OSError):
        read_ascii_grid("/nonexistent/file.asc")


def test_grids_aligned():
    a = GridHeader(ncols=3, nrows=2, xllcorner=0.0, yllcorner=0.0, cellsize=1.0)
    assert grids_aligned(a, a)
    b = GridHeader(ncols=4, nrows=2, xllcorner=0.0, yllcorner=0.0, cellsize=1.0)
    assert not grids_aligned(a, b)
    c = GridHeader(ncols=3, nrows=2, xllcorner=0.5, yllcorner=0.0, cellsize=1.0)
    assert not grids_aligned(a, c)
    d = GridHeader(ncols=3, nrows=2, xllcorner=5e-8, yllcorner=0.0, cellsize=1.0)
    assert grids_aligned(a, d)


def test_raster_rejects_nan():
    with pytest.raises(ValueError, match="non-finite"):
        make_raster([[np.nan]])


def test_grid_faults_are_data_errors():
    # FlopitError, which the command line maps to exit 2, and a ValueError
    with pytest.raises(FlopitError, match="at least 1x1, got 0x1"):
        GridHeader(0, 1, 0, 0, 1)
    with pytest.raises(FlopitError, match=r"non-finite value nan at cell \(0, 1\)"):
        make_raster([[1.0, np.nan]])
    assert issubclass(FlopitError, ValueError)


def test_raster_rejects_shape_mismatch():
    hdr = GridHeader(ncols=2, nrows=2, xllcorner=0, yllcorner=0, cellsize=1)
    with pytest.raises(ValueError, match="shape"):
        Raster(hdr, np.zeros((2, 3)))


def test_raster_values_immutable():
    r = make_raster([[1.0, 2.0]])
    with pytest.raises(ValueError):
        r.values[0, 0] = 5.0
