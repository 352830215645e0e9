"""Synthetic fixture generation and the scalar probability oracle."""

import hashlib
import json
import math

import numpy as np
import pytest

from flopit import (
    FixtureShape,
    FixtureSpec,
    FlopitError,
    GridHeader,
    InterpolationMethod,
    StackError,
    generate_fixture,
    oracle_probability,
    write_fixture,
)
from flopit.raster import DEFAULT_NODATA
from flopit.synth import _LCG_BLOCK, lcg_uniforms

LOGLIN = InterpolationMethod.LOG_LINEAR
SPLINE = InterpolationMethod.MONOTONE_CUBIC


def test_ramp_elevations():
    spec = FixtureSpec(shape=FixtureShape.RAMP, ncols=4, nrows=100, slope=0.1)
    dem, _ = generate_fixture(spec)
    assert dem.values[0, 0] == 0.0
    assert dem.values[99, 0] == pytest.approx(9.9, rel=1e-12)
    assert (dem.values == dem.values[:, :1]).all()  # constant along rows


def test_valley_elevations():
    spec = FixtureSpec(shape=FixtureShape.VALLEY, ncols=11, nrows=3, slope=2.0)
    dem, _ = generate_fixture(spec)
    assert dem.values[0, 5] == pytest.approx(abs(5 - 5.5) * 2.0)
    assert dem.values[0, 0] == pytest.approx(11.0)
    assert (dem.values == dem.values[:1, :]).all()  # constant down columns


def test_wse_mask_rule():
    spec = FixtureSpec(shape=FixtureShape.RAMP, ncols=2, nrows=100, slope=0.1)
    _, layers = generate_fixture(spec)
    lvl = layers[0]  # level 5.0 over a ramp reaching 9.9
    vals = lvl.grid.values
    z = np.arange(100) * 0.1
    covered = z < 5.0
    assert (vals[covered, 0] == 5.0).all()
    assert (vals[~covered, 0] == lvl.grid.nodata).all()


def test_determinism():
    spec = FixtureSpec(shape=FixtureShape.NOISY_RAMP, ncols=12, nrows=9, seed=42)
    dem1, layers1 = generate_fixture(spec)
    dem2, layers2 = generate_fixture(spec)
    assert dem1.values.tobytes() == dem2.values.tobytes()
    for a, b in zip(layers1, layers2):
        assert a.grid.values.tobytes() == b.grid.values.tobytes()


def test_seeds_differ():
    base = dict(shape=FixtureShape.NOISY_RAMP, ncols=12, nrows=9)
    dem1, _ = generate_fixture(FixtureSpec(seed=1, **base))
    dem2, _ = generate_fixture(FixtureSpec(seed=2, **base))
    assert not np.array_equal(dem1.values, dem2.values)


def test_lcg_sequence_frozen():
    # fixed generator: state = (1664525*state + 1013904223) mod 2**32
    state = 7
    expected = []
    for _ in range(4):
        state = (1664525 * state + 1013904223) % 2**32
        expected.append(state / 2**32)
    assert lcg_uniforms(7, 4).tolist() == expected


def _scalar_lcg(seed, count):
    """The generator one step at a time, as documented."""
    state = seed % 2**32
    out = []
    for _ in range(count):
        state = (1664525 * state + 1013904223) % 2**32
        out.append(state / 2**32)
    return out


@pytest.mark.parametrize("seed", [1, 0, -3, 2**32 - 1, 2**32, 2**40 + 7, -(2**40)])
def test_lcg_blocks_equal_scalar_steps(seed):
    for count in (0, 1, 5, _LCG_BLOCK - 1, _LCG_BLOCK, _LCG_BLOCK + 1,
                  3 * _LCG_BLOCK, 3 * _LCG_BLOCK + 1, 12345):
        assert lcg_uniforms(seed, count).tolist() == _scalar_lcg(seed, count), (seed, count)


def test_oracle_loglinear_values():
    spec = FixtureSpec(shape=FixtureShape.RAMP)
    assert oracle_probability(spec, LOGLIN, 6.0) == pytest.approx(10**-1.5, rel=1e-12)
    expected = math.exp(math.log(0.01) + 0.5 * (math.log(0.002) - math.log(0.01)))
    assert oracle_probability(spec, LOGLIN, 7.5) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.004472, abs=5e-7)


def test_oracle_clamps():
    spec = FixtureSpec(shape=FixtureShape.RAMP)
    assert oracle_probability(spec, LOGLIN, 3.0) == 0.1
    assert oracle_probability(spec, SPLINE, 11.0) == 0.002


def test_oracle_exact_at_knots():
    spec = FixtureSpec(shape=FixtureShape.RAMP)
    for method in (LOGLIN, SPLINE):
        assert oracle_probability(spec, method, 5.0) == 0.1
        assert oracle_probability(spec, method, 7.0) == 0.01
        assert oracle_probability(spec, method, 8.0) == 0.002


def test_oracle_spline_within_bracket():
    spec = FixtureSpec(shape=FixtureShape.RAMP)
    p = oracle_probability(spec, SPLINE, 6.0)
    assert 0.01 < p < 0.1


def test_write_fixture_manifest(tmp_path):
    spec = FixtureSpec(shape=FixtureShape.RAMP, ncols=6, nrows=8)
    manifest = write_fixture(spec, tmp_path / "fix")
    on_disk = json.loads((tmp_path / "fix" / "manifest.json").read_text())
    assert on_disk == manifest
    assert on_disk["dem"] == "dem.asc"
    assert [lyr["return_period_years"] for lyr in on_disk["layers"]] == [10, 100, 500]
    for lyr in on_disk["layers"]:
        assert (tmp_path / "fix" / lyr["path"]).exists()


def test_write_fixture_bytes_deterministic(tmp_path):
    spec = FixtureSpec(shape=FixtureShape.NOISY_RAMP, seed=3)
    write_fixture(spec, tmp_path / "a")
    write_fixture(spec, tmp_path / "b")
    for name in ("dem.asc", "wse_T10.asc", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_write_fixture_bytes_pinned(tmp_path):
    # two writer blocks per grid (163 + 137 rows), negative cells in the DEM
    # and nodata in every layer; the digests are those of the grids as
    # written before the writer's digit kernel split digits by floor division
    spec = FixtureSpec(shape=FixtureShape.NOISY_RAMP, ncols=400, nrows=300, seed=3)
    write_fixture(spec, tmp_path)
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())
    }
    assert digests == {
        "dem.asc": "91e2b387ac47515455c0b68a700f6ae50ae2138a273347833a272d07b56c96e7",
        "manifest.json": "736088899774089d114103ea1c7497500e1c8925048966dd2ccd381b9d4abd22",
        "wse_T10.asc": "1e74dcce76ab49e0689e43082f818c2afbbcbacc03691c70c818946bca53111b",
        "wse_T100.asc": "1c985fa20d1960d2eeef6d5c86fdd1825a2127496219c3af6000230775e04b0e",
        "wse_T500.asc": "fcb69f0bc390dac1db7b52e440e08fcfc2813cc38abb90f747ebc636fa12b40d",
    }


@pytest.mark.parametrize(
    "levels, kind, error",
    [
        # check_periods' rules, whose faults are StackErrors
        (((1.0, 5.0), (100.0, 7.0)), StackError, "must be finite and exceed 1 year, got 1.0"),
        (((10.0, 5.0), (math.nan, 7.0)), StackError, "must be finite and exceed 1 year, got nan"),
        (((10.0, 5.0), (10.0, 7.0)), StackError, "duplicate return period T=10"),
        (((10.0, 5.0),), StackError, "at least two return periods required"),
        (tuple((t, t) for t in range(2, 35)), StackError, "at most 32 return periods"),
        # the fixture's own
        (((100.0, 5.0), (10.0, 7.0)), FlopitError, "return periods must be strictly increasing"),
        (((10.0, 5.0), (100.0, math.inf)), FlopitError, r"^WSE levels must be finite, got \[5.0, inf\]"),
    ],
)
def test_spec_checks_levels_at_construction(levels, kind, error):
    with pytest.raises(kind, match=error):
        FixtureSpec(shape=FixtureShape.RAMP, wse_levels=levels)


def test_spec_header_is_the_generated_grid():
    spec = FixtureSpec(shape=FixtureShape.VALLEY, ncols=7, nrows=3)
    assert spec.header == GridHeader(7, 3, 0.0, 0.0, 1.0, DEFAULT_NODATA)
    dem, layers = generate_fixture(spec)
    assert dem.header == spec.header
    assert all(lyr.grid.header == spec.header for lyr in layers)


def test_spec_validation():
    with pytest.raises(FlopitError):
        FixtureSpec(shape=FixtureShape.RAMP, wse_levels=((10.0, 5.0),))
    with pytest.raises(FlopitError):
        FixtureSpec(shape=FixtureShape.RAMP, wse_levels=((10.0, 5.0), (100.0, 4.0)))
    with pytest.raises(FlopitError):
        FixtureSpec(shape=FixtureShape.RAMP, wse_levels=((100.0, 5.0), (10.0, 6.0)))
    with pytest.raises(FlopitError):
        FixtureSpec(shape=FixtureShape.RAMP, slope=0.0)
    with pytest.raises(FlopitError, match="more bytes than this platform can address"):
        FixtureSpec(shape=FixtureShape.RAMP, ncols=10**10, nrows=10**10)
    with pytest.raises(FlopitError, match="at least 1x1"):
        FixtureSpec(shape=FixtureShape.RAMP, ncols=0, nrows=5)
