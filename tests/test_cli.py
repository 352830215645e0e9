"""Command-line behaviour: wiring, exit codes, determinism."""

import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import flopit.cli
from flopit import read_ascii_grid, write_ascii_grid
from flopit.cli import main
from flopit.raster import Raster, locked

from conftest import make_raster


@pytest.fixture
def fixture_dir(tmp_path):
    assert main(["synth", "--shape", "ramp", "--out", str(tmp_path / "fix")]) == 0
    return tmp_path / "fix"


def interpolate_args(fixture_dir, out_prefix, *extra):
    return [
        "interpolate",
        "--dem", str(fixture_dir / "dem.asc"),
        "--layer", f"10:wse:{fixture_dir / 'wse_T10.asc'}",
        "--layer", f"100:wse:{fixture_dir / 'wse_T100.asc'}",
        "--layer", f"500:wse:{fixture_dir / 'wse_T500.asc'}",
        "--out", str(out_prefix),
        *extra,
    ]


def test_full_pipeline(fixture_dir, tmp_path, capsys):
    out = tmp_path / "run1"
    assert main(interpolate_args(fixture_dir, out, "--method", "spline")) == 0
    captured = capsys.readouterr()
    assert "cells_per_second" in captured.out
    assert "cells_clamped_high" in captured.out
    for suffix in ("_prob.asc", "_rp.asc", "_clamp.asc", "_zones.asc"):
        assert (tmp_path / f"run1{suffix}").exists()

    stats_csv = tmp_path / "stats.csv"
    code = main([
        "compare",
        "--prob", str(out) + "_prob.asc",
        "--zones", str(out) + "_zones.asc",
        "--out", str(stats_csv),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert "mean_return_period" in captured.out
    lines = stats_csv.read_text().splitlines()
    assert len(lines) == 4  # header + zones 10, 100, 500
    assert lines[1].startswith("10.000000,")
    assert lines[2].startswith("100.000000,")
    assert lines[3].startswith("500.000000,")


def test_single_layer_rejected(fixture_dir, tmp_path, capsys):
    code = main([
        "interpolate",
        "--dem", str(fixture_dir / "dem.asc"),
        "--layer", f"10:wse:{fixture_dir / 'wse_T10.asc'}",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "at least two" in capsys.readouterr().err


def test_misaligned_layer_names_path(fixture_dir, tmp_path, capsys):
    bad = make_raster(np.full((3, 3), 5.0))
    bad_path = tmp_path / "bad_layer.asc"
    write_ascii_grid(bad, bad_path)
    code = main([
        "interpolate",
        "--dem", str(fixture_dir / "dem.asc"),
        "--layer", f"10:wse:{fixture_dir / 'wse_T10.asc'}",
        "--layer", f"100:wse:{bad_path}",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "bad_layer.asc" in capsys.readouterr().err


def test_outputs_byte_identical_across_runs(fixture_dir, tmp_path):
    assert main(interpolate_args(fixture_dir, tmp_path / "a")) == 0
    assert main(interpolate_args(fixture_dir, tmp_path / "b")) == 0
    for suffix in ("_prob.asc", "_rp.asc", "_clamp.asc", "_zones.asc"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def depth_args(fixture_dir, out_prefix, *extra):
    """interpolate_args on depth grids made from the fixture's surfaces."""
    dem = read_ascii_grid(fixture_dir / "dem.asc")
    args = interpolate_args(fixture_dir, out_prefix, *extra)
    for t in (10, 100, 500):
        wse = read_ascii_grid(fixture_dir / f"wse_T{t}.asc")
        depth = np.where(wse.data_mask, wse.values - dem.values, wse.nodata)
        path = fixture_dir / f"depth_T{t}.asc"
        write_ascii_grid(Raster(wse.header, locked(depth)), path)
        args[args.index(f"{t}:wse:{fixture_dir / f'wse_T{t}.asc'}")] = f"{t}:depth:{path}"
    return args


def test_outputs_byte_identical_across_workers(fixture_dir, tmp_path):
    # the grids are read and written on min(workers, grids, CPUs) processes
    for make_args in (interpolate_args, depth_args):
        out = tmp_path / make_args.__name__
        for workers in ("1", "2", "3", "0"):
            assert main(make_args(fixture_dir, f"{out}_w{workers}", "--workers", workers)) == 0
        for suffix in ("_prob.asc", "_rp.asc", "_clamp.asc", "_zones.asc"):
            w1 = Path(f"{out}_w1{suffix}").read_bytes()
            for workers in ("2", "3", "0"):
                assert Path(f"{out}_w{workers}{suffix}").read_bytes() == w1


def test_first_bad_layer_reports_same_error_across_workers(fixture_dir, tmp_path, capsys):
    # layer 2 does not parse and layer 3 is missing: both runs name layer 2
    bad = tmp_path / "bad.asc"
    bad.write_bytes((fixture_dir / "wse_T100.asc").read_bytes().replace(b"7", b"x", 1))
    args = interpolate_args(fixture_dir, tmp_path / "x")
    args[args.index(f"100:wse:{fixture_dir / 'wse_T100.asc'}")] = f"100:wse:{bad}"
    args[args.index(f"500:wse:{fixture_dir / 'wse_T500.asc'}")] = f"500:wse:{tmp_path / 'no.asc'}"
    results = []
    for workers in ("1", "3"):
        code = main(args + ["--workers", workers])
        results.append((code, capsys.readouterr().err))
    assert results[0] == results[1]
    assert results[0][0] == 2 and "bad.asc: cannot parse body token" in results[0][1]


def test_layers_read_on_processes_are_read_only(fixture_dir, tmp_path, monkeypatch):
    seen = []
    validate = flopit.cli.validate_stack

    def spy(dem, layers):
        seen.extend([dem.values] + [layer.grid.values for layer in layers])
        return validate(dem, layers)

    monkeypatch.setattr(flopit.cli, "validate_stack", spy)
    assert main(interpolate_args(fixture_dir, tmp_path / "x", "--workers", "2")) == 0
    names = ["dem.asc", "wse_T10.asc", "wse_T100.asc", "wse_T500.asc"]
    assert len(seen) == len(names)
    for values, name in zip(seen, names):
        assert not values.flags.writeable
        assert np.array_equal(values, read_ascii_grid(fixture_dir / name).values)


def test_dead_worker_is_data_error(fixture_dir, tmp_path, capsys, monkeypatch):
    parent = os.getpid()
    read = flopit.cli.read_ascii_grid

    def die_in_worker(path):
        if os.getpid() != parent:
            os._exit(1)
        return read(path)

    monkeypatch.setattr(flopit.cli, "read_ascii_grid", die_in_worker)
    assert main(interpolate_args(fixture_dir, tmp_path / "x", "--workers", "2")) == 2
    err = capsys.readouterr().err
    assert err.startswith("flopit: error: a worker process died: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "x_prob.asc").exists()


def test_compare_no_overlap(fixture_dir, tmp_path, capsys):
    nodata = make_raster(np.full((4, 4), -9999.0))
    prob_path = tmp_path / "empty_prob.asc"
    zones_path = tmp_path / "empty_zones.asc"
    write_ascii_grid(nodata, prob_path)
    write_ascii_grid(nodata, zones_path)
    code = main([
        "compare", "--prob", str(prob_path),
        "--zones", str(zones_path), "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 2
    assert "no cells in any zone" in capsys.readouterr().err


@pytest.mark.parametrize(
    "p, zone, error",
    [
        (0.0, 100.0, "probability raster: value 0 at cell (0, 1) is outside (0, 1)"),
        (-0.5, 100.0, "probability raster: value -0.5 at cell (0, 1) is outside (0, 1)"),
        (1.5, 100.0, "probability raster: value 1.5 at cell (0, 1) is outside (0, 1)"),
        (0.1, 1.0, "zone raster: value 1 at cell (0, 1) is not above 1 year"),
        (0.1, -10.0, "zone raster: value -10 at cell (0, 1) is not above 1 year"),
    ],
)
def test_compare_impossible_values_are_data_errors(tmp_path, capsys, p, zone, error):
    prob_path = tmp_path / "prob.asc"
    zones_path = tmp_path / "zones.asc"
    write_ascii_grid(make_raster([[0.1, p]]), prob_path)
    write_ascii_grid(make_raster([[100.0, zone]]), zones_path)
    code = main([
        "compare", "--prob", str(prob_path),
        "--zones", str(zones_path), "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_compare_byte_deterministic(fixture_dir, tmp_path):
    out = tmp_path / "r"
    assert main(interpolate_args(fixture_dir, out)) == 0
    args = ["compare", "--prob", f"{out}_prob.asc", "--zones", f"{out}_zones.asc"]
    assert main(args + ["--out", str(tmp_path / "s1.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "s2.csv")]) == 0
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()


def test_synth_repeatable(tmp_path):
    assert main(["synth", "--shape", "noisyramp", "--seed", "9", "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--shape", "noisyramp", "--seed", "9", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "dem.asc").read_bytes() == (tmp_path / "b" / "dem.asc").read_bytes()


def test_synth_invalid_shape(tmp_path, capsys):
    assert main(["synth", "--shape", "volcano", "--out", str(tmp_path / "x")]) == 1
    assert "volcano" in capsys.readouterr().err


def test_synth_custom_levels(tmp_path):
    code = main([
        "synth", "--shape", "ramp", "--out", str(tmp_path / "f"),
        "--level", "25:4.0", "--level", "200:6.5",
    ])
    assert code == 0
    assert (tmp_path / "f" / "wse_T25.asc").exists()
    assert (tmp_path / "f" / "wse_T200.asc").exists()


def test_synth_decreasing_levels_rejected(tmp_path, capsys):
    code = main([
        "synth", "--shape", "ramp", "--out", str(tmp_path / "f"),
        "--level", "25:6.0", "--level", "200:4.0",
    ])
    assert code == 2


@pytest.mark.parametrize(
    "extra, error",
    [
        (["--level", "10:5", "--level", "100:inf"], "must be finite"),
        (["--level", "10:nan", "--level", "100:7"], "must be finite"),
        (["--slope", "inf"], "slope must be positive and finite"),
        (["--slope", "1e308", "--nrows", "10"], "DEM relief up to inf is beyond"),
    ],
)
def test_synth_non_finite_or_overflowing_spec_is_data_error(tmp_path, capsys, extra, error):
    assert main(["synth", "--out", str(tmp_path / "f"), *extra]) == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_out_of_memory_is_data_error(tmp_path, capsys):
    # 10^16 cells: the first allocation, the whole DEM, fails at once
    big = ["--ncols", "100000000", "--nrows", "100000000"]
    assert main(["synth", "--out", str(tmp_path / "f"), *big]) == 2
    err = capsys.readouterr().err
    assert "flopit: error: not enough memory: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "f").exists()


def test_bad_layer_spec_is_usage_error(fixture_dir, tmp_path, capsys):
    code = main([
        "interpolate",
        "--dem", str(fixture_dir / "dem.asc"),
        "--layer", "not-a-spec",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1


@pytest.mark.parametrize("option", ["--decimals", "--workers"])
def test_negative_count_is_usage_error(fixture_dir, tmp_path, capsys, option):
    code = main(interpolate_args(fixture_dir, tmp_path / "neg", option, "-1"))
    assert code == 1
    assert f"{option}: must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "neg_prob.asc").exists()


def test_non_ascii_grid_is_data_error(fixture_dir, tmp_path, capsys):
    dem = tmp_path / "bom_dem.asc"
    dem.write_bytes(b"\xef\xbb\xbf" + (fixture_dir / "dem.asc").read_bytes())
    args = interpolate_args(fixture_dir, tmp_path / "x")
    args[args.index("--dem") + 1] = str(dem)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "bom_dem.asc" in err and "non-ASCII" in err


def test_more_than_32_layers_is_data_error(tmp_path, capsys, monkeypatch):
    def no_idw(*args, **kwargs):
        raise AssertionError("IDW ran before the stack was validated")

    monkeypatch.setattr(flopit.cli, "fill_stack", no_idw)
    write_ascii_grid(make_raster(np.zeros((3, 3))), tmp_path / "dem.asc")
    args = ["interpolate", "--dem", str(tmp_path / "dem.asc"), "--out", str(tmp_path / "x")]
    for t in range(2, 35):
        path = tmp_path / f"wse_T{t}.asc"
        write_ascii_grid(make_raster(np.full((3, 3), float(t))), path)
        args += ["--layer", f"{t}:wse:{path}"]
    assert main(args) == 2
    assert "at most 32 return periods" in capsys.readouterr().err


@pytest.fixture
def small_fixture(tmp_path):
    out = tmp_path / "small"
    args = ["synth", "--ncols", "6", "--nrows", "5", "--slope", "2.5", "--out", str(out)]
    assert main(args) == 0
    return out


def test_infinite_return_period_is_data_error(small_fixture, tmp_path, capsys):
    args = interpolate_args(small_fixture, tmp_path / "x")
    args[args.index("--layer") + 1] = f"inf:wse:{small_fixture / 'wse_T10.asc'}"
    assert main(args) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x_prob.asc").exists()


def test_huge_idw_radius_equals_grid_wide_radius(small_fixture, tmp_path):
    # 6x5 grid: no offset beyond 5 cells can land in it
    for mode in ("fill", "smooth"):
        for radius in (6, 10**6):
            extra = ("--idw-mode", mode, "--idw-radius", str(radius))
            assert main(interpolate_args(small_fixture, tmp_path / f"{mode}{radius}", *extra)) == 0
        for suffix in ("_prob.asc", "_rp.asc", "_clamp.asc", "_zones.asc"):
            a = (tmp_path / f"{mode}6{suffix}").read_bytes()
            assert a == (tmp_path / f"{mode}{10**6}{suffix}").read_bytes()


def test_non_finite_header_is_data_error(fixture_dir, tmp_path, capsys):
    out = tmp_path / "r"
    assert main(interpolate_args(fixture_dir, out)) == 0
    prob = tmp_path / "nan_prob.asc"
    prob.write_bytes((tmp_path / "r_prob.asc").read_bytes().replace(b"NCOLS 50", b"NCOLS nan"))
    code = main([
        "compare", "--prob", str(prob), "--zones", f"{out}_zones.asc",
        "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 2
    assert "nan_prob.asc" in capsys.readouterr().err


@pytest.mark.parametrize("power", ["1100", "inf"])
def test_underflowing_idw_power_is_data_error(tmp_path, capsys, power):
    fix = tmp_path / "fix"
    assert main(["synth", "--ncols", "30", "--nrows", "30", "--out", str(fix)]) == 0
    assert main(interpolate_args(fix, tmp_path / "x", "--idw-power", power)) == 2
    assert "not in (0, " in capsys.readouterr().err
    assert not (tmp_path / "x_prob.asc").exists()


def test_elevation_near_float_max_is_data_error(tmp_path, capsys):
    # spline evaluation of these knots overflows to nan without the limit
    args = ["interpolate", "--out", str(tmp_path / "x")]
    for name, value in [("dem", -1e308), ("10", -1.7e308), ("100", -1.0), ("500", 0.0)]:
        path = tmp_path / f"{name}.asc"
        write_ascii_grid(make_raster([[value]]), path)
        args += ["--dem", str(path)] if name == "dem" else ["--layer", f"{name}:wse:{path}"]
    assert main(args) == 2
    assert "DEM: value -1e+308 at cell (0, 0)" in capsys.readouterr().err
    assert not (tmp_path / "x_prob.asc").exists()


def test_overflowing_harmonic_slope_runs_without_warning(tmp_path, capsys):
    # knots 1e150 apart with probabilities 1e-9 relative apart: w1 / d_left
    # in the interior slope overflows to inf, which gives the slope 0
    args = ["interpolate", "--out", str(tmp_path / "x")]
    for name, value in [("dem", 5e149), ("1e9", -1e150), ("1000000001", 0.0),
                        ("1000000002", 1e150)]:
        path = tmp_path / f"{name}.asc"
        write_ascii_grid(make_raster([[value]]), path)
        args += ["--dem", str(path)] if name == "dem" else ["--layer", f"{name}:wse:{path}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(args) == 0
    assert "Warning" not in capsys.readouterr().err
    assert read_ascii_grid(tmp_path / "x_prob.asc").values[0, 0] == 0.0


def test_cells_per_second_covers_the_whole_run(fixture_dir, tmp_path, capsys, monkeypatch):
    delay = 0.2
    write = flopit.cli.write_ascii_grid

    def slow_write(*args, **kwargs):
        time.sleep(delay)
        write(*args, **kwargs)

    monkeypatch.setattr(flopit.cli, "write_ascii_grid", slow_write)
    t0 = time.perf_counter()
    assert main(interpolate_args(fixture_dir, tmp_path / "slow")) == 0
    wall = time.perf_counter() - t0
    summary = dict(line.split() for line in capsys.readouterr().out.splitlines())
    seconds = int(summary["cells_total"]) / float(summary["cells_per_second"])
    # four grids are written, each after a sleep; the run took no longer than main()
    assert 4 * delay <= seconds * 1.01 and seconds <= wall * 1.01


def test_missing_file_is_io_error(tmp_path, capsys):
    code = main([
        "interpolate",
        "--dem", str(tmp_path / "missing.asc"),
        "--layer", f"10:wse:{tmp_path / 'also_missing.asc'}",
        "--layer", f"100:wse:{tmp_path / 'nope.asc'}",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 3


def test_unwritable_output_is_io_error(fixture_dir, tmp_path, capsys):
    code = main(interpolate_args(fixture_dir, tmp_path / "no_dir" / "deep" / "x"))
    assert code == 3


def test_loglinear_method_flag(fixture_dir, tmp_path):
    out_a = tmp_path / "spl"
    out_b = tmp_path / "log"
    assert main(interpolate_args(fixture_dir, out_a, "--method", "spline")) == 0
    assert main(interpolate_args(fixture_dir, out_b, "--method", "loglinear")) == 0
    a = read_ascii_grid(f"{out_a}_prob.asc")
    b = read_ascii_grid(f"{out_b}_prob.asc")
    assert not np.array_equal(a.values, b.values)
