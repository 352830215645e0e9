"""Command-line behaviour: wiring, exit codes, determinism."""

import collections
import contextlib
import errno
import gc
import inspect
import os
import re
import signal
import subprocess
import sys
import time
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import flopit.cli
import flopit.hazard
import flopit.idw
import flopit.probability
import flopit.synth
from flopit import read_ascii_grid, write_ascii_grid
from flopit.cli import main
from flopit.curves import InterpolationMethod
from flopit.errors import AlignmentError
from flopit.idw import IdwMode, IdwParams
from flopit.probability import interpolate_map
from flopit.raster import Raster, locked
from flopit.synth import FixtureShape, FixtureSpec

from conftest import child_env, make_raster


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


@pytest.mark.parametrize("workers", ["1", "2"])
def test_period_whose_reciprocal_overflows_is_rejected_before_any_read(
        fixture_dir, tmp_path, capsys, monkeypatch, workers):
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(flopit.cli, "read_ascii_grid", no_read)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([
            "interpolate",
            "--dem", str(fixture_dir / "dem.asc"),
            "--layer", f"10:wse:{fixture_dir / 'wse_T10.asc'}",
            "--layer", f"1.7976931348623157e308:wse:{fixture_dir / 'wse_T500.asc'}",
            "--out", str(tmp_path / "x"),
            "--workers", workers,
        ])
    assert (code, caught) == (2, [])
    assert capsys.readouterr().err == (
        "flopit: error: return period 1.7976931348623157e+308 is too large: "
        "1/(1/T) is not finite\n")
    assert list(tmp_path.glob("x*")) == []


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


def test_misaligned_layer_is_alignment_error(fixture_dir, tmp_path):
    bad_path = tmp_path / "bad_layer.asc"
    write_ascii_grid(make_raster(np.full((3, 3), 5.0)), bad_path)
    args = flopit.cli.build_parser().parse_args([
        "interpolate",
        "--dem", str(fixture_dir / "dem.asc"),
        "--layer", f"10:wse:{fixture_dir / 'wse_T10.asc'}",
        "--layer", f"100:wse:{bad_path}",
        "--out", str(tmp_path / "x"),
    ])
    with pytest.raises(AlignmentError, match=f"layer {re.escape(str(bad_path))} is not"):
        flopit.cli.cmd_interpolate(args)


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
    # the grids are read on min(workers, grids, CPUs) processes and written
    # on min(workers, 4, CPUs) threads
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
    validate = flopit.hazard.validate_stack

    def spy(dem, layers):
        seen.extend([dem.values] + [layer.grid.values for layer in layers])
        return validate(dem, layers)

    monkeypatch.setattr(flopit.hazard, "validate_stack", spy)
    assert main(interpolate_args(fixture_dir, tmp_path / "x", "--workers", "2")) == 0
    names = ["dem.asc", "wse_T10.asc", "wse_T100.asc", "wse_T500.asc"]
    assert len(seen) == len(names)
    for values, name in zip(seen, names):
        assert not values.flags.writeable
        assert np.array_equal(values, read_ascii_grid(fixture_dir / name).values)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_raw_depth_grids_are_freed_before_the_fill(fixture_dir, tmp_path, monkeypatch, workers):
    # a depth layer's surface is a new array, so its raw grid is dead
    # weight through IDW; the last one read must not outlive the loop
    raw, alive = [], []
    validate, fill = flopit.hazard.validate_stack, flopit.idw.fill_stack

    def validate_spy(dem, layers):
        raw.extend(weakref.ref(layer.grid.values) for layer in layers)
        return validate(dem, layers)

    def fill_spy(stack, params):
        alive.append([ref() is not None for ref in raw])
        return fill(stack, params)

    monkeypatch.setattr(flopit.hazard, "validate_stack", validate_spy)
    monkeypatch.setattr(flopit.idw, "fill_stack", fill_spy)
    assert main(depth_args(fixture_dir, tmp_path / "x", "--workers", workers)) == 0
    assert alive == [[False, False, False]]


def test_read_in_the_cli_process_without_memory_files(fixture_dir, tmp_path, monkeypatch):
    # a worker hands its values back through a memory file; a platform
    # without them reads every grid in the CLI process
    assert main(interpolate_args(fixture_dir, tmp_path / "w1", "--workers", "1")) == 0
    pids = []
    read = flopit.cli.read_ascii_grid

    def spy(path):
        pids.append(os.getpid())
        return read(path)

    monkeypatch.setattr(flopit.cli, "read_ascii_grid", spy)
    monkeypatch.delattr(os, "memfd_create", raising=False)
    assert main(interpolate_args(fixture_dir, tmp_path / "w2", "--workers", "2")) == 0
    assert pids == [os.getpid()] * 4
    for suffix in ("_prob.asc", "_rp.asc", "_clamp.asc", "_zones.asc"):
        assert (tmp_path / f"w2{suffix}").read_bytes() == (tmp_path / f"w1{suffix}").read_bytes()


def benchmark_shaped_args(tmp_path, workload):
    """A small run shaped like a benchmark workload: wse8-interior's ramp
    under 8 WSE surfaces, filled, or noisy-depth-smooth's noisy ramp
    under 4 depth grids, smoothed."""
    wse8 = workload == "wse8-interior"
    periods = (2, 5, 10, 25, 50, 100, 250, 500) if wse8 else (10, 50, 100, 500)
    spec = FixtureSpec(
        FixtureShape.RAMP if wse8 else FixtureShape.NOISY_RAMP, ncols=30, nrows=24,
        slope=1 / 3, wse_levels=tuple((t, 0.5 + k) for k, t in enumerate(periods)), seed=1,
    )
    fixture = tmp_path / workload
    flopit.synth.write_fixture(spec, fixture)
    args = ["interpolate", "--dem", str(fixture / "dem.asc"), "--out", str(fixture / "x"),
            "--idw-mode", "fill" if wse8 else "smooth"]
    dem = read_ascii_grid(fixture / "dem.asc")
    for t in periods:
        path = fixture / f"wse_T{t}.asc"
        if not wse8:
            wse = read_ascii_grid(path)
            depth = np.where(wse.data_mask, wse.values - dem.values, wse.nodata)
            path = fixture / f"depth_T{t}.asc"
            write_ascii_grid(Raster(wse.header, locked(depth)), path)
        args += ["--layer", f"{t}:{'wse' if wse8 else 'depth'}:{path}"]
    return args


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("workload", ["wse8-interior", "noisy-depth-smooth"])
def test_each_grid_is_scanned_once(tmp_path, monkeypatch, workload, workers):
    # a NaN/Inf scan per grid, where it is read, and per DEM + depth sum, and
    # one scan of the stack for values beyond ±1e150; no grid derived from
    # scanned ones is scanned again. Each constructor's __post_init__ is
    # that scan, counted across the forked readers through one file.
    args = benchmark_shaped_args(tmp_path, workload) + ["--workers", str(workers)]
    n_grids = args.count("--dem") + args.count("--layer")
    n_depth = sum(":depth:" in arg for arg in args)
    log = os.open(tmp_path / "scans", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    parent = os.getpid()
    for cls in (Raster, flopit.hazard.HazardStack):
        def counted(self, scan=cls.__post_init__, name=cls.__name__):
            os.write(log, f"{name} {'parent' if os.getpid() == parent else 'child'}\n".encode())
            scan(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    try:
        assert main(args) == 0
    finally:
        os.close(log)
    procs = flopit.probability.pool_size(workers, n_grids) if hasattr(os, "memfd_create") else 1
    serial = n_grids if procs == 1 else 0
    scans = collections.Counter((tmp_path / "scans").read_text().splitlines())
    assert scans == collections.Counter({
        "Raster parent": serial + n_depth,
        "Raster child": n_grids - serial,
        "HazardStack parent": 1,
    })
    assert n_grids + n_depth == 9


def _memory_files() -> list[str]:
    links = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the listing's own descriptor, closed since
            pass
    return [link for link in links if link.startswith("/memfd:")]


def _die_in_workers(monkeypatch):
    parent = os.getpid()
    read = flopit.cli.read_ascii_grid

    def die_in_worker(path):
        if os.getpid() != parent:
            os._exit(1)
        return read(path)

    monkeypatch.setattr(flopit.cli, "read_ascii_grid", die_in_worker)


# without os.memfd_create every grid is read in the CLI process
_forks = pytest.mark.skipif(not hasattr(os, "memfd_create"),
                            reason="reads in the CLI process without os.memfd_create")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("fault, code", [
    pytest.param("none", 0, marks=_forks),
    ("missing-layer", 3),
    ("shifted-layer", 2),
    ("unparsable-last-layer", 2),
    pytest.param("dead-worker", 2, marks=_forks),
    pytest.param("memfd-fails-on-third", 3, marks=_forks),
])
def test_no_memory_file_outlives_a_run(fixture_dir, tmp_path, monkeypatch, fault, code):
    t100, t500 = fixture_dir / "wse_T100.asc", fixture_dir / "wse_T500.asc"
    if fault == "missing-layer":
        t500.unlink()
    elif fault == "shifted-layer":
        t100.write_bytes(t100.read_bytes().replace(b"XLLCORNER 0\n", b"XLLCORNER 1\n"))
    elif fault == "unparsable-last-layer":
        t500.write_bytes(t500.read_bytes().rstrip() + b"x\n")
    elif fault == "dead-worker":
        _die_in_workers(monkeypatch)
    elif fault == "memfd-fails-on-third":
        made, memfd_create = [], os.memfd_create

        def fail_on_third(name):
            made.append(name)
            if len(made) == 3:
                raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
            return memfd_create(name)

        monkeypatch.setattr(os, "memfd_create", fail_on_third)
    held = []
    validate = flopit.hazard.validate_stack

    def spy(dem, layers):
        held.append(len(_memory_files()))
        return validate(dem, layers)

    monkeypatch.setattr(flopit.hazard, "validate_stack", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(interpolate_args(fixture_dir, tmp_path / "x", "--workers", "2")) == code
        # the maps of grids read before a fault live on in the traceback's
        # frames until the collector frees them
        gc.collect()
    # each grid read holds its memory file through its map
    assert held == ([4] if code == 0 else [])
    assert _memory_files() == []
    # every memory file was closed, none left to the collector
    assert [w for w in caught if w.category is ResourceWarning] == []
    with pytest.raises(ChildProcessError):  # no child is left, live or unreaped
        os.waitpid(-1, os.WNOHANG)


@_forks
def test_dead_worker_is_data_error(fixture_dir, tmp_path, capsys, monkeypatch):
    _die_in_workers(monkeypatch)
    assert main(interpolate_args(fixture_dir, tmp_path / "x", "--workers", "2")) == 2
    # the worker's os._exit(1)
    assert capsys.readouterr().err == "flopit: error: a worker process died: exited with status 1\n"
    assert not (tmp_path / "x_prob.asc").exists()


@_forks
def test_fork_warning_of_python_3_12_is_not_shown(fixture_dir, tmp_path, monkeypatch):
    # Python 3.12+ warns in the parent after a fork in a process that runs
    # another thread, such as the OpenBLAS pool numpy's import starts
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(interpolate_args(fixture_dir, tmp_path / "x", "--workers", "2")) == 0
    assert [w for w in caught if w.category is DeprecationWarning] == []


def _run_cli(launcher: str, *argv: str) -> subprocess.CompletedProcess:
    """Run ``launcher`` as a Python script in a fresh process, with
    ``argv`` as its arguments and this flopit on its path."""
    return subprocess.run([sys.executable, "-c", launcher, *argv], capture_output=True,
                          text=True, env=child_env())


def test_cli_runs_without_the_resource_module(fixture_dir, tmp_path):
    # resource is POSIX-only; None in sys.modules makes its import fail
    run = _run_cli(
        "import sys; sys.modules['resource'] = None\n"
        "from flopit.cli import main; sys.exit(main(sys.argv[1:]))",
        *interpolate_args(fixture_dir, tmp_path / "x", "--workers", "2"),
    )
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "x_prob.asc").exists()


def _start_blocked(stage: str, fd: int, *argv: str) -> subprocess.Popen:
    """Start the CLI with ``argv`` in a fresh process and session, its
    ``stage`` (a module's dotted name and the name of a function in it)
    replaced by a call that writes one byte to the inherited descriptor
    ``fd`` and then sleeps: once the byte arrives, a signal meets the run
    inside that stage."""
    module, name = stage.rsplit(".", 1)
    shim = (
        "import importlib, os, sys, time, flopit.cli\n"
        "def blocked(*args, **kwargs):\n"
        f"    os.write({fd}, b'.')\n"
        "    time.sleep(600)\n"
        f"setattr(importlib.import_module({module!r}), {name!r}, blocked)\n"
        "sys.exit(flopit.cli.main(sys.argv[1:]))"
    )
    return subprocess.Popen([sys.executable, "-c", shim, *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=child_env(),
                            start_new_session=True, pass_fds=(fd,))


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
@pytest.mark.parametrize("stage, signum, to_group", [
    # Ctrl-C at a terminal sends SIGINT to the whole process group
    ("flopit.probability.interpolate_map", signal.SIGINT, True),
    pytest.param("flopit.cli._read_into", signal.SIGINT, True, marks=_forks),
    # kill PID, as a batch scheduler may send it, reaches the parent alone
    pytest.param("flopit.cli._read_into", signal.SIGTERM, False, marks=_forks),
], ids=["after-read-SIGINT-to-group", "read-SIGINT-to-group", "read-SIGTERM-to-parent"])
def test_interrupt_ends_with_one_line(fixture_dir, tmp_path, stage, signum, to_group):
    r, w = os.pipe()
    with open(r, "rb") as blocked:
        try:
            proc = _start_blocked(stage, w, *interpolate_args(
                fixture_dir, tmp_path / "x", "--workers", "2"))
        finally:
            os.close(w)  # so the read below ends if the child does
        with proc:
            try:
                if blocked.read(1) != b".":
                    pytest.fail(f"the run ended before the stage: {proc.communicate()[1]}")
                if to_group:
                    os.killpg(proc.pid, signum)
                else:
                    os.kill(proc.pid, signum)
                out, err = proc.communicate(timeout=60)
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
    assert (proc.returncode, out) == (128 + signum, ""), err
    # the last line, and the only one if the read was under way
    assert ("\n" + err).endswith("\nflopit: interrupted\n") and "Traceback" not in err, err
    assert err.count("flopit: interrupted") == 1
    assert list(tmp_path.glob("x_*")) == []
    with pytest.raises(ProcessLookupError):  # no process is left in the group
        os.killpg(proc.pid, 0)


@pytest.mark.parametrize("argv, code", [
    (["synth", "--out", "{tmp}/f", "--ncols", "5", "--nrows", "5"], 0),
    (["synth", "--shape", "volcano", "--out", "{tmp}/f"], 1),
    (["synth", "--out", "{tmp}/f", "--slope", "inf"], 2),
])
def test_main_leaves_the_callers_sigterm_handler(tmp_path, capsys, argv, code):
    def handler(signum, frame):
        pass

    caller = signal.signal(signal.SIGTERM, handler)
    try:
        assert main([arg.format(tmp=tmp_path) for arg in argv]) == code
        assert signal.getsignal(signal.SIGTERM) is handler
    finally:
        signal.signal(signal.SIGTERM, caller)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_read_peak_leaves_out_the_launcher(fixture_dir, tmp_path):
    # the launcher touches 256 MiB, then execs the CLI in its own process:
    # ru_maxrss carries that peak across exec, VmHWM starts afresh
    run = _run_cli(
        "import os, sys; held = b'1' * 2**28\n"
        "os.execv(sys.executable, [sys.executable, '-m', 'flopit.cli', *sys.argv[1:]])",
        *interpolate_args(fixture_dir, tmp_path / "x", "--workers", "2"),
    )
    assert run.returncode == 0, run.stderr
    peak = re.search(r"read 4 grids on \d+ process\(es\) in \S+ s; peak RSS (\S+) MiB\n",
                     run.stderr)
    assert peak, run.stderr
    assert float(peak[1]) < 256


def test_write_line_reports_bytes_and_rate(fixture_dir, tmp_path, capsys):
    assert main(interpolate_args(fixture_dir, tmp_path / "x", "--workers", "2")) == 0
    err = capsys.readouterr().err
    wrote = re.search(
        r"flopit.cli: wrote 4 grids \((\S+) MB\) on 2 thread\(s\) in \S+ s, (\S+) MB/s\n", err
    )
    assert wrote, err
    size = sum(os.path.getsize(tmp_path / f"x_{name}.asc")
               for name in ("prob", "rp", "clamp", "zones"))
    assert wrote[1] == f"{size / 1e6:.1f}"
    assert float(wrote[2]) > 0


def test_cli_defaults_are_the_library_defaults(fixture_dir, tmp_path, monkeypatch):
    seen = {}
    fill, interpolate, write = (flopit.idw.fill_stack, flopit.probability.interpolate_map,
                                flopit.synth.write_fixture)

    def fill_spy(stack, idw):
        seen["idw"] = idw
        return fill(stack, idw)

    def interpolate_spy(stack, params, method, workers):
        seen["method"] = method
        return interpolate(stack, params, method, workers=workers)

    def write_spy(spec, out):
        seen["spec"] = spec
        return write(spec, out)

    monkeypatch.setattr(flopit.idw, "fill_stack", fill_spy)
    monkeypatch.setattr(flopit.probability, "interpolate_map", interpolate_spy)
    monkeypatch.setattr(flopit.synth, "write_fixture", write_spy)
    assert main(interpolate_args(fixture_dir, tmp_path / "x")) == 0
    assert main(["synth", "--shape", "valley", "--out", str(tmp_path / "fx")]) == 0
    assert seen["idw"] == IdwParams()
    method = inspect.signature(interpolate_map).parameters["method"].default
    assert seen["method"] is method is InterpolationMethod.MONOTONE_CUBIC
    assert seen["spec"] == FixtureSpec(FixtureShape.VALLEY)


@pytest.mark.parametrize("command, enums", [
    ("interpolate", (InterpolationMethod, IdwMode)),
    ("synth", (FixtureShape,)),
])
def test_help_lists_every_choice(capsys, command, enums):
    # a command's options are added only when it is chosen
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    choices = [set(group.split(",")) for group in re.findall(r"\{([^}]*)\}", usage)]
    assert choices == [{member.value for member in enum} for enum in enums]


def test_grids_written_in_the_cli_process(fixture_dir, tmp_path, monkeypatch):
    pids = []
    write = flopit.cli.write_ascii_grid

    def spy(*args):
        pids.append(os.getpid())
        write(*args)

    monkeypatch.setattr(flopit.cli, "write_ascii_grid", spy)
    assert main(interpolate_args(fixture_dir, tmp_path / "x", "--workers", "2")) == 0
    assert pids == [os.getpid()] * 4


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


@pytest.mark.parametrize(
    "levels, error",
    [
        ([f"{t}:{t}" for t in range(2, 35)], "at most 32 return periods are supported, got 33"),
        (["1:5", "100:7"], "return period must be finite and exceed 1 year, got 1.0"),
        (["10:5", "10:6"], "duplicate return period T=10"),
    ],
)
def test_synth_levels_that_make_no_stack_write_nothing(tmp_path, capsys, levels, error):
    args = ["synth", "--out", str(tmp_path / "f")]
    for level in levels:
        args += ["--level", level]
    assert main(args) == 2
    assert capsys.readouterr().err == f"flopit: error: {error}\n"
    assert not (tmp_path / "f").exists()


def test_out_of_memory_is_data_error(tmp_path, capsys):
    # 10^16 cells: the first allocation, the whole DEM, fails at once
    big = ["--ncols", "100000000", "--nrows", "100000000"]
    assert main(["synth", "--out", str(tmp_path / "f"), *big]) == 2
    err = capsys.readouterr().err
    assert "flopit: error: not enough memory: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("big", [["--ncols", "10000000000", "--nrows", "10000000000"],
                                 ["--ncols", "100000000000000000000"]])
def test_synth_beyond_addressable_is_data_error(tmp_path, capsys, monkeypatch, big):
    def no_write(*args, **kwargs):
        raise AssertionError("a fixture was generated")

    monkeypatch.setattr(flopit.synth, "write_fixture", no_write)
    assert main(["synth", "--out", str(tmp_path / "f"), *big]) == 2
    err = capsys.readouterr().err
    assert err.startswith("flopit: error: a ") and "more bytes than" in err
    assert err.count("\n") == 1 and "Traceback" not in err
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


@pytest.mark.parametrize("decimals", ["1075", "3000000000"])
def test_decimals_beyond_exact_is_usage_error(fixture_dir, tmp_path, capsys, decimals):
    code = main(interpolate_args(fixture_dir, tmp_path / "big", "--decimals", decimals))
    assert code == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("flopit")] == [
        f"flopit interpolate: error: argument --decimals: must be <= 1074, got {decimals}"
    ]
    assert "Traceback" not in err
    assert list(tmp_path.glob("big*")) == []


@pytest.mark.parametrize(
    "layer, error",
    [
        (["--layer", "10:wse:a.asc"], "at least two return periods required"),
        ([a for t in range(2, 35) for a in ("--layer", f"{t}:wse:a.asc")],
         "at most 32 return periods are supported, got 33"),
        (["--layer", "10:wse:a.asc", "--layer", "1:wse:b.asc"],
         "return period must be finite and exceed 1 year, got 1.0"),
        (["--layer", "10:wse:a.asc", "--layer", "100:wse:b.asc", "--layer", "10:wse:c.asc"],
         "duplicate return period T=10"),
    ],
    ids=["one layer", "33 layers", "T=1", "duplicate T"],
)
def test_impossible_layer_list_is_data_error_before_any_read(
    tmp_path, capsys, monkeypatch, layer, error
):
    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(flopit.cli, "read_ascii_grid", no_read)
    args = ["interpolate", "--dem", "dem.asc", *layer, "--out", str(tmp_path / "x")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"flopit: error: {error}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, error",
    [
        (["interpolate", "--dem", "d", "--out", "o", "--layer", "x:wse:p"],
         "argument --layer: bad return period 'x'"),
        (["interpolate", "--dem", "d", "--out", "o", "--layer", "10:dem:p"],
         "argument --layer: layer kind must be 'depth' or 'wse', got 'dem'"),
        (["interpolate", "--dem", "d", "--out", "o", "--workers", "x"],
         "argument --workers: invalid int value: 'x'"),
        (["synth", "--out", "o", "--level", "10"],
         "argument --level: level spec '10' must be T:WSE"),
        (["synth", "--out", "o", "--level", "10:x"], "argument --level: bad level spec '10:x'"),
    ],
)
def test_bad_option_value_is_usage_error(capsys, args, error):
    assert main(args) == 1
    usage, message = capsys.readouterr().err.split(f"flopit {args[0]}: error: ")
    assert usage.startswith(f"usage: flopit {args[0]} ")
    assert message == error + "\n"


def test_decimals_sets_every_grid_but_clamp(fixture_dir, tmp_path, monkeypatch):
    written = {}

    def spy(raster, path, decimals):
        written[Path(path).stem.rsplit("_", 1)[1]] = raster, path, decimals
        write_ascii_grid(raster, path, decimals)

    monkeypatch.setattr(flopit.cli, "write_ascii_grid", spy)
    assert main(interpolate_args(fixture_dir, tmp_path / "x", "--decimals", "3")) == 0
    assert {name: d for name, (_, _, d) in written.items()} == {
        "prob": 3, "rp": 3, "clamp": 0, "zones": 3,
    }
    for name, (raster, path, decimals) in written.items():
        tokens = Path(path).read_text().split("\n", 6)[6].split()
        assert tokens == ["-9999" if v == -9999.0 else f"%.{decimals}f" % v
                          for v in raster.values.ravel().tolist()], name


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_read_line_without_proc_has_no_peak(fixture_dir, tmp_path, capsys, monkeypatch):
    def no_proc(path, *args, **kwargs):
        if path == "/proc/self/status":
            raise FileNotFoundError(path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(flopit.cli, "open", no_proc, raising=False)
    assert main(interpolate_args(fixture_dir, tmp_path / "x")) == 0
    err = capsys.readouterr().err
    assert re.search(r"flopit.cli: read 4 grids on 1 process\(es\) in \S+ s\n", err), err


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

    monkeypatch.setattr(flopit.idw, "fill_stack", no_idw)
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


def test_unwritable_output_same_error_across_workers(fixture_dir, tmp_path, capsys):
    args = interpolate_args(fixture_dir, tmp_path / "no_dir" / "x")
    results = []
    for workers in ("1", "2"):
        code = main(args + ["--workers", workers])
        lines = capsys.readouterr().err.splitlines()
        results.append((code, [line for line in lines if line.startswith("flopit")]))
    assert results[0] == results[1]
    assert results[0][0] == 3 and len(results[0][1]) == 1
    assert "x_prob.asc" in results[0][1][0]


def test_loglinear_method_flag(fixture_dir, tmp_path):
    out_a = tmp_path / "spl"
    out_b = tmp_path / "log"
    assert main(interpolate_args(fixture_dir, out_a, "--method", "spline")) == 0
    assert main(interpolate_args(fixture_dir, out_b, "--method", "loglinear")) == 0
    a = read_ascii_grid(f"{out_a}_prob.asc")
    b = read_ascii_grid(f"{out_b}_prob.asc")
    assert not np.array_equal(a.values, b.values)


def _libc(result, calls):
    """Stands in for ``ctypes.CDLL(None)``: its ``mallopt`` records each
    call in ``calls`` and returns ``result``."""
    def mallopt(param, value):
        calls.append((param, value))
        return result

    return types.SimpleNamespace(mallopt=mallopt)


@pytest.mark.skipif(os.name != "posix", reason="the allocator is pinned on POSIX only")
@pytest.mark.parametrize("result, expected", [
    # M_MMAP_THRESHOLD to 32 MiB, then M_TRIM_THRESHOLD to 1 GiB
    (1, [(-3, 32 << 20), (-1, 1 << 30)]),
    # a refused mmap threshold sets no trim threshold either
    (0, [(-3, 32 << 20)]),
])
def test_main_pins_the_allocator_first(monkeypatch, capsys, result, expected):
    names, calls = [], []
    libc = _libc(result, calls)
    monkeypatch.setattr(flopit.cli.ctypes, "CDLL", lambda name: names.append(name) or libc)
    assert main([]) == 1  # a usage error: the pin comes before the parse
    assert names == [None] and calls == expected


def test_main_without_mallopt_pins_nothing(monkeypatch, capsys):
    monkeypatch.setattr(flopit.cli.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert main([]) == 1
