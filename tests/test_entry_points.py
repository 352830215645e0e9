"""The command line as a user runs it: each command in a child process,
started in a directory outside the source tree, through every entry point
this interpreter has. A run outside dev mode ends through ``os._exit``,
so these tests also run without ``-X dev``."""

import csv
import os
import re
import signal
import subprocess
import sys
import sysconfig
from pathlib import Path
from typing import NamedTuple

import pytest

from conftest import child_env

GRIDS = ("prob", "rp", "clamp", "zones")
SUMMARY = ("cells_total", "cells_with_probability", "cells_interpolated",
           "cells_clamped_high", "cells_clamped_low", "cells_nodata", "cells_per_second")
W2, W0 = ("--workers", "2"), ("--workers", "0")
SMOOTH = ("--idw-mode", "smooth", "--method", "loglinear")


def layers(t100="wse_T100.asc"):
    return ["--layer", "10:wse:fx/wse_T10.asc", "--layer", f"100:wse:fx/{t100}",
            "--layer", "500:wse:fx/wse_T500.asc"]


class Cli(NamedTuple):
    command: list[str]
    env: dict[str, str]
    cwd: Path

    def __call__(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([*self.command, *argv], cwd=self.cwd, env=self.env,
                              capture_output=True, text=True)

    def grids(self, out: str) -> dict[str, bytes]:
        return {name: (self.cwd / f"{out}_{name}.asc").read_bytes() for name in GRIDS}


@pytest.fixture(scope="module", params=["module", "script"])
def flopit(request, tmp_path_factory):
    """``flopit`` run in a fresh directory that holds a 30x20 ``synth``
    fixture in ``fx``: as ``python -m flopit.cli`` with this checkout's
    ``src`` on its path, or as the ``flopit`` script installed beside this
    interpreter, which imports the flopit installed with it."""
    if request.param == "module":
        command, env = [sys.executable, "-m", "flopit.cli"], child_env()
    else:
        script = Path(sysconfig.get_path("scripts"), "flopit")
        if not script.exists():
            pytest.skip(f"no flopit script in {script.parent}")
        command, env = [str(script)], child_env(with_src=False)
    cli = Cli(command, env, tmp_path_factory.mktemp(request.param))
    synth = cli("synth", "--out", "fx", "--ncols", "30", "--nrows", "20")
    assert synth.returncode == 0, synth.stderr
    t100 = cli.cwd / "fx" / "wse_T100.asc"
    text = t100.read_bytes()
    # an underscore between digit pairs (1_0 reads as 10) makes numpy's C
    # reader reject every body block: the token fallback reads them
    lines = text.splitlines(keepends=True)
    body = [re.sub(rb"([0-9])([0-9])", rb"\1_\2", line) for line in lines[6:]]
    t100.with_name("wse_T100_u.asc").write_bytes(b"".join(lines[:6] + body))
    # a layer off the DEM's grid
    shifted = re.sub(rb"(?m)^XLLCORNER .*$", b"XLLCORNER 1", text)
    t100.with_name("wse_T100_x.asc").write_bytes(shifted)
    return cli


@pytest.fixture(scope="module")
def default_run(flopit):
    run = flopit("interpolate", "--dem", "fx/dem.asc", *layers(), "--out", "run")
    assert run.returncode == 0, run.stderr
    return run


# case: (T100's file, options, each run's --workers); a case's grids are
# those of the run at the defaults, or with options, of its own first run
CASES = {
    # forked processes parse the inputs and threads evaluate and write the
    # outputs, at most one per CPU
    "plain": ("wse_T100.asc", (), [W2, W0]),
    "underscored": ("wse_T100_u.asc", (), [(), W2]),
    # IDW's smoothing runs over the same row bands at any worker count
    "smooth": ("wse_T100.asc", SMOOTH, [(), W2]),
}


@pytest.mark.parametrize("case", CASES)
def test_same_grids_at_any_worker_count(flopit, default_run, case):
    t100, options, runs = CASES[case]
    grids = []
    for i, workers in enumerate(runs):
        out = f"{case}{i}"
        run = flopit("interpolate", "--dem", "fx/dem.asc", *layers(t100), *options, *workers,
                     "--out", out)
        assert run.returncode == 0, run.stderr
        grids.append(flopit.grids(out))
    expected = grids[0] if options else flopit.grids("run")
    assert grids == [expected] * len(runs)


def test_interpolate_prints_counts_and_logs_only_info(default_run):
    # stdout is for pipelines, and stderr holds only the log: a numpy
    # warning fails the child (child_env)
    assert re.fullmatch("".join(rf"{name} \d+\n" for name in SUMMARY), default_run.stdout)
    lines = default_run.stderr.splitlines()
    # one logger name whichever entry point runs the CLI
    assert lines and all(line.startswith("INFO flopit.cli: ") for line in lines), default_run.stderr


def test_compare_prints_one_line_per_zone(flopit, default_run):
    run = flopit("compare", "--prob", "run_prob.asc", "--zones", "run_zones.asc",
                 "--out", "stats.csv")
    assert run.returncode == 0, run.stderr
    with open(flopit.cwd / "stats.csv", newline="") as file:
        rows = list(csv.DictReader(file))
    assert rows
    assert run.stdout == "".join(
        f"zone_T {float(row['zone_T']):g} mean_return_period {row['mean_T']}\n" for row in rows
    )


# each fault's run ends in --out: nothing named by it may exist afterwards
@pytest.mark.parametrize("argv, code, stderr", [
    # a usage error and a grid too large to address
    (["interpolate", "--dem", "fx/dem.asc", *layers(), "--decimals", "1075", "--out", "big"], 1,
     r"usage: flopit interpolate (?s:.*)\n"
     r"flopit interpolate: error: argument --decimals: must be <= 1074, got 1075\n"),
    (["synth", "--ncols", "10000000000", "--nrows", "10000000000", "--out", "huge"], 2,
     r"flopit: error: a 10000000000x10000000000 grid of float64 is more bytes than this "
     r"platform can address\n"),
    # on forked readers, a missing layer and a layer off the DEM's grid
    (["interpolate", "--dem", "fx/dem.asc", *layers("none.asc"), *W2, "--out", "miss"], 3,
     r"flopit: i/o error: \[Errno 2\] No such file or directory: 'fx/none\.asc'\n"),
    (["interpolate", "--dem", "fx/dem.asc", *layers("wse_T100_x.asc"), *W2, "--out", "off"], 2,
     r"flopit: error: layer fx/wse_T100_x\.asc is not aligned with the DEM\n"),
], ids=["usage", "too-large", "missing-layer", "off-grid"])
def test_fault_exits_with_one_message_and_no_output(flopit, argv, code, stderr):
    run = flopit(*argv)
    assert (run.returncode, run.stdout) == (code, "")
    assert re.fullmatch(stderr, run.stderr) and "Traceback" not in run.stderr, run.stderr
    assert list(flopit.cwd.glob(f"{argv[-1]}*")) == []


def _python(flopit, code: str, *argv: str, env=None) -> subprocess.CompletedProcess:
    """Run ``code`` as a Python script in the entry point's directory and
    environment (``env`` if given), with the flopit that entry point runs."""
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=flopit.cwd,
                          env=flopit.env if env is None else env, capture_output=True, text=True)


def _exit_envs(flopit) -> dict[str, dict[str, str]]:
    """The entry point's environment with stdout block-buffered into a
    pipe, out of dev mode (``os._exit``) and in it (the full teardown)."""
    env = {name: value for name, value in flopit.env.items()
           if name not in ("PYTHONDEVMODE", "PYTHONUNBUFFERED")}
    return {"os._exit": env, "teardown": {**env, "PYTHONDEVMODE": "1"}}


# python -m flopit.cli, with an exit handler that shows whether the
# interpreter's teardown ran
AS_MAIN = ("import atexit, os, runpy\n"
           "atexit.register(os.write, 2, b'teardown\\n')\n"
           "runpy.run_module('flopit.cli', run_name='__main__', alter_sys=True)")


# a launcher that imports flopit itself runs the same flopit under either
# entry point, so these tests run it once
module_only = pytest.mark.parametrize("flopit", ["module"], indirect=True)


@module_only
@pytest.mark.parametrize("command", ["compare", "interpolate"])
def test_a_run_loads_only_what_it_runs(flopit, default_run, command):
    argv = {"compare": ["--prob", "run_prob.asc", "--zones", "run_zones.asc", "--out", "loads.csv"],
            "interpolate": ["--dem", "fx/dem.asc", *layers(), "--out", "loads"]}[command]
    run = _python(flopit, "import sys, flopit.cli\n"
                          "before = set(sys.modules)\n"
                          "code = flopit.cli.main(sys.argv[1:])\n"
                          "print(*sorted(sys.modules))\n"
                          "print(*sorted(sys.modules.keys() - before))\n"
                          "sys.exit(code)", command, *argv)
    assert run.returncode == 0, run.stderr
    loaded, during = (set(line.split()) for line in run.stdout.splitlines()[-2:])
    if command == "compare":
        assert {"flopit.raster", "flopit.zonestats"} <= loaded
        assert loaded.isdisjoint({"flopit.idw", "flopit.curves", "flopit.synth",
                                  "flopit.hazard", "flopit.probability", "flopit.workers",
                                  "concurrent.futures"})
    else:
        # such as numpy.ma, which numpy 2's np.unique imports on its first
        # call (compare's np.percentile still does)
        assert not {name for name in during if name.partition(".")[0] == "numpy"}


@module_only
def test_import_flopit_loads_no_submodule(flopit):
    run = _python(flopit, "import sys, flopit\n"
                          "print(*sorted(name for name in sys.modules if name.startswith('flopit.')))")
    assert run.returncode == 0, run.stderr
    assert set(run.stdout.split()) <= {"flopit.errors"}


@module_only
def test_import_flopit_workers_loads_no_numpy(flopit):
    # so that any flopit module, idw and probability too, can import it
    run = _python(flopit, "import sys, flopit.workers\n"
                          "print(*sorted(name for name in sys.modules\n"
                          "              if name.partition('.')[0] in ('flopit', 'numpy')))")
    assert run.returncode == 0, run.stderr
    assert set(run.stdout.split()) == {"flopit", "flopit.errors", "flopit.workers"}


@module_only
def test_every_public_name_is_its_modules(flopit):
    run = _python(flopit, """import importlib, flopit
star = {}
exec("from flopit import *", star)
assert sorted(star.keys() - {"__builtins__"}) == flopit.__all__
for name in flopit.__all__:
    home = importlib.import_module(f"flopit.{flopit._MODULE_OF[name]}")
    value = getattr(home, name)
    assert getattr(flopit, name) is value is star[name], name
    if isinstance(value, type) or callable(value):  # defined there, not imported
        assert value.__module__ == home.__name__, name
assert set(flopit.__all__) <= set(dir(flopit))
try:
    flopit.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
""")
    assert run.returncode == 0, run.stderr


@module_only
@pytest.mark.parametrize("ending", ["os._exit", "teardown"])
def test_run_delivers_every_line_through_pipes(flopit, default_run, ending):
    # out of dev mode the run skips the teardown, and with it the exit
    # handler, but flushes both streams first
    run = _python(flopit, AS_MAIN, "interpolate", "--dem", "fx/dem.asc", *layers(),
                  "--out", f"exit_{ending}", env=_exit_envs(flopit)[ending])
    assert run.returncode == 0, run.stderr
    assert re.fullmatch("".join(rf"{name} \d+\n" for name in SUMMARY), run.stdout)
    lines = run.stderr.splitlines()
    if ending == "teardown":
        assert lines.pop() == "teardown"
    assert len(lines) == len(default_run.stderr.splitlines())
    assert all(line.startswith("INFO flopit.cli: ") for line in lines), run.stderr
    assert flopit.grids(f"exit_{ending}") == flopit.grids("run")


@pytest.mark.parametrize("argv, code", [
    (["compare", "--prob", "run_prob.asc", "--zones", "run_zones.asc", "--out", "c.csv"], 0),
    (["compare", "--prob", "run_prob.asc"], 1),
    (["synth", "--out", "inf", "--slope", "inf"], 2),
    (["compare", "--prob", "none.asc", "--zones", "run_zones.asc", "--out", "c.csv"], 3),
], ids=["ok", "usage", "data", "io"])
def test_exit_codes(flopit, default_run, argv, code):
    run = flopit(*argv)
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr


@module_only
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
def test_interrupt_exit_codes(flopit, default_run, signum):
    # the signal arrives during evaluation, as if sent from outside
    launcher = ("import signal, flopit.probability\n"
                "def interrupted(*args, **kwargs):\n"
                f"    signal.raise_signal({int(signum)})\n"
                "flopit.probability.interpolate_map = interrupted\n" + AS_MAIN)
    for ending, env in _exit_envs(flopit).items():
        run = _python(flopit, launcher, "interpolate", "--dem", "fx/dem.asc", *layers(),
                      "--out", "stopped", env=env)
        assert (run.returncode, run.stdout) == (128 + signum, ""), run.stderr
        last = ["flopit: interrupted"] + (["teardown"] if ending == "teardown" else [])
        assert run.stderr.splitlines()[-len(last):] == last, run.stderr
        assert "Traceback" not in run.stderr
        assert list(flopit.cwd.glob("stopped*")) == []


def test_closed_stdout_pipe_ends_as_without_os_exit(flopit, default_run):
    # a block-buffered stdout meets the closed pipe only when flushed at the
    # end: the interpreter's own exit then reports it in one line
    runs = {}
    for ending, env in _exit_envs(flopit).items():
        r, w = os.pipe()
        os.close(r)
        with open(w, "wb") as closed:
            runs[ending] = subprocess.run(
                [*flopit.command, "compare", "--prob", "run_prob.asc", "--zones", "run_zones.asc",
                 "--out", "pipe.csv"], cwd=flopit.cwd, env=env, stdout=closed,
                stderr=subprocess.PIPE, text=True)
    fast, full = runs["os._exit"], runs["teardown"]
    assert (fast.returncode, fast.stderr) == (full.returncode, full.stderr)
    assert fast.returncode == 120 and "BrokenPipeError" in fast.stderr
    assert "Traceback" not in fast.stderr and len(fast.stderr.splitlines()) == 2, fast.stderr
