"""The command line as a user runs it: each command in a child process,
started in a directory outside the source tree, through every entry point
this interpreter has."""

import csv
import re
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
    # stdout is for pipelines; pyproject's warning filter does not reach a
    # child, so a numpy warning would show on its stderr
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
