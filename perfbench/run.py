#!/usr/bin/env python3
"""Benchmark ``flopit interpolate`` and ``flopit compare``, files to files.

    python3 perfbench/run.py --workload wse8-interior --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. The benchmark writes its fixture
grids into ``.perfbench_work/``, runs the CLI from ``src/`` as child
processes one at a time, checks every output and prints one JSON object
as its last line of stdout:

* ``--trace 0``: end-to-end metrics of the untraced CLI runs;
* ``--trace 1``: per-layer metrics of a replay of the same run
  (``replay.py``, in a fresh process), with spans around the calls into
  each flopit module.

``--smoke`` shrinks the grids to a few thousand cells. ``--record PATH``
also writes the full result (machine, input and output digests, every
repetition) as JSON. See README.md in this directory for the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
STARTUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0


@dataclass
class Child:
    code: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], workdir: Path) -> Child:
    """Run one child to completion; peak RSS comes from its own rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss * 1024 / 1e6,  # Linux reports KiB
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def machine_info() -> dict:
    import numpy as np

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        info["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return info


def llc_mb(caches: dict) -> float | None:
    """Size of the highest cache level, in MB (10^6 bytes)."""
    if not caches:
        return None
    text = caches[max(caches, key=lambda k: k[1])]
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1], 1)
    return int(text.rstrip("KMG")) * scale / 1e6


def median(values) -> float:
    return statistics.median(list(values))


class Bench:
    """One benchmark invocation: a workload, a seed and a grid size."""

    def __init__(self, wl, seed: int, size: int, workdir: Path, setups: int):
        from workloads import Checker, write_inputs

        self.wl = wl
        self.seed = seed
        self.size = size
        self.spec = wl.spec(size, seed)
        self.cells = size * size
        self.workdir = workdir
        self.indir = workdir / "in"
        self.indir.mkdir()
        self.setup_s = []
        for _ in range(setups):
            t0 = time.perf_counter()
            self.inputs = write_inputs(wl, self.spec, self.indir)
            self.setup_s.append(time.perf_counter() - t0)
        self.checker = Checker(wl, self.spec, self.inputs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reps: list[dict] = []
        self.spans: list | None = None  # from the first traced replay
        self.python = sys.executable

    def startup(self) -> float:
        child = run_child([self.python, "-c", "import flopit.cli"], self.workdir)
        if child.code != 0:
            raise RuntimeError(f"cannot import flopit.cli:\n{child.stderr}")
        return child.wall_s

    def cli_run(self) -> dict:
        """One untraced interpolate + compare of the CLI, checked."""
        from workloads import output_paths, parse_summary

        prefix = self.workdir / "cli"
        outs = output_paths(prefix)
        for path in outs.values():
            path.unlink(missing_ok=True)
        interp = run_child(
            [self.python, "-m", "flopit.cli", "interpolate", "--dem", str(self.inputs.dem)]
            + self.inputs.layer_args()
            + self.wl.cli_args()
            + ["--out", str(prefix)],
            self.workdir,
        )
        problems = []
        summary = parse_summary(interp.stdout)
        compare = None
        if interp.code != 0:
            problems.append(f"interpolate exited {interp.code}: {interp.stderr[-500:]}")
        else:
            compare = run_child(
                [self.python, "-m", "flopit.cli", "compare",
                 "--prob", str(outs["prob"]), "--zones", str(outs["zones"]),
                 "--out", str(outs["csv"])],
                self.workdir,
            )
            if compare.code != 0:
                problems.append(f"compare exited {compare.code}: {compare.stderr[-500:]}")
            else:
                problems += self.checker.check(prefix, summary)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        rep = {
            "wall_s": interp.wall_s + (compare.wall_s if compare else 0.0),
            "interpolate_s": interp.wall_s,
            "compare_s": compare.wall_s if compare else 0.0,
            "peak_rss_mb": interp.maxrss_mb,
            "cli_cells_per_second": summary.get("cells_per_second"),
            "summary": summary,
            "problems": problems,
        }
        self.reps.append(rep)
        return rep

    def result(self, metrics: dict, extra: dict) -> dict:
        return {
            "correct": self.failed == 0 and not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "extra": extra,
        }


def untraced(bench: Bench, seconds: float) -> dict:
    bench.startup()  # compiles bytecode and warms the import path
    measured = 0.0
    while measured < seconds:
        measured += bench.cli_run()["wall_s"]
    interp = median(r["interpolate_s"] for r in bench.reps)
    metrics = {
        "interpolate_s": (interp, "s"),
        "compare_s": (median(r["compare_s"] for r in bench.reps), "s"),
        "cells_per_s": (bench.cells / interp, "1/s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in bench.reps), "MB"),
        "setup_s": (median(bench.setup_s), "s"),
    }
    reported = [r["cli_cells_per_second"] or 0 for r in bench.reps]
    return bench.result(metrics, {
        "failed_frac": bench.failed / bench.attempted,
        "cli_reported_cells_per_second": median(reported),
        "reps": len(bench.reps),
    })


def traced(bench: Bench, seconds: float) -> dict:
    from workloads import output_paths, sha256

    bench.startup()
    startup = median(bench.startup() for _ in range(STARTUP_REPEATS))
    wl = bench.wl
    rows: list[dict] = []
    extras: dict = {}
    measured = 0.0
    while measured < seconds:
        rep = bench.cli_run()
        prefix = bench.workdir / "replay"
        child = run_child(
            [bench.python, str(Path(__file__).with_name("replay.py")),
             "--workload", wl.name, "--seed", str(bench.seed), "--size", str(bench.size),
             "--indir", str(bench.indir), "--prefix", str(prefix)]
            + ([] if extras else ["--extras"]),
            bench.workdir,
        )
        measured += rep["wall_s"]
        bench.attempted += 1
        if child.code != 0:
            bench.failed += 1
            bench.problems.append(f"replay exited {child.code}: {child.stderr[-500:]}")
            continue
        run = json.loads(child.stdout.strip().splitlines()[-1])
        measured += run["seconds"]["interpolate"] + run["seconds"]["compare"]
        extras = extras or run

        problems = []
        interior, high, low = run["clamp_counts"]
        want = {
            "cells_interpolated": interior,
            "cells_clamped_high": high,
            "cells_clamped_low": low,
            "cells_nodata": bench.cells - interior - high - low,
        }
        for key, value in want.items():
            if rep["summary"].get(key) != value:
                problems.append(f"CLI {key} {rep['summary'].get(key)} != clamp_counts() {value}")
        cli_outs = output_paths(bench.workdir / "cli")
        for name, path in output_paths(prefix).items():
            if not cli_outs[name].is_file() or sha256(path) != sha256(cli_outs[name]):
                problems.append(f"replay {name} differs from the CLI's")
        if problems:
            bench.failed += 1
            bench.problems += problems
        rows.append({
            "cli_interpolate_s": rep["interpolate_s"],
            "unaccounted_s": rep["interpolate_s"] - startup - run["stages_s"],
            "cli_cells_per_second": rep["cli_cells_per_second"] or 0,
            **run["seconds"],
            **{f"{k}_bytes": v for k, v in run["bytes"].items()},
        })
    if not rows:
        return bench.result({}, {})

    def med(key):
        return median(r[key] for r in rows)

    interior, high, low = extras["clamp_counts"]
    valid = interior + high + low
    touched = extras["filled_cells"] + extras["smoothed_cells"]
    metrics = {
        "raster.read_s": (med("raster.read"), "s"),
        "raster.write_s": (med("raster.write"), "s"),
        "raster.read_bytes": (med("raster.read_bytes"), "B"),
        "raster.write_bytes": (med("raster.write_bytes"), "B"),
        "raster.read_mb_per_s": (med("raster.read_bytes") / 1e6 / med("raster.read"), "MB/s"),
        "raster.write_mb_per_s": (med("raster.write_bytes") / 1e6 / med("raster.write"), "MB/s"),
        "raster.read_peak_alloc_mb": (extras["read_peak_alloc_mb"], "MB"),
        "hazard.validate_s": (med("hazard.validate"), "s"),
        "hazard.depth_cells": (extras["depth_cells"], "count"),
        "idw.fill_s": (med("idw.fill"), "s"),
        "idw.filled_cells": (extras["filled_cells"], "count"),
        "idw.smoothed_cells": (extras["smoothed_cells"], "count"),
        "idw.cells_per_s": (touched / med("idw.fill"), "1/s"),
        "probability.interpolate_s": (med("probability.interpolate"), "s"),
        "probability.zones_s": (med("probability.zones"), "s"),
        "probability.valid_cells": (valid, "count"),
        "probability.interior_cells": (interior, "count"),
        "probability.useful_frac": (interior / valid if valid else 0.0, "frac"),
        "probability.peak_alloc_mb": (extras["interpolate_peak_alloc_mb"], "MB"),
        "probability.interpolate_w1_s": (extras["interpolate_w1_s"], "s"),
        "probability.speedup_w2": (
            extras["interpolate_w1_s"] / extras["interpolate_w2_s"], "ratio"
        ),
        "zonestats.compare_s": (med("zonestats.compare"), "s"),
        "zonestats.csv_s": (med("zonestats.csv"), "s"),
        "cli.startup_s": (startup, "s"),
        "cli.interpolate_s": (med("cli_interpolate_s"), "s"),
        "cli.unaccounted_s": (med("unaccounted_s"), "s"),
        "cli.unaccounted_frac": (med("unaccounted_s") / med("cli_interpolate_s"), "frac"),
        "cli.reported_cells_per_s": (med("cli_cells_per_second"), "1/s"),
    }
    bench.spans = extras["spans"]
    return bench.result(metrics, {"iterations": len(rows)})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="small grids, for tests")
    parser.add_argument("--record", help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "flopit" / "cli.py").is_file():
        print(f"error: no flopit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import FULL_SIZE, SMOKE_SIZE, WORKLOADS, sha256

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    size = SMOKE_SIZE if args.smoke else FULL_SIZE

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        # setup_s is an end-to-end metric; a traced run needs the inputs once
        bench = Bench(wl, args.seed, size, workdir, 1 if args.trace else SETUP_REPEATS)
        result = (traced if args.trace else untraced)(bench, args.seconds)
        machine = machine_info()
        n_grids = len(bench.inputs.paths) + len(wl.levels) + 4
        record = {
            "workload": wl.name,
            "seed": args.seed,
            "grid": [size, size],
            "trace": args.trace,
            "machine": machine,
            # float64 grids alive at once: inputs, filled layers, outputs
            "working_set_mb": n_grids * bench.cells * 8 / 1e6,
            "llc_mb": llc_mb(machine["caches"]),
            "inputs_sha256": {p.name: sha256(p) for p in bench.inputs.paths},
            "outputs_sha256": bench.checker.reference,
            "oracle_max_err": bench.checker.oracle_max_err,
            "setup_s": bench.setup_s,
            "reps": bench.reps,
            "spans": bench.spans,
            **result,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for key in ("workload", "seed", "grid", "machine", "working_set_mb", "llc_mb",
                "inputs_sha256", "outputs_sha256", "oracle_max_err", "extra"):
        print(f"# {key}: {json.dumps(record[key], sort_keys=True)}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True, default=str)
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
