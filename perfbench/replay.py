"""In-process replay of one interpolate + compare run, traced per layer.

    python3 perfbench/replay.py --workload ramp-fill --seed 1 --size 1000 \
        --indir DIR --prefix PREFIX [--extras]

The replay makes the same public calls, in the same order, as
``flopit interpolate`` and ``flopit compare``. Spans are recorded here,
around each call into a flopit module; nothing inside ``flopit`` is
instrumented. A layer is a module name: ``raster``, ``hazard``, ``idw``,
``probability`` (the ``curves`` kernels run inside ``interpolate_map``)
and ``zonestats``.

``run.py`` starts this file as a fresh process, as the CLI is, so the
stages pay the same first-touch memory costs the CLI pays. ``--extras``
adds the single-thread and two-thread timings of ``interpolate_map`` and
the tracemalloc passes. The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from flopit.hazard import HazardStack, LayerKind, ReturnPeriodLayer, validate_stack
from flopit.idw import IdwMode, fill_stack
from flopit.probability import derive_zones, interpolate_map
from flopit.raster import grids_aligned, read_ascii_grid, write_ascii_grid
from flopit.zonestats import compare_zones, write_stats_csv

from workloads import DECIMALS, WORKLOADS, Inputs, Workload, input_paths, output_paths


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; each records the span that was open when it
    started as its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = Span(name, self._open[-1] if self._open else None, time.perf_counter())
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def children_seconds(self, root: str) -> float:
        """Summed time of the spans directly under the spans named ``root``."""
        roots = {i for i, s in enumerate(self.spans) if s.name == root}
        return sum(s.seconds for s in self.spans if s.parent in roots)


def _read(tracer: Tracer, path: Path):
    with tracer.span("raster.read") as s:
        grid = read_ascii_grid(path)
    s.counts["bytes"] = path.stat().st_size
    return grid


def _write(tracer: Tracer, raster, path: Path, decimals: int):
    with tracer.span("raster.write") as s:
        write_ascii_grid(raster, path, decimals)
    s.counts["bytes"] = path.stat().st_size


@dataclass
class Replay:
    """What one traced replay produced, beyond its spans."""

    counts: tuple[int, int, int]  # ProbabilityMap.clamp_counts()
    depth_cells: int
    filled_cells: int
    smoothed_cells: int
    filled: HazardStack


def replay(wl: Workload, inputs: Inputs, prefix: Path, tracer: Tracer) -> Replay:
    """Mirror of ``cmd_interpolate`` followed by ``cmd_compare``."""
    outs = output_paths(prefix)
    with tracer.span("interpolate"):
        dem = _read(tracer, inputs.dem)
        layers = []
        for t, kind, path in inputs.layers:
            grid = _read(tracer, path)
            if not grids_aligned(dem.header, grid.header):
                raise ValueError(f"layer {path} is not aligned with the DEM")
            layers.append(ReturnPeriodLayer(t, kind, grid))
        with tracer.span("hazard.validate"):
            stack = validate_stack(dem, layers)
        with tracer.span("idw.fill"):
            filled = fill_stack(stack, wl.idw)
        with tracer.span("probability.interpolate"):
            pm = interpolate_map(filled, None, wl.method, workers=wl.workers)
        with tracer.span("probability.zones"):
            zones = derive_zones(filled)
        with tracer.span("probability.clamp_counts"):
            counts = pm.clamp_counts()
        _write(tracer, pm.probability, outs["prob"], DECIMALS)
        _write(tracer, pm.return_period, outs["rp"], DECIMALS)
        _write(tracer, pm.clamp_flags, outs["clamp"], 0)
        _write(tracer, zones.zones, outs["zones"], DECIMALS)
    with tracer.span("compare"):
        prob = _read(tracer, outs["prob"])
        zone_grid = _read(tracer, outs["zones"])
        with tracer.span("zonestats.compare"):
            stats = compare_zones(prob, zone_grid)
        with tracer.span("zonestats.csv"):
            write_stats_csv(stats, outs["csv"])

    before = [int(lyr.grid.data_mask.sum()) for lyr in stack.layers]
    after = [int(lyr.grid.data_mask.sum()) for lyr in filled.layers]
    return Replay(
        counts=counts,
        # every layer of a workload has the same kind
        depth_cells=sum(before) if wl.kind is LayerKind.DEPTH else 0,
        filled_cells=sum(after) - sum(before),
        smoothed_cells=sum(before) if wl.idw_mode is IdwMode.SMOOTH_ALL else 0,
        filled=filled,
    )


def timed_interpolate(wl: Workload, filled: HazardStack, workers: int) -> float:
    t0 = time.perf_counter()
    interpolate_map(filled, None, wl.method, workers=workers)
    return time.perf_counter() - t0


def peak_alloc_mb(fn) -> float:
    """Peak bytes traced by tracemalloc while ``fn`` runs, in MB (10^6)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--indir", required=True)
    parser.add_argument("--prefix", required=True)
    parser.add_argument("--extras", action="store_true")
    args = parser.parse_args()

    wl = WORKLOADS[args.workload]
    inputs = input_paths(wl, wl.spec(args.size, args.seed), Path(args.indir))
    tracer = Tracer()
    run = replay(wl, inputs, Path(args.prefix), tracer)
    out = {
        "seconds": {s.name: tracer.total(s.name) for s in tracer.spans},
        "bytes": {name: tracer.count(name, "bytes") for name in ("raster.read", "raster.write")},
        "stages_s": tracer.children_seconds("interpolate"),
        "clamp_counts": run.counts,
        "depth_cells": run.depth_cells,
        "filled_cells": run.filled_cells,
        "smoothed_cells": run.smoothed_cells,
        "spans": [[s.name, s.parent, s.start, s.end] for s in tracer.spans],
    }
    if args.extras:
        # alternate the worker counts so neither always runs first
        times = {1: [], 2: []}
        for workers in (2, 1, 2, 1):
            times[workers].append(timed_interpolate(wl, run.filled, workers))
        out["interpolate_w1_s"] = statistics.median(times[1])
        out["interpolate_w2_s"] = statistics.median(times[2])
        out["interpolate_peak_alloc_mb"] = peak_alloc_mb(
            lambda: interpolate_map(run.filled, None, wl.method, workers=wl.workers)
        )
        out["read_peak_alloc_mb"] = peak_alloc_mb(lambda: read_ascii_grid(inputs.dem))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
