"""Command-line interface: interpolate, compare, synth.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 I/O
error. Diagnostics and progress go to stderr; statistics and summaries go
to stdout, so pipelines can consume them.
"""

from __future__ import annotations

import argparse
import logging
import mmap
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .curves import InterpolationMethod
from .errors import FlopitError
from .hazard import LayerKind, ReturnPeriodLayer, validate_stack
from .idw import IdwMode, IdwParams, fill_stack
from .probability import derive_zones, interpolate_map
from .raster import Raster, grids_aligned, locked, read_ascii_grid, write_ascii_grid
from .synth import FixtureShape, FixtureSpec, write_fixture
from .zonestats import compare_zones, write_stats_csv

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3

_METHODS = {
    "spline": InterpolationMethod.MONOTONE_CUBIC,
    "loglinear": InterpolationMethod.LOG_LINEAR,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we use 1
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_layer(text: str) -> tuple[float, LayerKind, str]:
    parts = text.split(":", 2)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"layer spec {text!r} must be T:KIND:PATH (e.g. 100:wse:w100.asc)"
        )
    t_text, kind_text, path = parts
    try:
        t_years = float(t_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad return period {t_text!r}") from None
    kind_text = kind_text.lower()
    if kind_text not in ("depth", "wse"):
        raise argparse.ArgumentTypeError(
            f"layer kind must be 'depth' or 'wse', got {kind_text!r}"
        )
    return t_years, LayerKind(kind_text), path


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _parse_level(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"level spec {text!r} must be T:WSE")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level spec {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="flopit", description=__doc__)
    parser.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="verbosity of diagnostics on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser(
        "interpolate",
        help="interpolate a continuous flood probability map",
    )
    p_int.add_argument("--dem", required=True, help="DEM raster (ESRI ASCII grid)")
    p_int.add_argument(
        "--layer",
        action="append",
        default=[],
        type=_parse_layer,
        metavar="T:KIND:PATH",
        help="flood layer: return period, 'depth' or 'wse', raster path; repeatable",
    )
    p_int.add_argument("--method", default="spline", choices=sorted(_METHODS))
    p_int.add_argument("--out", required=True, help="output path prefix")
    p_int.add_argument("--idw-power", type=float, default=2.0)
    p_int.add_argument("--idw-radius", type=int, default=10, metavar="CELLS")
    p_int.add_argument("--idw-max-neighbors", type=int, default=16)
    p_int.add_argument("--idw-min-neighbors", type=int, default=1)
    p_int.add_argument("--idw-mode", default="fill", choices=["fill", "smooth"])
    p_int.add_argument(
        "--workers",
        type=_non_negative_int,
        default=1,
        help="processes that read and write the grids and threads that evaluate "
        "them; 0 = one per CPU; output bytes never depend on it",
    )
    p_int.add_argument(
        "--decimals", type=_non_negative_int, default=6, help="output decimal places"
    )

    p_cmp = sub.add_parser("compare", help="per-zone statistics of a probability map")
    p_cmp.add_argument("--prob", required=True, help="probability raster")
    p_cmp.add_argument("--zones", required=True, help="zone raster")
    p_cmp.add_argument("--out", required=True, help="output CSV path")

    p_syn = sub.add_parser("synth", help="write a synthetic terrain fixture")
    p_syn.add_argument(
        "--shape", default="ramp", choices=[s.value for s in FixtureShape]
    )
    p_syn.add_argument("--out", required=True, help="output directory")
    p_syn.add_argument("--ncols", type=int, default=50)
    p_syn.add_argument("--nrows", type=int, default=40)
    p_syn.add_argument("--slope", type=float, default=0.5)
    p_syn.add_argument("--seed", type=int, default=0)
    p_syn.add_argument(
        "--level",
        action="append",
        default=[],
        type=_parse_level,
        metavar="T:WSE",
        help="return period and constant surface elevation; repeatable",
    )
    return parser


# the task of a forked worker process, adopted as the worker starts
_worker_task = None


def _adopt(task) -> None:
    global _worker_task
    _worker_task = task


def _run_task(i: int):
    return _worker_task(i)


def _processes(workers: int, n_tasks: int) -> int:
    """Processes for ``n_tasks`` tasks at ``--workers`` (0 = one per CPU),
    at most one per task and one per CPU."""
    cpus = os.cpu_count() or 1
    return min(workers or cpus, n_tasks, cpus)


def _forked(task, n_tasks: int, procs: int) -> list[Future]:
    """Run task(0), ..., task(n_tasks - 1) on ``procs`` processes forked
    from this one; returns their futures, all done, in task order.

    The workers inherit ``task`` and all it reads, so only the task index
    and the result are pickled. A result raises what its task raised, or
    BrokenProcessPool if a worker died. Fork is safe at both calls: this
    process then runs no thread but OpenBLAS's idle ones.
    """
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(procs, fork, initializer=_adopt, initargs=(task,)) as pool:
        return [pool.submit(_run_task, i) for i in range(n_tasks)]


def _log_pool(done: str, procs: int, t0: float) -> None:
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    logger.info(
        "%s on %d processes in %.3f s; largest worker peak RSS %.1f MiB",
        done, procs, time.perf_counter() - t0, peak_kib / 1024,
    )


def _shared_map(path: str) -> mmap.mmap | None:
    """An anonymous shared map that can hold the values of the grid at
    ``path``: a separator follows every token but the last, so a file of
    b bytes holds at most (b + 1) // 2 cells. None for a missing or empty
    file, whose read fails, or a map too large to make."""
    try:
        return mmap.mmap(-1, 8 * ((os.path.getsize(path) + 1) // 2))
    except OSError:
        return None


def _read_forked(paths: list[str], procs: int):
    """The grids at ``paths``, read on ``procs`` forked processes, as an
    iterator in path order; it raises a grid's read error when it reaches
    that grid. A worker copies the values into the grid's shared map, made
    before the fork, so they are not pickled."""
    maps = [_shared_map(path) for path in paths]

    def read(i: int):
        grid = read_ascii_grid(paths[i])
        if maps[i] is None or grid.values.nbytes > len(maps[i]):  # grew since the map
            return grid.header, grid.values
        np.frombuffer(maps[i], count=grid.values.size)[:] = grid.values.ravel()
        return grid.header, None

    for future, shared in zip(_forked(read, len(paths), procs), maps):
        header, values = future.result()
        if values is None:
            values = np.frombuffer(shared, count=header.nrows * header.ncols)
        # a Raster must stay read-only; unpickled and mapped arrays are writable
        yield Raster(header, locked(values.reshape(header.shape)))


def cmd_interpolate(args: argparse.Namespace) -> int:
    try:
        idw = IdwParams(
            power=args.idw_power,
            radius_cells=args.idw_radius,
            max_neighbors=args.idw_max_neighbors,
            min_neighbors=args.idw_min_neighbors,
            mode=IdwMode(args.idw_mode),
        )
    except ValueError as exc:
        raise FlopitError(str(exc)) from None
    t0 = time.perf_counter()
    paths = [args.dem, *(path for _, _, path in args.layer)]
    procs = _processes(args.workers, len(paths))
    grids = _read_forked(paths, procs) if procs > 1 else map(read_ascii_grid, paths)
    dem = next(grids)
    layers = []
    for (t_years, kind, path), grid in zip(args.layer, grids):
        if not grids_aligned(dem.header, grid.header):
            raise FlopitError(f"layer {path} is not aligned with the DEM")
        layers.append(ReturnPeriodLayer(t_years, kind, grid))
    if procs > 1:
        _log_pool(f"read {len(paths)} grids", procs, t0)

    stack = validate_stack(dem, layers)
    logger.info("stack validated: %d layers, %dx%d cells",
                len(stack.layers), dem.header.nrows, dem.header.ncols)
    filled = fill_stack(stack, idw)
    # frees the raw and unfilled grids before evaluation; the reader holds
    # the shared maps their values were read into
    del layers, stack, grids
    pm = interpolate_map(filled, None, _METHODS[args.method], workers=args.workers)
    zones = derive_zones(filled)

    prefix = args.out
    outputs = [
        (pm.probability, f"{prefix}_prob.asc", args.decimals),
        (pm.return_period, f"{prefix}_rp.asc", args.decimals),
        (pm.clamp_flags, f"{prefix}_clamp.asc", 0),
        (zones.zones, f"{prefix}_zones.asc", args.decimals),
    ]
    procs = _processes(args.workers, len(outputs))
    if procs > 1:
        t_write = time.perf_counter()
        for future in _forked(lambda i: write_ascii_grid(*outputs[i]), len(outputs), procs):
            future.result()
        _log_pool(f"wrote {len(outputs)} grids", procs, t_write)
    else:
        for output in outputs:
            write_ascii_grid(*output)
    elapsed = time.perf_counter() - t0

    n_cells = dem.header.nrows * dem.header.ncols
    interior, high, low = pm.clamp_counts()
    n_data = interior + high + low
    rate = n_cells / elapsed if elapsed > 0 else float("inf")
    logger.info(
        "interpolated %d cells in %.3f s from first read to last write (%.0f cells/s)",
        n_cells, elapsed, rate,
    )

    print(f"cells_total {n_cells}")
    print(f"cells_with_probability {n_data}")
    print(f"cells_interpolated {interior}")
    print(f"cells_clamped_high {high}")
    print(f"cells_clamped_low {low}")
    print(f"cells_nodata {n_cells - n_data}")
    print(f"cells_per_second {rate:.0f}")
    return EXIT_OK


def cmd_compare(prob_path: str, zones_path: str, out_csv: str) -> int:
    prob = read_ascii_grid(prob_path)
    zones = read_ascii_grid(zones_path)
    stats = compare_zones(prob, zones)
    if not stats:
        raise FlopitError("no cells in any zone")
    write_stats_csv(stats, out_csv)
    for s in stats:
        print(f"zone_T {s.zone_T:g} mean_return_period {s.mean:.6f}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    levels = tuple(args.level) or ((10.0, 5.0), (100.0, 7.0), (500.0, 8.0))
    try:
        spec = FixtureSpec(
            shape=FixtureShape(args.shape),
            ncols=args.ncols,
            nrows=args.nrows,
            slope=args.slope,
            wse_levels=levels,
            seed=args.seed,
        )
    except ValueError as exc:
        raise FlopitError(str(exc)) from None
    manifest = write_fixture(spec, args.out)
    print(f"wrote {len(manifest['layers']) + 1} rasters to {args.out}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    try:
        if args.command == "interpolate":
            return cmd_interpolate(args)
        if args.command == "compare":
            return cmd_compare(args.prob, args.zones, args.out)
        if args.command == "synth":
            return cmd_synth(args)
    except FlopitError as exc:
        print(f"flopit: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"flopit: error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenProcessPool as exc:  # a worker was killed, by the OOM killer say
        print(f"flopit: error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"flopit: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
