"""Command-line interface: interpolate, compare, synth.

Exit codes: 0 success, 1 usage error, 2 data/validation error, 3 I/O
error, 130 interrupted (SIGINT, Ctrl-C), 143 terminated (SIGTERM).
Diagnostics and progress go to stderr; statistics and summaries go to
stdout, so pipelines can consume them.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import logging
import mmap
import os
import signal
import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from .errors import FlopitError
from .raster import MAX_DECIMALS, Raster, locked, read_ascii_grid, write_ascii_grid

if TYPE_CHECKING:
    from .hazard import LayerKind

# Each command imports the modules it runs inside its ``cmd_*``, and its
# parser imports those its options name only when the command is chosen
# (``_CommandParser``), so that a process loads, and compiles if it has no
# bytecode cache, only what its command needs.

# by name, not __name__: under ``python -m flopit.cli`` that is "__main__"
logger = logging.getLogger("flopit.cli")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

def _parse_layer(text: str) -> tuple[float, LayerKind, str]:
    from .hazard import LayerKind

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


def _decimals(text: str) -> int:
    value = _non_negative_int(text)
    if value > MAX_DECIMALS:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_DECIMALS}, got {value}")
    return value


def _parse_level(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"level spec {text!r} must be T:WSE")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad level spec {text!r}") from None


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which ``options(self)`` fills in on its first
    parse. argparse parses only the chosen command's arguments, through
    its parser's ``parse_known_args``, so the other commands' options,
    and the modules that define their choices and defaults, are never
    loaded."""

    def __init__(self, *args, options, **kwargs):
        super().__init__(*args, **kwargs)
        self._options = options

    def parse_known_args(self, args=None, namespace=None):
        if self._options is not None:
            options, self._options = self._options, None
            options(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flopit", description=__doc__)
    parser.add_argument(
        "--log-level",
        default="info",
        choices=["debug", "info", "warning", "error"],
        help="verbosity of diagnostics on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    sub.add_parser(
        "interpolate",
        help="interpolate a continuous flood probability map",
        options=_interpolate_options,
    ).set_defaults(run=cmd_interpolate)
    sub.add_parser(
        "compare", help="per-zone statistics of a probability map", options=_compare_options,
    ).set_defaults(run=cmd_compare)
    sub.add_parser(
        "synth", help="write a synthetic terrain fixture", options=_synth_options,
    ).set_defaults(run=cmd_synth)
    return parser


def _interpolate_options(p_int: argparse.ArgumentParser) -> None:
    from .curves import InterpolationMethod
    from .idw import IdwMode, IdwParams

    p_int.add_argument("--dem", required=True, help="DEM raster (ESRI ASCII grid)")
    p_int.add_argument(
        "--layer",
        action="append",
        default=[],
        type=_parse_layer,
        metavar="T:KIND:PATH",
        help="flood layer: return period, 'depth' or 'wse', raster path; repeatable",
    )
    p_int.add_argument(
        "--method", default=InterpolationMethod.MONOTONE_CUBIC.value,
        choices=sorted(m.value for m in InterpolationMethod),
    )
    p_int.add_argument("--out", required=True, help="output path prefix")
    p_int.add_argument("--idw-power", type=float, default=IdwParams.power)
    p_int.add_argument(
        "--idw-radius", type=int, default=IdwParams.radius_cells, metavar="CELLS"
    )
    p_int.add_argument("--idw-max-neighbors", type=int, default=IdwParams.max_neighbors)
    p_int.add_argument("--idw-min-neighbors", type=int, default=IdwParams.min_neighbors)
    p_int.add_argument(
        "--idw-mode", default=IdwParams.mode.value, choices=[m.value for m in IdwMode]
    )
    p_int.add_argument(
        "--workers",
        type=_non_negative_int,
        default=1,
        help="processes that parse the input grids and threads that evaluate and "
        "write; 0 = one per CPU, and never more than one per CPU; output bytes "
        "never depend on it",
    )
    p_int.add_argument(
        "--decimals", type=_decimals, default=6,
        help=f"output decimal places, 0 to {MAX_DECIMALS}",
    )


def _compare_options(p_cmp: argparse.ArgumentParser) -> None:
    p_cmp.add_argument("--prob", required=True, help="probability raster")
    p_cmp.add_argument("--zones", required=True, help="zone raster")
    p_cmp.add_argument("--out", required=True, help="output CSV path")


def _synth_options(p_syn: argparse.ArgumentParser) -> None:
    from .synth import FixtureShape, FixtureSpec

    p_syn.add_argument(
        "--shape", default="ramp", choices=[s.value for s in FixtureShape]
    )
    p_syn.add_argument("--out", required=True, help="output directory")
    p_syn.add_argument("--ncols", type=int, default=FixtureSpec.ncols)
    p_syn.add_argument("--nrows", type=int, default=FixtureSpec.nrows)
    p_syn.add_argument("--slope", type=float, default=FixtureSpec.slope)
    p_syn.add_argument("--seed", type=int, default=FixtureSpec.seed)
    p_syn.add_argument(
        "--level",
        action="append",
        default=[],
        type=_parse_level,
        metavar="T:WSE",
        help="return period and constant surface elevation; repeatable",
    )


def _read_into(path: str, fd: int):
    """Parse the grid at ``path``, write its values into the file ``fd``
    and return its header."""
    grid = read_ascii_grid(path)
    with open(fd, "wb", closefd=False) as file:
        file.write(grid.values)  # from offset 0, looping on short writes
    return grid.header


def _read_forked(paths: list[str], procs: int):
    """The grids at ``paths``, read on ``procs`` forked processes (see
    :mod:`flopit.workers` for why processes), as an iterator in path
    order. Every grid is read before the first is yielded; a grid's read
    error, or the death of the child that read it, is raised when the
    iterator reaches it.

    Each grid has a memory file, made before the fork, so every child
    inherits its descriptor. A child runs ``_read_into`` on a grid's path
    and that descriptor and sends back only the header; this process
    maps the file read-only, so a grid's memory lives as long as its
    Raster. Fork is safe here: this process then runs no thread but
    OpenBLAS's idle ones.
    """
    from .workers import fork_map

    with contextlib.ExitStack() as opened:
        files = [opened.enter_context(open(os.memfd_create("flopit-grid"), "r+b"))
                 for _ in paths]
        headers = fork_map(_read_into, [(path, file.fileno())
                                        for path, file in zip(paths, files)], procs)
        for header, file in zip(headers, files):
            if isinstance(header, Exception):
                raise header
            with file:  # the map keeps the file's pages
                values = mmap.mmap(file.fileno(), 8 * header.ncols * header.nrows,
                                   access=mmap.ACCESS_READ)
            # the child's read_ascii_grid has scanned these values
            yield Raster._derived(header, locked(np.frombuffer(values).reshape(header.shape)))


def cmd_interpolate(args: argparse.Namespace) -> int:
    from concurrent.futures import ThreadPoolExecutor

    from .curves import InterpolationMethod
    from .hazard import ReturnPeriodLayer, check_aligned, check_periods, validate_stack
    from .idw import IdwMode, IdwParams, fill_stack
    from .probability import interpolate_map
    from .workers import pool_size

    idw = IdwParams(
        power=args.idw_power,
        radius_cells=args.idw_radius,
        max_neighbors=args.idw_max_neighbors,
        min_neighbors=args.idw_min_neighbors,
        mode=IdwMode(args.idw_mode),
    )
    check_periods([t_years for t_years, _, _ in args.layer])
    t0 = time.perf_counter()
    paths = [args.dem, *(path for _, _, path in args.layer)]
    # values come back from a worker through a memory file, so a platform
    # without one reads in this process
    procs = pool_size(args.workers, len(paths)) if hasattr(os, "memfd_create") else 1
    grids = _read_forked(paths, procs) if procs > 1 else map(read_ascii_grid, paths)
    dem = next(grids)
    layers = []
    for (t_years, kind, path), grid in zip(args.layer, grids):
        check_aligned(dem, grid.header, f"layer {path}")
        layers.append(ReturnPeriodLayer(t_years, kind, grid))
    try:  # this process's own peak, which starts afresh at exec
        with open("/proc/self/status") as status:
            kib = [line.split()[1] for line in status if line.startswith("VmHWM:")]
    except OSError:  # no /proc: the read line goes without a peak
        kib = []
    peak = f"; peak RSS {int(kib[0]) / 1024:.1f} MiB" if kib else ""
    logger.info("read %d grids on %d process(es) in %.3f s%s",
                len(paths), procs, time.perf_counter() - t0, peak)

    stack = validate_stack(dem, layers)
    # a depth layer's surface is a new array; ``grid`` holds the last raw one
    del layers, grids, grid
    logger.info("stack validated: %d layers, %dx%d cells",
                len(stack.layers), dem.header.nrows, dem.header.ncols)
    filled = fill_stack(stack, idw)
    del stack
    method = InterpolationMethod(args.method)
    pm = interpolate_map(filled, None, method, workers=args.workers)
    del filled

    prefix = args.out
    outputs = [
        (pm.probability, f"{prefix}_prob.asc", args.decimals),
        (pm.return_period, f"{prefix}_rp.asc", args.decimals),
        (pm.clamp_flags, f"{prefix}_clamp.asc", 0),
        (pm.zones, f"{prefix}_zones.asc", args.decimals),
    ]
    # formatting releases the GIL, so threads suffice; the first failure
    # raised is the first in output order
    t_write = time.perf_counter()
    threads = pool_size(args.workers, len(outputs))
    with ThreadPoolExecutor(threads) as pool:
        list(pool.map(lambda output: write_ascii_grid(*output), outputs))
    seconds = time.perf_counter() - t_write
    mb = sum(os.path.getsize(path) for _, path, _ in outputs) / 1e6
    logger.info(
        "wrote %d grids (%.1f MB) on %d thread(s) in %.3f s, %.0f MB/s",
        len(outputs), mb, threads, seconds, mb / seconds if seconds > 0 else float("inf"),
    )
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


def cmd_compare(args: argparse.Namespace) -> int:
    from .zonestats import compare_zones, write_stats_csv

    stats = compare_zones(read_ascii_grid(args.prob), read_ascii_grid(args.zones))
    if not stats:
        raise FlopitError("no cells in any zone")
    write_stats_csv(stats, args.out)
    for s in stats:
        print(f"zone_T {s.zone_T:g} mean_return_period {s.mean:.6f}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import FixtureShape, FixtureSpec, write_fixture

    levels = tuple(args.level) or FixtureSpec.wse_levels
    spec = FixtureSpec(
        shape=FixtureShape(args.shape),
        ncols=args.ncols,
        nrows=args.nrows,
        slope=args.slope,
        wse_levels=levels,
        seed=args.seed,
    )
    manifest = write_fixture(spec, args.out)
    print(f"wrote {len(manifest['layers']) + 1} rasters to {args.out}")
    return EXIT_OK


def _interrupt(signum, frame):
    """SIGTERM's handler in ``main``: raise as Ctrl-C does, with the
    signal's number, which ``main`` turns into exit 128 + signum."""
    raise KeyboardInterrupt(signum)


def main(argv: list[str] | None = None) -> int:
    # glibc raises its mmap threshold to each mmapped chunk it frees, so a
    # run's speed would hang on which large temporaries it frees. Pin it
    # (32 MiB, glibc's 64-bit maximum) and the trim threshold together:
    # setting either turns off glibc's adjustment of both (mallopt(3)).
    libc = ctypes.CDLL(None) if os.name == "posix" else None  # no CDLL(None) on Windows
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        if mallopt(-3, 32 << 20) == 1:  # M_MMAP_THRESHOLD
            mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_USAGE if exc.code else EXIT_OK

    logging.basicConfig(
        level=getattr(logging, args.log_level.upper()),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
        force=True,
    )
    # SIGTERM takes Ctrl-C's path, so that every ``finally`` runs
    caller = signal.signal(signal.SIGTERM, _interrupt)
    try:
        return args.run(args)
    except FlopitError as exc:
        print(f"flopit: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"flopit: error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"flopit: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except KeyboardInterrupt as exc:
        print("flopit: interrupted", file=sys.stderr)
        return 128 + exc.args[0] if exc.args else EXIT_INTERRUPTED
    finally:
        signal.signal(signal.SIGTERM, caller)


def run() -> int:
    """The ``flopit`` script and ``python -m flopit.cli``: run ``main``
    on this process's arguments, flush stdout and stderr, shut logging
    down, and end through ``os._exit``, which skips the interpreter's
    teardown of every module and object. In dev mode (``-X dev`` or
    PYTHONDEVMODE), or if a flush fails, return ``main``'s exit code
    instead, so that the interpreter's own exit reports a leak, or the
    failed flush, as it would without this wrapper."""
    code = main()
    if sys.flags.dev_mode:
        return code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a closed pipe, a full disk, a stream that is None
        return code
    logging.shutdown()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
