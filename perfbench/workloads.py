"""Workload definitions, fixture generation and output checks.

Every workload is a synthetic ramp built through the public
``flopit.synth``/``flopit.raster`` API, so the correct probability of each
cell is known in closed form (``flopit.synth.oracle_probability``). The
benchmark generates and writes the inputs, the program under test only
ever sees the files.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flopit.curves import InterpolationMethod
from flopit.hazard import LayerKind, ReturnPeriodLayer, validate_stack
from flopit.idw import IdwMode, IdwParams, fill_stack
from flopit.raster import Raster, locked, read_ascii_grid, write_ascii_grid
from flopit.synth import FixtureShape, FixtureSpec, generate_fixture, oracle_probability

FULL_SIZE = 1000
SMOKE_SIZE = 60
# the DEM spans 0 .. 10 elevation units at every grid size
RELIEF = 10.0
DECIMALS = 6

_FOUR_LEVELS = ((10.0, 5.0), (50.0, 6.2), (100.0, 7.0), (500.0, 8.0))
_EIGHT_PERIODS = (2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0)
# evenly spaced over 0.5 .. 9.8, rounded to the written precision so the
# surfaces the program reads are exactly the oracle's levels
_EIGHT_LEVELS = tuple(
    (t, round(0.5 + k * (9.8 - 0.5) / 7, DECIMALS)) for k, t in enumerate(_EIGHT_PERIODS)
)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: FixtureShape
    levels: tuple[tuple[float, float], ...]
    kind: LayerKind
    masked: bool
    method: InterpolationMethod
    idw_mode: IdwMode
    workers: int

    def spec(self, size: int, seed: int) -> FixtureSpec:
        return FixtureSpec(
            shape=self.shape,
            ncols=size,
            nrows=size,
            slope=RELIEF / size,
            wse_levels=self.levels,
            seed=seed,  # only the noisy ramp uses it
        )

    @property
    def idw(self) -> IdwParams:
        return IdwParams(radius_cells=10, mode=self.idw_mode)

    def cli_args(self) -> list[str]:
        return [
            "--method", self.method.value,
            "--idw-mode", self.idw_mode.value,
            "--idw-radius", str(self.idw.radius_cells),
            "--workers", str(self.workers),
            "--decimals", str(DECIMALS),
        ]


# README.md gives the reason for each workload; BENCHMARK.json lists the
# ones a full evaluation runs
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ramp-fill",
            shape=FixtureShape.RAMP,
            levels=_FOUR_LEVELS,
            kind=LayerKind.WSE,
            masked=True,
            method=InterpolationMethod.MONOTONE_CUBIC,
            idw_mode=IdwMode.FILL_ONLY,
            workers=1,
        ),
        Workload(
            name="noisy-depth-smooth",
            shape=FixtureShape.NOISY_RAMP,
            levels=_FOUR_LEVELS,
            kind=LayerKind.DEPTH,
            masked=True,
            method=InterpolationMethod.LOG_LINEAR,
            idw_mode=IdwMode.SMOOTH_ALL,
            workers=1,
        ),
        Workload(
            name="wse8-interior",
            shape=FixtureShape.RAMP,
            levels=_EIGHT_LEVELS,
            kind=LayerKind.WSE,
            masked=False,
            method=InterpolationMethod.MONOTONE_CUBIC,
            idw_mode=IdwMode.FILL_ONLY,
            workers=2,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated input grids."""

    dem: Path
    layers: tuple[tuple[float, LayerKind, Path], ...]

    @property
    def paths(self) -> list[Path]:
        return [self.dem] + [p for _, _, p in self.layers]

    def layer_args(self) -> list[str]:
        out = []
        for t, kind, path in self.layers:
            out += ["--layer", f"{t:g}:{kind.value}:{path}"]
        return out


def input_paths(wl: Workload, spec: FixtureSpec, indir: Path) -> Inputs:
    """Where :func:`write_inputs` puts the workload's grids."""
    return Inputs(
        dem=indir / "dem.asc",
        layers=tuple(
            (t, wl.kind, indir / f"{wl.kind.value}_T{t:g}.asc") for t, _ in spec.wse_levels
        ),
    )


def write_inputs(wl: Workload, spec: FixtureSpec, indir: Path) -> Inputs:
    """Generate the workload's rasters and write them as ASCII grids."""
    inputs = input_paths(wl, spec, indir)
    dem, wse_layers = generate_fixture(spec)
    hdr = dem.header
    write_ascii_grid(dem, inputs.dem, DECIMALS)
    for (t, level), lyr, (_, _, path) in zip(spec.wse_levels, wse_layers, inputs.layers):
        if not wl.masked:
            grid = Raster(hdr, locked(np.full(hdr.shape, level)))
        elif wl.kind is LayerKind.DEPTH:
            wet = lyr.grid.data_mask
            depth = np.where(wet, lyr.grid.values - dem.values, hdr.nodata_value)
            grid = Raster(hdr, locked(depth))
        else:
            grid = lyr.grid
        write_ascii_grid(grid, path, DECIMALS)
    return inputs


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def output_paths(prefix: Path) -> dict[str, Path]:
    """The four grids ``flopit interpolate --out prefix`` writes, plus the
    CSV the benchmark asks ``flopit compare`` for."""
    return {
        "prob": Path(f"{prefix}_prob.asc"),
        "rp": Path(f"{prefix}_rp.asc"),
        "clamp": Path(f"{prefix}_clamp.asc"),
        "zones": Path(f"{prefix}_zones.asc"),
        "csv": Path(f"{prefix}_stats.csv"),
    }


def parse_summary(stdout: str) -> dict[str, int]:
    """``key value`` lines of the interpolate summary on stdout."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                out[parts[0]] = int(parts[1])
            except ValueError:
                pass
    return out


def _counts(summary: dict[str, int]) -> dict[str, int]:
    """The summary without its timing line."""
    return {k: v for k, v in summary.items() if k != "cells_per_second"}


def full_stack_mask(wl: Workload, inputs: Inputs) -> np.ndarray:
    """Cells whose IDW-filled stack holds every layer, from the input files.

    Smoothing changes values, never which cells hold data, so the cheaper
    fill-only pass gives the same mask.
    """
    dem = read_ascii_grid(inputs.dem)
    layers = [
        ReturnPeriodLayer(t, kind, read_ascii_grid(path)) for t, kind, path in inputs.layers
    ]
    params = dataclasses.replace(wl.idw, mode=IdwMode.FILL_ONLY)
    filled = fill_stack(validate_stack(dem, layers), params)
    mask = dem.data_mask.copy()
    for lyr in filled.layers:
        mask &= lyr.grid.data_mask
    return mask


class Checker:
    """Checks one run's outputs; the first run is checked cell by cell and
    every later run must reproduce its bytes."""

    def __init__(self, wl: Workload, spec: FixtureSpec, inputs: Inputs):
        self.wl = wl
        self.spec = spec
        self.inputs = inputs
        self.reference: dict[str, str] | None = None
        self.reference_counts: dict[str, int] | None = None
        self.oracle_max_err: float | None = None

    def check(self, prefix: Path, summary: dict[str, int]) -> list[str]:
        """Problems found in the outputs under ``prefix`` (empty if none)."""
        paths = output_paths(prefix)
        missing = [str(p) for p in paths.values() if not p.is_file()]
        if missing:
            return [f"missing output {m}" for m in missing]
        digests = {name: sha256(p) for name, p in paths.items()}
        if self.reference is None:
            problems = self._check_cells(paths, summary)
            if not problems:
                self.reference = digests
                self.reference_counts = _counts(summary)
            return problems
        problems = [
            f"{name} differs from the first run"
            for name in digests
            if digests[name] != self.reference[name]
        ]
        if _counts(summary) != self.reference_counts:
            problems.append("stdout cell counts differ from the first run")
        return problems

    def _check_cells(self, paths: dict[str, Path], summary: dict[str, int]) -> list[str]:
        problems = []
        prob = read_ascii_grid(paths["prob"])
        flags = read_ascii_grid(paths["clamp"])
        zones = read_ascii_grid(paths["zones"])
        dem = read_ascii_grid(self.inputs.dem)

        valid = prob.data_mask
        p = prob.values
        n_total = valid.size
        f = flags.values[flags.data_mask]
        expected = {
            "cells_total": n_total,
            "cells_with_probability": int(valid.sum()),
            "cells_interpolated": int(np.count_nonzero(f == 0)),
            "cells_clamped_high": int(np.count_nonzero(f == 1)),
            "cells_clamped_low": int(np.count_nonzero(f == 2)),
            "cells_nodata": int(n_total - valid.sum()),
        }
        for key, want in expected.items():
            if summary.get(key) != want:
                problems.append(f"stdout {key} {summary.get(key)} != {want} in the grids")

        probs = [1.0 / t for t, _ in self.spec.wse_levels]
        slack = 1e-12
        pv = p[valid]
        if pv.size and (pv.min() < min(probs) - slack or pv.max() > max(probs) + slack):
            problems.append(
                f"p outside [{min(probs)}, {max(probs)}]: {pv.min()} .. {pv.max()}"
            )
        zoned = valid & zones.data_mask
        below = p[zoned] < 1.0 / zones.values[zoned] - slack
        if below.any():
            problems.append(f"{int(below.sum())} cells have p < 1/zone_T")

        cells = valid & full_stack_mask(self.wl, self.inputs)
        if not cells.any():
            problems.append("no cell holds every layer; the oracle check is empty")
            return problems
        z_unique, inverse = np.unique(dem.values[cells], return_inverse=True)
        oracle = np.array(
            [oracle_probability(self.spec, self.wl.method, float(z)) for z in z_unique]
        )[inverse]
        # half a unit in the last written digit is the output rounding. The
        # surfaces the program reads are the oracle's levels to within float
        # addition error (a depth grid is written as level - DEM at the
        # DEM's precision), which the 1e-9 covers.
        tol = 0.5 * 10.0 ** -DECIMALS + 1e-9
        err = np.abs(p[cells] - oracle)
        self.oracle_max_err = float(err.max())
        if err.max() > tol:
            problems.append(
                f"{int((err > tol).sum())} cells differ from the oracle by more "
                f"than {tol:g} (max {err.max():.3g})"
            )
        return problems
