"""Per-zone distribution statistics of interpolated return periods.

Flood zones communicate a single binned probability; the interpolated map
gives every cell its own. Grouping interpolated return periods by zone
quantifies how far the zone label understates the hazard. The mean is
reported both as a return period and as a probability, because the mean of
T and 1/mean(p) are different numbers and both get quoted in practice.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import AlignmentError, FlopitError
from .raster import Raster, grids_aligned

if TYPE_CHECKING:
    from .probability import ProbabilityMap, ZoneRaster

CSV_HEADER = ["zone_T", "n_cells", "min", "q1", "median", "q3", "max", "mean_T", "mean_p"]


@dataclass(frozen=True)
class ZoneStats:
    """Distribution of interpolated return periods within one zone.

    Quartiles use linear interpolation of the sorted sample (the inclusive
    convention), so written statistics are stable across runs.
    """

    zone_T: float
    n_cells: int
    min: float
    q1: float
    median: float
    q3: float
    max: float
    mean: float
    mean_probability: float


def compare_zones(
    probability: Raster | ProbabilityMap, zones: Raster | ZoneRaster
) -> list[ZoneStats]:
    """Summarise interpolated return periods per flood zone.

    Cells contribute when both the zone raster and the probability raster
    hold data there; zones with no contributing cells are omitted. Results
    are ordered by ascending zone return period. Raises FlopitError naming
    the first probability data cell outside (0, 1) or zone data cell not
    above 1 year.
    """
    # a ProbabilityMap or ZoneRaster exists only once its module is loaded,
    # so comparing two rasters need not load it
    module = sys.modules.get(f"{__package__}.probability")
    if module is not None:
        if isinstance(probability, module.ProbabilityMap):
            probability = probability.probability
        if isinstance(zones, module.ZoneRaster):
            zones = zones.zones
    if not grids_aligned(probability.header, zones.header):
        raise AlignmentError("probability and zone rasters are not aligned")
    p_all, t_all = probability.values, zones.values
    p_data, t_data = probability.data_mask, zones.data_mask
    for name, values, data, ok, rule in (
        ("probability raster", p_all, p_data, (p_all > 0) & (p_all < 1), "outside (0, 1)"),
        ("zone raster", t_all, t_data, t_all > 1, "not above 1 year"),
    ):
        wrong = data & ~ok
        if wrong.any():
            r, c = np.argwhere(wrong)[0]
            raise FlopitError(
                f"{name}: value {values[r, c]:g} at cell ({r}, {c}) is {rule}"
            )

    both = p_data & t_data
    p = probability.values[both]
    zone_of = zones.values[both]
    stats = []
    for zone_t in np.unique(zone_of):
        p_zone = p[zone_of == zone_t]
        t_zone = 1.0 / p_zone
        q1, med, q3 = np.percentile(t_zone, [25, 50, 75], method="linear")
        stats.append(
            ZoneStats(
                zone_T=float(zone_t),
                n_cells=int(p_zone.size),
                min=float(t_zone.min()),
                q1=float(q1),
                median=float(med),
                q3=float(q3),
                max=float(t_zone.max()),
                mean=float(t_zone.mean()),
                mean_probability=float(p_zone.mean()),
            )
        )
    return stats


def write_stats_csv(stats: list[ZoneStats], path: str | Path) -> None:
    """Write zone statistics as CSV, 6 fixed decimals, ascending zone_T."""
    rows = sorted(stats, key=lambda s: s.zone_T)
    with open(path, "w", encoding="ascii", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for s in rows:
            writer.writerow(
                [f"{s.zone_T:.6f}", str(s.n_cells)]
                + [
                    f"{v:.6f}"
                    for v in (s.min, s.q1, s.median, s.q3, s.max, s.mean, s.mean_probability)
                ]
            )
