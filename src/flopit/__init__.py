"""flopit: continuous flood-probability rasters from a DEM plus
return-period flood surfaces, and statistics of how far discrete flood
zones understate them.

Each public name is imported from its module on first use (PEP 562), so
a command that needs only some modules loads only those.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each public name
_MODULE_NAMES = {
    "curves": (
        "Clamped", "ClampedResult", "HazardCurve", "InterpolationMethod", "eval_curve",
        "fc_slopes", "fritsch_carlson_derivatives", "make_curve",
        "monotone_cubic_interpolate",
    ),
    "errors": (
        "AlignmentError", "CurveDomainError", "FlopitError", "GridDimensionError",
        "GridParseError", "StackError",
    ),
    "hazard": ("HazardStack", "LayerKind", "ReturnPeriodLayer", "build_wse", "validate_stack"),
    "idw": ("IdwMode", "IdwParams", "fill_stack", "idw_fill", "idw_smooth"),
    "probability": (
        "CLAMP_HIGH", "CLAMP_INTERIOR", "CLAMP_LOW", "ProbabilityMap", "ZoneRaster",
        "derive_zones", "interpolate_map",
    ),
    "raster": (
        "DEFAULT_NODATA", "GridHeader", "Raster", "grids_aligned", "read_ascii_grid",
        "write_ascii_grid",
    ),
    "synth": (
        "FixtureShape", "FixtureSpec", "generate_fixture", "oracle_probability",
        "write_fixture",
    ),
    "zonestats": ("ZoneStats", "compare_zones", "write_stats_csv"),
}
_MODULE_OF = {name: module for module, names in _MODULE_NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
