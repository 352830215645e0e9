"""Exception hierarchy for data and validation failures.

:class:`FlopitError`, a ``ValueError``, and its subclasses indicate a problem
with the input data or its combination (exit code 2 on the command line);
``GridHeader``, ``Raster``, ``write_ascii_grid``, the parameter objects
``IdwParams`` and ``FixtureSpec``, and ``interpolate_map`` given
``workers < 0`` (through ``pool_size``) raise it too. Plain ``OSError`` is
left alone and signals an I/O failure (exit code 3).
"""


class FlopitError(ValueError):
    """Base class for data/validation errors raised by this package."""


class GridParseError(FlopitError):
    """An ASCII grid file is malformed (bad header key, bad token, NaN/Inf,
    more cells than the platform can address)."""


class GridDimensionError(GridParseError):
    """The grid body does not contain exactly ncols * nrows values."""


class AlignmentError(FlopitError):
    """Two rasters do not share the same grid geometry."""


class StackError(FlopitError):
    """A hazard layer stack fails validation (cardinality, duplicates...)."""


class CurveDomainError(FlopitError):
    """Curve input probabilities are outside the open interval (0, 1)."""
