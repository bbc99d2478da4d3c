"""Exception hierarchy shared across the package.

Every error carries the process exit code the command-line front end maps it
to, so library failures and CLI failures stay in sync.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TvacovError",
    "ConfigurationError",
    "InvalidLagError",
    "ParseError",
    "NumericError",
    "SingularDesignError",
    "DegenerateVarianceError",
    "GridAlignmentError",
    "TuningError",
]


class TvacovError(Exception):
    """Base class for package errors."""

    exit_code = 1


class ConfigurationError(TvacovError):
    """A parameter or parameter combination is invalid."""

    exit_code = 2


def _check_values(values, ok, rule: str) -> None:
    """Raise naming ``rule`` and each distinct value outside ``ok``."""
    bad = [v for v in np.atleast_1d(values) if v is not None and not ok(v)]
    if bad:
        raise ConfigurationError(f"{rule}, got {np.unique(bad).tolist()}")


class InvalidLagError(ConfigurationError):
    """A difference lag is out of range for the series length."""


class ParseError(TvacovError):
    """An input file is malformed."""

    exit_code = 3


class NumericError(TvacovError):
    """A numerical failure occurred during estimation."""

    exit_code = 4


class SingularDesignError(NumericError):
    """The local-linear design is numerically singular at some point."""


class DegenerateVarianceError(NumericError):
    """A variance curve is not strictly positive on the band domain."""


class GridAlignmentError(NumericError):
    """Curves defined on different grids were combined."""


class TuningError(TvacovError):
    """Every tuning candidate failed."""

    exit_code = 5
