"""Exception hierarchy shared across the package."""


class NarxError(Exception):
    """Base class for all package errors."""


class DataFormatError(NarxError):
    """Input file is malformed (missing column, bad cell, empty file)."""


class ValidationError(NarxError):
    """Input data violates a domain invariant (e.g. high < low)."""


class InsufficientDataError(NarxError):
    """Not enough rows/samples for the requested operation."""


class ShapeError(NarxError):
    """Array dimensions do not match the network configuration."""


class DivergedError(NarxError):
    """Training diverged: ``train`` met a non-finite objective, every restart
    of ``train_with_restarts`` diverged, or every point of ``select_best``'s
    sweep diverged."""


class ConfigMismatchError(NarxError):
    """A saved model is incompatible with the supplied data."""


class UndefinedStatisticError(NarxError):
    """A statistic is undefined for the given inputs (zero variance etc.)."""
