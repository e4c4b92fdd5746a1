"""Exception types shared across the package."""


class GbmfolioError(Exception):
    """Base class for package errors."""


class DataError(GbmfolioError):
    """Bad or insufficient input data (files, windows, alignment)."""


class SettingsError(DataError):
    """Run settings that are invalid, alone or against the data they select."""


class NumericError(GbmfolioError):
    """A quantity is mathematically undefined for the given inputs."""
