"""Exception types shared across the toolkit.

Plain ``ValueError`` is used for ordinary bad arguments (negative thresholds,
mismatched lengths, out-of-bounds rectangles).  The classes below mark the
error categories the CLI maps to distinct exit codes; only the CLI raises UsageError.
"""


class WavemarkError(Exception):
    """Base class for toolkit-specific errors."""


class UsageError(WavemarkError):
    """Bad command-line input: a flag outside its rule, a missing argument."""


class FormatError(WavemarkError):
    """A file (image or key) could not be parsed, or violates its format."""


class DimensionError(WavemarkError):
    """Grid dimensions do not meet a divisibility or consistency requirement."""


class CapacityError(WavemarkError):
    """The watermark does not fit into the target subband."""
