"""Exception types shared across the package.

Every error carries a stable ``code`` string so the command line tool can
report machine-readable failures on stderr.
"""

from __future__ import annotations


class RegenError(Exception):
    """Base class for every error raised by this package."""

    code = "Error"


class UsageError(RegenError, ValueError):
    """A value is malformed or of the wrong type: not a rational literal, not a prime order."""

    code = "Usage"


class InvalidDegreeError(RegenError, ValueError):
    """Helper counts are inconsistent with the system size or with k."""

    code = "InvalidDegree"


class InvalidCostOrderError(RegenError, ValueError):
    """Cheap-tier cost exceeds expensive-tier cost."""

    code = "InvalidCostOrder"


class InvalidRatioError(RegenError, ValueError):
    """Download ratio kprime must be at least 1."""

    code = "InvalidRatio"


class NonPositiveError(RegenError, ValueError):
    """A quantity that must be positive (or nonnegative) is not."""

    code = "NonPositive"


class DegenerateConfigurationError(RegenError, ValueError):
    """The requested quantity has a vanishing denominator for these parameters."""

    code = "DegenerateConfiguration"


class InsufficientRepairBandwidthError(RegenError, ValueError):
    """No storage size can satisfy the reconstruction bound at this download level."""

    code = "InsufficientRepairBandwidth"


class NotApplicableError(RegenError, ValueError):
    """The requested quantity is not defined for this scenario."""

    code = "NotApplicable"


class InsufficientHelpersError(RegenError, ValueError):
    """A repair was asked to use helper sets that violate the tier counts."""

    code = "InsufficientHelpers"


class NonIntegerDownloadError(RegenError, ValueError):
    """Simulated downloads move whole symbols; a symbol count is not an integer."""

    code = "NonIntegerDownload"


class InvalidChoiceError(RegenError, ValueError):
    """A string option names none of the values it may take."""

    code = "InvalidChoice"


class UnknownNodeError(RegenError, KeyError):
    """A node id does not exist in the current state."""

    code = "UnknownNode"


class IndexOutOfRangeError(RegenError, IndexError):
    """A breakpoint or branch index lies outside its valid range."""

    code = "IndexOutOfRange"


class InvalidConstructionError(RegenError, ValueError):
    """A flow graph or repair history could not be built from these inputs."""

    code = "InvalidConstruction"
