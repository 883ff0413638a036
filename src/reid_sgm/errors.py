"""Exception types shared across the toolkit.

The command-line front end maps these onto exit codes: usage problems
exit 1, data/file problems exit 2, numeric failures exit 3.
"""


class ReidSgmError(Exception):
    """Base class for all toolkit errors."""


class UnsupportedFormat(ReidSgmError):
    """File is not one of the formats this reader accepts."""


class CorruptFile(ReidSgmError):
    """File header or payload is malformed or truncated."""


class DimensionOverflow(ReidSgmError):
    """Raster dimensions exceed the supported pixel count."""


class DimensionMismatch(ReidSgmError):
    """Two paired structures disagree in shape."""


class EmptyPixels(ReidSgmError):
    """A pixel selection came up empty and no fallback was allowed."""


class StackTooSmall(ReidSgmError):
    """Map stack is smaller than one pooling window."""


class EmptyStripe(ReidSgmError):
    """A stripe covers no cells of the (pooled) map stack."""


class TooFewPairs(ReidSgmError):
    """Not enough training pairs to estimate the coupled statistics."""


class NotPositiveDefinite(ReidSgmError):
    """A matrix required to be positive-definite is not."""


class RankTooLarge(ReidSgmError):
    """Requested subspace rank exceeds the feature dimension."""


class TooFewIdentities(ReidSgmError):
    """Dataset does not contain enough identities for the requested split."""


class ProtocolViolation(ReidSgmError):
    """Evaluation inputs break the single-/multi-shot protocol."""


class ArtifactMismatch(ReidSgmError):
    """Stored artifacts disagree (dimensions, feature kinds, headers)."""


class IoFailure(ReidSgmError):
    """Filesystem operation failed while writing a corpus or artifact."""
