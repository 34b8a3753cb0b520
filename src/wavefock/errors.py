"""Error types shared across the package.

Each carries a short machine-readable `code` so the CLI can report failures
uniformly and map them onto exit codes.
"""


class WavefockError(Exception):
    code = "ERROR"


class DualLengthMismatchError(WavefockError):
    code = "DUAL_LENGTH_MISMATCH"


class NotReconstructiveError(WavefockError):
    code = "NOT_RECONSTRUCTIVE"


class SingularLoopError(WavefockError):
    code = "SINGULAR_LOOP"


class BadNormalizationError(WavefockError):
    code = "BAD_NORMALIZATION"


class EmptyAnchorError(WavefockError):
    code = "EMPTY_ANCHOR"


class DepthExceededError(WavefockError):
    code = "DEPTH_EXCEEDED"


class NotPsdError(WavefockError):
    code = "NOT_PSD"


class SizeCapError(WavefockError):
    code = "SIZE_CAP"

