"""Exception types shared across the library."""


class MixdiffError(Exception):
    """Base class for all library-specific errors."""


class TimeRangeError(MixdiffError, ValueError):
    """Time argument outside the valid clamp interval [eps, 1 - eps]."""


class OrderingError(MixdiffError, ValueError):
    """Transition endpoints violate s <= t."""


class UnsupportedStateError(MixdiffError, ValueError):
    """Queried token lies outside the forward support of the clean token."""


class DegenerateEvidenceError(MixdiffError, ValueError):
    """Noisy sequence has zero likelihood under every outcome of the toy distribution."""


class EmptySupportError(MixdiffError, ValueError):
    """All probability mass was removed by a sampling adapter."""


class MaskedInputError(MixdiffError, ValueError):
    """Sequence contains mask tokens where a fully denoised sequence is required."""


class CorpusFormatError(MixdiffError, ValueError):
    """Malformed corpus or distribution file."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
