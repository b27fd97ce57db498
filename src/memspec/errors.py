"""Exception hierarchy shared by all memspec modules."""


class MemspecError(Exception):
    """Base class for all library errors."""


class HypothesisError(MemspecError):
    """A standing assumption of the underlying theory is violated."""


class RootFindingError(MemspecError):
    """Root finder failed to meet its residual guarantee.

    ``best`` carries the best iterates available when the failure occurred.
    """

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)


class ConfigError(MemspecError):
    """Malformed configuration input; maps to CLI exit code 2."""
