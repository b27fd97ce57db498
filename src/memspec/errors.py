"""Exception hierarchy shared by all memspec modules."""


class MemspecError(Exception):
    """Base class for all library errors."""


class PoleProximityError(MemspecError):
    """Evaluation point is within the guard distance of a kernel pole."""

    def __init__(self, lam, pole_index, pole):
        self.lam = lam
        self.pole_index = pole_index
        self.pole = pole
        super().__init__(
            f"point {lam} is within the pole guard of pole {pole} "
            f"(term index {pole_index})"
        )


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
