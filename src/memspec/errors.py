"""Exception hierarchy shared by all memspec modules."""

import sys

import numpy as np


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


def listing(values) -> str:
    """The offending ``values`` of a message on one line: all of them when
    at most three, else the first three and the count."""
    values = np.ravel(values)
    head = np.array2string(values[:3], max_line_width=sys.maxsize)
    if values.size <= 3:
        return head
    return f"{head[:-1]} ...] ({values.size} in all)"
