"""Error taxonomy shared across the package.

Each class carries the process exit code the CLI maps it to: 2 for bad input,
3 for horizon or budget exhaustion, 4 for an internal defect (something a
correct construction should never produce).
"""

from __future__ import annotations


class CubeError(Exception):
    exit_code = 4


class ParseError(CubeError):
    """Text that cannot be read or written: malformed input (rational strings,
    point specs, plans), or a rational with more digits than Python converts."""
    exit_code = 2


class OutOfRange(CubeError):
    """A coordinate or scalar lies outside [-1, 1]."""
    exit_code = 2


class BadIndices(CubeError):
    """Coordinate indices violate m > n >= 1."""
    exit_code = 2


class EmptySampleSet(CubeError):
    exit_code = 2


class DegeneratePair(CubeError):
    """A sampled pair has zero distance, so no ratio exists."""
    exit_code = 2


class AnchorOnBoundary(CubeError):
    """Interior-map anchors must be pseudo-interior points."""
    exit_code = 2


class Unclassifiable(CubeError):
    """No region clause matched; cannot happen for in-square inputs."""
    exit_code = 4


class RangeViolation(CubeError):
    """A map value left the square; expected only for Verbatim pieces."""
    exit_code = 4

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class NoPreimage(CubeError):
    exit_code = 4


class MultiplePreimages(CubeError):
    exit_code = 4


class HorizonExceeded(CubeError):
    """More stages were required than the schedule or horizon allows."""
    exit_code = 3
