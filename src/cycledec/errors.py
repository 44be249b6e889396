"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CycleDecError(Exception):
    """Base class for all package-specific failures."""


class NoSolution(CycleDecError):
    """Linear system is inconsistent."""


class Infeasible(CycleDecError):
    """The target point lies outside the convex hull (or the LP is empty)."""


class NotBalanced(CycleDecError):
    """Measure has nonzero mean, or graph flux differs at some vertex."""

    def __init__(self, message: str, violators=None):
        super().__init__(message)
        self.violators = list(violators) if violators is not None else []


class NotGeneralPosition(CycleDecError):
    """Difference vectors of the supplied points are linearly dependent."""


class ZeroNotInterior(CycleDecError):
    """The origin is not in the relative interior of the points' hull."""


class TooLarge(CycleDecError):
    """Instance exceeds a documented exhaustive-search or LP size budget."""


class OracleExhausted(CycleDecError):
    """A one-sided mass scan found nothing within the search limit."""


class NotBistochastic(CycleDecError):
    """Row or column sums of the weight matrix differ from one."""


class NoPerfectMatching(CycleDecError):
    """Matching step failed on a bistochastic matrix; signals an internal bug."""


class NotHomologous(CycleDecError):
    """Field is not the boundary of any two-chain."""


class NotInRe(CycleDecError):
    """Weights admit no decomposition into elementary cycles."""


class NegativeEdgeWeight(CycleDecError):
    """Construction produced a negative weight; signals an infeasible constant."""


class InputFormatError(CycleDecError):
    """Malformed input file."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no
