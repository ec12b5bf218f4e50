"""Exception types shared across the package, and the option rules that raise them.

The rules for the trial count, the extensivity rate and the growth-law horizon
live here, beside the errors, so that ``gek.cli`` can refuse a bad option
before it loads any module that needs numpy.
"""

import math
import operator


class GekError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GekError, ValueError):
    """A family parameter violates its admissibility constraints."""


class DomainError(GekError, ValueError):
    """An argument lies outside the domain of the requested function."""


class RangeError(GekError, ValueError):
    """A target value lies outside the range of the function being inverted."""


class ConvergenceError(GekError, RuntimeError):
    """A numerical inversion failed to bracket or converge."""


class NormalizationError(GekError, ValueError):
    """A series does not carry the normalization required by the operation."""


class CompositionDomainError(GekError, ValueError):
    """The inner series of a composition has a nonzero constant term."""


class InputError(GekError, ValueError):
    """Malformed user-facing input (files, matrices, distributions, CLI values)."""


# the largest growth-law horizon: the sampled N grid must fit in int64
MAX_HORIZON = 1e18


def _integral(n) -> bool:
    try:
        operator.index(n)
    except TypeError:
        return False
    return True


def check_trials(trials) -> None:
    """A sampled check runs a whole number of trials, at least one: a report of no trial would pass."""
    if not (_integral(trials) and trials >= 1):
        raise InputError(f"a sampled check needs at least one trial, as an integer, got {trials}")


def check_rate(lam: float) -> None:
    """The extensivity rate of a growth law, S ~ lam * N, is positive and finite."""
    if not 0 < lam < math.inf:  # fails closed: a nan rate is rejected too
        raise ParameterError(f"the extensivity constant must be positive and finite, got {lam}")


def check_horizon(horizon: float) -> None:
    """The horizon a growth law is sampled up to lies in [1, MAX_HORIZON]."""
    if not 1 <= horizon <= MAX_HORIZON:
        raise InputError(f"the horizon must lie in [1, {MAX_HORIZON:g}]")
