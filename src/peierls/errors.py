"""Exception types, and the integer, real-number, concentration and worker-count checks, shared across the package."""

import numbers


class PeierlsError(Exception):
    """Base class for all package-specific errors."""


class EmptyClusterError(PeierlsError):
    """An operation that needs a nonempty cluster received an empty one."""


class CapExceeded(PeierlsError):
    """An enumeration would exceed its configured safety limit."""


class IncompletenessError(PeierlsError):
    """A cluster-size cap cannot guarantee that all requested contours were seen."""


class NoRayIntersection(PeierlsError):
    """A contour does not meet the positive horizontal ray, so it encloses no origin."""


class ContourError(PeierlsError):
    """A site set violates the structural guarantees expected of an outer contour."""


class DivergentSeries(PeierlsError):
    """The geometric contour series does not converge at the requested concentration."""


class InsufficientData(PeierlsError):
    """Not enough enumerated lengths to form the requested estimate."""


class BuildError(PeierlsError):
    """A compiled kernel could not be built: no C compiler, a failed compile, or an unwritable cache."""


class WorkerDied(PeierlsError):
    """A forked worker process ended before it returned its task, killed (say, for want of memory) or exiting."""


#: Most processes one call may fork.  The pool forks its workers at once,
#: so an unchecked count could exhaust the process table.
MAX_WORKERS = 256


def check_workers(workers: int, name: str = "workers") -> int:
    """Return ``workers`` if it is an integer in 1..``MAX_WORKERS``, else raise naming ``name``.

    A value that is no integer raises :class:`TypeError` (see :func:`check_integer`),
    one out of range :class:`ValueError`.
    """
    check_integer(workers, name)
    if workers < 1:
        raise ValueError(f"{name} must be >= 1, got {workers}")
    if workers > MAX_WORKERS:
        raise ValueError(f"{name} must be <= {MAX_WORKERS}, got {workers}")
    return workers


def check_integer(value, name: str) -> None:
    """Raise :class:`TypeError` naming ``name`` unless ``value`` is an integer: a :class:`numbers.Integral`, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def check_real(value, name: str) -> None:
    """Raise :class:`TypeError` naming ``name`` unless ``value`` is a real number: a :class:`numbers.Real`, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def check_concentration(value, name: str) -> None:
    """Raise unless ``value`` is a concentration: a real number in [0, 1].

    A value that is no real number raises :class:`TypeError` naming ``name``
    (see :func:`check_real`); ``nan`` and a value out of [0, 1] raise
    :class:`ValueError`.
    """
    check_real(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"concentration must lie in [0, 1], got {value}")
