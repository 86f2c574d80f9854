"""Exception taxonomy shared by all modules.

Every exception derives from :class:`InvlabError` so callers can catch the
library as a whole; the concrete classes separate bad parameter values,
inconsistent array shapes, out-of-domain arguments, model-level misuse and
numerical failures.
"""


class InvlabError(Exception):
    """Base class for all library errors."""


class ParameterError(InvlabError, ValueError):
    """A scalar parameter lies outside its admissible range."""


class ShapeError(InvlabError, ValueError):
    """Array lengths or matrix shapes are inconsistent or empty."""


class DomainError(InvlabError, ValueError):
    """A point argument lies outside the domain it must belong to."""


class ModelError(InvlabError, ValueError):
    """The model violates a structural requirement of the requested method."""


class NumericalError(InvlabError, RuntimeError):
    """A numerical routine failed (singular system, no convergence)."""


class ConvergenceError(NumericalError):
    """Iterative solver did not reach its tolerance.

    No library routine raises it; it stays for ``studybench/tracer.py``,
    which imports it.

    Carries the iteration trace so the failure can be diagnosed: a list of
    ``(iteration, objective, optimality_measure)`` snapshots.
    """

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = list(trace)


class ValidationError(InvlabError, ValueError):
    """A study configuration is invalid; lists the offending fields."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)
