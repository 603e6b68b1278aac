"""Exception types shared across the engine, and the type check its input
parsers share.

Every failure mode is loud and typed; nothing is ever approximated or
silently coerced.
"""

import json

_KINDS = {int: "an integer", bool: "a boolean", list: "a list"}


class ClusterMutError(Exception):
    """Base class for all engine errors."""


class ContextMismatch(ClusterMutError):
    """Operands live over different ambient variable tuples or semifield ranks."""


class NotDivisible(ClusterMutError):
    """Exact Laurent division left a nonzero remainder.

    In a legal mutation run this can only mean a bug or a genuine failure
    of the Laurent property, so callers must not swallow it except to turn
    it into an explicit refutation witness.
    """


class DivisionByZero(ClusterMutError):
    """Zero divisor, or zero substituted into a negative exponent."""


class NotSkewSymmetrizable(ClusterMutError):
    """No positive diagonal D makes DB skew-symmetric."""


class BadDirection(ClusterMutError):
    """Mutation direction outside [1, n]."""


class DegenerateSeed(ClusterMutError):
    """Cluster entries are not pairwise distinct; treated as data corruption."""


class BudgetExceeded(ClusterMutError):
    """Enumeration ran past its vertex or term budget.

    Carries the partial graph built so far in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NondegenerateRequired(ClusterMutError):
    """Operation needs det(B) != 0."""


class ZeroRowUnsupported(ClusterMutError):
    """The compatible-2-form solver rejects extended matrices with zero rows."""


class NotCompatible(ClusterMutError):
    """Form coefficient matrix is not compatible with the given seed matrix."""


class ParseError(ClusterMutError):
    """Malformed polynomial, matrix, or CLI input."""


def require(kind: type, values, where: str) -> None:
    """Raise ParseError naming, as JSON writes it, the first of values whose
    type is not exactly kind (int, bool or list), so that 1.9, "2" and True
    are no integers and 1 is no boolean: input is refused, never coerced."""
    for x in values:
        if type(x) is not kind:
            try:
                text = json.dumps(x)
            except TypeError:
                text = repr(x)
            raise ParseError(f"{where}: {text} is not {_KINDS[kind]}")
