"""Exception hierarchy for the engine.

Every error raised on a bad input derives from MfresError so the CLI can map
domain failures to exit code 1 uniformly. Internal-consistency violations
(things the engine guarantees by construction) raise InternalCheckError
instead: those are bugs, not bad inputs.
"""

from __future__ import annotations


class MfresError(Exception):
    """Base class for all domain errors."""


class PolynomialSyntaxError(MfresError):
    """Malformed polynomial text. Carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownVariableError(MfresError):
    """A name in polynomial text is not a declared ring variable."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown variable {name!r} (offset {offset})")
        self.name = name
        self.offset = offset


class RingMismatchError(MfresError):
    """Operands live in different polynomial rings."""


class FactorizationError(MfresError):
    """A candidate matrix pair fails the factorization equations."""


class ParityError(MfresError):
    """Operation needs an even number of variables (odd n)."""


class SingularityError(MfresError):
    """Potential is smooth, non-isolated, or singular away from the origin."""


class ContainmentError(MfresError):
    """Subquotient input: image generators not inside the kernel span."""


class InfiniteQuotientError(MfresError):
    """A quotient expected to be finite dimensional is not."""


class NormalizationError(MfresError):
    """Residue normalization failed (zero Hessian class)."""


class CorpusError(MfresError):
    """Malformed corpus file or unknown item name."""


class BudgetError(MfresError):
    """An input would exceed a fixed size budget, named in the message.

    Raised before the oversized object is built. Budgets met in polynomial
    text also carry the byte offset of the failure."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (offset {offset})")
        self.offset = offset


class InternalCheckError(AssertionError):
    """An invariant the engine guarantees was violated: a bug, not bad input."""
