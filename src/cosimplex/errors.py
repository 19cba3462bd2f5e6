"""Exception hierarchy shared by all cosimplex modules."""


class CosimplexError(Exception):
    """Base class for all errors raised by this package."""


class InvalidStructureError(CosimplexError):
    """A structure violates one of its defining invariants."""


class TruncationError(CosimplexError):
    """A query needs data beyond the stored truncation level.

    Carries the offending items in ``items`` when known, so callers can
    report exactly which elements or pairs were undecidable.
    """

    def __init__(self, message, items=()):
        super().__init__(message)
        self.items = tuple(items)


class RankMismatchError(CosimplexError):
    """Two labels that must share a rank do not."""


class MorphismError(CosimplexError):
    """No morphism exists between the given labels."""


class PreconditionError(CosimplexError):
    """A documented precondition of an operation is violated."""


class NotNormalError(CosimplexError):
    """An operation requiring a normal structure received a non-normal one."""


class NotSpreadableError(CosimplexError):
    """A family of isometries fails the constant-angle condition."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class FormatError(CosimplexError):
    """Malformed JSON input."""


class InternalInconsistencyError(CosimplexError):
    """A self-check on a computed result failed: the package is at fault,
    not its input."""
