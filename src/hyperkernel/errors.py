"""Exception hierarchy for the whole package.

ResourceExhausted covers every budget refusal; the CLI maps it to exit
code 2, every other HyperError to exit code 1.  Every class here is
raised by name somewhere in the package, or is the base of one that is.
"""


class HyperError(Exception):
    """Base class of all library errors."""


class InvalidTable(HyperError, ValueError):
    """Malformed hyperoperation table (empty cell, bad index, dup label)."""


class EmptyOperand(HyperError, ValueError):
    """A set operand that must be nonempty was empty."""


class NotAHypergroup(HyperError, ValueError):
    """Operation requires a hypergroup and the table is not one."""


class InvalidGroupTable(HyperError, ValueError):
    """Single-valued table violates the group axioms."""


class NotAssociative(InvalidGroupTable):
    pass


class NoIdentity(InvalidGroupTable):
    pass


class NoInverse(InvalidGroupTable):
    pass


class NotNormal(HyperError, ValueError):
    pass


class NotASubhypergroup(HyperError, ValueError):
    pass


class NotClosed(HyperError, ValueError):
    pass


class NotCanonical(HyperError, ValueError):
    pass


class NotRegular(HyperError, ValueError):
    """Quotient hyperoperation is not well defined for this relation."""


class NotStronglyRegular(HyperError, ValueError):
    pass


class ShapeMismatch(HyperError, ValueError):
    """Partitions or carriers do not line up."""


class FamilyMismatch(HyperError, ValueError):
    """Direct-sum element used with the wrong factor family."""


class IdentityLetter(HyperError, ValueError):
    """A word letter equals its factor's identity."""


class AdjacentSameFactor(HyperError, ValueError):
    """Two adjacent word letters come from the same factor."""


class ResourceExhausted(HyperError, RuntimeError):
    """A configured budget would be exceeded."""


class BudgetExceeded(ResourceExhausted):
    pass


class ParseError(HyperError, ValueError):
    """Problem in a table document, a word or another user input."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateLabel(ParseError):
    pass


class EmptyCell(ParseError):
    pass


class UnknownLabel(ParseError):
    pass
