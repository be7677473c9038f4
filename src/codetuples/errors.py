"""Exception types shared across the package."""


class CodeTupleError(Exception):
    """Base class for all domain errors."""


class FormatError(CodeTupleError):
    """A code-tuple or distribution file is malformed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class AlphabetMismatch(CodeTupleError):
    """Two objects built over different alphabets were combined."""


class NotRegular(CodeTupleError):
    """The stationary distribution is not unique."""


class NotExtendable(CodeTupleError):
    """A transform requires every table to admit arbitrarily long output."""


class NotInClass(CodeTupleError):
    """The input tuple is outside the class a transform requires."""

    def __init__(self, required, detail=""):
        msg = "input is not in class %s" % required
        if detail:
            msg += " (%s)" % detail
        super().__init__(msg)
        self.required = required


class AmbiguousChain(CodeTupleError):
    """Two symbols share a codeword on a strict-prefix chain."""


class NonTerminatingRecursion(CodeTupleError):
    """The steer-bit recursion revisited a table without resolving."""


class StepLimitExceeded(CodeTupleError):
    """A transform chain did not reach its target class within the limit."""


class WrongTableCount(CodeTupleError):
    """An operation requires a specific number of tables."""


class NoConsistentCompletion(CodeTupleError):
    """The given bits are not a prefix of any encoded sequence."""


class EmptySpace(CodeTupleError):
    """No tuple in the search space passes the requested filter."""


class UnknownSymbol(CodeTupleError, KeyError):
    """A symbol name is not in the alphabet."""

    __str__ = Exception.__str__  # the bare message: KeyError would quote it


class InvalidArgument(CodeTupleError, ValueError):
    """An argument lies outside the values an operation accepts."""


class InvalidType(CodeTupleError, TypeError):
    """An argument is not of the type an operation accepts."""


class InvalidSpace(CodeTupleError, ValueError):
    """A search space, or a distribution for it, is malformed."""


class SearchCheckFailed(CodeTupleError):
    """The search contradicted its own re-check of a result."""
