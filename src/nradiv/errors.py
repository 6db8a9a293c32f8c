"""Exception types shared across the toolkit."""

from __future__ import annotations


class NradivError(Exception):
    """Base class for every error raised by this package."""


class ScriptError(NradivError):
    """Problem with script text; carries a source location when one is known."""

    def __init__(self, message: str, loc=None):
        self.loc = loc
        if loc is not None and tuple(loc) != (0, 0):
            message = f"{message} (line {loc[0]}, column {loc[1]})"
        super().__init__(message)


class ParseError(ScriptError):
    """Malformed input or a construct outside the supported subset."""


class SortError(ScriptError):
    """Term is not well-sorted (e.g. a Boolean where a Real is required).

    `arg` is the index of the argument to blame, when one is.
    """

    def __init__(self, message: str, loc=None, arg: int | None = None):
        self.arg = arg
        super().__init__(message, loc)


class UndeclaredSymbolError(ScriptError):
    """A term references a symbol with no declaration in scope."""


class EvalError(NradivError):
    """Term cannot be evaluated under the given assignment."""


class BudgetExceededError(NradivError):
    """An enumeration exceeded its configured step budget."""


class EncodeError(NradivError):
    """Input does not fit the integer-formula shape the encoder accepts."""


class DecodeError(EncodeError):
    """Candidate assignment fails a conjunct of an encoded problem."""

    def __init__(self, message: str, term=None):
        self.term = term
        super().__init__(message)


class SolverError(NradivError):
    """External solver process could not be started."""
