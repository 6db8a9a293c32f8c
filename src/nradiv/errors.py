"""Exception types shared across the toolkit."""

from __future__ import annotations

import sys


class NradivError(Exception):
    """Base class for every error raised by this package."""


def value_too_long() -> NradivError:
    """The error for a number of more digits than `sys.get_int_max_str_digits()`."""

    limit = sys.get_int_max_str_digits()
    return NradivError(f"value too long to print: more than {limit} digits")


class ScriptError(NradivError):
    """Problem with script text; `loc` is where, when known: an offset into
    the text while it is parsed, a (line, column) pair once it is not."""

    def __init__(self, message: str, loc=None):
        self.loc = loc
        super().__init__(message)

    def __str__(self) -> str:
        where = "" if self.loc is None else f" (line {self.loc[0]}, column {self.loc[1]})"
        return super().__str__() + where


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
