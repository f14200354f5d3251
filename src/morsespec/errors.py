"""Exception types, and the read-only base of the value classes, shared
across the package."""

from __future__ import annotations


class MorsespecError(Exception):
    """Base class for all errors raised by this package."""


class ComplexBuildError(MorsespecError, ValueError):
    """Invalid input to a complex builder (bad dimensions, malformed simplex)."""


class FieldError(MorsespecError, ValueError):
    """Invalid scalar field data (arity mismatch, non-finite value)."""


class ComplexMismatchError(MorsespecError, ValueError):
    """Two objects that must share one underlying complex do not."""


class ChainError(MorsespecError, ValueError):
    """Bad chain input: zero chain, zero class, non-cycle, wrong support."""


class GradientCycleError(MorsespecError, RuntimeError):
    """A closed V-path was detected while flowing along a matching."""


class BoundsDomainError(MorsespecError, ValueError):
    """A bound parameter is outside its admissible range."""


class PreconditionError(MorsespecError, ValueError):
    """A smallness precondition of a bound fails.

    Carries the violated threshold so callers can report how far off the
    input was.
    """

    def __init__(self, message: str, threshold: float):
        super().__init__(message)
        self.threshold = threshold


class StepCountError(MorsespecError, ValueError):
    """The step count of a chained bound is below the admissible minimum."""

    def __init__(self, message: str, minimum: int):
        super().__init__(message)
        self.minimum = minimum


class InputFormatError(MorsespecError, ValueError):
    """A text input file could not be parsed; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ReadOnly:
    """Base of the value classes that are read-only once built: ``__init__``
    sets each slot through ``object.__setattr__``, and assignment raises."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign {name!r}: {type(self).__name__} is read-only")
