"""Exception hierarchy shared by all pctsolve modules."""

import math
import numbers


class PctError(Exception):
    """Base class for all errors raised by pctsolve."""


class DomainError(PctError, ValueError):
    """Argument lies outside the mathematical domain of the operation."""


class PoleError(PctError, ZeroDivisionError):
    """Evaluation requested at (or numerically on top of) a pole."""


class RangeOverflowError(PctError, OverflowError):
    """Result exceeded the double-precision floating range."""


class ArgumentError(PctError, ValueError):
    """Structurally invalid argument (negative degree, level out of range, ...)."""


class ConfigError(PctError, ValueError):
    """Invalid configuration.  ``field`` names the constructor argument at
    fault, or is None when no one field is; the CLI prefixes the message with
    the config path of that field (or of the object)."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


def require_positive(owner, name, value):
    """The one "finite and > 0" rule of a constructor argument: a
    ConfigError naming the field ``name`` of ``owner`` unless value is."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{owner} needs {name} finite and > 0", field=name)


def require_count(name, value, least, error=ArgumentError):
    """The one rule for a count or index argument: an integer (a numpy
    integer too, never a bool) >= least, else ``error`` saying so."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")


class GridMismatchError(PctError, ValueError):
    """Two grid functions defined on different grids were combined."""


class ExprSyntaxError(PctError, ValueError):
    """Syntax error in an expression string, with byte offset."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = frozenset(expected)


class UnknownFunctionError(ExprSyntaxError):
    """Call to a function name the expression language does not define."""


class UnboundParameterError(PctError, KeyError):
    """Expression references a parameter missing from the parameter table."""
