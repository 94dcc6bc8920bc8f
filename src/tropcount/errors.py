"""Error taxonomy shared by the library and the CLI.

Each class carries the CLI exit code it maps to:

* 1 - ParseError: malformed input (also any other TropcountError),
* 2 - ValidationError: invalid curve,
* 3 - DegeneracyError: geometric degeneracy,
* 4 - InfeasibleError: infeasible or unrealizable input,
* 5 - ConstraintError: violated precondition, such as a wrong number of
  marked points.

Messages that quote an input value pass its repr through clip, those
that quote a computed value pass it through clip_value (clip_rational
for the package's rationals, held as (numerator, denominator) pairs of
ints), and those that quote a certificate or a caught error's text pass
it through clip too, mostly at ECHO_LIMIT + 40, so that a huge value
gives a short line.
"""

import sys

#: longest quotation of an input value that an error message shows whole
ECHO_LIMIT = 80


def clip(text: str, limit: int = ECHO_LIMIT) -> str:
    """text whole when at most limit characters long, else its first
    limit characters and its length."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


def format_rational(n: int, d: int) -> str:
    """The rational n/d (in lowest terms, d > 0) as str(Fraction(n, d))
    writes it: "n/d", or "n" when d is 1."""
    return f"{n}/{d}" if d != 1 else str(n)


def clip_value(value) -> str:
    """A computed value (an int, a Fraction or a MulValue) or a pair of
    numbers, as str writes it, through clip at ECHO_LIMIT; a pair reads
    "(x, y)".  An integer too long for str (past the interpreter's limit
    on integer-to-string conversion) is not written out at all."""
    try:
        text = (f"({value[0]}, {value[1]})" if type(value) is tuple
                else str(value))
    except ValueError:
        return long_integer_text()
    return clip(text)


def clip_rational(*values) -> str:
    """clip_value of one rational or of a pair of them, each given as its
    lowest-terms (numerator, denominator) pair."""
    try:
        texts = [format_rational(n, d) for n, d in values]
    except ValueError:
        return long_integer_text()
    return clip(texts[0] if len(texts) == 1 else f"({texts[0]}, {texts[1]})")


def long_integer_text() -> str:
    """What an error message writes for a value with an integer too long
    for str."""
    return (f"a value with an integer of over "
            f"{sys.get_int_max_str_digits()} digits")


class TropcountError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(TropcountError):
    """Malformed input document."""


class ValidationError(TropcountError):
    """The curve data violates a structural invariant."""

    exit_code = 2


class DegeneracyError(TropcountError):
    """A geometric computation hit a degenerate configuration."""

    exit_code = 3


class InfeasibleError(TropcountError):
    """A system or curve is provably infeasible / unrealizable."""

    exit_code = 4


class ConstraintError(TropcountError):
    """A precondition on the request is violated (counts, rigidity, ...)."""

    exit_code = 5
