"""Error taxonomy shared by the library and the CLI.

Each class carries the CLI exit code it maps to:

* 1 - ParseError: malformed input (also any other TropcountError),
* 2 - ValidationError: invalid curve,
* 3 - DegeneracyError: geometric degeneracy,
* 4 - InfeasibleError: infeasible or unrealizable input,
* 5 - ConstraintError: violated precondition, such as a wrong number of
  marked points.

Messages that quote an input value pass its repr through clip, so that
a huge value gives a short line.
"""

#: longest quotation of an input value that an error message shows whole
ECHO_LIMIT = 80


def clip(text: str, limit: int = ECHO_LIMIT) -> str:
    """text whole when at most limit characters long, else its first
    limit characters and its length."""
    if len(text) <= limit:
        return text
    return f"{text[:limit]}... ({len(text)} characters)"


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
