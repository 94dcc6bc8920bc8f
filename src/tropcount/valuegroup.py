"""Formal multiplicative values built from symbols, rationals, and phases.

A MulValue is an element of the abelian group

    (free group on multiplier symbols, rational exponents)
    x (positive rationals, rational exponents, stored prime-wise)
    x (rational turns mod 1).

The group is written multiplicatively.  Values of this kind arise as the
realizability invariant sigma and as the right-hand sides of the vertex and
edge gluing relations; keeping them formal lets one result serve three
comparison modes:

* FORMAL  - symbols are independent; equality is structural identity.
* EXACT   - symbols have been substituted by exact polar values (positive
            rational modulus, rational turns), so the value is symbol-free
            and identity is still a structural check.
* NUMERIC - symbols carry complex values; comparison is |value - 1| <= tol,
            with an UNDECIDED band just above the tolerance.

All exponent arithmetic is exact.  Powers use the principal branch: the
stored phase representative lies in [0, 1) and mv_pow scales that
representative, so a k-th root has phase in [0, 1/k).
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from fractions import Fraction
from typing import Mapping

from .errors import ConstraintError
from .record import Record


class EqualityMode(Enum):
    FORMAL = "formal"
    EXACT = "exact"
    NUMERIC = "numeric"


UNDECIDED = None  # three-valued verdicts are True / False / UNDECIDED

#: comparisons land in (tol, UNDECIDED_FACTOR * tol] -> UNDECIDED
UNDECIDED_FACTOR = 100

DEFAULT_TOLERANCE = 1e-9


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class MulValue(Record):
    """Canonical form: sorted tuples, no zero exponents, phase in [0, 1)."""

    symbols: tuple[tuple[str, Fraction], ...] = ()
    primes: tuple[tuple[int, Fraction], ...] = ()
    phase: Fraction = Fraction(0)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _make(symbols: Mapping[str, Fraction], primes: Mapping[int, Fraction],
              phase: Fraction) -> "MulValue":
        sym = tuple(sorted((k, v) for k, v in symbols.items() if v != 0))
        pri = tuple(sorted((k, v) for k, v in primes.items() if v != 0))
        return MulValue(sym, pri, phase % 1)

    @classmethod
    def identity(cls) -> "MulValue":
        return cls()

    @classmethod
    def symbol(cls, name: str, exponent=1) -> "MulValue":
        return cls._make({name: Fraction(exponent)}, {}, Fraction(0))

    @classmethod
    def scalar(cls, value, exponent=1) -> "MulValue":
        """A positive rational, stored prime-wise.

        >>> MulValue.scalar(Fraction(4, 9)).primes
        ((2, Fraction(2, 1)), (3, Fraction(-2, 1)))
        """
        q = Fraction(value)
        if q <= 0:
            raise ValueError("scalar part must be a positive rational")
        e = Fraction(exponent)
        primes: dict[int, Fraction] = {}
        for p, k in _factorize(q.numerator).items():
            primes[p] = primes.get(p, Fraction(0)) + k * e
        for p, k in _factorize(q.denominator).items():
            primes[p] = primes.get(p, Fraction(0)) - k * e
        return cls._make({}, primes, Fraction(0))

    @classmethod
    def phase_turns(cls, turns) -> "MulValue":
        """e^(2*pi*i*turns) for a rational number of turns.

        >>> MulValue.phase_turns(Fraction(3, 2)).phase
        Fraction(1, 2)
        """
        return cls._make({}, {}, Fraction(turns))

    @classmethod
    def minus_one(cls) -> "MulValue":
        return cls.phase_turns(Fraction(1, 2))

    @classmethod
    def rational(cls, value) -> "MulValue":
        """Any nonzero rational: sign becomes a half-turn phase."""
        q = Fraction(value)
        if q == 0:
            raise ValueError("zero is not invertible")
        out = cls.scalar(abs(q)) if abs(q) != 1 else cls.identity()
        if q < 0:
            out = mv_mul(out, cls.minus_one())
        return out

    @classmethod
    def polar(cls, modulus, turns) -> "MulValue":
        return mv_mul(cls.scalar(modulus), cls.phase_turns(turns))

    # -- predicates --------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.symbols and not self.primes and self.phase == 0

    @property
    def has_symbols(self) -> bool:
        return bool(self.symbols)

    # -- operators ---------------------------------------------------------

    def __mul__(self, other: "MulValue") -> "MulValue":
        return mv_mul(self, other)

    def __truediv__(self, other: "MulValue") -> "MulValue":
        return mv_mul(self, mv_inv(other))

    def __pow__(self, exponent) -> "MulValue":
        return mv_pow(self, exponent)

    def __str__(self) -> str:
        terms = [f"{name}^{exp}" for name, exp in self.symbols]
        terms += [f"{p}^{exp}" for p, exp in self.primes]
        if self.phase:
            terms.append(f"turn({self.phase})")
        return " * ".join(terms) if terms else "1"

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {}
        if self.symbols:
            out["symbols"] = {k: str(v) for k, v in self.symbols}
        if self.primes:
            out["primes"] = {str(p): str(v) for p, v in self.primes}
        if self.phase:
            out["turns"] = str(self.phase)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "MulValue":
        return cls._make(
            {k: Fraction(v) for k, v in data.get("symbols", {}).items()},
            {int(p): Fraction(v) for p, v in data.get("primes", {}).items()},
            Fraction(data.get("turns", 0)),
        )


def mv_mul(a: MulValue, b: MulValue) -> MulValue:
    symbols = dict(a.symbols)
    for k, v in b.symbols:
        symbols[k] = symbols.get(k, Fraction(0)) + v
    primes = dict(a.primes)
    for p, v in b.primes:
        primes[p] = primes.get(p, Fraction(0)) + v
    return MulValue._make(symbols, primes, a.phase + b.phase)


def mv_prod(pairs) -> MulValue:
    """Product of a ** e over (a, e) pairs, normalized once.

    Equal to chaining mv_mul and mv_pow for integer (or rational)
    exponents e, because mv_pow scales the stored phase representative
    and mv_mul adds phases modulo 1.

    >>> a, b = MulValue.symbol("x"), MulValue.phase_turns(Fraction(1, 3))
    >>> mv_prod([(a, 2), (b, 0), (b, -1)]) == mv_mul(mv_pow(a, 2), mv_inv(b))
    True
    """
    symbols: dict[str, Fraction] = {}
    primes: dict[int, Fraction] = {}
    phase = Fraction(0)
    for a, e in pairs:
        if not e:
            continue
        for k, v in a.symbols:
            symbols[k] = symbols.get(k, 0) + v * e
        for p, v in a.primes:
            primes[p] = primes.get(p, 0) + v * e
        phase += a.phase * e
    return MulValue._make(symbols, primes, phase)


def mv_inv(a: MulValue) -> MulValue:
    return mv_pow(a, -1)


def mv_pow(a: MulValue, exponent) -> MulValue:
    """Principal-branch power with a rational exponent.

    The stored phase representative in [0, 1) is scaled and renormalized,
    so integer powers are exact group powers and mv_pow(x, 1/k) is the
    principal k-th root.

    >>> mv_pow(MulValue.minus_one(), Fraction(1, 2)).phase
    Fraction(1, 4)
    """
    q = Fraction(exponent)
    return MulValue._make(
        {k: v * q for k, v in a.symbols},
        {p: v * q for p, v in a.primes},
        a.phase * q,
    )


def mv_root(a: MulValue, k: int) -> MulValue:
    """Principal k-th root (k >= 1); result phase lies in [0, 1/k)."""
    if k < 1:
        raise ValueError("root order must be a positive integer")
    return mv_pow(a, Fraction(1, k))


def mv_substitute(a: MulValue, values: Mapping[str, MulValue]) -> MulValue:
    """Replace symbols by MulValues (used for exact polar evaluation)."""
    out = MulValue._make({}, dict(a.primes), a.phase)
    for name, exp in a.symbols:
        if name in values:
            out = mv_mul(out, mv_pow(values[name], exp))
        else:
            out = mv_mul(out, MulValue.symbol(name, exp))
    return out


def mv_eval_numeric(a: MulValue, values: Mapping[str, complex] | None = None) -> complex:
    """Evaluate to a complex number, principal branches throughout."""
    acc = complex(1.0)
    for name, exp in a.symbols:
        if values is None or name not in values:
            raise ConstraintError(
                f"no numeric value supplied for symbol {name}")
        base = complex(values[name])
        if base == 0:
            raise ConstraintError(
                f"symbol {name} must be a nonzero complex number")
        acc *= cmath.exp(float(exp) * cmath.log(base))
    for p, exp in a.primes:
        acc *= cmath.exp(float(exp) * cmath.log(p))
    acc *= cmath.exp(2j * cmath.pi * float(a.phase))
    return acc


def mv_is_one(
    a: MulValue,
    mode: EqualityMode = EqualityMode.FORMAL,
    *,
    values: Mapping[str, MulValue] | None = None,
    numeric_values: Mapping[str, complex] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[bool | None, str]:
    """Decide whether a MulValue is the identity, per mode.

    Returns (verdict, certificate).  The verdict is True, False, or
    UNDECIDED (None); UNDECIDED only occurs in NUMERIC mode, when the
    distance to 1 lands in (tolerance, UNDECIDED_FACTOR * tolerance] or
    when the evaluation overflows.

    FORMAL mode treats symbols as independent, so it is sound but will
    report False for values that would collapse to 1 under a particular
    substitution.
    """
    if mode is EqualityMode.FORMAL:
        if a.is_identity:
            return True, "identity in the formal group"
        return False, f"formally nontrivial: {a}"
    if mode is EqualityMode.EXACT:
        b = mv_substitute(a, values) if values else a
        if b.has_symbols:
            raise ConstraintError(
                f"exact comparison needs polar values for all symbols; "
                f"left: {b}")
        if b.is_identity:
            return True, "exact identity after substitution"
        return False, f"exact value differs from 1: {b}"
    if mode is EqualityMode.NUMERIC:
        try:
            dist = abs(mv_eval_numeric(a, numeric_values) - 1.0)
        except OverflowError:
            dist = math.inf
        if not math.isfinite(dist):
            return UNDECIDED, (
                f"|value - 1| = {dist} is not finite: the numeric "
                f"evaluation overflowed or met a non-finite value")
        if dist <= tolerance:
            return True, f"|value - 1| = {dist:.3e} <= {tolerance:.1e}"
        if dist <= UNDECIDED_FACTOR * tolerance:
            return UNDECIDED, (
                f"|value - 1| = {dist:.3e} inside the undecided band "
                f"({tolerance:.1e}, {UNDECIDED_FACTOR * tolerance:.1e}]"
            )
        return False, f"|value - 1| = {dist:.3e} > {tolerance:.1e}"
    raise ValueError(f"unknown mode: {mode!r}")
