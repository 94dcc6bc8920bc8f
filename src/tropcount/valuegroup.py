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
stored phase representative lies in [0, 1) and a power scales that
representative, so a k-th root has phase in [0, 1/k).

Every product, quotient and power goes through mv_prod, the one routine
that normalizes a result; the constructors build values that are
already canonical.  mv_prod works in integers from its factors to its
result.  Every value keeps its exponents as integer (kind, key,
denominator, numerator) terms; mv_prod sums the scaled numerators per
(component, denominator), combines each component over the lcm of its
denominators, reduces the phase modulo that lcm, and builds one Fraction
per component of the result, none per term.  A nested product such as
(x^a * y^b)^n may be flattened into x^(a*n) * y^(b*n) only when the
outer power n is an integer: an integer multiple of a phase reduced mod
1 is the reduced multiple, while a fractional power of the reduced phase
picks a branch.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import ConstraintError
from .record import Record


class EqualityMode(Enum):
    FORMAL = "formal"
    EXACT = "exact"
    NUMERIC = "numeric"


_ZERO = Fraction(0)

UNDECIDED = None  # three-valued verdicts are True / False / UNDECIDED

#: comparisons land in (tol, UNDECIDED_FACTOR * tol] -> UNDECIDED
UNDECIDED_FACTOR = 100

DEFAULT_TOLERANCE = 1e-9


#: trial division runs up to this bound; what is left must be 1 or a prime
TRIAL_DIVISION_BOUND = 1 << 20

#: Miller-Rabin with the first 13 prime bases is deterministic below this
#: bound (Sorenson and Webster, Math. Comp. 2017)
_MILLER_RABIN_BOUND = 3317044064679887385961981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd 3 < n < _MILLER_RABIN_BOUND.

    >>> [_is_prime(n) for n in (1000000000000000003, 1000000000000000001)]
    [True, False]
    """
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer.

    Trial division runs up to TRIAL_DIVISION_BOUND.  A cofactor left
    beyond that is prime when it is below the bound's square, or when
    deterministic Miller-Rabin says so; any other cofactor raises
    ValueError, so the time spent is bounded whatever n is.
    """
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= TRIAL_DIVISION_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if d * d <= n and not (n < _MILLER_RABIN_BOUND and _is_prime(n)):
            raise ValueError(
                f"cannot factor {n}: no prime factor up to "
                f"{TRIAL_DIVISION_BOUND}, and it is not a provable prime "
                f"below {_MILLER_RABIN_BOUND}")
        out[n] = out.get(n, 0) + 1
    return out


class MulValue(Record):
    """Canonical form: sorted tuples, no zero exponents, phase in [0, 1)."""

    symbols: tuple[tuple[str, Fraction], ...] = ()
    primes: tuple[tuple[int, Fraction], ...] = ()
    phase: Fraction = Fraction(0)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls) -> "MulValue":
        return cls()

    @classmethod
    def symbol(cls, name: str, exponent=1) -> "MulValue":
        e = Fraction(exponent)
        return cls(((name, e),), (), _ZERO) if e else cls()

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
        # numerator and denominator are coprime: no prime is met twice
        primes = [(p, k * e) for p, k in _factorize(q.numerator).items()]
        primes += [(p, -k * e) for p, k in _factorize(q.denominator).items()]
        return cls((), tuple(sorted(primes)), _ZERO) if e else cls()

    @classmethod
    def phase_turns(cls, turns) -> "MulValue":
        """e^(2*pi*i*turns) for a rational number of turns.

        >>> MulValue.phase_turns(Fraction(3, 2)).phase
        Fraction(1, 2)
        """
        return cls((), (), Fraction(turns) % 1)

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
            out = out * cls.minus_one()
        return out

    @classmethod
    def polar(cls, modulus, turns) -> "MulValue":
        return cls.scalar(modulus) * cls.phase_turns(turns)

    # -- predicates --------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.symbols and not self.primes and self.phase == 0

    @property
    def has_symbols(self) -> bool:
        return bool(self.symbols)

    @cached_property
    def _terms(self) -> tuple[tuple[int, object, int, int], ...]:
        # (kind, key, denominator, numerator) per exponent, kind 0 for a
        # symbol, 1 for a prime and 2 for the phase; mv_prod reads these
        # integers instead of the Fractions.  Cached, so not a field.
        out = [(0, k, v.denominator, v.numerator) for k, v in self.symbols]
        out += [(1, p, v.denominator, v.numerator) for p, v in self.primes]
        if self.phase:
            out.append((2, None, self.phase.denominator, self.phase.numerator))
        return tuple(out)

    # -- operators ---------------------------------------------------------

    def __mul__(self, other: "MulValue") -> "MulValue":
        return mv_prod(((self, 1), (other, 1)))

    def __truediv__(self, other: "MulValue") -> "MulValue":
        return mv_prod(((self, 1), (other, -1)))

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


def mv_prod(pairs) -> MulValue:
    """Product of a ** e over (a, e) pairs, normalized once.

    Each exponent e (an int or a Fraction) scales a stored exponent
    n/d of a factor to the integer numerator n * e.numerator over the
    denominator d * e.denominator; the numerators are summed per
    (component, denominator).  Each component is then combined over the
    lcm of its denominators, the phase is reduced modulo that lcm, and
    one Fraction is built per nonzero component.  No Fraction is made
    per term.

    This is the one routine that normalizes a product: a * b, a / b and
    mv_pow(a, e) are each one mv_prod call.  The phase of a power is the
    stored representative in [0, 1) scaled by e, and reducing modulo 1
    once at the end of an exact sum gives the same representative as
    reducing after every factor.

    >>> a, b = MulValue.symbol("x"), MulValue.phase_turns(Fraction(1, 3))
    >>> print(mv_prod([(a, 2), (b, 0), (b, -1)]))
    x^2 * turn(2/3)
    """
    sums: dict[tuple, int] = {}
    for a, e in pairs:
        if not e:
            continue
        en, ed = e.numerator, e.denominator
        for kind, key, d, n in a._terms:
            k = (kind, key, d * ed)
            sums[k] = sums.get(k, 0) + n * en
    # {(kind, key): [denominator, numerator]}, over the lcm of the
    # denominators met
    parts: dict[tuple, list[int]] = {}
    for (kind, key, d), n in sums.items():
        if n:
            part = parts.get((kind, key))
            if part is None:
                parts[(kind, key)] = [d, n]
            else:
                pd, pn = part
                m = math.lcm(pd, d)
                part[0], part[1] = m, pn * (m // pd) + n * (m // d)
    symbols, primes, phase = [], [], _ZERO
    for (kind, key), (d, n) in parts.items():
        if kind == 2:
            n %= d
            if n:
                phase = Fraction(n, d)
        elif n:
            (symbols if kind == 0 else primes).append((key, Fraction(n, d)))
    symbols.sort()
    primes.sort()
    return MulValue(tuple(symbols), tuple(primes), phase)


def mv_pow(a: MulValue, exponent) -> MulValue:
    """Principal-branch power with a rational exponent.

    The stored phase representative in [0, 1) is scaled and renormalized,
    so integer powers are exact group powers and mv_pow(x, 1/k) is the
    principal k-th root.

    >>> mv_pow(MulValue.minus_one(), Fraction(1, 2)).phase
    Fraction(1, 4)
    """
    return mv_prod(((a, Fraction(exponent)),))


def mv_root(a: MulValue, k: int) -> MulValue:
    """Principal k-th root (k >= 1); result phase lies in [0, 1/k)."""
    if k < 1:
        raise ValueError("root order must be a positive integer")
    return mv_pow(a, Fraction(1, k))


def mv_eval_numeric(a: MulValue,
                    values: dict[str, complex] | None = None) -> complex:
    """Evaluate to a complex number, principal branches throughout."""
    import cmath  # loaded here: exact and formal runs never evaluate

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
    numeric_values: dict[str, complex] | None = None,
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
        if a.has_symbols:
            raise ConstraintError(
                f"exact comparison needs polar values for all symbols; "
                f"left: {a}")
        if a.is_identity:
            return True, "exact identity after substitution"
        return False, f"exact value differs from 1: {a}"
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
