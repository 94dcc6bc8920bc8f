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
already canonical.  A value is its exponents as integer (kind, key,
numerator, denominator) terms, and mv_prod works in those integers from
its factors to its result: it builds no Fraction.  A rational argument
(a modulus, an exponent, turns) may be an int, a lowest-terms
(numerator, denominator) pair of ints, or anything fractions.Fraction
takes (see as_ratio); only the last loads fractions, which the views
symbols, primes and phase load too.  A nested product such as
(x^a * y^b)^n may be flattened into x^(a*n) * y^(b*n) only when the
outer power n is an integer: an integer multiple of a phase reduced mod
1 is the reduced multiple, while a fractional power of the reduced phase
picks a branch.
"""

import math
from enum import Enum

from .errors import ConstraintError, clip, clip_value, format_rational
from .record import Record


class EqualityMode(Enum):
    FORMAL = "formal"
    EXACT = "exact"
    NUMERIC = "numeric"


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
                f"cannot factor {clip_value(n)}: no prime factor up to "
                f"{TRIAL_DIVISION_BOUND}, and it is not a provable prime "
                f"below {_MILLER_RABIN_BOUND}")
        out[n] = out.get(n, 0) + 1
    return out


def as_ratio(value) -> tuple[int, int]:
    """value as a lowest-terms (numerator, denominator) pair of ints with
    a positive denominator.

    value is an int, a (numerator, denominator) pair of ints with a
    nonzero denominator, or anything fractions.Fraction takes (a
    Fraction, a string such as "1/3", a float), which loads fractions.

    >>> as_ratio(3), as_ratio((6, -8))
    ((3, 1), (-3, 4))
    """
    kind = type(value)
    if kind is int:
        return value, 1
    if kind is tuple:
        n, d = value
        if d == 0:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        g = math.gcd(n, d)
        if d < 0:
            g = -g
        return n // g, d // g
    from fractions import Fraction

    if kind is not Fraction:
        value = Fraction(value)
    return value.numerator, value.denominator


class MulValue(Record):
    """One (kind, key, n, d) term per nonzero exponent n/d, sorted by kind
    and key: kind 0 a symbol keyed by its name, 1 a prime, 2 the phase in
    turns keyed by None, with 0 < n < d.  Each n/d is in lowest terms with
    d > 0; symbols, primes and phase read the exponents as Fractions."""

    terms: tuple[tuple[int, object, int, int], ...] = ()

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls) -> "MulValue":
        return cls()

    @classmethod
    def symbol(cls, name: str, exponent=1) -> "MulValue":
        n, d = as_ratio(exponent)
        return cls(((0, name, n, d),) if n else ())

    @classmethod
    def scalar(cls, value, exponent=1) -> "MulValue":
        """A positive rational, stored prime-wise.

        >>> MulValue.scalar((4, 9)).terms
        ((1, 2, 2, 1), (1, 3, -2, 1))
        """
        qn, qd = as_ratio(value)
        if qn <= 0:
            raise ValueError("scalar part must be a positive rational")
        en, ed = as_ratio(exponent)
        # numerator and denominator are coprime: no prime is met twice
        primes = [(p, k * en) for p, k in _factorize(qn).items()]
        primes += [(p, -k * en) for p, k in _factorize(qd).items()]
        if not en:
            return cls()
        terms = []
        for p, n in primes:
            g = math.gcd(n, ed)
            terms.append((1, p, n // g, ed // g))
        return cls(tuple(sorted(terms)))

    @classmethod
    def phase_turns(cls, turns) -> "MulValue":
        """e^(2*pi*i*turns) for a rational number of turns.

        >>> MulValue.phase_turns((3, 2)).phase
        Fraction(1, 2)
        """
        n, d = as_ratio(turns)
        n %= d
        return cls(((2, None, n, d),) if n else ())

    @classmethod
    def minus_one(cls) -> "MulValue":
        return cls(((2, None, 1, 2),))

    @classmethod
    def rational(cls, value) -> "MulValue":
        """Any nonzero rational: sign becomes a half-turn phase."""
        n, d = as_ratio(value)
        if n == 0:
            raise ValueError("zero is not invertible")
        out = cls.scalar((abs(n), d))
        if n < 0:
            out = out * cls.minus_one()
        return out

    @classmethod
    def polar(cls, modulus, turns) -> "MulValue":
        return cls.scalar(modulus) * cls.phase_turns(turns)

    # -- predicates --------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return not self.terms

    @property
    def has_symbols(self) -> bool:
        return bool(self.terms) and self.terms[0][0] == 0

    @property
    def symbols(self) -> "tuple[tuple[str, Fraction], ...]":
        from fractions import Fraction

        return tuple((key, Fraction(n, d)) for kind, key, n, d in self.terms
                     if kind == 0)

    @property
    def primes(self) -> "tuple[tuple[int, Fraction], ...]":
        from fractions import Fraction

        return tuple((key, Fraction(n, d)) for kind, key, n, d in self.terms
                     if kind == 1)

    @property
    def phase(self) -> "Fraction":
        from fractions import Fraction

        return Fraction(*self.phase_ratio)

    @property
    def phase_ratio(self) -> tuple[int, int]:
        """The phase in turns, in [0, 1), as (numerator, denominator)."""
        c, _, n, d = self.terms[-1] if self.terms else (0, None, 0, 1)
        return (n, d) if c == 2 else (0, 1)

    # -- operators ---------------------------------------------------------

    def __mul__(self, other: "MulValue") -> "MulValue":
        return mv_prod(((self, 1), (other, 1)))

    def __truediv__(self, other: "MulValue") -> "MulValue":
        return mv_prod(((self, 1), (other, -1)))

    def __pow__(self, exponent) -> "MulValue":
        return mv_pow(self, exponent)

    def __str__(self) -> str:
        t = [f"turn({format_rational(n, d)})" if kind == 2
             else f"{key}^{format_rational(n, d)}"
             for kind, key, n, d in self.terms]
        return " * ".join(t) if t else "1"

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        out: dict = {}
        for kind, key, n, d in self.terms:
            if kind == 2:
                out["turns"] = format_rational(n, d)
            else:
                table = out.setdefault("primes" if kind else "symbols", {})
                table[str(key)] = format_rational(n, d)
        return out


def mv_prod(pairs) -> MulValue:
    """Product of a ** e over (a, e) pairs, normalized once.

    Each exponent e (an int, a Fraction, or an (en, ed) pair of ints with
    ed > 0) scales a stored exponent n/d of a factor to the integer
    numerator n * en over the denominator d * ed; the numerators are
    summed per
    (component, denominator).  Each component is then combined over the
    lcm of its denominators, the phase is reduced modulo that lcm, and
    each nonzero component is reduced to lowest terms by its gcd.  No
    Fraction is made.

    This is the one routine that normalizes a product: a * b, a / b and
    mv_pow(a, e) are each one mv_prod call.  The phase of a power is the
    stored representative in [0, 1) scaled by e, and reducing modulo 1
    once at the end of an exact sum gives the same representative as
    reducing after every factor.

    >>> a, b = MulValue.symbol("x"), MulValue.phase_turns((1, 3))
    >>> print(mv_prod([(a, 2), (b, 0), (b, -1)]))
    x^2 * turn(2/3)
    """
    sums: dict[tuple, int] = {}
    for a, e in pairs:
        en, ed = e if type(e) is tuple else (e.numerator, e.denominator)
        if not en:
            continue
        for kind, key, n, d in a.terms:
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
    terms = []
    for (kind, key), (d, n) in parts.items():
        if kind == 2:
            n %= d
        if n:
            g = math.gcd(n, d)
            terms.append((kind, key, n // g, d // g))
    return MulValue(tuple(sorted(terms)))


def mv_pow(a: MulValue, exponent) -> MulValue:
    """Principal-branch power with a rational exponent.

    The stored phase representative in [0, 1) is scaled and renormalized,
    so integer powers are exact group powers and mv_pow(x, 1/k) is the
    principal k-th root.

    >>> mv_pow(MulValue.minus_one(), (1, 2)).phase
    Fraction(1, 4)
    """
    return mv_prod(((a, as_ratio(exponent)),))


def mv_root(a: MulValue, k: int) -> MulValue:
    """Principal k-th root (k >= 1); result phase lies in [0, 1/k)."""
    if k < 1:
        raise ValueError("root order must be a positive integer")
    return mv_prod(((a, (1, k)),))


def mv_eval_numeric(a: MulValue,
                    values: dict[str, complex] | None = None) -> complex:
    """Evaluate to a complex number, principal branches throughout."""
    import cmath  # loaded here: exact and formal runs never evaluate

    # each exponent n/d as float(Fraction(n, d)) gives it: n / d,
    # correctly rounded
    acc = complex(1.0)
    for kind, key, n, d in a.terms:
        if kind == 0:
            if values is None or key not in values:
                raise ConstraintError(
                    f"no numeric value supplied for symbol {clip(key)}")
            base = complex(values[key])
            if base == 0:
                raise ConstraintError(
                    f"symbol {clip(key)} must be a nonzero complex number")
            acc *= cmath.exp(n / d * cmath.log(base))
        elif kind == 1:
            acc *= cmath.exp(n / d * cmath.log(key))
    n, d = a.phase_ratio
    acc *= cmath.exp(2j * cmath.pi * (n / d))
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
                f"left: {clip_value(a)}")
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
