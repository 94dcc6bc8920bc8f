"""The multiplicative realizability invariant.

A curve in the torus quotient is the image of an algebraic curve in the
corresponding multiplicative family exactly when a single invariant sigma,
a monomial in the four period multipliers, equals the sign (-1)^parity,
where parity sums vertex weights over the 3-valent vertices divided by the
gcd of all edge weights.  (2-valent vertices contribute trivial gluing
relations, so they do not enter the sign; in particular subdividing an edge
does not change the target.)

sigma is computed two independent ways:

* sigma_cocycle: a closed formula over the edges' deck shifts,
* sigma_geometric: a literal transcription of the defining picture - walk
  every edge segment, record each fundamental-domain wall crossing with the
  outward-oriented weight vector, and multiply the corresponding characters.

The two agree for every valid curve and every non-degenerate offset because
their ratio is a coboundary that balancing cancels; the test suite checks
this exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .curve import (TropicalCurve, Vec2, canonical_offset, crossings,
                    ensure_valid)
from .errors import ConstraintError
from .record import Record
from .valuegroup import EqualityMode, MulValue, mv_is_one, mv_mul, mv_pow


def chi(curve: TropicalCurve, family: int, vector: Vec2,
        reduce_by_delta: bool = True) -> MulValue:
    """Character of one wall family applied to an integer vector.

    family 1 (walls crossed along the first period):
        (a, b) -> alpha12^(a/d) * alpha11^(-b/d)
    family 2 (walls crossed along the second period):
        (a, b) -> alpha22^(a/d) * alpha21^(-b/d)

    where d is the curve's weight gcd when reduce_by_delta is set, else 1.
    """
    if family not in (1, 2):
        raise ValueError("wall family must be 1 or 2")
    a, b = vector
    d = curve.delta if reduce_by_delta else 1
    m = curve.lattice.multipliers
    pos = m["alpha12"] if family == 1 else m["alpha22"]
    neg = m["alpha11"] if family == 1 else m["alpha21"]
    return mv_mul(mv_pow(pos, Fraction(a, d)), mv_pow(neg, Fraction(-b, d)))


def sigma_cocycle(curve: TropicalCurve) -> MulValue:
    """sigma = prod over edges of chi1(m_e)^(-g1) * chi2(m_e)^(-g2).

    The exponents are minus the deck shifts under this package's lift
    convention; sigma_geometric pins the sign.  Independent of the chosen
    lifts: a relift changes the shifts by a coboundary that balancing
    cancels.
    """
    out = MulValue.identity()
    for e in curve.edges:
        g1, g2 = e.shift
        if g1:
            out = mv_mul(out, mv_pow(chi(curve, 1, e.weight_vector), -g1))
        if g2:
            out = mv_mul(out, mv_pow(chi(curve, 2, e.weight_vector), -g2))
    return out


def sigma_geometric(curve: TropicalCurve, offset=None) -> MulValue:
    """sigma read off from fundamental-domain wall crossings.

    Every transversal crossing of a B1 (resp. B2) wall contributes the
    character chi1 (resp. chi2) of the edge's weight vector oriented from
    the inside of the cell to the outside.  The offset defaults to the
    first non-degenerate one in the deterministic retry sequence.
    """
    if offset is None:
        offset = canonical_offset(curve)
    out = MulValue.identity()
    for c in crossings(curve, offset):
        family = 1 if c.side == "B1" else 2
        out = mv_mul(out, mv_pow(chi(curve, family, c.outward_vector),
                                 abs(c.signed_count)))
    return out


def parity_exponent(curve: TropicalCurve) -> int:
    """Sum of w_v / delta over the 3-valent vertices, taken mod 2."""
    d = curve.delta
    total = 0
    for v in curve.vertices:
        if curve.valence(v.id) == 3:
            w = curve.vertex_weight(v.id)
            total += Fraction(w, d)
    total = Fraction(total)
    if total.denominator != 1:
        raise ConstraintError(
            "vertex weight not divisible by the weight gcd; curve is not "
            "balanced-immersed")
    return int(total) % 2


def realizability_target(curve: TropicalCurve) -> MulValue:
    """(-1)^parity as a MulValue phase."""
    return MulValue.phase_turns(Fraction(parity_exponent(curve), 2))


class RealizabilityReport(Record):
    sigma: MulValue
    parity: int
    target: MulValue
    verdict: bool | None
    certificate: str
    mode: EqualityMode

    @property
    def verdict_text(self) -> str:
        if self.verdict is True:
            return "realizable"
        if self.verdict is False:
            return "not realizable"
        return "undecided"

    def to_dict(self) -> dict:
        return {
            "sigma": str(self.sigma),
            "parity": self.parity,
            "target": str(self.target),
            "verdict": self.verdict_text,
            "certificate": self.certificate,
            "mode": self.mode.value,
        }


def is_realizable(
    curve: TropicalCurve,
    mode: EqualityMode | None = None,
    tolerance: float = 1e-9,
) -> RealizabilityReport:
    """Compare sigma against (-1)^parity in the requested equality mode.

    FORMAL treats multipliers as independent symbols (sound, not complete:
    a formally nontrivial sigma may still evaluate to the target for
    special multiplier values).  EXACT needs polar-rational multipliers;
    NUMERIC needs complex values and may return an UNDECIDED verdict near
    the tolerance.
    """
    ensure_valid(curve)
    lattice = curve.lattice
    if mode is None:
        mode = lattice.mode
    sigma = sigma_cocycle(curve)
    target = realizability_target(curve)
    ratio = sigma / target
    if mode is EqualityMode.NUMERIC:
        verdict, certificate = mv_is_one(
            ratio, mode, numeric_values=lattice.numeric_values,
            tolerance=tolerance)
    else:
        if mode is EqualityMode.EXACT and ratio.has_symbols:
            raise ConstraintError(
                "exact mode needs polar-rational multiplier values; this "
                "curve carries formal symbols")
        verdict, certificate = mv_is_one(ratio, mode)
    return RealizabilityReport(
        sigma=sigma,
        parity=parity_exponent(curve),
        target=target,
        verdict=verdict,
        certificate=certificate,
        mode=mode,
    )
