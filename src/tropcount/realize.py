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

from .curve import TropicalCurve, crossings, ensure_valid
from .record import Record
from .valuegroup import (DEFAULT_TOLERANCE, EqualityMode, MulValue, mv_is_one,
                         mv_prod)


def chi_product(curve: TropicalCurve, terms, d: int) -> MulValue:
    """Product of wall characters chi_family(vector) ** power over the
    (family, vector, power) terms, with every power an integer.

    family 1 (walls crossed along the first period):
        (a, b) -> alpha12^(a/d) * alpha11^(-b/d)
    family 2 (walls crossed along the second period):
        (a, b) -> alpha22^(a/d) * alpha21^(-b/d)

    The exponents of the four multipliers are summed in integers and the
    product is one mv_prod of four powers.  This equals the product of
    the characters taken one by one only because each outer power is an
    integer: an integer power commutes with reducing the phase mod 1.
    """
    e11 = e12 = e21 = e22 = 0
    for family, (a, b), power in terms:
        if family == 1:
            e12 += a * power
            e11 -= b * power
        elif family == 2:
            e22 += a * power
            e21 -= b * power
        else:
            raise ValueError("wall family must be 1 or 2")
    m = curve.lattice.multipliers
    return mv_prod((m[key], (e, d))
                   for key, e in (("alpha11", e11), ("alpha12", e12),
                                  ("alpha21", e21), ("alpha22", e22)))


def sigma_cocycle(curve: TropicalCurve) -> MulValue:
    """sigma = prod over edges of chi1(m_e)^(-g1) * chi2(m_e)^(-g2).

    The exponents are minus the deck shifts under this package's lift
    convention; sigma_geometric pins the sign.  Independent of the chosen
    lifts: a relift changes the shifts by a coboundary that balancing
    cancels.
    """
    terms = []
    for e in curve.edges:
        g1, g2 = e.shift
        terms.append((1, e.weight_vector, -g1))
        terms.append((2, e.weight_vector, -g2))
    return chi_product(curve, terms, curve.delta)


def sigma_geometric(curve: TropicalCurve, offset=None) -> MulValue:
    """sigma read off from fundamental-domain wall crossings.

    Every transversal crossing of a B1 (resp. B2) wall contributes the
    character chi1 (resp. chi2) of the edge's weight vector oriented from
    the inside of the cell to the outside.  The offset defaults to the
    first non-degenerate one in the deterministic retry sequence, whose
    crossings the curve keeps from choosing it (see canonical_offset);
    an offset given walks the crossings anew.  The shifts are never
    read, so this stays independent of sigma_cocycle.
    """
    found = (curve._clean_pass[1] if offset is None
             else crossings(curve, offset))
    return chi_product(
        curve,
        ((1 if c.side == "B1" else 2, c.outward_vector, abs(c.signed_count))
         for c in found),
        curve.delta)


def parity_exponent(curve: TropicalCurve) -> int:
    """Sum of w_v / delta over the 3-valent vertices, taken mod 2.  delta
    divides every weight vector, so delta squared divides each w_v."""
    total = sum(curve.vertex_weight(v.id) for v in curve.vertices
                if curve.valence(v.id) == 3)
    return total // curve.delta % 2


def realizability_target(curve: TropicalCurve) -> MulValue:
    """(-1)^parity as a MulValue phase."""
    return MulValue.phase_turns((parity_exponent(curve), 2))


class RealizabilityReport(Record):
    sigma: MulValue
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


def is_realizable(
    curve: TropicalCurve,
    mode: EqualityMode | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
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
    verdict, certificate = mv_is_one(
        ratio, mode, numeric_values=lattice.numeric_values,
        tolerance=tolerance)
    return RealizabilityReport(
        sigma=sigma,
        target=target,
        verdict=verdict,
        certificate=certificate,
        mode=mode,
    )
