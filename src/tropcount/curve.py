"""Parametrized tropical curves in a two-dimensional torus quotient.

The ambient space is S = R^2 / L where L is the rank-2 lattice spanned by
two integer period vectors.  A curve is a finite connected graph with

* a chosen lift position in R^2 for every vertex,
* per edge: an integer weight vector m (primitive direction times weight),
  a positive rational length, and an integer deck shift (g1, g2).

The lift convention, fixed once for the whole package:

    lift(head) - lift(tail) = length * m + g1 * period1 + g2 * period2.

Multipliers attached to the two periods live in the formal multiplicative
group (see valuegroup); they drive the realizability invariant but play no
role in the purely combinatorial operations here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property

from .errors import (ConstraintError, DegeneracyError, ValidationError, clip,
                     clip_value)
from .record import Record
from .valuegroup import EqualityMode, MulValue, mv_prod

Vec2 = tuple[int, int]
FracVec2 = tuple[Fraction, Fraction]

ALPHA_KEYS = ("alpha11", "alpha12", "alpha21", "alpha22")


def _frac(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


def _frac_pair(value) -> FracVec2:
    return (_frac(value[0]), _frac(value[1]))


def _int_pair(value) -> Vec2:
    if type(value[0]) is int and type(value[1]) is int:
        return (value[0], value[1])
    x, y = int(value[0]), int(value[1])
    if (x, y) != (Fraction(value[0]), Fraction(value[1])):
        raise ValidationError(f"expected an integer vector, got {value!r}")
    return (x, y)


class PeriodLattice(Record):
    """Two integer periods plus the four formal multipliers.

    `multipliers` maps alpha11/alpha12/alpha21/alpha22 to MulValues: plain
    symbols in FORMAL mode, symbol-free exact values in EXACT mode, symbols
    with a side table of complex numbers in NUMERIC mode.
    """

    period1: Vec2
    period2: Vec2
    mode: EqualityMode = EqualityMode.FORMAL
    multipliers: dict[str, MulValue] = {}
    numeric_values: dict[str, complex] = {}

    def __post_init__(self):
        object.__setattr__(self, "period1", _int_pair(self.period1))
        object.__setattr__(self, "period2", _int_pair(self.period2))
        mults = dict(self.multipliers)
        for key in ALPHA_KEYS:
            mults.setdefault(key, MulValue.symbol(key))
        object.__setattr__(self, "multipliers", mults)
        object.__setattr__(self, "numeric_values", dict(self.numeric_values))

    @property
    def det(self) -> int:
        return (self.period1[0] * self.period2[1]
                - self.period1[1] * self.period2[0])

    def to_lattice_coords(self, point: FracVec2) -> FracVec2:
        """Coordinates (s1, s2) with point = s1*period1 + s2*period2."""
        x, y = Fraction(point[0]), Fraction(point[1])
        q = math.lcm(x.denominator, y.denominator)
        a, b = self.lattice_numerators(x.numerator * (q // x.denominator),
                                       y.numerator * (q // y.denominator))
        n = q * abs(self.det)
        return (Fraction(a, n), Fraction(b, n))

    def lattice_numerators(self, x: int, y: int) -> Vec2:
        """|det| * (s1, s2) for the integer point (x, y) = s1*period1 +
        s2*period2: its lattice coordinates' numerators over |det|."""
        d = self.det
        if d == 0:
            raise ValidationError("degenerate period lattice")
        (p1x, p1y), (p2x, p2y) = self.period1, self.period2
        if d < 0:
            return (y * p2x - x * p2y, x * p1y - y * p1x)
        return (x * p2y - y * p2x, y * p1x - x * p1y)


class Vertex(Record):
    id: str
    position: FracVec2

    def __post_init__(self):
        object.__setattr__(self, "position", _frac_pair(self.position))


class Edge(Record):
    id: str
    tail: str
    head: str
    weight_vector: Vec2
    length: Fraction
    shift: Vec2 = (0, 0)

    def __post_init__(self):
        object.__setattr__(self, "weight_vector", _int_pair(self.weight_vector))
        object.__setattr__(self, "length", _frac(self.length))
        object.__setattr__(self, "shift", _int_pair(self.shift))

    @cached_property
    def weight(self) -> int:
        return math.gcd(*self.weight_vector)

    @property
    def primitive(self) -> Vec2:
        w = self.weight
        if w == 0:
            raise ValidationError(
                f"edge {clip(self.id)} has zero weight vector")
        return (self.weight_vector[0] // w, self.weight_vector[1] // w)

    @property
    def primitive_normal(self) -> Vec2:
        """Rotate the primitive direction by a quarter turn: (p,q) -> (-q,p)."""
        p, q = self.primitive
        return (-q, p)


class MarkedPoint(Record):
    edge: str
    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", _frac(self.t))


class TropicalCurve(Record):
    lattice: PeriodLattice
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(self.edges))

    # -- lookups -----------------------------------------------------------

    @cached_property
    def _vertex_index(self) -> dict[str, Vertex]:
        # reversed, so that a duplicated id finds its first vertex
        return {v.id: v for v in reversed(self.vertices)}

    @cached_property
    def _edge_index(self) -> dict[str, Edge]:
        return {e.id: e for e in reversed(self.edges)}

    @cached_property
    def _flag_index(self) -> dict[str, tuple[Edge, ...]]:
        flags: dict[str, list[Edge]] = {}
        for e in self.edges:
            flags.setdefault(e.tail, []).append(e)
            flags.setdefault(e.head, []).append(e)
        return {vid: tuple(edges) for vid, edges in flags.items()}

    @cached_property
    def _report(self) -> ValidationReport:
        return validate(self)

    @cached_property
    def _lattice_points(self) -> tuple[
            tuple[tuple[str, Vec2, int], ...], tuple[tuple[Vec2, int], ...]]:
        # ((id, numerators, n) of each vertex lift's lattice coordinates,
        #  (numerators, n) of each edge's length * weight vector), every
        # point over its own denominator n: |det| times the lcm of the
        # vertex's position denominators, or times the edge's length
        # denominator; they do not depend on the offset, so every
        # crossings pass reuses them
        scaled = self.lattice.lattice_numerators
        det = abs(self.lattice.det)
        coords = []
        for v in self.vertices:
            x, y = v.position
            q = math.lcm(x.denominator, y.denominator)
            coords.append((v.id, scaled(x.numerator * (q // x.denominator),
                                        y.numerator * (q // y.denominator)),
                           q * det))
        disps = tuple((scaled(e.length.numerator * e.weight_vector[0],
                              e.length.numerator * e.weight_vector[1]),
                       e.length.denominator * det) for e in self.edges)
        return tuple(coords), disps

    @cached_property
    def _clean_pass(self) -> tuple[FracVec2, list[Crossing]]:
        # the canonical offset and its crossings (see canonical_offset)
        last_error: DegeneracyError | None = None
        for offset in offset_sequence():
            try:
                return offset, crossings(self, offset)
            except DegeneracyError as exc:
                last_error = exc
        raise DegeneracyError(
            f"no usable offset found in the retry sequence; last: "
            f"{last_error}")

    def vertex(self, vid: str) -> Vertex:
        try:
            return self._vertex_index[vid]
        except KeyError:
            raise KeyError(f"no vertex {clip(repr(vid))}") from None

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge_index[eid]
        except KeyError:
            raise KeyError(f"no edge {clip(repr(eid))}") from None

    def outgoing_vector(self, vid: str, e: Edge) -> Vec2:
        """Weight vector of e oriented away from vertex vid."""
        if e.tail == vid:
            return e.weight_vector
        if e.head == vid:
            return (-e.weight_vector[0], -e.weight_vector[1])
        raise KeyError(
            f"edge {clip(e.id)} is not incident to {clip(vid)}")

    def valence(self, vid: str) -> int:
        return len(self._flag_index.get(vid, ()))

    # -- basic invariants ----------------------------------------------------

    @property
    def genus(self) -> int:
        """First Betti number |E| - |V| + 1 of the (connected) graph."""
        return len(self.edges) - len(self.vertices) + 1

    @cached_property
    def delta(self) -> int:
        """gcd of all edge weights."""
        return math.gcd(*(e.weight for e in self.edges))

    def vertex_weight(self, vid: str) -> int:
        """|det| of two outgoing weight vectors at a 3-valent vertex; 1 at
        a 2-valent vertex (balancing makes the choice immaterial)."""
        out = [self.outgoing_vector(vid, e) for e in self.incident_edges_flags(vid)]
        if len(out) == 2:
            return 1
        if len(out) != 3:
            raise ValidationError(
                f"vertex {clip(vid)} has valence {len(out)}, "
                "expected 2 or 3")
        a, b = out[0], out[1]
        return abs(a[0] * b[1] - a[1] * b[0])

    def vertex_gcd(self, vid: str) -> int:
        """gcd of the weights of the edges at a vertex."""
        return math.gcd(*(e.weight for e in self.incident_edges_flags(vid)))

    def incident_edges_flags(self, vid: str) -> tuple[Edge, ...]:
        """Incident edges in edge order, with multiplicity (loops would
        appear twice)."""
        return self._flag_index.get(vid, ())

    def lift_defect(self, e: Edge) -> FracVec2:
        """lift(head) - lift(tail) - length*m - shift . periods (0 if valid).

        Worked out on integer numerators over the lcm q of the five
        denominators (q is 1 when positions and length are integers)."""
        tail = self.vertex(e.tail).position
        head = self.vertex(e.head).position
        terms = (*tail, *head, e.length)
        q = math.lcm(*(x.denominator for x in terms))
        tx, ty, hx, hy, length = (x.numerator * (q // x.denominator)
                                  for x in terms)
        (wx, wy), (g1, g2) = e.weight_vector, e.shift
        (p1x, p1y), (p2x, p2y) = self.lattice.period1, self.lattice.period2
        return (Fraction(hx - tx - length * wx - q * (g1 * p1x + g2 * p2x), q),
                Fraction(hy - ty - length * wy - q * (g1 * p1y + g2 * p2y), q))


class ValidationReport(Record):
    problems: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def validate(curve: TropicalCurve) -> ValidationReport:
    """Collect every structural violation (does not stop at the first).

    Checks, in order: nonzero lattice determinant, connectedness, no loops,
    valences in {2, 3}, nonzero weight vectors, balancing (at a 2-valent
    vertex: opposite weight vectors), the lift relation, positive lengths.
    A non-integer length triggers a warning (the edge's lattice length is
    then not an integral multiple of its weight), not an error.
    """
    problems: list[str] = []
    warnings: list[str] = []

    if curve.lattice.det == 0:
        problems.append("period lattice is degenerate (determinant 0)")

    ids = [v.id for v in curve.vertices]
    if len(set(ids)) != len(ids):
        problems.append("duplicate vertex ids")
    eids = [e.id for e in curve.edges]
    if len(set(eids)) != len(eids):
        problems.append("duplicate edge ids")
    known = set(ids)
    for e in curve.edges:
        for end in (e.tail, e.head):
            if end not in known:
                problems.append(f"edge {clip(e.id)} references unknown "
                                f"vertex {clip(end)}")

    if problems:
        # Structural references are broken; the remaining checks would crash.
        return ValidationReport(tuple(problems), tuple(warnings))

    if not curve.vertices:
        return ValidationReport(("curve has no vertices",), ())

    # connectivity
    seen = {curve.vertices[0].id}
    frontier = [curve.vertices[0].id]
    while frontier:
        vid = frontier.pop()
        for e in curve.incident_edges_flags(vid):
            nxt = e.head if e.tail == vid else e.tail
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != len(curve.vertices):
        problems.append("graph is not connected")

    for e in curve.edges:
        if e.tail == e.head:
            problems.append(f"edge {clip(e.id)} is a loop")

    for v in curve.vertices:
        val = curve.valence(v.id)
        if val not in (2, 3):
            problems.append(
                f"vertex {clip(v.id)} has valence {val}, expected 2 or 3")

    for e in curve.edges:
        if e.weight_vector == (0, 0):
            problems.append(f"edge {clip(e.id)} has zero weight vector")

    for v in curve.vertices:
        out = [curve.outgoing_vector(v.id, e)
               for e in curve.incident_edges_flags(v.id)
               if e.weight_vector != (0, 0) and e.tail != e.head]
        sx = sum(w[0] for w in out)
        sy = sum(w[1] for w in out)
        if (sx, sy) != (0, 0):
            problems.append(
                f"vertex {clip(v.id)} violates balancing: sum "
                f"{clip_value((sx, sy))}")

    if curve.lattice.det != 0:
        for e in curve.edges:
            defect = curve.lift_defect(e)
            if defect != (0, 0):
                problems.append(
                    f"edge {clip(e.id)} violates the lift relation by "
                    f"{clip_value(defect)}")

    for e in curve.edges:
        if e.length <= 0:
            problems.append(
                f"edge {clip(e.id)} has non-positive length "
                f"{clip_value(e.length)}")
        elif e.length.denominator != 1:
            warnings.append(
                f"edge {clip(e.id)}: lattice length "
                f"{clip_value(e.length * e.weight)} is not an integral "
                f"multiple of its weight {clip_value(e.weight)}")

    return ValidationReport(tuple(problems), tuple(warnings))


def ensure_valid(curve: TropicalCurve) -> ValidationReport:
    """validate(curve), raising ValidationError on a problem.  The curve is
    immutable, so its report is computed once and kept on it.  The error
    quotes the first five problems and counts the rest."""
    report = curve._report
    if not report.ok:
        shown = list(report.problems[:5])
        if len(report.problems) > 5:
            shown.append(f"... and {len(report.problems) - 5} more")
        raise ValidationError("; ".join(shown))
    return report


# --------------------------------------------------------------------------
# rebuilding operations
# --------------------------------------------------------------------------


def marks_by_edge(
    curve: TropicalCurve, points: list[MarkedPoint]
) -> dict[str, list[MarkedPoint]]:
    """The marked points grouped per edge, in the order given.

    Raises ConstraintError for a point on an unknown edge, checked first,
    then ValidationError for a parameter t outside (0, 1) or two points at
    the same t on one edge.
    """
    for pt in points:
        if pt.edge not in curve._edge_index:
            raise ConstraintError(
                f"marked point on unknown edge {clip(repr(pt.edge))}")
    per_edge: dict[str, list[MarkedPoint]] = {}
    for pt in points:
        if not 0 < pt.t < 1:
            raise ValidationError(f"marked point t={pt.t} outside (0, 1)")
        per_edge.setdefault(pt.edge, []).append(pt)
    for eid, pts in per_edge.items():
        ts = [p.t for p in pts]
        if len(set(ts)) != len(ts):
            raise ValidationError(
                f"duplicate marked points on edge {clip(eid)}")
    return per_edge


def subdivide(
    curve: TropicalCurve, points: list[MarkedPoint]
) -> tuple[TropicalCurve, list[str]]:
    """Insert a 2-valent vertex at each marked point.

    Points are grouped per edge and sorted by parameter t in (0, 1); children
    of edge e are named e#1, e#2, ... from the tail side, new vertices e@1,
    e@2, ...  All intermediate children carry shift (0, 0); the deck shift of
    the original edge moves whole to the last child, matching the lift
    convention since interior vertices are lifted onto the segment itself.

    Returns the new curve and the ids of the created vertices in the order
    of `points`.
    """
    per_edge = marks_by_edge(curve, points)
    new_vertices = list(curve.vertices)
    new_edges: list[Edge] = []
    created: dict[tuple[str, Fraction], str] = {}
    for e in curve.edges:
        pts = sorted(per_edge.get(e.id, []), key=lambda p: p.t)
        if not pts:
            new_edges.append(e)
            continue
        tail_pos = curve.vertex(e.tail).position
        chain = [(Fraction(0), e.tail)]
        for k, pt in enumerate(pts, start=1):
            vid = f"{e.id}@{k}"
            pos = (tail_pos[0] + pt.t * e.length * e.weight_vector[0],
                   tail_pos[1] + pt.t * e.length * e.weight_vector[1])
            new_vertices.append(Vertex(vid, pos))
            created[(e.id, pt.t)] = vid
            chain.append((pt.t, vid))
        chain.append((Fraction(1), e.head))
        for k in range(len(chain) - 1):
            t0, a = chain[k]
            t1, b = chain[k + 1]
            last = k == len(chain) - 2
            new_edges.append(Edge(
                id=f"{e.id}#{k + 1}",
                tail=a,
                head=b,
                weight_vector=e.weight_vector,
                length=(t1 - t0) * e.length,
                shift=e.shift if last else (0, 0),
            ))
    out = TropicalCurve(curve.lattice, tuple(new_vertices), tuple(new_edges))
    return out, [created[(p.edge, p.t)] for p in points]


def relift(curve: TropicalCurve, moves: dict[str, Vec2]) -> TropicalCurve:
    """Translate vertex lifts by lattice vectors; deck shifts follow suit.

    move(v) = (k1, k2) adds k1*period1 + k2*period2 to the lift of v; every
    edge shift becomes shift + move(head) - move(tail), which keeps the lift
    relation satisfied.
    """
    lat = curve.lattice
    moved = {}
    for vid, mv in moves.items():
        curve.vertex(vid)
        moved[vid] = _int_pair(mv)
    vertices = []
    for v in curve.vertices:
        k1, k2 = moved.get(v.id, (0, 0))
        vertices.append(Vertex(v.id, (
            v.position[0] + k1 * lat.period1[0] + k2 * lat.period2[0],
            v.position[1] + k1 * lat.period1[1] + k2 * lat.period2[1],
        )))
    edges = []
    for e in curve.edges:
        mt = moved.get(e.tail, (0, 0))
        mh = moved.get(e.head, (0, 0))
        edges.append(e.replace(shift=(e.shift[0] + mh[0] - mt[0],
                                      e.shift[1] + mh[1] - mt[1])))
    return TropicalCurve(lat, tuple(vertices), tuple(edges))


def transform(curve: TropicalCurve, a: list[list[int]]) -> TropicalCurve:
    """Apply a unimodular change of coordinates A to the ambient plane.

    Positions, weight vectors and periods map through A; the multiplier
    attached to the k-th coordinate of period i becomes the monomial
    prod_j alpha(i,j) ^ A[k][j].  Deck shifts are untouched, so validity is
    preserved; the realizability invariant transforms by det A = +-1.
    """
    ((a11, a12), (a21, a22)) = ((int(a[0][0]), int(a[0][1])),
                                (int(a[1][0]), int(a[1][1])))
    det = a11 * a22 - a12 * a21
    if det not in (1, -1):
        raise ValidationError(f"transform matrix must be unimodular, det={det}")

    def apply(vec):
        return (a11 * vec[0] + a12 * vec[1], a21 * vec[0] + a22 * vec[1])

    lat = curve.lattice
    mult = lat.multipliers
    new_mult = {}
    for i in (1, 2):
        row = (mult[f"alpha{i}1"], mult[f"alpha{i}2"])
        new_mult[f"alpha{i}1"] = mv_prod(((row[0], a11), (row[1], a12)))
        new_mult[f"alpha{i}2"] = mv_prod(((row[0], a21), (row[1], a22)))
    new_lat = PeriodLattice(
        period1=apply(lat.period1),
        period2=apply(lat.period2),
        mode=lat.mode,
        multipliers=new_mult,
        numeric_values=dict(lat.numeric_values),
    )
    vertices = tuple(Vertex(v.id, apply(v.position)) for v in curve.vertices)
    edges = tuple(e.replace(weight_vector=apply(e.weight_vector))
                  for e in curve.edges)
    return TropicalCurve(new_lat, vertices, edges)


# --------------------------------------------------------------------------
# fundamental-domain crossings
# --------------------------------------------------------------------------


class Crossing(Record):
    """Net transversal crossings of one edge with one family of walls.

    side "B1" is the wall crossed when the first lattice coordinate passes
    an integer threshold (the opposite pair of sides is identified in the
    quotient), side "B2" likewise for the second coordinate.  signed_count
    is positive when the edge travels in the increasing-coordinate
    direction, i.e. from the inside of the fundamental cell to the outside
    through that side; outward_vector is the edge's full weight vector
    oriented the same way.
    """

    edge: str
    side: str
    signed_count: int
    outward_vector: Vec2


def crossings(curve: TropicalCurve, offset: FracVec2) -> list[Crossing]:
    """All wall crossings of the stored edge segment lifts.

    The fundamental cell is offset + [0,1)^2 in lattice coordinates; its
    translates tile the plane with two wall families.  For each edge the
    segment from lift(tail) to lift(tail) + length*m is intersected with
    both families; a vertex lying on a wall or a crossing through a cell
    corner raises DegeneracyError (callers retry with another offset).

    Lattice coordinates are exact rationals, each point over its own
    denominator (see TropicalCurve._lattice_points): a vertex is checked
    against the walls over its denominator times the offset's, and an
    edge is walked over the lcm of that and its own denominator, so the
    work is done on integer numerators.
    """
    o1, o2 = Fraction(offset[0]), Fraction(offset[1])
    coords, disps = curve._lattice_points
    q = math.lcm(o1.denominator, o2.denominator)
    t1 = o1.numerator * (q // o1.denominator)
    t2 = o2.numerator * (q // o2.denominator)
    # (n * (lattice coordinates - offset), n) per vertex, n = nv * q
    starts = {}
    for vid, (s1, s2), nv in coords:
        n = nv * q
        a1, a2 = s1 * q - t1 * nv, s2 * q - t2 * nv
        if a1 % n == 0:
            raise DegeneracyError(
                f"vertex {clip(vid)} lies on a B1 wall for offset "
                f"{clip_value((o1, o2))}")
        if a2 % n == 0:
            raise DegeneracyError(
                f"vertex {clip(vid)} lies on a B2 wall for offset "
                f"{clip_value((o1, o2))}")
        starts[vid] = (a1, a2), n
    out: list[Crossing] = []
    for e, ((d1, d2), ne) in zip(curve.edges, disps):
        start, n = starts[e.tail]
        if n % ne:
            # the tail and the edge over the lcm of their denominators
            k = math.lcm(n, ne) // n
            start, n = (start[0] * k, start[1] * k), n * k
        k = n // ne
        disp = (d1 * k, d2 * k)
        # start + disp is the head lift translated back by the deck shift,
        # so its fractional parts are the head's: no new degeneracy check
        # needed at the end of the segment.
        for axis, side in ((0, "B1"), (1, "B2")):
            lo = start[axis]
            hi = lo + disp[axis]
            net = hi // n - lo // n
            if net == 0:
                continue
            # The walls crossed are the integers w strictly between lo/n
            # and hi/n; at w the other coordinate (less its offset) is
            # c + k*r with k = w - first and r = disp[other] / disp[axis].
            # A corner is an integral value.  Over the denominator
            # n * disp[axis], c and r have the numerators below.
            first = min(lo, hi) // n + 1
            da, db = disp[axis], disp[1 - axis]
            cn = start[1 - axis] * da + (first * n - lo) * db
            rn, den = db * n, n * da
            if den < 0:
                cn, rn, den = -cn, -rn, -den
            if _integral_within(cn, rn, den, abs(net)):
                raise DegeneracyError(
                    f"edge {clip(e.id)} crosses a cell corner for offset "
                    f"{clip_value((o1, o2))}")
            sign = 1 if net > 0 else -1
            out.append(Crossing(
                edge=e.id,
                side=side,
                signed_count=net,
                outward_vector=(sign * e.weight_vector[0],
                                sign * e.weight_vector[1]),
            ))
    return out


def _integral_within(c: int, r: int, den: int, n: int) -> bool:
    """Whether (c + k*r) / den is an integer for some integer k with
    0 <= k < n (den > 0).

    That is the congruence k*r = -c (mod den), solved in closed form.

    >>> _integral_within(1, 1, 3, 3)
    True
    >>> _integral_within(1, 1, 3, 2)
    False
    """
    g = math.gcd(r, den)
    if c % g:
        return False
    m = den // g
    k = 0 if m == 1 else -c // g * pow(r // g, -1, m) % m
    return k < n


def offset_sequence(limit: int = 25):
    """Deterministic retry sequence of offsets (1/p, 1/p^2), p prime."""
    p, found = 2, 0
    while found < limit:
        for d in range(2, p):
            if p % d == 0:
                break
        else:
            yield (Fraction(1, p), Fraction(1, p * p))
            found += 1
        p += 1


def canonical_offset(curve: TropicalCurve) -> FracVec2:
    """First offset in the retry sequence that avoids all degeneracies.

    The curve is immutable, so it keeps this offset together with its
    crossings, and sigma_geometric reads them without a second pass.
    """
    return curve._clean_pass[0]
