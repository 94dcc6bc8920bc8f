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

Every rational of the model (a position coordinate, a length, a marked
point's t, an offset coordinate) is held as its lowest-terms (numerator,
denominator) pair of ints, and the package works on those integers.
Vertex.position, Edge.length and MarkedPoint.t are read-only views that
build the Fractions on first read (loading fractions), and the
constructors take a rational as an int, a (numerator, denominator) pair
or anything Fraction takes (see valuegroup.as_ratio).  Lattice
coordinates come only from PeriodLattice.lattice_numerators and the lift
relation's gap only from PeriodLattice.lift_gap, both in integers.
"""

import math
from functools import cached_property

from .errors import (ConstraintError, DegeneracyError, ValidationError, clip,
                     clip_rational, clip_value)
from .record import Record
from .valuegroup import EqualityMode, MulValue, as_ratio, mv_prod

Vec2 = tuple[int, int]
FracVec2 = tuple["Fraction", "Fraction"]
#: a rational as its lowest-terms (numerator, denominator) pair, d > 0
Ratio = tuple[int, int]

ALPHA_KEYS = ("alpha11", "alpha12", "alpha21", "alpha22")


def _fraction(value: Ratio) -> "Fraction":
    from fractions import Fraction

    return Fraction(*value)


def _int_pair(value) -> Vec2:
    if type(value[0]) is int and type(value[1]) is int:
        return (value[0], value[1])
    from fractions import Fraction

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

    def lift_gap(self, tail: tuple[Ratio, Ratio], head: tuple[Ratio, Ratio],
                 length: Ratio, vector: Vec2,
                 shift: Vec2) -> tuple[int, int, int]:
        """(x, y, q) with (x/q, y/q) = head - tail - length * vector -
        shift[0] * period1 - shift[1] * period2, for the positions tail
        and head and the length as (numerator, denominator) pairs; q is
        the lcm of their five denominators."""
        (txn, txd), (tyn, tyd) = tail
        (hxn, hxd), (hyn, hyd) = head
        ln, ld = length
        q = math.lcm(txd, tyd, hxd, hyd, ld)
        ln *= q // ld
        (wx, wy), (g1, g2) = vector, shift
        (p1x, p1y), (p2x, p2y) = self.period1, self.period2
        return (hxn * (q // hxd) - txn * (q // txd) - ln * wx
                - q * (g1 * p1x + g2 * p2x),
                hyn * (q // hyd) - tyn * (q // tyd) - ln * wy
                - q * (g1 * p1y + g2 * p2y), q)


class Vertex(Record):
    id: str
    position: FracVec2

    def __post_init__(self):
        x, y = self._position
        object.__setattr__(self, "_position", (as_ratio(x), as_ratio(y)))

    @cached_property
    def position(self) -> FracVec2:
        return (_fraction(self._position[0]), _fraction(self._position[1]))


class Edge(Record):
    id: str
    tail: str
    head: str
    weight_vector: Vec2
    length: "Fraction"
    shift: Vec2 = (0, 0)

    def __post_init__(self):
        object.__setattr__(self, "weight_vector", _int_pair(self.weight_vector))
        object.__setattr__(self, "_length", as_ratio(self._length))
        object.__setattr__(self, "shift", _int_pair(self.shift))

    @cached_property
    def length(self) -> "Fraction":
        return _fraction(self._length)

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
    t: "Fraction"

    def __post_init__(self):
        object.__setattr__(self, "_t", as_ratio(self._t))

    @cached_property
    def t(self) -> "Fraction":
        return _fraction(self._t)


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
    def _report(self) -> "ValidationReport":
        return validate(self)

    @cached_property
    def _lattice_points(self) -> tuple[
            tuple[tuple[str, Vec2, int], ...],
            tuple[tuple[Vec2, Vec2, int], ...]]:
        # ((id, numerators, n) of each vertex lift's lattice coordinates,
        #  n = |det| times the lcm of its position denominators;
        #  (start, disp, n) of each edge: the numerators of its tail lift
        #  (the first vertex with that id, as in vertex) and of length *
        #  weight vector over the lcm of the tail's n and |det| times the
        #  length denominator); crossings and plot read them as they are
        scaled = self.lattice.lattice_numerators
        det = abs(self.lattice.det)
        coords = []
        for v in self.vertices:
            (xn, xd), (yn, yd) = v._position
            q = math.lcm(xd, yd)
            coords.append((v.id, scaled(xn * (q // xd), yn * (q // yd)),
                           q * det))
        tails = {vid: (p, nv) for vid, p, nv in reversed(coords)}
        segments = []
        for e in self.edges:
            (a, b), nv = tails[e.tail]
            ln, ld = e._length
            d1, d2 = scaled(ln * e.weight_vector[0], ln * e.weight_vector[1])
            ne = ld * det
            n = math.lcm(nv, ne)
            k, j = n // nv, n // ne
            segments.append(((a * k, b * k), (d1 * j, d2 * j), n))
        return tuple(coords), tuple(segments)

    @cached_property
    def _clean_pass(self) -> "tuple[tuple[Ratio, Ratio], list[Crossing]]":
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
        index = curve._vertex_index
        for e in curve.edges:
            x, y, q = curve.lattice.lift_gap(
                index[e.tail]._position, index[e.head]._position, e._length,
                e.weight_vector, e.shift)
            if x or y:
                problems.append(
                    f"edge {clip(e.id)} violates the lift relation by "
                    f"{clip_rational(as_ratio((x, q)), as_ratio((y, q)))}")

    for e in curve.edges:
        n, d = e._length
        if n <= 0:
            problems.append(
                f"edge {clip(e.id)} has non-positive length "
                f"{clip_rational(e._length)}")
        elif d != 1:
            warnings.append(
                f"edge {clip(e.id)}: lattice length "
                f"{clip_rational(as_ratio((n * e.weight, d)))} is not an "
                f"integral multiple of its weight {clip_value(e.weight)}")

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
        n, d = pt._t
        if not 0 < n < d:
            raise ValidationError(
                f"marked point t={clip_rational(pt._t)} outside (0, 1)")
        per_edge.setdefault(pt.edge, []).append(pt)
    for eid, pts in per_edge.items():
        ts = [p._t for p in pts]
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
    created: dict[tuple[str, Ratio], str] = {}
    for e in curve.edges:
        pts = sorted(per_edge.get(e.id, []), key=lambda p: p.t)
        if not pts:
            new_edges.append(e)
            continue
        tail_pos = curve.vertex(e.tail).position
        chain = [(0, e.tail)]
        for k, pt in enumerate(pts, start=1):
            vid = f"{e.id}@{k}"
            pos = (tail_pos[0] + pt.t * e.length * e.weight_vector[0],
                   tail_pos[1] + pt.t * e.length * e.weight_vector[1])
            new_vertices.append(Vertex(vid, pos))
            created[(e.id, pt._t)] = vid
            chain.append((pt.t, vid))
        chain.append((1, e.head))
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
    return out, [created[(p.edge, p._t)] for p in points]


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


def crossings(curve: TropicalCurve, offset) -> list[Crossing]:
    """All wall crossings of the stored edge segment lifts.

    The fundamental cell is offset + [0,1)^2 in lattice coordinates; its
    translates tile the plane with two wall families.  For each edge the
    segment from lift(tail) to lift(tail) + length*m is intersected with
    both families; a vertex lying on a wall or a crossing through a cell
    corner raises DegeneracyError (callers retry with another offset).

    The offset's two coordinates are rationals in any form as_ratio
    takes.  Lattice coordinates are exact rationals, each point over its
    own denominator (see TropicalCurve._lattice_points): a vertex is
    checked against the walls over its denominator times the offset's,
    and an edge's segment is walked over its denominator times the
    offset's, so the work is done on integer numerators.
    """
    o1, o2 = as_ratio(offset[0]), as_ratio(offset[1])
    q = math.lcm(o1[1], o2[1])
    t1 = o1[0] * (q // o1[1])
    t2 = o2[0] * (q // o2[1])
    coords, segments = curve._lattice_points
    for vid, (s1, s2), nv in coords:
        n = nv * q
        if (s1 * q - t1 * nv) % n == 0:
            raise DegeneracyError(
                f"vertex {clip(vid)} lies on a B1 wall for offset "
                f"{clip_rational(o1, o2)}")
        if (s2 * q - t2 * nv) % n == 0:
            raise DegeneracyError(
                f"vertex {clip(vid)} lies on a B2 wall for offset "
                f"{clip_rational(o1, o2)}")
    out: list[Crossing] = []
    for e, ((s1, s2), (d1, d2), n) in zip(curve.edges, segments):
        # n * (lattice coordinates - offset) of the tail, over n * q
        start = (s1 * q - t1 * n, s2 * q - t2 * n)
        disp = (d1 * q, d2 * q)
        n *= q
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
                    f"{clip_rational(o1, o2)}")
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
    """Deterministic retry sequence of offsets (1/p, 1/p^2), p prime,
    each coordinate a (numerator, denominator) pair."""
    p, found = 2, 0
    while found < limit:
        for d in range(2, p):
            if p % d == 0:
                break
        else:
            yield ((1, p), (1, p * p))
            found += 1
        p += 1


def canonical_offset(curve: TropicalCurve) -> tuple[Ratio, Ratio]:
    """First offset in the retry sequence that avoids all degeneracies.

    The curve is immutable, so it keeps this offset together with its
    crossings, and sigma_geometric reads them without a second pass.
    """
    return curve._clean_pass[0]
