"""Built-in example curves used by the self test and the test suite.

Each builds its PeriodLattice from the two periods alone, so its
multipliers are the formal symbols; a caller that wants exact or
numeric multipliers builds a new lattice around the same vertices and
edges."""

from fractions import Fraction

from .curve import Edge, MarkedPoint, PeriodLattice, TropicalCurve, Vertex


def theta() -> TropicalCurve:
    """Genus-2 curve with two vertices joined by three edges.

    Periods (1,-1) and (1,2); edge directions (1,0), (0,1), (-1,-1) with
    deck shifts (0,0), (1,0), (1,1).  All weights 1.
    """
    lat = PeriodLattice((1, -1), (1, 2))
    u = Vertex("u", (0, 0))
    v = Vertex("v", (1, 0))
    edges = (
        Edge("e1", "u", "v", (1, 0), Fraction(1), (0, 0)),
        Edge("e2", "u", "v", (0, 1), Fraction(1), (1, 0)),
        Edge("e3", "u", "v", (-1, -1), Fraction(1), (1, 1)),
    )
    return TropicalCurve(lat, (u, v), edges)


def theta_marks() -> list[MarkedPoint]:
    return [MarkedPoint("e1", Fraction(1, 3)), MarkedPoint("e2", Fraction(1, 2))]


def theta_double() -> TropicalCurve:
    """theta() with all weight vectors doubled and lengths halved.

    Same lift positions and deck shifts; all edge weights 2, vertex weights 4.
    """
    base = theta()
    edges = tuple(
        Edge(e.id, e.tail, e.head,
             (2 * e.weight_vector[0], 2 * e.weight_vector[1]),
             e.length / 2, e.shift)
        for e in base.edges
    )
    return TropicalCurve(base.lattice, base.vertices, edges)


def wrapping_cycle(segments: int = 2, weight: int = 1) -> TropicalCurve:
    """Genus-1 curve: a straight cycle wrapping the first period once.

    All vertices are 2-valent, every edge has weight vector weight*(1, 0);
    the total deck shift around the cycle is (-1, 0) per the lift relation.
    Defined over the split lattice with periods (1,0) and (0,1).
    """
    if segments < 2:
        raise ValueError("need at least two segments (loops are not allowed)")
    lat = PeriodLattice((1, 0), (0, 1))
    verts = tuple(
        Vertex(f"c{k}", (Fraction(k, segments), 0)) for k in range(segments)
    )
    edges = []
    for k in range(segments):
        last = k == segments - 1
        edges.append(Edge(
            f"s{k + 1}",
            f"c{k}",
            f"c{(k + 1) % segments}",
            (weight, 0),
            Fraction(1, segments * weight),
            (-1, 0) if last else (0, 0),
        ))
    return TropicalCurve(lat, verts, tuple(edges))


def triple_vertex() -> TropicalCurve:
    """Genus-2 curve whose two vertices have weight 3.

    Directions (2,1), (-1,1), (-1,-2) between vertices (0,0) and (2,1) over
    the lattice spanned by (3,0) and (0,3).
    """
    lat = PeriodLattice((3, 0), (0, 3))
    u = Vertex("u", (0, 0))
    v = Vertex("v", (2, 1))
    edges = (
        Edge("f1", "u", "v", (2, 1), Fraction(1), (0, 0)),
        Edge("f2", "u", "v", (-1, 1), Fraction(1), (1, 0)),
        Edge("f3", "u", "v", (-1, -2), Fraction(1), (1, 1)),
    )
    return TropicalCurve(lat, (u, v), edges)

