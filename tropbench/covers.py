"""Seeded scale inputs: index-k cyclic covers of the genus-2 catalog curves.

The cover of a curve over the index-k sublattice spanned by k*period1 and
period2 has k copies of every vertex and edge.  Copy j of vertex v sits at
pos(v) + j*period1.  Edge e with deck shift (g1, g2) runs from copy j of
its tail to copy j' = (j - g1) mod k of its head with the new shift
((g1 + j' - j)/k, g2), which keeps the lift relation exact.  A 3-valent
genus-2 base gives genus k+1, 2k vertices and 3k edges.

Marks are chosen greedily, one per edge at t = 1/2, keeping a mark only
when it raises the rank of the stacked deformation and evaluation rows.
Those ranks are taken modulo a large prime with sparse rows, so the picker
shares no code with the package's rigidity test; the CLI rejects a wrong
pick with exit code 5, which the benchmark counts as a failure.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from tropcount import catalog
from tropcount.curve import (Edge, MarkedPoint, PeriodLattice, TropicalCurve,
                             Vertex)
from tropcount.selftest import tuned_exact_curve

BASES = {
    "theta": catalog.theta,
    "theta2": catalog.theta_double,
    "triple": catalog.triple_vertex,
}

_PRIME = (1 << 61) - 1
_HALF = Fraction(1, 2)


def cover(base: TropicalCurve, k: int) -> TropicalCurve:
    """The index-k cyclic cover of `base`, with formal multipliers."""
    if k < 1:
        raise ValueError("cover index must be at least 1")
    lat = base.lattice
    p1 = lat.period1
    lattice = PeriodLattice((k * p1[0], k * p1[1]), lat.period2)
    vertices = [
        Vertex(f"{v.id}_{j}", (v.position[0] + j * p1[0],
                               v.position[1] + j * p1[1]))
        for j in range(k) for v in base.vertices
    ]
    edges = []
    for j in range(k):
        for e in base.edges:
            g1, g2 = e.shift
            jh = (j - g1) % k
            edges.append(Edge(f"{e.id}_{j}", f"{e.tail}_{j}", f"{e.head}_{jh}",
                              e.weight_vector, e.length,
                              ((g1 + jh - j) // k, g2)))
    return TropicalCurve(lattice, vertices, edges)


def _normal(e: Edge) -> tuple[int, int]:
    a, b = e.weight_vector
    w = gcd(a, b)
    return -b // w, a // w


class _Echelon:
    """Row echelon basis modulo a prime; rows are {column: value} dicts."""

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}

    def add(self, row: dict[int, int]) -> bool:
        """Insert the row; True when it was independent of the basis."""
        row = {c: x % _PRIME for c, x in row.items() if x % _PRIME}
        while row:
            c = min(row)
            pivot = self.rows.get(c)
            if pivot is None:
                inv = pow(row[c], -1, _PRIME)
                self.rows[c] = {j: x * inv % _PRIME for j, x in row.items()}
                return True
            f = row[c]
            for j, x in pivot.items():
                y = (row.get(j, 0) - f * x) % _PRIME
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
        return False


def greedy_marks(curve: TropicalCurve) -> list[MarkedPoint]:
    """One mark per edge at t = 1/2, taken in edge order while it raises
    the rank of [F; marks], until that rank reaches 2|V| (3-valent curves)."""
    index = {v.id: i for i, v in enumerate(curve.vertices)}
    basis = _Echelon()
    for e in curve.edges:
        nx, ny = _normal(e)
        h, t = 2 * index[e.head], 2 * index[e.tail]
        basis.add({h: nx, h + 1: ny, t: -nx, t + 1: -ny})
    full = 2 * len(curve.vertices)
    marks = []
    for e in curve.edges:
        if len(basis.rows) == full:
            break
        nx, ny = _normal(e)
        t = 2 * index[e.tail]
        if basis.add({t: nx, t + 1: ny}):
            marks.append(MarkedPoint(e.id, _HALF))
    if len(basis.rows) != full:
        raise ValueError("no rigid mark set among the edges")
    return marks


def cover_instance(base_name: str, k: int, rng: random.Random | None
                   ) -> tuple[TropicalCurve, list[MarkedPoint]]:
    """The index-k cover of a catalog base with greedy marks.  Given a
    generator, the multipliers are exact and tuned so the curve is
    realizable; without one they stay formal."""
    curve = cover(BASES[base_name](), k)
    marks = greedy_marks(curve)
    if rng is not None:
        curve = tuned_exact_curve(rng, curve, Fraction(0))
    return curve, marks
