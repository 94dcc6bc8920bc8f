"""Deterministic SVG rendering of a curve inside one fundamental cell.

The cell is the parallelogram spanned by the two periods.  Every edge
segment is cut at the points where it crosses a wall (an integer value of
either lattice coordinate) and each piece is translated back into the
cell, so wrapped edges re-enter on the opposite side.  Output is SVG 1.1,
byte-identical for identical input.  The walls each edge crosses are
counted in closed form first, and a drawing of more than MAX_PIECES
pieces is refused, so a very long edge cannot make the output huge.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curve import FracVec2, TropicalCurve, ensure_valid
from .errors import ConstraintError

_SCALE = 120.0
_PAD = 30.0

#: most pieces a drawing may cut its edges into; a longer drawing is
#: refused, since each piece is one polyline in the output
MAX_PIECES = 100_000


def _fmt(x: float) -> str:
    out = f"{x:.4f}"
    return "0.0000" if out == "-0.0000" else out


def _point(lattice, s1: Fraction, s2: Fraction) -> tuple[float, float]:
    l1, l2 = lattice.period1, lattice.period2
    x = s1 * l1[0] + s2 * l2[0]
    y = s1 * l1[1] + s2 * l2[1]
    # SVG y axis points down; flip so the plot is in standard orientation.
    return float(x) * _SCALE, -float(y) * _SCALE


def _walls_crossed(start: FracVec2, disp: FracVec2) -> int:
    """Walls the segment crosses, counted per axis as the difference of
    the floors of its end points (at least the number of cuts)."""
    return sum(abs(math.floor(start[axis] + disp[axis])
                   - math.floor(start[axis])) for axis in (0, 1))


def _edge_pieces(start: FracVec2, disp: FracVec2):
    """Pieces of the edge segment translated into the unit cell, in
    lattice coordinates."""
    cuts = {Fraction(0), Fraction(1)}
    for axis in (0, 1):
        d = disp[axis]
        if d == 0:
            continue
        lo, hi = sorted((start[axis], start[axis] + d))
        k = math.floor(lo) + 1
        while k < hi:
            t = (Fraction(k) - start[axis]) / d
            if 0 < t < 1:
                cuts.add(t)
            k += 1
    ordered = sorted(cuts)
    pieces = []
    for t0, t1 in zip(ordered, ordered[1:]):
        mid = ((t0 + t1) / 2)
        m1 = start[0] + mid * disp[0]
        m2 = start[1] + mid * disp[1]
        cell = (math.floor(m1), math.floor(m2))
        a = (start[0] + t0 * disp[0] - cell[0],
             start[1] + t0 * disp[1] - cell[1])
        b = (start[0] + t1 * disp[0] - cell[0],
             start[1] + t1 * disp[1] - cell[1])
        pieces.append((a, b))
    return pieces


def render_svg(curve: TropicalCurve) -> str:
    """The SVG document of the curve.

    Raises ConstraintError before drawing anything when the edges would
    be cut into more than MAX_PIECES pieces.
    """
    ensure_valid(curve)
    lattice = curve.lattice
    # lattice coordinates of the lifts and of the edge displacements; the
    # first vertex of a duplicated id wins, as in curve.vertex
    n, coords, disps = curve._scaled_lattice_coords
    starts = {vid: (Fraction(a, n), Fraction(b, n))
              for vid, (a, b) in reversed(coords)}
    segments = [(starts[e.tail], (Fraction(a, n), Fraction(b, n)))
                for e, (a, b) in zip(curve.edges, disps)]
    walls = [_walls_crossed(*seg) for seg in segments]
    bound = len(walls) + sum(walls)
    if bound > MAX_PIECES:
        most, eid = max(zip(walls, (e.id for e in curve.edges)),
                        key=lambda pair: pair[0])
        raise ConstraintError(
            f"plot would cut the edges into up to {bound} pieces, over "
            f"the limit of {MAX_PIECES}; edge {eid} alone crosses {most} "
            f"walls")

    corners = [_point(lattice, Fraction(a), Fraction(b))
               for a, b in ((0, 0), (1, 0), (1, 1), (0, 1))]
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]

    body: list[str] = []
    cell_points = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in corners)
    body.append(
        f'<polygon class="cell" points="{cell_points}" fill="none" '
        'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>')

    for e, segment in zip(curve.edges, segments):
        group = [f'<g class="edge" id="edge-{e.id}">']
        pieces = _edge_pieces(*segment)
        for a, b in pieces:
            pa = _point(lattice, *a)
            pb = _point(lattice, *b)
            xs += [pa[0], pb[0]]
            ys += [pa[1], pb[1]]
            group.append(
                f'<polyline points="{_fmt(pa[0])},{_fmt(pa[1])} '
                f'{_fmt(pb[0])},{_fmt(pb[1])}" fill="none" '
                'stroke="#222222" stroke-width="2"/>')
        mid_a, mid_b = pieces[0]
        label = _point(lattice,
                       (mid_a[0] + mid_b[0]) / 2,
                       (mid_a[1] + mid_b[1]) / 2)
        group.append(
            f'<text class="weight" x="{_fmt(label[0] + 4)}" '
            f'y="{_fmt(label[1] - 4)}" font-size="11" '
            f'fill="#555555">{e.id} w={e.weight}</text>')
        group.append("</g>")
        body.append("".join(group))

    for vid, (a, b) in coords:
        # the lift's lattice coordinates, less their integer parts
        px, py = _point(lattice, Fraction(a % n, n), Fraction(b % n, n))
        xs.append(px)
        ys.append(py)
        body.append(
            f'<g class="vertex" id="vertex-{vid}">'
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" '
            'fill="#AA2222"/>'
            f'<text x="{_fmt(px + 6)}" y="{_fmt(py + 12)}" font-size="12" '
            f'fill="#AA2222">{vid}</text></g>')

    min_x, max_x = min(xs) - _PAD, max(xs) + _PAD
    min_y, max_y = min(ys) - _PAD, max(ys) + _PAD
    view = (f"{_fmt(min_x)} {_fmt(min_y)} "
            f"{_fmt(max_x - min_x)} {_fmt(max_y - min_y)}")
    head = ('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{view}">')
    return head + "\n" + "\n".join(body) + "\n</svg>\n"
