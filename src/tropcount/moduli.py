"""Deformations, rigidity, and the weighted count of algebraic curves.

The combinatorial deformation space of a curve is the kernel of the map F
sending a position assignment phi: V -> Q^2 to the normal component of
phi(head) - phi(tail) on every edge (the primitive normal covector of the
edge direction applied to the difference).  F is the only matrix this
module builds; every deformation answer is read off it.  Its cokernel is
dual to the space of flag covectors described in dual_flag_space, whose
vertex conditions are the rows of F transposed: the outgoing primitive
normal at a tail is n_e and at a head is -n_e.  So that space has the
rank of Coker F, and balancing puts the edge weights in it: when it is
a line, the weighted outgoing normals span it, with no elimination.

For counting, marked points (one per independent cycle) are inserted as
2-valent vertices; the relevant group is the kernel of the same edge
conditions taken with values in the multiplicative group of nonzero complex
numbers, with the marked vertices pinned to 1.  Because that group is
divisible, each edge condition only sees the primitive normal character,
and the kernel order is the torsion size of the integer cokernel of the
condition matrix D - the product of its nonzero invariant factors.  Every
unmarked 2-valent vertex contributes one free sliding factor which the
count quotients out; more freedom than that means the kernel is infinite,
which is the same as the marks not being rigid (see rigidity_check).

The final count multiplies the kernel order by the product of the edge
weights of the unsubdivided curve (maximal 2-valent chains count once).
"""

import itertools

from .curve import (MarkedPoint, TropicalCurve, ensure_valid, marks_by_edge,
                    subdivide)
from .errors import ECHO_LIMIT, ConstraintError, InfeasibleError, clip
from .exactmath import IntMatrix, Rows, det_int, rank_rational, row_sum, snf
from .realize import RealizabilityReport, is_realizable
from .record import Record
from .valuegroup import DEFAULT_TOLERANCE, EqualityMode

# subdivide is re-exported: build_D is defined on the curve it returns
__all__ = [
    "INFINITE", "CountReport", "KernelOrder", "build_D", "build_F",
    "count_curves", "deformation_ranks", "dual_flag_space",
    "edge_weight_product", "kernel_order_bruteforce", "kernel_order_gcstar",
    "rigidity_check", "smallest_maximal_minor", "subdivide",
]

INFINITE = float("inf")


# --------------------------------------------------------------------------
# the deformation map F and its ranks
# --------------------------------------------------------------------------


def build_F(curve: TropicalCurve) -> Rows:
    """|E| rows of width 2|V|: row e applies the primitive normal covector
    of e to the head-minus-tail vertex unknowns (x and y of vertex i in
    columns 2i and 2i + 1)."""
    index = {v.id: 2 * i for i, v in enumerate(curve.vertices)}
    rows = []
    for e in curve.edges:
        nx, ny = e.primitive_normal
        hi, ti = index[e.head], index[e.tail]
        rows.append(row_sum(((hi, nx), (hi + 1, ny),
                             (ti, -nx), (ti + 1, -ny))))
    return rows


def deformation_ranks(curve: TropicalCurve) -> tuple[int, int]:
    """(rank of Ker F, rank of Coker F) over the rationals."""
    r = rank_rational(build_F(curve))
    return 2 * len(curve.vertices) - r, len(curve.edges) - r


def dual_flag_space(curve: TropicalCurve):
    """Covector assignments dual to Coker F.

    A dual element assigns to each flag (vertex, edge) a rational covector
    u orthogonal to the outgoing weight vector, with the two covectors of
    an edge cancelling and the covectors at each vertex summing to zero.
    Writing u = c_e * (outgoing primitive normal) reduces the unknowns to
    one scalar per edge.  That normal is n_e at the tail and -n_e at the
    head, which is -1 times F's row e on the vertex's two columns, so the
    two vertex conditions are the vertex's two rows of F transposed, and
    the dimension is the rank of Coker F (deformation_ranks).

    Balancing solves those conditions: the normal is the edge direction
    turned a quarter, so the outgoing weighted normals at a vertex sum
    to the outgoing weight vectors turned, which is zero, and c_e = w_e
    lies in the kernel of F transposed.  When the dimension is 1 the
    weights span it, and the generator is written from them.

    Returns (dimension, generator) where generator maps (vertex_id,
    edge_id) to the covector of the basis element normalized so that its
    first nonzero edge coefficient is 1: c_e = w_e / w_e0 for the first
    edge e0, times the outgoing primitive normal, (w_e / w_e0) n_e at the
    tail and -(w_e / w_e0) n_e at the head (generator is None unless the
    dimension is exactly 1).

    Raises ValidationError for an invalid curve, balancing included.
    """
    from fractions import Fraction

    ensure_valid(curve)
    dim = deformation_ranks(curve)[1]
    if dim != 1:
        return dim, None
    lead = curve.edges[0].weight
    generator = {}
    for v in curve.vertices:
        for e in curve.incident_edges_flags(v.id):
            c = Fraction(e.weight if e.tail == v.id else -e.weight, lead)
            nx, ny = e.primitive_normal
            generator[(v.id, e.id)] = (c * nx, c * ny)
    return 1, generator


def rigidity_check(curve: TropicalCurve, marks: list[MarkedPoint]) -> bool:
    """True when pinning the marked points kills every deformation.

    Evaluation E takes a position assignment to the normal component of its
    value at the tail vertex of each marked edge.  Sliding a 2-valent
    vertex along its edge direction lies in Ker F but does not move the
    image of the curve, and the edge normal annihilates its own direction,
    so slides lie in both Ker F and Ker E.  Rigidity means that E on Ker F
    has no kernel beyond the slides, i.e. 2|V| - rank[F; E] equals the
    number of 2-valent vertices.

    That is the finiteness of the multiplicative kernel.  Pinning a mark
    on edge e replaces F's row n.(x_head - x_tail) by the two pinned rows
    n.x_head and -n.x_tail (see kernel_order_gcstar), and these span the
    same lattice as F's row together with E's row n.x_tail.  So rank[F; E]
    is the rank of the pinned F, and rigid <=> corank = slides <=> finite
    kernel.

    Raises ConstraintError when a mark names an edge the curve lacks, and
    ValidationError for a duplicated mark or a t outside (0, 1).
    """
    return kernel_order_gcstar(curve, marks).finite


# --------------------------------------------------------------------------
# multiplicative kernels
# --------------------------------------------------------------------------


def build_D(curve: TropicalCurve, marked_vertex_ids: list[str]) -> IntMatrix:
    """Edge condition rows of F plus two pinning rows per marked vertex,
    dense for the oracles."""
    width = 2 * len(curve.vertices)
    rows = [[row.get(j, 0) for j in range(width)] for row in build_F(curve)]
    index = {v.id: i for i, v in enumerate(curve.vertices)}
    for vid in marked_vertex_ids:
        i = index[vid]
        for k in (0, 1):
            row = [0] * width
            row[2 * i + k] = 1
            rows.append(row)
    return rows


class KernelOrder(Record):
    order: int | float
    invariant_factors: tuple[int, ...]
    corank: int
    slide_rank: int

    @property
    def finite(self) -> bool:
        return self.order != INFINITE


def kernel_order_gcstar(
    curve: TropicalCurve, marks: list[MarkedPoint]
) -> KernelOrder:
    """Order of the multiplicative kernel after pinning the marked points.

    The curve subdivided at the marks has D: the primitive-normal edge
    conditions and the pinning rows.  Each unmarked 2-valent vertex
    carries one sliding one-parameter subgroup which the count quotients
    out, so the kernel is finite exactly when the corank of D equals the
    number of such vertices, and the order is the product of the nonzero
    invariant factors of D.

    The pinning rows of D are distinct unit rows, so row operations with
    them clear the pinned columns of F, and D is equivalent to the
    identity on those columns next to F with them deleted.  The invariant
    factors of D are therefore one 1 per pinning row followed by those of
    the reduced F, which is all the Smith form is computed on.  Every
    vertex the subdivision adds is pinned, so the reduced F is written
    straight from the original edges: an unmarked edge keeps its row of
    F; a marked edge leaves one row on its tail's columns (its first
    piece) and one on its head's (its last piece), and the pieces
    between two marks leave zero rows, which are omitted.  Hence the
    corank is 2|V| - rank, and the slides are the original 2-valent
    vertices.
    """
    marked = marks_by_edge(curve, marks)
    index = {v.id: i for i, v in enumerate(curve.vertices)}
    width = 2 * len(curve.vertices)
    f = []
    for e, row in zip(curve.edges, build_F(curve)):
        if e.id in marked:
            # the first piece keeps the tail's block, the last the head's
            hi = 2 * index[e.head]
            f.append({j: row.pop(j) for j in (hi, hi + 1) if j in row})
        f.append(row)
    reduced = [x for x in snf(f, width)[1] if x]
    nonzero = [1] * (2 * len(marks)) + reduced
    corank = width - len(reduced)
    slides = sum(1 for v in curve.vertices if curve.valence(v.id) == 2)
    if corank < slides:
        raise AssertionError(
            "slide subgroups exceed the kernel corank; this cannot happen")
    if corank > slides:
        return KernelOrder(INFINITE, tuple(nonzero), corank, slides)
    order = 1
    for x in nonzero:
        order *= x
    return KernelOrder(order, tuple(nonzero), corank, slides)


def smallest_maximal_minor(d: IntMatrix) -> int | None:
    """Smallest absolute value of a nonzero maximal minor of D, or None.

    None means every maximal minor vanishes (or there are fewer rows than
    columns), i.e. the kernel of the multiplicative system is infinite.
    """
    nrows = len(d)
    ncols = len(d[0]) if d else 0
    if nrows < ncols:
        return None
    best = None
    for combo in itertools.combinations(range(nrows), ncols):
        m = abs(det_int([d[i] for i in combo]))
        if m != 0 and (best is None or m < best):
            best = m
    return best


def kernel_order_bruteforce(d: IntMatrix) -> int:
    """Independent oracle: count solutions of D y = 0 mod L, L a minor.

    L is the smallest absolute value of a nonzero maximal minor of D.  Any
    solution of the multiplicative system has coordinates that are L-th
    roots of unity, so exhaustive counting in (Z/L)^n is sound and
    complete.  Exponential in the number of unknowns; reserved for small
    instances.

    Raises ConstraintError when D has no nonzero maximal minor (infinite
    kernel).
    """
    ncols = len(d[0]) if d else 0
    target = smallest_maximal_minor(d)
    if target is None:
        raise ConstraintError("kernel is infinite (rank-deficient conditions)")
    if target == 1:
        return 1
    # Depth-first enumeration with pruning: a row is checked as soon as all
    # unknowns it touches are assigned.
    support = [max((j for j in range(ncols) if row[j]), default=-1)
               for row in d]
    rows_by_depth: list[list[int]] = [[] for _ in range(ncols)]
    for i, s in enumerate(support):
        if s >= 0:
            rows_by_depth[s].append(i)
    count = 0
    assignment = [0] * ncols

    def descend(depth: int):
        nonlocal count
        if depth == ncols:
            count += 1
            return
        for value in range(target):
            assignment[depth] = value
            ok = True
            for i in rows_by_depth[depth]:
                acc = 0
                for j in range(depth + 1):
                    c = d[i][j]
                    if c:
                        acc += c * assignment[j]
                if acc % target != 0:
                    ok = False
                    break
            if ok:
                descend(depth + 1)

    descend(0)
    return count


# --------------------------------------------------------------------------
# the count
# --------------------------------------------------------------------------


def edge_weight_product(curve: TropicalCurve) -> int:
    """Product of edge weights over maximal 2-valent chains.

    Edges separated only by 2-valent vertices belong to one chain and
    count once (they share a weight); on a curve with no 2-valent vertices
    this is the plain product over all edges.  This normalization makes
    the count invariant under subdivision.
    """
    parent = {e.id: e.id for e in curve.edges}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in curve.vertices:
        flags = curve.incident_edges_flags(v.id)
        if len(flags) == 2 and flags[0].id != flags[1].id:
            a, b = find(flags[0].id), find(flags[1].id)
            parent[a] = b
    product = 1
    for rep in {find(e.id) for e in curve.edges}:
        product *= curve.edge(rep).weight
    return product


class CountReport(Record):
    realizability: RealizabilityReport
    kernel: KernelOrder
    edge_weight_product: int
    total: int


def count_curves(
    curve: TropicalCurve,
    marks: list[MarkedPoint],
    mode: EqualityMode | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CountReport:
    """Number of algebraic curves through generic points matching the marks.

    Preconditions: the curve is valid and realizable in the requested mode,
    the number of marks equals the genus, and the marks rigidify the curve.
    The count is kernel order times the edge weight product.
    """
    ensure_valid(curve)
    report = is_realizable(curve, mode, tolerance)
    if report.verdict is False:
        raise InfeasibleError(
            f"curve is not realizable: "
            f"{clip(report.certificate, ECHO_LIMIT + 40)}")
    if report.verdict is None:
        raise ConstraintError(
            f"realizability undecided at this tolerance: "
            f"{clip(report.certificate, ECHO_LIMIT + 40)}")
    if len(marks) != curve.genus:
        raise ConstraintError(
            f"need exactly genus={curve.genus} marked points, got {len(marks)}")
    kernel = kernel_order_gcstar(curve, marks)
    if not kernel.finite:
        raise ConstraintError(
            "marked points do not rigidify the curve (evaluation map has "
            "nontrivial kernel)")
    product = edge_weight_product(curve)
    return CountReport(
        realizability=report,
        kernel=kernel,
        edge_weight_product=product,
        total=kernel.order * product,
    )
