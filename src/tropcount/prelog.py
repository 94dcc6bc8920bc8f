"""Gluing conditions for branches of degenerate curves along an edge graph.

Each flag (vertex, edge) carries one unknown multiplicative parameter.
The system has one row per vertex and one row per edge:

* a 3-valent vertex with outgoing vectors of weights w1, w2, w3 and
  weight gcd g imposes  prod_i mu_i^(w_i/g) = (-1)^(W/g)  with W the
  absolute determinant of two of the outgoing vectors;
* a 2-valent vertex imposes  mu_1 * mu_2 = 1;
* an edge e with primitive direction m and lift turns (g1, g2) imposes
  mu_tail * mu_head = chi1(m)^(-g1) * chi2(m)^(-g2)
  where chi1((p, q)) = alpha12^p * alpha11^(-q) and
        chi2((p, q)) = alpha22^p * alpha21^(-q).

Such monomial systems are solved exactly through the Smith normal form of
the exponent matrix: diagonal rows pick principal roots, zero rows become
feasibility witnesses (for a connected curve there is exactly one, and its
value reproduces the realizability obstruction), and the kernel splits into
free and torsion generators read off the column transform.

The vertex rows admit a closed-form solution family (beta parameters):
given any beta1, beta2 the assignment

    mu_1 = beta2^(-D/w1),  mu_2 = beta1^(D/w2),  mu_3 = (-beta2/beta1)^(D/w3)

with D = det(v1 | v2) satisfies the vertex relation, every solution arises
this way, and the betas can be recovered from the mus by principal roots
plus an explicit root-of-unity correction.
"""

import math
from itertools import chain

from .curve import TropicalCurve, ensure_valid
from .errors import ConstraintError, format_rational
from .exactmath import Rows, ext_gcd, log_apply, log_row, row_sum, snf
from .realize import chi_product
from .record import Record
from .valuegroup import (DEFAULT_TOLERANCE, EqualityMode, MulValue, mv_is_one,
                         mv_pow, mv_prod, mv_root)

Flag = tuple[str, str]


# --------------------------------------------------------------------------
# system assembly
# --------------------------------------------------------------------------


class MonomialSystem(Record):
    """Row i reads prod x_j^e = rhs[i] over the items j: e of exponents[i],
    one unknown x_j per flag; the exponents are Rows of width len(flags)
    (see exactmath)."""

    exponents: Rows
    rhs: list[MulValue]
    row_labels: list[str]
    flags: list[Flag]


def edge_rhs(curve: TropicalCurve, edge_id: str) -> MulValue:
    e = curve.edge(edge_id)
    m = e.primitive
    g1, g2 = e.shift
    return chi_product(curve, ((1, m, -g1), (2, m, -g2)), 1)


def vertex_rhs(curve: TropicalCurve, vertex_id: str) -> MulValue:
    if curve.valence(vertex_id) == 2:
        return MulValue.identity()
    w = curve.vertex_weight(vertex_id)
    g = curve.vertex_gcd(vertex_id)
    return MulValue.phase_turns((w, 2 * g))


def assemble_system(curve: TropicalCurve) -> MonomialSystem:
    """Unknowns are flags in edge order, (tail, head) within each edge;
    rows are all vertices in curve order, then all edges."""
    ensure_valid(curve)
    flags: list[Flag] = []
    for e in curve.edges:
        flags.append((e.tail, e.id))
        flags.append((e.head, e.id))
    index = {f: j for j, f in enumerate(flags)}

    exponents: Rows = []
    rhs: list[MulValue] = []
    labels: list[str] = []
    for v in curve.vertices:
        g = curve.vertex_gcd(v.id)
        two_valent = curve.valence(v.id) == 2
        exponents.append(row_sum(
            (index[(v.id, e.id)], 1 if two_valent else e.weight // g)
            for e in curve.incident_edges_flags(v.id)))
        rhs.append(vertex_rhs(curve, v.id))
        labels.append(f"vertex {v.id}")
    for e in curve.edges:
        exponents.append(row_sum(((index[(e.tail, e.id)], 1),
                                  (index[(e.head, e.id)], 1))))
        rhs.append(edge_rhs(curve, e.id))
        labels.append(f"edge {e.id}")
    return MonomialSystem(exponents, rhs, labels, flags)


def left_kernel_vector(curve: TropicalCurve) -> list[int]:
    """The primitive relation between the rows: weight-gcd of the vertex on
    vertex rows, minus edge weight on edge rows, all divided by the curve
    gcd.  Pairing it with the right-hand sides yields the realizability
    obstruction."""
    d = curve.delta
    coeffs = [curve.vertex_gcd(v.id) // d for v in curve.vertices]
    coeffs += [-e.weight // d for e in curve.edges]
    return coeffs


# --------------------------------------------------------------------------
# monomial solver
# --------------------------------------------------------------------------


class Witness(Record):
    """A row combination that eliminates every unknown; its value must be 1
    for the system to be solvable."""

    combination: list[int]
    value: MulValue
    verdict: bool | None
    certificate: str


class MonomialSolution(Record):
    """The solution of a monomial system.  The kernel generators are
    sparse, {flag index: entry}, with the entries of V's columns: a free
    generator holds the nonzero integers of its column, a torsion
    generator the root of unity exp(2 pi i x / d) of each nonzero x of a
    column whose invariant factor d is at least 2.  A missing flag is 0
    in a free generator and the identity in a torsion one."""

    feasible: bool | None
    assignment: list[MulValue] | None
    witnesses: list[Witness]
    kernel_free: list[dict[int, int]]
    kernel_torsion: list[dict[int, MulValue]]
    invariant_factors: tuple[int, ...] = ()


def solve_monomial(
    system: MonomialSystem,
    mode: EqualityMode = EqualityMode.FORMAL,
    *,
    numeric_values: dict[str, complex] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> MonomialSolution:
    """Solve the monomial system exactly via Smith normal form.

    U A V = S turns A x = b into S z = U b with x = V z (multiplicatively).
    Diagonal entries take principal roots; zero rows of S yield witnesses
    whose values must equal 1, checked in the requested equality mode.

    U is never built: snf hands back its row operations.  c = U b is
    the log replayed forward on b, one two-term product per subtraction
    (row i -= q row t is c_i <- c_i * c_t^-q); a witness combination,
    row i of U, is the log replayed backward on e_i.  Both cost the
    length of the log, where U itself fills in.

    The kernel generators are V's columns as snf returns them, sparse
    (see MonomialSolution); the dense form is the writer's to build.
    """
    a = system.exponents
    b = system.rhs
    nrows = len(a)
    ncols = len(system.flags)
    log, diag, v = snf(a, ncols)
    rank = sum(1 for x in diag if x != 0)

    c = log_apply(log, b, lambda x, y, q: mv_prod(((x, 1), (y, -q))))

    witnesses = []
    feasible: bool | None = True
    for i in range(rank, nrows):
        verdict, certificate = mv_is_one(
            c[i], mode, numeric_values=numeric_values, tolerance=tolerance)
        witnesses.append(Witness(log_row(log, i, nrows), c[i], verdict,
                                 certificate))
        if verdict is False:
            feasible = False
        elif verdict is None and feasible is True:
            feasible = None

    assignment = None
    if feasible is not False:
        # x = V z, with z[k] the identity from k = rank on; a first root
        # of a canonical value is the value itself
        terms = [[] for _ in range(ncols)]
        for k in range(rank):
            zk = c[k] if diag[k] == 1 else mv_root(c[k], diag[k])
            for j, x in v[k].items():
                terms[j].append((zk, x))
        assignment = [mv_prod(t) for t in terms]

    kernel_torsion = [
        {j: MulValue.phase_turns((x, diag[k]))
         for j, x in v[k].items()}
        for k in range(rank) if diag[k] >= 2]
    return MonomialSolution(
        feasible, assignment, witnesses, v[rank:], kernel_torsion,
        tuple(d for d in diag if d != 0))


def verify_assignment(
    system: MonomialSystem,
    assignment: list[MulValue],
    mode: EqualityMode = EqualityMode.FORMAL,
    *,
    numeric_values: dict[str, complex] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[tuple[str, str]]:
    """Check an assignment row by row; returns (row label, certificate)
    for every row that is not satisfied (undecided rows count as failing)."""
    if len(assignment) != len(system.flags):
        raise ConstraintError(
            f"assignment has {len(assignment)} values for "
            f"{len(system.flags)} flags")
    failures = []
    for i, row in enumerate(system.exponents):
        ratio = mv_prod(chain(((assignment[j], x) for j, x in row.items()),
                              ((system.rhs[i], -1),)))
        verdict, certificate = mv_is_one(
            ratio, mode, numeric_values=numeric_values, tolerance=tolerance)
        if verdict is not True:
            failures.append((system.row_labels[i], certificate))
    return failures


def prelog_exists(
    curve: TropicalCurve,
) -> tuple[bool | None, MonomialSolution]:
    """Feasibility of the gluing system for the curve, with the solution.

    The system is solved in the curve's own equality mode, against its
    lattice's numeric values in numeric mode, at solve_monomial's
    default tolerance."""
    solution = solve_monomial(
        assemble_system(curve), curve.lattice.mode,
        numeric_values=curve.lattice.numeric_values)
    return solution.feasible, solution


# --------------------------------------------------------------------------
# closed-form vertex solutions (beta parameters)
# --------------------------------------------------------------------------


class VertexModel(Record):
    """A balanced 3-valent vertex given by its outgoing vectors."""

    vectors: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    def __post_init__(self):
        v1, v2, v3 = self.vectors
        if (v1[0] + v2[0] + v3[0], v1[1] + v2[1] + v3[1]) != (0, 0):
            raise ConstraintError("outgoing vectors do not balance")
        if self.det_l == 0:
            raise ConstraintError("outgoing vectors are collinear")

    @property
    def weights(self) -> tuple[int, int, int]:
        return tuple(math.gcd(a, b) for a, b in self.vectors)

    @property
    def det_l(self) -> int:
        v1, v2, _ = self.vectors
        return v1[0] * v2[1] - v1[1] * v2[0]

    @property
    def vertex_weight(self) -> int:
        return abs(self.det_l)

    @property
    def weight_gcd(self) -> int:
        w1, w2, w3 = self.weights
        return math.gcd(math.gcd(w1, w2), w3)

    def exponents(self) -> tuple[int, int, int]:
        g = self.weight_gcd
        return tuple(w // g for w in self.weights)

    def relation_rhs(self) -> MulValue:
        return MulValue.phase_turns(
            (self.vertex_weight, 2 * self.weight_gcd))

    def mus_from_betas(
        self, beta1: MulValue, beta2: MulValue
    ) -> tuple[MulValue, MulValue, MulValue]:
        """The closed-form solution of the vertex relation.  All three
        exponents are integers, so this is exact in every mode."""
        d = self.det_l
        w1, w2, w3 = self.weights
        mu1 = mv_pow(beta2, (-d, w1))
        mu2 = mv_pow(beta1, (d, w2))
        mu3 = mv_pow(MulValue.minus_one() * beta2 / beta1, (d, w3))
        return mu1, mu2, mu3

    def betas_from_mus(
        self, mu1: MulValue, mu2: MulValue, mu3: MulValue
    ) -> tuple[MulValue, MulValue]:
        """Invert mus_from_betas.

        Principal roots recover candidate betas from mu1 and mu2 exactly
        (the round-trip exponent is an integer).  The residual error on
        mu3 is then a root of unity whose order divides w3 / gcd; it is
        absorbed by multiplying the betas with roots of unity that leave
        mu1 and mu2 untouched, found from a linear congruence.

        Raises ConstraintError when the mus do not satisfy the vertex
        relation (the residual fails to be the expected root of unity).
        """
        d = self.det_l
        w1, w2, w3 = self.weights
        g = self.weight_gcd
        w = self.vertex_weight
        beta2 = mv_pow(mu1, (-w1, d))
        beta1 = mv_pow(mu2, (w2, d))
        residual = mv_pow(
            MulValue.minus_one() * beta2 / beta1, (d, w3)) / mu3
        pn, pd = residual.phase_ratio
        if residual.terms and residual.terms[0][0] != 2:
            raise ConstraintError(
                "branch parameters do not satisfy the vertex relation "
                f"(residual {residual})")
        if pn * w3 % (pd * g):
            raise ConstraintError(
                "branch parameters do not satisfy the vertex relation "
                f"(residual phase {format_rational(pn, pd)} is not a "
                f"multiple of {g}/{w3})")
        sign = 1 if d > 0 else -1
        l, m = solve_root_congruence(w1, w2, w3, g, sign,
                                     pn * w3 // (pd * g))
        beta2 = beta2 * MulValue.phase_turns((l * w1, w))
        beta1 = beta1 * MulValue.phase_turns((m * w2, w))
        check1, check2, check3 = self.mus_from_betas(beta1, beta2)
        if (check1, check2, check3) != (mu1, mu2, mu3):
            raise AssertionError("beta reconstruction failed to verify")
        return beta1, beta2


def solve_root_congruence(
    w1: int, w2: int, w3: int, g: int, sign: int, n: int
) -> tuple[int, int]:
    """Integers (l, m) with l*w1 - m*w2 = -sign*n*g (mod w3).

    Always solvable because g = gcd(w1, w2, w3) divides the right side.

    >>> solve_root_congruence(2, 4, 6, 2, 1, 1)
    (-1, 0)
    >>> (-1 * 2 - 0 * 4) % 6 == (-1 * 1 * 2) % 6
    True
    """
    g12, x, y = ext_gcd(w1, w2)
    g_all, u, _ = ext_gcd(g12, w3)
    if g_all != g:
        raise ConstraintError(
            f"gcd mismatch: expected {g}, computed {g_all}")
    t = -sign * n
    return t * u * x, -t * u * y
