import math
import random
from fractions import Fraction

import pytest

from equivalence_cases import cases, chi_reference, covers, dense_snf
from tropcount import catalog
from tropcount.errors import ConstraintError
from tropcount.exactmath import det_int, to_rows
from tropcount.prelog import (MonomialSystem, VertexModel, assemble_system,
                              edge_rhs, left_kernel_vector, prelog_exists,
                              solve_monomial, solve_root_congruence,
                              verify_assignment)
from tropcount.realize import (is_realizable, realizability_target,
                               sigma_cocycle)
from tropcount.selftest import random_exact_curve, tuned_exact_curve
from tropcount.valuegroup import (EqualityMode, MulValue, mv_is_one, mv_pow,
                                  mv_prod, mv_root)


def product(values):
    acc = MulValue.identity()
    for v in values:
        acc = acc * v
    return acc


def test_assemble_theta_system():
    curve = catalog.theta()
    system = assemble_system(curve)
    assert system.flags == [("u", "e1"), ("v", "e1"), ("u", "e2"),
                            ("v", "e2"), ("u", "e3"), ("v", "e3")]
    assert system.row_labels == ["vertex u", "vertex v",
                                 "edge e1", "edge e2", "edge e3"]
    assert system.exponents == to_rows([
        [1, 0, 1, 0, 1, 0],
        [0, 1, 0, 1, 0, 1],
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
    ])
    minus_one = MulValue.minus_one()
    assert system.rhs[0] == minus_one
    assert system.rhs[1] == minus_one
    # edge equations pick up the deck shifts (0,0), (1,0), (1,1)
    assert system.rhs[2] == MulValue.identity()
    assert system.rhs[3] == MulValue.symbol("alpha11")
    assert system.rhs[4] == product([
        MulValue.symbol("alpha11", -1), MulValue.symbol("alpha12"),
        MulValue.symbol("alpha21", -1), MulValue.symbol("alpha22")])


def test_left_kernel_row_product_identity():
    for make in (catalog.theta, catalog.theta_double, catalog.triple_vertex,
                 catalog.wrapping_cycle):
        curve = make()
        system = assemble_system(curve)
        combo = left_kernel_vector(curve)
        assert len(combo) == len(system.rhs)
        lhs = product([mv_pow(rhs, c)
                       for rhs, c in zip(system.rhs, combo)])
        expected = realizability_target(curve) / sigma_cocycle(curve)
        assert lhs == expected
        # the combination really kills every exponent column
        ncols = len(system.flags)
        for j in range(ncols):
            assert sum(system.exponents[i].get(j, 0) * combo[i]
                       for i in range(len(combo))) == 0


def test_formal_solve_infeasible_with_witness():
    curve = catalog.theta()
    solution = solve_monomial(assemble_system(curve))
    assert solution.feasible is False
    assert solution.witnesses
    for witness in solution.witnesses:
        assert witness.verdict is False
        assert "formal" in witness.certificate


def test_exact_solve_feasible_and_verified():
    rng = random.Random(31)
    curve = tuned_exact_curve(rng, catalog.theta(), Fraction(0))
    system = assemble_system(curve)
    solution = solve_monomial(system, EqualityMode.EXACT)
    assert solution.feasible is True
    assert len(solution.assignment) == len(system.flags)
    assert verify_assignment(system, solution.assignment,
                             EqualityMode.EXACT) == []
    # theta has rank-4 exponents on 6 unknowns: 2 free torus directions
    assert len(solution.kernel_free) == 2
    assert solution.kernel_torsion == []


def test_verify_assignment_names_failing_rows():
    rng = random.Random(37)
    curve = tuned_exact_curve(rng, catalog.theta(), Fraction(0))
    system = assemble_system(curve)
    solution = solve_monomial(system, EqualityMode.EXACT)
    tweaked = list(solution.assignment)
    i = system.flags.index(("u", "e2"))
    tweaked[i] = tweaked[i] * MulValue.phase_turns(Fraction(1, 3))
    failures = verify_assignment(system, tweaked, EqualityMode.EXACT)
    assert sorted(label for label, _ in failures) == ["edge e2", "vertex u"]
    with pytest.raises(ConstraintError, match="5 values for 6 flags"):
        verify_assignment(system, tweaked[1:], EqualityMode.EXACT)


def test_prelog_exists_matches_realizability():
    rng = random.Random(41)
    for make in (catalog.theta, catalog.theta_double, catalog.triple_vertex,
                 catalog.wrapping_cycle):
        curve = make()
        assert prelog_exists(curve)[0] == \
            (is_realizable(curve).verdict is True)
        for offset in (Fraction(0), Fraction(1, 2)):
            exact = tuned_exact_curve(rng, curve, offset)
            if exact is None:
                continue
            assert prelog_exists(exact)[0] == \
                (is_realizable(exact).verdict is True)
        sampled = random_exact_curve(rng, curve)
        assert prelog_exists(sampled)[0] == \
            (is_realizable(sampled).verdict is True)


def test_vertex_model_basic_quantities():
    model = VertexModel(((2, 4), (4, -4), (-6, 0)))
    assert model.weights == (2, 4, 6)
    assert model.det_l == -24
    assert model.vertex_weight == 24
    assert model.weight_gcd == 2
    assert model.exponents() == (1, 2, 3)


def test_vertex_model_rejects_bad_vectors():
    with pytest.raises(ConstraintError):
        VertexModel(((1, 0), (0, 1), (0, 0)))
    with pytest.raises(ConstraintError):
        VertexModel(((1, 0), (2, 0), (-3, 0)))


def test_vertex_model_forward_relation():
    for vectors in (((2, 4), (4, -4), (-6, 0)),
                    ((1, 0), (0, 1), (-1, -1)),
                    ((3, 0), (0, 2), (-3, -2))):
        model = VertexModel(vectors)
        b1 = MulValue.symbol("b1")
        b2 = MulValue.symbol("b2")
        mus = model.mus_from_betas(b1, b2)
        lhs = product([mv_pow(mu, e) for mu, e in zip(mus,
                                                      model.exponents())])
        assert lhs == model.relation_rhs()


def test_vertex_model_round_trip():
    rng = random.Random(43)
    model = VertexModel(((2, 4), (4, -4), (-6, 0)))
    for _ in range(10):
        b1 = MulValue.polar(Fraction(rng.randrange(1, 5)),
                            Fraction(rng.randrange(12), 12))
        b2 = MulValue.polar(Fraction(rng.randrange(1, 12), 3),
                            Fraction(rng.randrange(12), 12))
        mus = model.mus_from_betas(b1, b2)
        back1, back2 = model.betas_from_mus(*mus)
        assert model.mus_from_betas(back1, back2) == mus


def test_vertex_model_rejects_inconsistent_mus():
    model = VertexModel(((2, 4), (4, -4), (-6, 0)))
    b1 = MulValue.rational(2)
    b2 = MulValue.rational(3)
    mu1, mu2, mu3 = model.mus_from_betas(b1, b2)
    # a phase that is not a w3/g-th root of unity cannot be absorbed
    bad = mu3 * MulValue.phase_turns(Fraction(1, 7))
    with pytest.raises(ConstraintError):
        model.betas_from_mus(mu1, mu2, bad)


def test_solve_root_congruence():
    assert solve_root_congruence(2, 4, 6, 2, 1, 1) == (-1, 0)
    # the returned pair satisfies l*w1 - m*w2 = -sign*n*g (mod w3)
    rng = random.Random(47)
    for _ in range(25):
        w1 = rng.randrange(1, 9)
        w2 = rng.randrange(1, 9)
        w3 = rng.randrange(1, 9)
        g = math.gcd(math.gcd(w1, w2), w3)
        sign = rng.choice([1, -1])
        n = rng.randrange(-6, 7)
        l, m = solve_root_congruence(w1, w2, w3, g, sign, n)
        assert (l * w1 - m * w2 + sign * n * g) % w3 == 0


# --------------------------------------------------------------------------
# one-pass products against chained products and powers
# --------------------------------------------------------------------------


def _edge_rhs_reference(curve, edge_id):
    e = curve.edge(edge_id)
    m = e.primitive
    g1, g2 = e.shift
    return (mv_pow(chi_reference(curve, 1, m, reduce_by_delta=False), -g1)
            * mv_pow(chi_reference(curve, 2, m, reduce_by_delta=False), -g2))


def _chained(pairs):
    acc = MulValue.identity()
    for value, exponent in pairs:
        if exponent:
            acc = acc * mv_pow(value, exponent)
    return acc


def _verify_reference(system, assignment, mode):
    failures = []
    for i, row in enumerate(system.exponents):
        ratio = _chained((assignment[j], x)
                         for j, x in row.items()) / system.rhs[i]
        verdict, certificate = mv_is_one(ratio, mode)
        if verdict is not True:
            failures.append((system.row_labels[i], certificate))
    return failures


def test_edge_rhs_matches_chained_characters():
    for name, curve, _ in cases(seed=43):
        for e in curve.edges:
            new = edge_rhs(curve, e.id)
            old = _edge_rhs_reference(curve, e.id)
            assert (new, repr(new)) == (old, repr(old)), name


def test_solve_and_verify_match_chained_products():
    # the realizable (tuned) copies take the assignment path
    rng = random.Random(53)
    instances = [(name, curve) for name, curve, _ in cases(47, generated=10)]
    instances += [(f"{name}+tuned", tuned)
                  for name, curve in instances
                  if (tuned := tuned_exact_curve(rng, curve, Fraction(0)))]
    solved = 0
    for name, curve in instances:
        mode = curve.lattice.mode
        system = assemble_system(curve)
        solution = solve_monomial(system, mode)
        u, d, v = dense_snf(system.exponents, len(system.flags))
        rank = sum(1 for x in d if x)
        c = [_chained(zip(system.rhs, row)) for row in u]
        assert [w.value for w in solution.witnesses] == c[rank:], name
        if solution.assignment is not None:
            z = [mv_root(c[i], d[i]) for i in range(rank)]
            z += [MulValue.identity()] * (len(v) - rank)
            want = [_chained(zip(z, row)) for row in v]
            assert [repr(x) for x in solution.assignment] == \
                [repr(x) for x in want], name
            assert verify_assignment(system, solution.assignment, mode) \
                == _verify_reference(system, solution.assignment, mode) \
                == [], name
            solved += 1
        guess = [MulValue.polar(Fraction(j % 3 + 1, 2), Fraction(j, 5))
                 for j in range(len(system.flags))]
        failures = verify_assignment(system, guess, mode)
        assert failures, name
        assert failures == _verify_reference(system, guess, mode), name
    assert solved >= len(instances) // 3


def test_solve_takes_roots_only_of_non_unit_invariant_factors():
    # A unit diagonal entry keeps the value itself as its first root;
    # every other entry still takes the principal root.  The systems of
    # the cyclic covers have unit invariant factors only (other curves
    # can have torsion, but none at hand does), so these are random.
    rng = random.Random(37)
    non_unit = free = torsion = 0
    for _ in range(80):
        nrows = rng.randrange(1, 4)
        ncols = rng.randrange(nrows, 5)
        a = [[rng.randrange(-4, 5) for _ in range(ncols)]
             for _ in range(nrows)]
        rhs = [MulValue.polar(Fraction(rng.randrange(1, 30),
                                       rng.randrange(1, 30)),
                              Fraction(rng.randrange(12), 12))
               for _ in range(nrows)]
        system = MonomialSystem(to_rows(a), rhs,
                                [f"r{i}" for i in range(nrows)],
                                [("v", f"e{j}") for j in range(ncols)])
        solution = solve_monomial(system, EqualityMode.EXACT)
        u, diag, v = dense_snf(to_rows(a), ncols)
        # witnesses are rows of U; kernel generators are columns of V,
        # sparse: the nonzeros of the column, and no zero stored
        rank = sum(1 for x in diag if x)
        assert [w.combination for w in solution.witnesses] == u[rank:]
        assert solution.kernel_free == [
            {j: row[k] for j, row in enumerate(v) if row[k]}
            for k in range(rank, ncols)]
        assert all(all(gen.values()) for gen in solution.kernel_free)
        assert solution.kernel_torsion == [
            {j: MulValue.phase_turns(Fraction(row[k], diag[k]))
             for j, row in enumerate(v) if row[k]}
            for k in range(rank) if diag[k] >= 2]
        free += len(solution.kernel_free)
        torsion += len(solution.kernel_torsion)
        if not all(diag):
            continue
        c = [product(mv_pow(b, x) for b, x in zip(rhs, row)) for row in u]
        z = [mv_root(c[i], diag[i]) for i in range(nrows)]
        z += [MulValue.identity()] * (ncols - nrows)
        assert solution.feasible is True
        assert solution.assignment == [
            product(mv_pow(zk, x) for zk, x in zip(z, row)) for row in v]
        assert verify_assignment(system, solution.assignment,
                                 EqualityMode.EXACT) == []
        non_unit += max(diag) > 1
    assert non_unit >= 10 and free >= 10 and torsion >= 10


@pytest.mark.parametrize("k", [2, 5, 16])
@pytest.mark.parametrize("base", sorted(covers.BASES))
def test_cover_witnesses_eliminate_every_unknown(base, k):
    # checked on the system alone, not against snf: y^T A = 0 and the
    # witness value is the product of rhs_i^y_i
    curve, _ = covers.cover_instance(base, k, None)
    system = assemble_system(curve)
    solution = solve_monomial(system)
    assert solution.witnesses
    for w in solution.witnesses:
        y = w.combination
        assert len(y) == len(system.exponents) and any(y)
        total = [0] * len(system.flags)
        for yi, row in zip(y, system.exponents):
            for j, x in row.items():
                total[j] += yi * x
        assert not any(total)
        assert w.value == mv_prod(zip(system.rhs, y))


def _bfs_non_tree_edges(curve) -> list[int]:
    """Indices, in curve order, of the edges outside the breadth-first
    spanning tree grown from the first vertex, each vertex's edges taken
    in curve order."""
    incident = {v.id: [] for v in curve.vertices}
    for i, e in enumerate(curve.edges):
        incident[e.tail].append(i)
        if e.head != e.tail:
            incident[e.head].append(i)
    seen = {curve.vertices[0].id}
    queue = [curve.vertices[0].id]
    tree = set()
    for vid in queue:
        for i in incident[vid]:
            e = curve.edges[i]
            other = e.head if e.tail == vid else e.tail
            if other not in seen:
                seen.add(other)
                queue.append(other)
                tree.add(i)
    assert len(seen) == len(curve.vertices)
    return [i for i in range(len(curve.edges)) if i not in tree]


@pytest.mark.parametrize("k", [16, 64])
@pytest.mark.parametrize("base", sorted(covers.BASES))
def test_free_kernel_spans_the_cycle_lattice(base, k):
    # each edge row is x_tail * x_head = rhs on two flags no other edge
    # row reads, so a free generator is a circulation, x_head = -x_tail;
    # the generators span the cycle lattice (the edge weights are
    # uniform on a cover) if and only if their values on the edges
    # outside a spanning tree form a unimodular matrix.  The determinant
    # is Bareiss's, which shares no code with snf.
    curve, _ = covers.cover_instance(base, k, None)
    solution = solve_monomial(assemble_system(curve))
    free = solution.kernel_free
    assert len(free) == curve.genus
    for column in free:
        for i in range(len(curve.edges)):
            assert column.get(2 * i + 1, 0) == -column.get(2 * i, 0)
    non_tree = _bfs_non_tree_edges(curve)
    assert len(non_tree) == curve.genus
    matrix = [[column.get(2 * i, 0) for i in non_tree] for column in free]
    assert det_int(matrix) in (1, -1)
