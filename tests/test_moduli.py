import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from equivalence_cases import cases, covers
from tropcount import catalog
from tropcount.curve import MarkedPoint, subdivide, transform
from tropcount.errors import ConstraintError, InfeasibleError
from tropcount.exactmath import (nullspace_rational, rank_rational,
                                 snf_diagonal)
from tropcount.moduli import (INFINITE, build_D, build_F, count_curves,
                              deformation_ranks, dual_flag_space,
                              edge_weight_product, kernel_order_bruteforce,
                              kernel_order_gcstar, rigidity_check,
                              smallest_maximal_minor)
from tropcount.selftest import (base_instances, generated_curves,
                                random_subdivision_points, random_unimodular,
                                tuned_exact_curve)


def tuned(curve, seed=4, offset=Fraction(0)):
    out = tuned_exact_curve(random.Random(seed), curve, offset)
    assert out is not None
    return out


def test_build_F_shape_and_rows():
    curve = catalog.theta()
    f = [[row.get(j, 0) for j in range(4)] for row in build_F(curve)]
    assert len(f) == 3
    assert all(len(row) == 4 for row in f)
    # each row pairs +normal at the head block with -normal at the tail block
    for row, edge in zip(f, curve.edges):
        n = edge.primitive_normal
        tail = 2 * [v.id for v in curve.vertices].index(edge.tail)
        head = 2 * [v.id for v in curve.vertices].index(edge.head)
        assert (row[head], row[head + 1]) == n
        assert (row[tail], row[tail + 1]) == (-n[0], -n[1])


def test_deformation_ranks():
    # 3-valent genus-2 curves: kernel rank g, cokernel rank 1
    assert deformation_ranks(catalog.theta()) == (2, 1)
    assert deformation_ranks(catalog.theta_double()) == (2, 1)
    assert deformation_ranks(catalog.triple_vertex()) == (2, 1)
    # straight wrapping cycles with n 2-valent vertices: (n + 1, 1)
    assert deformation_ranks(catalog.wrapping_cycle(2)) == (3, 1)
    assert deformation_ranks(catalog.wrapping_cycle(5)) == (6, 1)


def test_dual_flag_space_one_dimensional():
    for make in (catalog.theta, catalog.theta_double, catalog.triple_vertex):
        dim, gen = dual_flag_space(make())
        assert dim == 1
        assert gen is not None
        assert any(coeff != 0 for pair in gen.values() for coeff in pair)


def test_dual_flag_dimension_is_the_space_dimension():
    # analyze reports the rank of Coker F as the dual flag dimension: the
    # vertex conditions of the dual flag space are the rows of F transposed
    curves = base_instances() + generated_curves(random.Random(67), 30)
    curves += [(f"{base}-cover{k}", *covers.cover_instance(base, k, None))
               for base in sorted(covers.BASES) for k in (1, 2, 5, 16)]
    dims = set()
    for name, curve, _ in curves:
        dim = dual_flag_space(curve)[0]
        assert deformation_ranks(curve)[1] == dim, name
        dims.add(dim)
    assert dims == {1}


def test_rigidity():
    theta = catalog.theta()
    assert rigidity_check(theta, catalog.theta_marks()) is True
    # two marks on the same edge only constrain one direction
    assert rigidity_check(theta, [MarkedPoint("e1", Fraction(1, 3)),
                                  MarkedPoint("e1", Fraction(2, 3))]) is False
    # a single mark cannot pin a 2-dimensional deformation space
    assert rigidity_check(theta, [MarkedPoint("e1", Fraction(1, 3))]) is False
    assert rigidity_check(catalog.triple_vertex(),
                          [MarkedPoint("f1", Fraction(1, 2)),
                           MarkedPoint("f2", Fraction(1, 3))]) is True
    # one mark on a wrapping cycle pins the single non-slide direction
    assert rigidity_check(catalog.wrapping_cycle(2),
                          [MarkedPoint("s1", Fraction(1, 2))]) is True


def test_rigidity_survives_subdivision():
    theta = catalog.theta()
    marks = catalog.theta_marks()
    finer, _ = subdivide(theta, [MarkedPoint("e3", Fraction(1, 2))])
    assert rigidity_check(finer, marks) is True


def test_rigidity_rejects_unknown_edge():
    with pytest.raises(ConstraintError, match="nope"):
        rigidity_check(catalog.theta(), [MarkedPoint("nope", Fraction(1, 2)),
                                         MarkedPoint("e2", Fraction(1, 2))])


def _rigidity_reference(curve, marks):
    """Nullspace-then-composite rigidity: the version the stacked rank of
    [F; E] replaced, kept as its reference.  Evaluation is restricted to a
    basis of Ker F and must be injective modulo the slides."""
    index = {v.id: i for i, v in enumerate(curve.vertices)}
    kernel = nullspace_rational(build_F(curve), 2 * len(curve.vertices))
    slides = sum(1 for v in curve.vertices if curve.valence(v.id) == 2)
    if len(kernel) <= slides:
        return True
    eval_rows = []
    for mark in marks:
        e = curve.edge(mark.edge)
        nx, ny = e.primitive_normal
        ti = index[e.tail]
        row = [Fraction(0)] * (2 * len(curve.vertices))
        row[2 * ti] = Fraction(nx)
        row[2 * ti + 1] = Fraction(ny)
        eval_rows.append(row)
    composite = [
        [sum(row[i] * vec[i] for i in range(len(vec))) for vec in kernel]
        for row in eval_rows
    ]
    # each row scaled to integers by the lcm of its denominators
    composite = [{j: int(x * lcm(*(y.denominator for y in row)))
                  for j, x in enumerate(row) if x} for row in composite]
    return rank_rational(composite) == len(kernel) - slides


def _random_points(rng, curve, count):
    points = {}
    for _ in range(count):
        e = rng.choice(curve.edges)
        points[(e.id, Fraction(rng.randrange(1, 12), 12))] = None
    return [MarkedPoint(eid, t) for eid, t in points]


def test_rigidity_matches_composite_reference():
    rng = random.Random(43)
    bases = [catalog.theta(), catalog.theta_double(), catalog.triple_vertex(),
             catalog.wrapping_cycle(2), catalog.wrapping_cycle(4, 3)]
    cases = [(catalog.theta(), catalog.theta_marks()),
             (catalog.theta_double(), catalog.theta_marks()),
             (catalog.triple_vertex(), [MarkedPoint("f1", Fraction(1, 2)),
                                        MarkedPoint("f2", Fraction(1, 3))]),
             (catalog.wrapping_cycle(2), [MarkedPoint("s1", Fraction(1, 2))])]
    for _ in range(600):
        curve = rng.choice(bases)
        if rng.random() < 0.5:
            det = rng.choice((1, -1))
            curve = transform(curve, random_unimodular(rng, det))
        if rng.random() < 0.6:
            # subdividing adds 2-valent vertices and with them slides
            curve, _ = subdivide(curve, _random_points(rng, curve,
                                                       rng.randrange(1, 4)))
        marks = _random_points(rng, curve, rng.randrange(0, curve.genus + 2))
        cases.append((curve, marks))
    verdicts = []
    for curve, marks in cases:
        verdict = rigidity_check(curve, marks)
        assert verdict == _rigidity_reference(curve, marks), (curve, marks)
        verdicts.append(verdict)
    # both outcomes are exercised, the rigid one well beyond the catalog
    assert verdicts.count(True) > 40 and verdicts.count(False) > 40


def test_build_D_shape():
    curve = catalog.theta()
    gamma, new_ids = subdivide(curve, catalog.theta_marks())
    d = build_D(gamma, new_ids)
    # one row per edge plus two pin rows per marked vertex
    assert len(d) == len(gamma.edges) + 2 * len(new_ids)
    assert all(len(row) == 2 * len(gamma.vertices) for row in d)


def test_kernel_order_goldens():
    theta = catalog.theta()
    marks = catalog.theta_marks()
    result = kernel_order_gcstar(theta, marks)
    assert result.finite
    assert result.order == 1

    result = kernel_order_gcstar(catalog.theta_double(), marks)
    assert result.finite
    assert result.order == 1

    result = kernel_order_gcstar(
        catalog.triple_vertex(),
        [MarkedPoint("f1", Fraction(1, 2)), MarkedPoint("f2", Fraction(1, 3))])
    assert result.finite
    assert result.order == 9
    assert tuple(x for x in result.invariant_factors if x > 1) == (3, 3)


def test_kernel_order_matches_bruteforce_on_catalog():
    instances = [
        (catalog.theta(), catalog.theta_marks()),
        (catalog.theta_double(), catalog.theta_marks()),
        (catalog.triple_vertex(), [MarkedPoint("f1", Fraction(1, 2)),
                                   MarkedPoint("f2", Fraction(1, 3))]),
    ]
    for curve, marks in instances:
        gamma, ids = subdivide(curve, marks)
        d = build_D(gamma, ids)
        assert kernel_order_bruteforce(d) == \
            kernel_order_gcstar(curve, marks).order


def test_kernel_order_factors_match_snf_of_D():
    # The Smith form runs on F without the pinned columns; its factors
    # with one 1 per pinning row must be those of the whole D.  Random
    # point sets (several per edge, too few or too many) reach infinite
    # kernels and unmarked 2-valent vertices as well.
    rng = random.Random(73)
    cases = base_instances() + generated_curves(rng, 40, keep_marks=True)
    cases += [(name, curve, random_subdivision_points(rng, curve))
              for name, curve, _ in generated_curves(rng, 30)]
    infinite = 0
    for name, curve, marks in cases:
        gamma, ids = subdivide(curve, marks)
        d = build_D(gamma, ids)
        nonzero = tuple(x for x in snf_diagonal(d) if x)
        result = kernel_order_gcstar(curve, marks)
        assert result.invariant_factors == nonzero, name
        assert result.corank == len(d[0]) - len(nonzero), name
        infinite += not result.finite
    assert 0 < infinite < len(cases)


def _kernel_order_subdivided(curve, marks):
    """(factors, corank, slides, order) from the Smith form of F of the
    curve subdivided at the marks, with the marked vertices' columns
    deleted."""
    gamma, marked_ids = subdivide(curve, marks)
    index = {v.id: i for i, v in enumerate(gamma.vertices)}
    pinned = {2 * index[vid] + k for vid in marked_ids for k in (0, 1)}
    keep = [j for j in range(2 * len(gamma.vertices)) if j not in pinned]
    f = [[row.get(j, 0) for j in keep] for row in build_F(gamma)]
    nonzero = [1] * len(pinned) + [x for x in snf_diagonal(f) if x]
    corank = 2 * len(gamma.vertices) - len(nonzero)
    slides = sum(1 for v in gamma.vertices
                 if gamma.valence(v.id) == 2 and v.id not in marked_ids)
    order = INFINITE
    if corank == slides:
        order = 1
        for x in nonzero:
            order *= x
    return tuple(nonzero), corank, slides, order


def _random_marks(rng, curve):
    """Zero to three marks on about half of the edges, shuffled."""
    marks = []
    for e in curve.edges:
        if rng.random() < 0.5:
            ts = rng.sample(range(1, 12), rng.randrange(1, 4))
            marks += [MarkedPoint(e.id, Fraction(t, 12)) for t in ts]
    rng.shuffle(marks)
    return marks


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # both routes must fail the same way
        return type(exc), str(exc)


def test_kernel_order_matches_subdivided_route():
    rng = random.Random(59)
    bad = [MarkedPoint("e1", Fraction(3, 2)), MarkedPoint("e1", Fraction(0)),
           MarkedPoint("nope", Fraction(1, 2))]
    finite = infinite = failed = 0
    for name, curve, marks in cases(seed=61):
        if name.endswith("+exact"):
            continue  # the multipliers play no part here
        for mk in (marks, _random_marks(rng, curve), _random_marks(rng, curve),
                   marks + marks[:1], marks + [rng.choice(bad)]):
            new = _outcome(kernel_order_gcstar, curve, mk)
            if isinstance(new, tuple):
                failed += 1
            else:
                new = (new.invariant_factors, new.corank, new.slide_rank,
                       new.order)
                finite += new[3] != INFINITE
                infinite += new[3] == INFINITE
            assert new == _outcome(_kernel_order_subdivided, curve, mk), name
    assert min(finite, infinite, failed) > 20


def test_kernel_order_slides_are_quotiented():
    # unmarked 2-valent vertices contribute corank without making the
    # kernel infinite
    cyc = catalog.wrapping_cycle(2)
    result = kernel_order_gcstar(cyc, [MarkedPoint("s1", Fraction(1, 2))])
    assert result.corank == 2
    assert result.slide_rank == 2
    assert result.finite
    assert result.order == 1


def test_kernel_order_infinite_detected():
    # no marks at all leaves the full deformation torus
    result = kernel_order_gcstar(catalog.theta(), [])
    assert not result.finite
    assert result.order is INFINITE


@pytest.mark.parametrize("base", sorted(covers.BASES))
def test_kernel_order_heap_grows_about_linearly(base):
    # the kernel order needs the invariant factors alone, so its heap
    # peak should follow the sparse F and V, not a transform that fills
    # in: at most `growth` times the last peak per doubling of k
    growth = 2.6
    peaks = []
    for k in (64, 128, 256):
        curve, marks = covers.cover_instance(base, k, None)
        tracemalloc.start()
        try:
            kernel_order_gcstar(curve, marks)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    for k, small, large in zip((64, 128), peaks, peaks[1:]):
        assert large <= growth * small, (k, peaks)


def test_bruteforce_oracle():
    assert kernel_order_bruteforce([[2, 0], [0, 3]]) == 6
    assert kernel_order_bruteforce([[1, 0], [0, 1], [5, 7]]) == 1
    with pytest.raises(ConstraintError):
        kernel_order_bruteforce([[1, 1]])
    with pytest.raises(ConstraintError):
        kernel_order_bruteforce([[2, 4], [1, 2]])


def test_smallest_maximal_minor():
    assert smallest_maximal_minor([[2, 0], [0, 3]]) == 6
    assert smallest_maximal_minor([[1, 1]]) is None
    assert smallest_maximal_minor([[2, 4], [1, 2]]) is None
    assert smallest_maximal_minor([[6, 0], [0, 1], [0, 2]]) == 6


def test_edge_weight_product():
    assert edge_weight_product(catalog.theta()) == 1
    assert edge_weight_product(catalog.theta_double()) == 8
    assert edge_weight_product(catalog.wrapping_cycle(3, 2)) == 2
    # subdividing does not double-count a chain's weight
    finer, _ = subdivide(catalog.theta_double(),
                         [MarkedPoint("e3", Fraction(1, 2))])
    assert edge_weight_product(finer) == 8


def test_count_goldens():
    assert count_curves(tuned(catalog.theta()),
                        catalog.theta_marks()).total == 1
    assert count_curves(tuned(catalog.theta_double()),
                        catalog.theta_marks()).total == 8
    assert count_curves(
        tuned(catalog.triple_vertex()),
        [MarkedPoint("f1", Fraction(1, 2)),
         MarkedPoint("f2", Fraction(1, 3))]).total == 9
    assert count_curves(tuned(catalog.wrapping_cycle(3, 2)),
                        [MarkedPoint("s2", Fraction(1, 2))]).total == 2


@pytest.mark.parametrize("base", sorted(covers.BASES))
def test_pipeline_on_genus_65_covers(base):
    # the index-64 cover: 128 vertices, 192 edges, total = total(base)^64
    curve, marks = covers.cover_instance(base, 64, random.Random(1))
    total = {"theta": 1, "theta2": 8, "triple": 9}[base] ** 64
    assert count_curves(curve, marks).total == total
    assert deformation_ranks(curve) == (65, 1)
    assert dual_flag_space(curve)[0] == 1
    assert rigidity_check(curve, marks)


def test_count_invariance_under_subdivision_and_transform():
    rng = random.Random(29)
    curve = tuned(catalog.theta_double())
    marks = catalog.theta_marks()
    expected = count_curves(curve, marks).total
    finer, _ = subdivide(curve, [MarkedPoint("e3", Fraction(1, 3))])
    assert count_curves(finer, marks).total == expected
    for det in (1, -1):
        mapped = transform(curve, random_unimodular(rng, det))
        assert count_curves(mapped, marks).total == expected


def test_count_report_fields():
    report = count_curves(tuned(catalog.theta_double()),
                          catalog.theta_marks())
    assert report.kernel.order == 1
    assert report.edge_weight_product == 8
    assert report.total == 8
    assert report.realizability.verdict is True
    doc = report.to_dict()
    assert doc["total"] == 8
    assert doc["edge_weight_product"] == 8


def test_count_errors():
    # formal sigma is nontrivial: infeasible
    with pytest.raises(InfeasibleError):
        count_curves(catalog.theta(), catalog.theta_marks())
    # sigma tuned away from the target: infeasible
    off = tuned(catalog.theta(), offset=Fraction(1, 2))
    with pytest.raises(InfeasibleError):
        count_curves(off, catalog.theta_marks())
    # number of marks must match the genus
    with pytest.raises(ConstraintError):
        count_curves(tuned(catalog.theta()),
                     [MarkedPoint("e1", Fraction(1, 3))])
    # marks that do not pin the curve
    with pytest.raises(ConstraintError):
        count_curves(tuned(catalog.theta()),
                     [MarkedPoint("e1", Fraction(1, 3)),
                      MarkedPoint("e1", Fraction(2, 3))])
