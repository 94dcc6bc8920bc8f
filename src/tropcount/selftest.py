"""Property suites over randomly generated curves.

Shared by the `selftest` command and the test suite: every suite is a
function from a seeded random generator and a case budget to a SuiteResult
with pass/fail and counterexample text.  All generation is deterministic
for a fixed seed.
"""

import itertools
import math
import random
from fractions import Fraction

from . import catalog
from .curve import (ALPHA_KEYS, MarkedPoint, PeriodLattice, TropicalCurve,
                    offset_sequence, relift, subdivide, transform)
from .curvefile import dumps_curve
from .errors import DegeneracyError, ParseError
from .exactmath import det_int, log_row, mat_mul, rank_rational, snf, to_rows
from .moduli import (build_D, count_curves, deformation_ranks,
                     dual_flag_space, kernel_order_bruteforce,
                     kernel_order_gcstar, rigidity_check,
                     smallest_maximal_minor)
from .prelog import (VertexModel, assemble_system, left_kernel_vector,
                     prelog_exists, solve_monomial, solve_root_congruence,
                     verify_assignment)
from .realize import (is_realizable, realizability_target, sigma_cocycle,
                      sigma_geometric)
from .record import Record
from .valuegroup import EqualityMode, MulValue, mv_eval_numeric, mv_pow


class SuiteResult(Record):
    name: str
    checks: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        if self.passed:
            return f"PASS {self.name} ({self.checks} checks)"
        return f"FAIL {self.name}: {self.failures[0]}"


# --------------------------------------------------------------------------
# generators
# --------------------------------------------------------------------------

_T_CHOICES = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 5), Fraction(1, 4),
              Fraction(3, 5), Fraction(2, 3)]
_MODULI = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
           Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5, 2)]


def with_multipliers(
    curve: TropicalCurve,
    mode: EqualityMode,
    multipliers: dict[str, MulValue] | None = None,
    numeric_values: dict[str, complex] | None = None,
) -> TropicalCurve:
    """Same curve, new multiplier assignment on the same periods."""
    lat = curve.lattice
    new_lat = PeriodLattice(lat.period1, lat.period2, mode=mode,
                            multipliers=multipliers or {},
                            numeric_values=numeric_values or {})
    return TropicalCurve(new_lat, curve.vertices, curve.edges)


def random_polar(rng: random.Random) -> MulValue:
    modulus = rng.choice(_MODULI)
    denom = rng.randrange(1, 9)
    turns = Fraction(rng.randrange(denom), denom)
    return MulValue.polar(modulus, turns)


def random_exact_curve(rng: random.Random, curve: TropicalCurve):
    return with_multipliers(
        curve, EqualityMode.EXACT,
        {key: random_polar(rng) for key in ALPHA_KEYS})


def tuned_exact_curve(
    rng: random.Random, curve: TropicalCurve, offset_turns: Fraction
) -> TropicalCurve | None:
    """Exact multipliers making sigma equal exp(2 pi i offset) times the
    realizability target; offset 0 gives a realizable instance.

    Returns None when sigma involves no multiplier at all (nothing to tune).
    """
    formal = with_multipliers(curve, EqualityMode.FORMAL)
    sigma = sigma_cocycle(formal)
    target = realizability_target(formal)
    coeffs = dict(sigma.symbols)
    support = [key for key in ALPHA_KEYS if coeffs.get(key)]
    if not support:
        return None
    desired = (target.phase + offset_turns - sigma.phase) % 1

    moduli = {key: Fraction(1) for key in ALPHA_KEYS}
    for key in ALPHA_KEYS:
        if key not in support:
            moduli[key] = rng.choice(_MODULI)
    if len(support) >= 2:
        base = rng.choice([Fraction(2), Fraction(3), Fraction(1, 2)])
        i, j = support[0], support[1]
        ci, cj = coeffs[i], coeffs[j]
        scale = ci.denominator * cj.denominator
        ni, nj = int(ci * scale), int(cj * scale)
        moduli[i] = base ** nj
        moduli[j] = base ** (-ni)

    turns = {}
    for key in ALPHA_KEYS:
        if key != support[0]:
            denom = rng.randrange(1, 7)
            turns[key] = Fraction(rng.randrange(denom), denom)
    acc = sum((coeffs[key] * turns[key] for key in support[1:]), Fraction(0))
    turns[support[0]] = (desired - acc) / coeffs[support[0]]

    values = {key: MulValue.polar(moduli[key], turns[key])
              for key in ALPHA_KEYS}
    return with_multipliers(curve, EqualityMode.EXACT, values)


def random_unimodular(rng: random.Random, det: int = 1) -> list[list[int]]:
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randrange(1, 4)):
        k = rng.choice([-2, -1, 1, 2])
        if rng.random() < 0.5:
            shear = [[1, k], [0, 1]]
        else:
            shear = [[1, 0], [k, 1]]
        m = mat_mul(m, shear)
    if det == -1:
        m = mat_mul(m, [[1, 0], [0, -1]])
    return m


def random_relift_moves(rng: random.Random, curve: TropicalCurve):
    moves = {}
    for v in curve.vertices:
        if rng.random() < 0.6:
            moves[v.id] = (rng.randrange(-2, 3), rng.randrange(-2, 3))
    return moves


def random_subdivision_points(
    rng: random.Random, curve: TropicalCurve, avoid_edges=(),
) -> list[MarkedPoint]:
    points = []
    eligible = [e.id for e in curve.edges if e.id not in avoid_edges]
    rng.shuffle(eligible)
    for eid in eligible[:rng.randrange(0, 3)]:
        ts = rng.sample(_T_CHOICES, rng.randrange(1, 3))
        points.extend(MarkedPoint(eid, t) for t in ts)
    return points


def base_instances():
    """(name, curve, marks) with marks rigidifying the 3-valent bases."""
    return [
        ("theta", catalog.theta(), catalog.theta_marks()),
        ("theta2", catalog.theta_double(), catalog.theta_marks()),
        ("triple", catalog.triple_vertex(),
         [MarkedPoint("f1", Fraction(1, 2)), MarkedPoint("f2", Fraction(1, 3))]),
        ("cycle2", catalog.wrapping_cycle(2),
         [MarkedPoint("s1", Fraction(1, 2))]),
        ("cycle3w2", catalog.wrapping_cycle(3, 2),
         [MarkedPoint("s2", Fraction(1, 2))]),
    ]


def generated_curves(rng: random.Random, n: int, *,
                     three_valent_only: bool = False,
                     keep_marks: bool = False):
    """Deterministic stream of (name, curve, marks) built from the catalog
    by subdivision (skipped for 3-valent-only), relift, and unimodular
    transform."""
    bases = base_instances()
    if three_valent_only:
        bases = [b for b in bases if not b[0].startswith("cycle")]
    out = []
    i = 0
    while len(out) < n:
        name, curve, marks = bases[i % len(bases)]
        i += 1
        tags = [name]
        if not three_valent_only and rng.random() < 0.7:
            avoid = {m.edge for m in marks} if keep_marks else ()
            points = random_subdivision_points(rng, curve, avoid)
            if points:
                curve, _ = subdivide(curve, points)
                tags.append(f"sub{len(points)}")
        if rng.random() < 0.7:
            moves = random_relift_moves(rng, curve)
            if moves:
                curve = relift(curve, moves)
                tags.append("relift")
        if rng.random() < 0.6:
            a = random_unimodular(rng, det=rng.choice([1, 1, -1]))
            curve = transform(curve, a)
            tags.append(f"T{a}")
        out.append(("+".join(tags), curve, marks))
    return out


def _describe(name: str, curve: TropicalCurve) -> str:
    try:
        return f"{name}\n{dumps_curve(curve)}"
    except ParseError:
        # transformed formal/numeric curves are not file-representable;
        # fall back to the multiplier expressions themselves
        mults = ", ".join(f"{k}={v}"
                          for k, v in curve.lattice.multipliers.items())
        return f"{name} [{mults}]"


# --------------------------------------------------------------------------
# suites
# --------------------------------------------------------------------------


def _good_offsets(curve: TropicalCurve, want: int):
    found = []
    for offset in offset_sequence(40):
        try:
            sigma_geometric(curve, offset)
        except DegeneracyError:
            continue
        found.append(offset)
        if len(found) == want:
            return found
    raise DegeneracyError("could not find enough generic offsets")


def suite_sigma_two_way(rng: random.Random, cases: int) -> SuiteResult:
    failures = []
    checks = 0
    for name, curve, _ in generated_curves(rng, cases):
        reference = sigma_cocycle(curve)
        for offset in _good_offsets(curve, 3):
            checks += 1
            geometric = sigma_geometric(curve, offset)
            if geometric != reference:
                failures.append(
                    f"cocycle {reference} != geometric {geometric} at "
                    f"offset {offset} on {_describe(name, curve)}")
    return SuiteResult("sigma-two-way", checks, failures)


def suite_sigma_well_defined(rng: random.Random, cases: int) -> SuiteResult:
    failures = []
    checks = 0
    for name, curve, _ in generated_curves(rng, cases):
        exact = tuned_exact_curve(
            rng, curve, rng.choice([Fraction(0), Fraction(1, 2)]))
        variants = [curve] if exact is None else [curve, exact]
        for base in variants:
            sigma = sigma_cocycle(base)
            verdict = is_realizable(base).verdict

            moved = relift(base, random_relift_moves(rng, base))
            checks += 1
            if sigma_cocycle(moved) != sigma:
                failures.append(f"sigma changed under relift on "
                                f"{_describe(name, base)}")
            for det in (1, -1):
                a = random_unimodular(rng, det)
                mapped = transform(base, a)
                expected = sigma if det == 1 else sigma ** -1
                checks += 1
                if sigma_cocycle(mapped) != expected:
                    failures.append(
                        f"sigma not {'invariant' if det == 1 else 'inverted'} "
                        f"under det={det} transform {a} on "
                        f"{_describe(name, base)}")
                if is_realizable(mapped).verdict != verdict:
                    failures.append(
                        f"verdict changed under transform {a} on "
                        f"{_describe(name, base)}")
            if is_realizable(moved).verdict != verdict:
                failures.append(
                    f"verdict changed under relift on {_describe(name, base)}")
    return SuiteResult("sigma-well-defined", checks, failures)


def suite_equivalence(rng: random.Random, cases: int) -> SuiteResult:
    """Realizability verdict equals gluing-system feasibility."""
    failures = []
    checks = 0
    for name, curve, _ in generated_curves(rng, cases):
        trials = [("formal", with_multipliers(curve, EqualityMode.FORMAL))]
        exact = random_exact_curve(rng, curve)
        trials.append(("exact-random", exact))
        for offset in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
            tuned = tuned_exact_curve(rng, curve, offset)
            if tuned is not None:
                trials.append((f"exact-tuned-{offset}", tuned))
        for kind, instance in trials:
            checks += 1
            verdict = is_realizable(instance).verdict
            feasible, _ = prelog_exists(instance)
            if verdict != feasible:
                failures.append(
                    f"[{kind}] realizable={verdict} but prelog={feasible} "
                    f"on {_describe(name, instance)}")
    return SuiteResult("realizability-prelog-equivalence", checks, failures)


def _dot(u, w):
    return u[0] * w[0] + u[1] * w[1]


def suite_ranks(rng: random.Random, cases: int) -> SuiteResult:
    failures = []
    checks = 0
    for name, curve, _ in generated_curves(rng, cases,
                                           three_valent_only=True):
        g = curve.genus
        rank_kernel, rank_cokernel = deformation_ranks(curve)
        checks += 1
        if rank_cokernel != 1 or rank_kernel != g:
            failures.append(
                f"ranks ({rank_kernel}, {rank_cokernel}) != ({g}, 1) on "
                f"{_describe(name, curve)}")
        if rank_kernel != g - 1 + rank_cokernel:
            failures.append(
                f"kernel/cokernel identity fails on {_describe(name, curve)}")

        dim, generator = dual_flag_space(curve)
        checks += 1
        if dim != 1 or generator is None:
            failures.append(
                f"dual flag dimension {dim} != 1 on {_describe(name, curve)}")
            continue
        for v in curve.vertices:
            total = (Fraction(0), Fraction(0))
            for e in curve.incident_edges_flags(v.id):
                u = generator[(v.id, e.id)]
                w = curve.outgoing_vector(v.id, e)
                checks += 1
                if _dot(u, w) != 0:
                    failures.append(
                        f"generator not orthogonal at ({v.id}, {e.id}) on "
                        f"{_describe(name, curve)}")
                total = (total[0] + u[0], total[1] + u[1])
            if total != (0, 0):
                failures.append(
                    f"generator does not sum to zero at {v.id} on "
                    f"{_describe(name, curve)}")
        for e in curve.edges:
            ut = generator[(e.tail, e.id)]
            uh = generator[(e.head, e.id)]
            if (ut[0] + uh[0], ut[1] + uh[1]) != (0, 0):
                failures.append(
                    f"generator edge covectors do not cancel on {e.id} of "
                    f"{_describe(name, curve)}")

        # subdivided curves stay at-most-3-valent; the dimension persists
        sub, _ = subdivide(curve, random_subdivision_points(rng, curve))
        dim_sub, _ = dual_flag_space(sub)
        checks += 1
        if dim_sub != 1:
            failures.append(
                f"dual flag dimension {dim_sub} != 1 after subdivision of "
                f"{_describe(name, curve)}")
    return SuiteResult("deformation-ranks", checks, failures)


def suite_kernel_oracle(rng: random.Random, cases: int) -> SuiteResult:
    failures = []
    checks = 0

    # toy diagonal instance: rows 2x, 3y
    checks += 1
    if kernel_order_bruteforce([[2, 0], [0, 3]]) != 6:
        failures.append("toy diagonal instance: expected 6")

    # random full-rank matrices: product of invariant factors vs exhaustion.
    # The oracle enumerates (Z/L)^n, so reject draws whose modulus L makes
    # that grid too large to walk; this filters on cost, not on content.
    budget = 200_000
    produced = 0
    while produced < cases:
        n = rng.randrange(2, 5)
        extra = rng.randrange(0, 2)
        d = [[rng.randrange(-3, 4) for _ in range(n)]
             for _ in range(n + extra)]
        if rank_rational(to_rows(d)) < n:
            continue
        minor = smallest_maximal_minor(d)
        if minor is None or minor ** n > budget:
            continue
        produced += 1
        order = 1
        for x in snf(to_rows(d), n)[1]:
            order *= x
        checks += 1
        brute = kernel_order_bruteforce(d)
        if brute != order:
            failures.append(
                f"matrix oracle mismatch: snf {order} != brute {brute} "
                f"for D={d}")

    # curve instances with every 2-valent vertex marked
    for name, curve, marks in generated_curves(rng, max(6, cases // 4),
                                               three_valent_only=True):
        gamma, ids = subdivide(curve, marks)
        d = build_D(gamma, ids)
        result = kernel_order_gcstar(curve, marks)
        checks += 1
        if not result.finite:
            failures.append(f"unexpected infinite kernel on "
                            f"{_describe(name, curve)}")
            continue
        minor = smallest_maximal_minor(d)
        if (len(d[0]) <= 12 and minor is not None
                and minor ** len(d[0]) <= budget):
            brute = kernel_order_bruteforce(d)
            if brute != result.order:
                failures.append(
                    f"kernel mismatch: snf {result.order} != brute {brute} "
                    f"on {_describe(name, curve)}")
    return SuiteResult("kernel-oracle", checks, failures)


def closed_form_total(curve: TropicalCurve,
                      marks: list[MarkedPoint]) -> tuple[int, int]:
    """count's total in closed form, as (numerator, denominator): delta
    times the product of the vertex weights of the 3-valent vertices
    over the product of the weights of the marked edges, or delta when
    no vertex is 3-valent (a cycle).  An identity count_curves has been
    seen to follow, checked here; it shares no code with snf."""
    three_valent = [v.id for v in curve.vertices if curve.valence(v.id) == 3]
    if not three_valent:
        return curve.delta, 1
    numerator, denominator = curve.delta, 1
    for vid in three_valent:
        numerator *= curve.vertex_weight(vid)
    for m in marks:
        denominator *= curve.edge(m.edge).weight
    g = math.gcd(numerator, denominator)
    return numerator // g, denominator // g


def suite_count_invariance(rng: random.Random, cases: int) -> SuiteResult:
    failures = []
    checks = 0

    def closed_form(name, curve, marks, total):
        nonlocal checks
        checks += 1
        want = closed_form_total(curve, marks)
        if (total, 1) != want:
            failures.append(
                f"count {total} != closed form {want[0]}/{want[1]} on "
                f"{_describe(name, curve)}")

    goldens = [("theta", catalog.theta(), catalog.theta_marks(), 1),
               ("theta2", catalog.theta_double(), catalog.theta_marks(), 8)]
    for name, curve, marks, expected in goldens:
        tuned = tuned_exact_curve(rng, curve, Fraction(0))
        report = count_curves(tuned, marks)
        checks += 1
        if report.total != expected:
            failures.append(
                f"golden count {report.total} != {expected} for {name}")
        closed_form(name, tuned, marks, report.total)

    for name, curve, marks in generated_curves(rng, cases,
                                               three_valent_only=True):
        tuned = tuned_exact_curve(rng, curve, Fraction(0))
        if tuned is None or not rigidity_check(tuned, marks):
            continue
        base_report = count_curves(tuned, marks)
        checks += 1
        closed_form(name, tuned, marks, base_report.total)

        avoid = {m.edge for m in marks}
        points = random_subdivision_points(rng, tuned, avoid)
        if points:
            sub, _ = subdivide(tuned, points)
            sub_report = count_curves(sub, marks)
            checks += 1
            closed_form(name, sub, marks, sub_report.total)
            if sub_report.total != base_report.total:
                failures.append(
                    f"count changed {base_report.total} -> "
                    f"{sub_report.total} under subdivision on "
                    f"{_describe(name, tuned)}")

        a = random_unimodular(rng, det=rng.choice([1, -1]))
        mapped = transform(tuned, a)
        mapped_report = count_curves(mapped, marks)
        checks += 1
        if mapped_report.total != base_report.total:
            failures.append(
                f"count changed {base_report.total} -> {mapped_report.total} "
                f"under transform {a} on {_describe(name, tuned)}")
        closed_form(name, mapped, marks, mapped_report.total)
    return SuiteResult("count-invariance", checks, failures)


def _random_vertex_model(rng: random.Random) -> VertexModel:
    while True:
        u1 = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        u2 = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        if u1[0] * u2[1] - u1[1] * u2[0] == 0:
            continue
        w1 = rng.randrange(1, 5)
        w2 = rng.randrange(1, 5)
        v1 = (w1 * u1[0], w1 * u1[1])
        v2 = (w2 * u2[0], w2 * u2[1])
        v3 = (-v1[0] - v2[0], -v1[1] - v2[1])
        if v3 == (0, 0):
            continue
        model = VertexModel((v1, v2, v3))
        if max(model.weights) <= 8:
            return model


def suite_vertex_parameters(rng: random.Random, cases: int) -> SuiteResult:
    failures = []
    checks = 0
    for _ in range(cases):
        model = _random_vertex_model(rng)
        e1, e2, e3 = model.exponents()
        rhs = model.relation_rhs()

        beta1 = random_polar(rng)
        beta2 = random_polar(rng)
        mu1, mu2, mu3 = model.mus_from_betas(beta1, beta2)
        relation = (mv_pow(mu1, e1) * mv_pow(mu2, e2) * mv_pow(mu3, e3))
        checks += 1
        if relation != rhs:
            failures.append(
                f"forward relation {relation} != {rhs} for {model}")
            continue

        back1, back2 = model.betas_from_mus(mu1, mu2, mu3)
        checks += 1
        if model.mus_from_betas(back1, back2) != (mu1, mu2, mu3):
            failures.append(f"round trip failed for {model}")

        # also drive the congruence solver directly
        w1, w2, w3 = model.weights
        g = model.weight_gcd
        n = rng.randrange(0, w3)
        sign = rng.choice([1, -1])
        l, m = solve_root_congruence(w1, w2, w3, g, sign, n)
        checks += 1
        if (l * w1 - m * w2) % w3 != (-sign * n * g) % w3:
            failures.append(
                f"congruence violated for weights ({w1},{w2},{w3}), "
                f"sign {sign}, n {n}")

        # numeric spot check with concrete complex betas
        numeric = {"b1": complex(1.3, 0.4), "b2": complex(-0.2, 1.1)}
        nmu = model.mus_from_betas(MulValue.symbol("b1"),
                                   MulValue.symbol("b2"))
        value = mv_eval_numeric(
            mv_pow(nmu[0], e1) * mv_pow(nmu[1], e2) * mv_pow(nmu[2], e3)
            / rhs, numeric)
        checks += 1
        if abs(value - 1) > 1e-9:
            failures.append(
                f"numeric relation off by {abs(value - 1)} for {model}")
    return SuiteResult("vertex-parameters", checks, failures)


def suite_solver_soundness(rng: random.Random, cases: int) -> SuiteResult:
    failures = []
    checks = 0
    for name, curve, _ in generated_curves(rng, cases):
        for offset in (Fraction(0), Fraction(1, 2)):
            instance = tuned_exact_curve(rng, curve, offset)
            if instance is None:
                instance = with_multipliers(curve, EqualityMode.FORMAL)
            system = assemble_system(instance)
            solution = solve_monomial(system, EqualityMode.EXACT
                                      if instance.lattice.mode
                                      == EqualityMode.EXACT
                                      else EqualityMode.FORMAL)

            # product-of-rows identity against the primitive row relation
            combo = left_kernel_vector(instance)
            acc = MulValue.identity()
            for coeff, value in zip(combo, system.rhs):
                acc = acc * mv_pow(value, coeff)
            expected = (realizability_target(instance)
                        / sigma_cocycle(instance))
            checks += 1
            if acc != expected:
                failures.append(
                    f"row-product identity {acc} != {expected} on "
                    f"{_describe(name, instance)}")

            if solution.feasible is True:
                bad = verify_assignment(system, solution.assignment,
                                        instance.lattice.mode)
                checks += 1
                if bad:
                    failures.append(
                        f"solved assignment fails rows {bad} on "
                        f"{_describe(name, instance)}")
            elif solution.feasible is False:
                checks += 1
                if not solution.witnesses:
                    failures.append(
                        f"infeasible with no witness on "
                        f"{_describe(name, instance)}")
                else:
                    verdicts = [w.verdict for w in solution.witnesses]
                    if False not in verdicts:
                        failures.append(
                            f"no failing witness recorded on "
                            f"{_describe(name, instance)}")

            # kernel generators must satisfy the homogeneous system; a
            # generator is sparse, a missing flag 0 or the identity
            for gen in solution.kernel_free:
                checks += 1
                for i, row in enumerate(system.exponents):
                    if sum(c * gen.get(j, 0) for j, c in row.items()) != 0:
                        failures.append(
                            f"free kernel generator breaks row "
                            f"{system.row_labels[i]} on "
                            f"{_describe(name, instance)}")
                        break
            for gen in solution.kernel_torsion:
                checks += 1
                for i, row in enumerate(system.exponents):
                    acc = MulValue.identity()
                    for j, c in row.items():
                        if j in gen:
                            acc = acc * mv_pow(gen[j], c)
                    if not acc.is_identity:
                        failures.append(
                            f"torsion kernel generator breaks row "
                            f"{system.row_labels[i]} on "
                            f"{_describe(name, instance)}")
                        break
    return SuiteResult("solver-soundness", checks, failures)


def _random_matrix(rng: random.Random):
    """A 1..12 by 1..12 matrix of entries in [-20, 20]."""
    rows = rng.randrange(1, 13)
    cols = rng.randrange(1, 13)
    return [[rng.randrange(-20, 21) for _ in range(cols)]
            for _ in range(rows)]


def _minor_gcd(a, k: int) -> int:
    nrows, ncols = len(a), len(a[0])
    g = 0
    for rows in itertools.combinations(range(nrows), k):
        for cols in itertools.combinations(range(ncols), k):
            sub = [[a[i][j] for j in cols] for i in rows]
            g = math.gcd(g, abs(det_int(sub)))
    return g


def suite_exactmath(rng: random.Random, cases: int) -> SuiteResult:
    failures = []
    checks = 0
    for _ in range(cases):
        a = _random_matrix(rng)
        log, diag, v = snf(to_rows(a), len(a[0]))
        checks += 1
        # U from the log's rows and V from its columns, dense for the oracle
        u = [log_row(log, i, len(a)) for i in range(len(a))]
        v = [[col.get(i, 0) for col in v] for i in range(len(a[0]))]
        s = [[diag[i] if i == j else 0 for j in range(len(a[0]))]
             for i in range(len(a))]
        if mat_mul(mat_mul(u, a), v) != s:
            failures.append(f"UAV != S for {a}")
            continue
        if abs(det_int(u)) != 1 or abs(det_int(v)) != 1:
            failures.append(f"transforms not unimodular for {a}")
        for x, y in zip(diag, diag[1:]):
            if y and not x:
                failures.append(f"zero before nonzero in diagonal for {a}")
            if x and y and y % x != 0:
                failures.append(f"divisibility fails in {diag} for {a}")
        entries = [x for row in a for x in row]
        if any(entries):
            g = 0
            for x in entries:
                g = math.gcd(g, abs(x))
            if diag[0] != g:
                failures.append(f"d1 {diag[0]} != entry gcd {g} for {a}")
        if len(a) == len(a[0]):
            product = 1
            for x in diag:
                product *= x
            if product != abs(det_int(a)):
                failures.append(f"prod(d) != |det| for {a}")

    # determinantal divisors on small matrices, exhaustively
    for _ in range(30):
        n = rng.randrange(1, 6)
        m = rng.randrange(1, 6)
        a = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(n)]
        diag = snf(to_rows(a), m)[1]
        previous = 1
        checks += 1
        for k in range(1, min(n, m) + 1):
            dk = _minor_gcd(a, k)
            expected = 0 if previous == 0 else dk // previous
            if diag[k - 1] != expected:
                failures.append(
                    f"invariant factor {k} is {diag[k - 1]}, expected "
                    f"{expected} from determinantal divisors for {a}")
                break
            previous = dk
    return SuiteResult("exact-linear-algebra", checks, failures)


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

SUITES = {
    "sigma-two-way": (suite_sigma_two_way, 50),
    "sigma-well-defined": (suite_sigma_well_defined, 12),
    "realizability-prelog-equivalence": (suite_equivalence, 12),
    "deformation-ranks": (suite_ranks, 20),
    "kernel-oracle": (suite_kernel_oracle, 30),
    "count-invariance": (suite_count_invariance, 10),
    "vertex-parameters": (suite_vertex_parameters, 30),
    "solver-soundness": (suite_solver_soundness, 8),
    "exact-linear-algebra": (suite_exactmath, 100),
}


def run_suite(name: str, seed: int = 0, cases: int | None = None
              ) -> SuiteResult:
    func, default_cases = SUITES[name]
    rng = random.Random(f"{name}:{seed}")
    return func(rng, cases if cases is not None else default_cases)


def run_all(seed: int = 0, cases: int | None = None) -> list[SuiteResult]:
    return [run_suite(name, seed, cases) for name in SUITES]
