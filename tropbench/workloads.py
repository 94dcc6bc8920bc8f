"""Workload job lists and the checks that judge each job's output.

A workload is a list of rounds.  Every round holds the same multiset of
jobs in a seeded order, so runs with different seeds do the same kind of
work.  They differ only in the multipliers, in which covers stay formal,
and in the order.  A job is
the argument list after `python -m tropcount.cli` plus a check that maps
(exit code, stdout) to None when the output is right, or to the reason it
is wrong.

Expected values come from outside the code under test wherever that is
feasible: genus, weights and edge weight products are read off the
generated geometry, totals follow the cover power law
total(cover_k) = total(base)^k with total(base) from the brute-force
kernel oracle on a matrix built here, and catalog values are the ones the
package README and catalog docstrings state.
"""

from __future__ import annotations

import json
import math
import os
import random
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from tropcount import catalog
from tropcount.curve import MarkedPoint, TropicalCurve
from tropcount.curvefile import dumps_curve
from tropcount.moduli import kernel_order_bruteforce
from tropcount.prelog import prelog_exists
from tropcount.selftest import tuned_exact_curve

from covers import BASES, cover_instance

Check = Callable[[int, str], "str | None"]

#: Cover indices of the scale workloads and how many jobs of each a
#: round holds per base.  The shares put the median in the middle of the
#: k=16 group and the 80th percentile inside the k=24 group, away from
#: the gaps between groups, and keep k=32 above a tenth of the jobs.  Two
#: rounds (54 jobs, enough for ten beyond the 80th percentile) fit in 40 s.
COUNT_MIX = {8: 3, 16: 3, 24: 2, 32: 1}
SCALE_KS = (8, 16, 24, 32)
MODES = ("formal", "exact", "numeric")

#: Vertex weights stated in the catalog docstrings.
CATALOG_VERTEX_WEIGHT = {"theta": 1, "theta2": 4, "triple": 3}
#: sigma of the formal theta curve as printed in the package README.
README_THETA_SIGMA = "alpha12^1 * alpha21^-1 * alpha22^1"


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Check


# --------------------------------------------------------------------------
# oracles
# --------------------------------------------------------------------------


def edge_weight_product(curve: TropicalCurve) -> int:
    """Product of the edge weights of a curve without 2-valent vertices."""
    out = 1
    for e in curve.edges:
        out *= math.gcd(*e.weight_vector)
    return out


def marked_matrix(curve: TropicalCurve, marks: list[MarkedPoint]) -> list:
    """Edge conditions of the curve subdivided at the marks, plus two unit
    rows pinning each mark vertex; the kernel oracle's input."""
    ids = [v.id for v in curve.vertices] + [f"m{i}" for i in range(len(marks))]
    col = {vid: i for i, vid in enumerate(ids)}
    marked = {m.edge: f"m{i}" for i, m in enumerate(marks)}
    segments = []
    for e in curve.edges:
        if e.id in marked:
            segments += [(e, e.tail, marked[e.id]), (e, marked[e.id], e.head)]
        else:
            segments.append((e, e.tail, e.head))
    rows = []
    for e, tail, head in segments:
        a, b = e.weight_vector
        w = math.gcd(a, b)
        nx, ny = -b // w, a // w
        row = [0] * (2 * len(ids))
        row[2 * col[head]] += nx
        row[2 * col[head] + 1] += ny
        row[2 * col[tail]] -= nx
        row[2 * col[tail] + 1] -= ny
        rows.append(row)
    for i in range(len(marks)):
        for axis in (0, 1):
            row = [0] * (2 * len(ids))
            row[2 * col[f"m{i}"] + axis] = 1
            rows.append(row)
    return rows


def base_total(base_name: str) -> int:
    """Count of the k=1 cover: brute-force kernel order times the edge
    weight product."""
    curve, marks = cover_instance(base_name, 1, None)
    return (kernel_order_bruteforce(marked_matrix(curve, marks))
            * edge_weight_product(curve))


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def _json_check(code: int, out: str, want_code: int, fields: dict,
                test=None) -> str | None:
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    for key, want in fields.items():
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, expected {want!r}"
    return test(report) if test else None


def expect(want_code: int, test=None, **fields) -> Check:
    """Check a --json report: exit code, exact field values, and an
    optional test(report) returning a reason or None."""
    return lambda code, out: _json_check(code, out, want_code, fields, test)


def expect_exit(want_code: int) -> Check:
    """Check the exit code only (error paths print no report)."""
    return lambda code, out: (None if code == want_code
                              else f"exit {code}, expected {want_code}")


def _svg_check(code: int, out: str) -> str | None:
    if code != 0:
        return f"exit {code}, expected 0"
    try:
        root = ElementTree.fromstring(out)
    except ElementTree.ParseError as exc:
        return f"SVG does not parse: {exc}"
    return None if root.tag.endswith("svg") else f"root is {root.tag}"


# --------------------------------------------------------------------------
# file writing
# --------------------------------------------------------------------------


class Files:
    """Writes inputs into one work directory under stable names."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.root, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def count_scale(files: Files, rng: random.Random) -> list[Job]:
    """One round: `count` on exact covers, COUNT_MIX jobs per base."""
    jobs = []
    for name in BASES:
        total1 = base_total(name)
        ewp1 = edge_weight_product(BASES[name]())
        for k, reps in COUNT_MIX.items():
            for r in range(reps):
                curve, marks = cover_instance(name, k, rng)
                path = files.write(f"count-{name}-{k}-{r}.json",
                                   dumps_curve(curve, marks))
                jobs.append(Job(
                    ("count", path, "--json"),
                    expect(0, genus=k + 1, verdict="realizable",
                           total=total1 ** k, edge_weight_product=ewp1 ** k)))
    return jobs


def solve_scale(files: Files, rng: random.Random) -> list[Job]:
    """One round: analyze, realizable and prelog on every (base, k) cover.
    For each k one seeded base keeps formal multipliers, so a third of the
    covers are formal and every round has the same k mix of them."""
    formal = {(rng.choice(sorted(BASES)), k) for k in SCALE_KS}
    jobs = []
    for name, k in [(name, k) for name in BASES for k in SCALE_KS]:
        exact = (name, k) not in formal
        curve, marks = cover_instance(name, k, rng if exact else None)
        path = files.write(f"solve-{name}-{k}.json", dumps_curve(curve, marks))
        genus = k + 1
        jobs.append(Job(
            ("analyze", path, "--json"),
            expect(0, genus=genus, rank_kernel=genus, rank_cokernel=1,
                   dual_flag_dimension=1,
                   edge_weight_product=edge_weight_product(curve))))
        jobs.append(Job(
            ("realizable", path, "--json"),
            expect(0, sigma_agreement=True,
                   verdict="realizable" if exact else "not realizable")))
        if exact:
            check = expect(0, feasible="yes", verification="pass")
        else:
            check = expect(4, feasible="no")
        jobs.append(Job(("prelog", path, "--json"), check))
    return jobs


def _numeric_text(curve: TropicalCurve, marks) -> str:
    """The curve file with each exact multiplier replaced by its complex
    value, computed here from the modulus and turns."""
    doc = json.loads(dumps_curve(curve, marks))
    for key, entry in doc["multipliers"].items():
        z = float(Fraction(entry["modulus"])) * complex(
            math.cos(2 * math.pi * Fraction(entry["turns"])),
            math.sin(2 * math.pi * Fraction(entry["turns"])))
        doc["multipliers"][key] = {"re": z.real, "im": z.imag}
    return json.dumps(doc, indent=2) + "\n"


def _assignment_doc(curve: TropicalCurve) -> dict:
    """A solved flag assignment (from the code under test) for --check."""
    _, solution = prelog_exists(curve)
    flags = []
    for e in curve.edges:
        flags += [(e.tail, e.id), (e.head, e.id)]
    return {f"{v}|{e}": value.to_dict()
            for (v, e), value in zip(flags, solution.assignment)}


def _analyze_test(name: str):
    weight = CATALOG_VERTEX_WEIGHT[name]

    def test(report):
        weights = set(report["vertex_weights"].values())
        if weights != {weight}:
            return f"vertex weights {weights}, expected {{{weight}}}"
        return None
    return test


def cli_catalog(files: Files, rng: random.Random) -> list[Job]:
    """One round: every command on the genus-2 catalog curves in all three
    modes, plus one input each that must fail with exit 1, 2 and 5."""
    instances = {
        "theta": catalog.theta_marks(),
        "theta2": catalog.theta_marks(),
        "triple": [MarkedPoint("f1", Fraction(1, 2)),
                   MarkedPoint("f2", Fraction(1, 3))],
    }
    jobs = []
    for name, marks in instances.items():
        formal = BASES[name]()
        total1 = base_total(name)
        ewp = edge_weight_product(formal)
        exact = tuned_exact_curve(rng, formal, Fraction(0))
        texts = {
            "formal": dumps_curve(formal, marks),
            "exact": dumps_curve(exact, marks),
            "numeric": _numeric_text(exact, marks),
        }
        solved = _assignment_doc(exact)
        for mode in MODES:
            path = files.write(f"cat-{name}-{mode}.json", texts[mode])
            realizable = mode != "formal"
            fields = {"sigma_agreement": True,
                      "verdict": ("realizable" if realizable
                                  else "not realizable")}
            if name == "theta" and mode == "formal":
                fields["sigma_cocycle"] = README_THETA_SIGMA
            jobs += [
                Job(("validate", path, "--json"),
                    expect(0, valid=True, problems=[])),
                Job(("analyze", path, "--json"),
                    expect(0, _analyze_test(name), genus=2, rank_kernel=2,
                           rank_cokernel=1, dual_flag_dimension=1,
                           edge_weight_product=ewp)),
                Job(("realizable", path, "--json"), expect(0, **fields)),
                Job(("plot", path), _svg_check),
            ]
            if realizable:
                jobs += [
                    Job(("count", path, "--json"),
                        expect(0, total=total1, edge_weight_product=ewp)),
                    Job(("prelog", path, "--json"),
                        expect(0, feasible="yes", verification="pass")),
                ]
                good = files.write(f"cat-{name}-{mode}-check.json",
                                   json.dumps({"flags": solved}))
                jobs.append(Job(("prelog", path, "--check", good, "--json"),
                                expect(0, result="pass")))
                broken = dict(solved)
                broken[next(iter(broken))] = "2"
                bad = files.write(f"cat-{name}-{mode}-bad.json",
                                  json.dumps({"flags": broken}))
                jobs.append(Job(
                    ("prelog", path, "--check", bad, "--json"),
                    expect(4, lambda r: None if r["failing_rows"]
                           else "no failing rows", result="fail")))
            else:
                ones = files.write(f"cat-{name}-{mode}-ones.json", json.dumps(
                    {"flags": {key: "1" for key in solved}}))
                jobs += [
                    Job(("count", path, "--json"), expect_exit(4)),
                    Job(("prelog", path, "--json"), expect(4, feasible="no")),
                    Job(("prelog", path, "--check", ones, "--json"),
                        expect(4, result="fail")),
                ]
    theta = catalog.theta()
    exact = tuned_exact_curve(rng, theta, Fraction(0))
    bad_json = files.write("cat-bad-json.json", "{not json")
    broken = files.write("cat-broken.json", dumps_curve(
        TropicalCurve(theta.lattice, theta.vertices, theta.edges[:2])))
    one_mark = files.write("cat-one-mark.json", dumps_curve(
        exact, catalog.theta_marks()[:1]))
    jobs += [
        Job(("validate", bad_json, "--json"), expect_exit(1)),
        Job(("analyze", broken, "--json"), expect_exit(2)),
        Job(("count", one_mark, "--json"), expect_exit(5)),
    ]
    return jobs


WORKLOADS = {
    "count-scale": count_scale,
    "solve-scale": solve_scale,
    "cli-catalog": cli_catalog,
}


def build(workload: str, root: str, seed: int) -> list[Job]:
    """Write the inputs of one round of `workload` under `root`."""
    return WORKLOADS[workload](Files(root), random.Random(seed))

