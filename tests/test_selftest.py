import random

import pytest

from tropcount.cli import main
from tropcount.curve import validate
from tropcount.selftest import (SUITES, SuiteResult, base_instances,
                                generated_curves, run_all, run_suite)


def test_suite_registry():
    assert set(SUITES) == {
        "sigma-two-way", "sigma-well-defined",
        "realizability-prelog-equivalence", "deformation-ranks",
        "kernel-oracle", "count-invariance", "vertex-parameters",
        "solver-soundness", "exact-linear-algebra",
    }
    for func, default_cases in SUITES.values():
        assert callable(func)
        assert default_cases > 0


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_at_small_size(name):
    result = run_suite(name, seed=3, cases=5)
    assert result.name == name
    assert result.passed, result.failures[:3]
    assert result.checks > 0


def test_run_suite_is_deterministic():
    a = run_suite("sigma-two-way", seed=7, cases=6)
    b = run_suite("sigma-two-way", seed=7, cases=6)
    assert (a.checks, a.failures) == (b.checks, b.failures)


def test_run_all_covers_every_suite():
    results = run_all(seed=2, cases=5)
    assert [r.name for r in results] == list(SUITES)
    assert all(r.passed for r in results)


def test_selftest_passes_at_one_case_per_suite(capsys):
    # a small run reports only what failed, not how few cases it built
    assert main(["selftest", "--cases", "1"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.endswith("9/9 suites passed\n")


def test_result_line_format():
    ok = SuiteResult("demo", 4, [])
    assert ok.passed
    assert ok.line() == "PASS demo (4 checks)"
    bad = SuiteResult("demo", 4, ["first", "second"])
    assert not bad.passed
    assert bad.line() == "FAIL demo: first"


def test_base_instances_are_valid_marked_curves():
    instances = base_instances()
    assert len(instances) >= 4
    for name, curve, marks in instances:
        assert name
        assert validate(curve).ok
        assert len(marks) == curve.genus


def test_generated_curves_are_valid():
    rng = random.Random(11)
    seen_multi_vertex = False
    for _, curve, marks in generated_curves(rng, 12, keep_marks=True):
        assert validate(curve).ok
        assert len(marks) == curve.genus
        if len(curve.vertices) > 2:
            seen_multi_vertex = True
    assert seen_multi_vertex

    rng = random.Random(13)
    for _, curve, _marks in generated_curves(rng, 8, three_valent_only=True):
        assert all(curve.valence(v.id) != 2 for v in curve.vertices)


def test_selftest_reports_a_failing_suite(monkeypatch, capsys):
    # the FAIL line quotes the first failure; the next two follow as
    # counterexamples, then the tally
    failures = [f"case {i}" for i in range(5)]
    monkeypatch.setitem(SUITES, "kernel-oracle", (
        lambda rng, cases: SuiteResult("kernel-oracle", 5, failures), 1))
    assert main(["selftest", "--cases", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("FAIL kernel-oracle: case 0")
    assert lines[at + 1:at + 3] == [
        f"    counterexample: case {i}" for i in (1, 2)]
    assert sum(line.startswith("    counterexample:") for line in lines) == 2
    assert sum(line.startswith("PASS ") for line in lines) == 8
    assert lines[-1] == "8/9 suites passed"
