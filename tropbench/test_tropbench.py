"""Tests of the benchmark's own code: the cover generator, the output
checks and the span arithmetic."""

import json
import os
import random

import pytest

import covers
import run
import spans
import workloads
from tropcount import exactmath, moduli
from tropcount.cli import main
from tropcount.curve import validate
from tropcount.curvefile import save_curve
from tropcount.moduli import count_curves, rigidity_check

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), "..",
                              "BENCHMARK.json")


# --------------------------------------------------------------------------
# cover generator
# --------------------------------------------------------------------------


@pytest.mark.parametrize("base", sorted(covers.BASES))
@pytest.mark.parametrize("k", [1, 2, 3, 8])
def test_cover_shape_and_validity(base, k, tmp_path, capsys):
    curve, marks = covers.cover_instance(base, k, random.Random(k))
    assert len(curve.vertices) == 2 * k
    assert len(curve.edges) == 3 * k
    assert curve.genus == k + 1
    assert len(marks) == k + 1
    assert validate(curve).ok
    path = tmp_path / "cover.json"
    save_curve(curve, str(path), marks)
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("base", sorted(covers.BASES))
def test_greedy_marks_rigidify(base):
    curve, marks = covers.cover_instance(base, 8, None)
    assert rigidity_check(curve, marks)


def test_cover_power_law_on_small_covers():
    expected = {"theta": 1, "theta2": 8, "triple": 9}
    for base, total1 in expected.items():
        assert workloads.base_total(base) == total1
        for k in (2, 3):
            curve, marks = covers.cover_instance(base, k, random.Random(0))
            assert count_curves(curve, marks).total == total1 ** k
            assert workloads.edge_weight_product(curve) == \
                moduli.edge_weight_product(curve)


def test_marked_matrix_matches_package_D():
    curve, marks = covers.cover_instance("triple", 2, None)
    gamma, marked_ids = moduli.subdivide(curve, marks)
    ours = workloads.marked_matrix(curve, marks)
    theirs = moduli.build_D(gamma, marked_ids)
    assert sorted(exactmath.snf_diagonal(ours)) == \
        sorted(exactmath.snf_diagonal(theirs))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    def contents(root):
        return {f: (root / f).read_bytes() for f in sorted(os.listdir(root))}

    first = workloads.build(name, str(tmp_path / "a"), 5)
    workloads.build(name, str(tmp_path / "b"), 5)
    workloads.build(name, str(tmp_path / "c"), 6)
    a, b, c = (contents(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c
    assert len(first) == len({job.argv for job in first})


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def test_checks_reject_wrong_outputs():
    check = workloads.expect(0, total=9, genus=2)
    good = json.dumps({"total": 9, "genus": 2})
    assert check(0, good) is None
    assert "total" in check(0, json.dumps({"total": 3, "genus": 2}))
    assert "exit" in check(4, good)
    assert check(0, "not json") == "stdout is not JSON"
    assert workloads.expect_exit(5)(5, "") is None
    assert workloads.expect_exit(5)(0, "") is not None


def test_catalog_jobs_pass_in_process(tmp_path):
    jobs = workloads.build("cli-catalog", str(tmp_path), 1)
    for job in jobs:
        _, reason = run.run_inprocess(job)
        assert reason is None, (job.argv, reason)
    assert {"validate", "analyze", "realizable", "count", "prelog",
            "plot"} == {job.argv[0] for job in jobs}
    assert any("--check" in job.argv for job in jobs)


# --------------------------------------------------------------------------
# spans
# --------------------------------------------------------------------------


def test_self_time_subtracts_children():
    # 0: [0, 10] with children 1: [1, 3] and 2: [4, 8]; 3: [5, 6] inside 2
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlap_once_and_clips():
    start = [0.0, 1.0, 2.0, 9.0]
    end = [10.0, 4.0, 5.0, 12.0]
    parent = [-1, 0, 0, 0]
    # children cover [1, 5] and [9, 10] of the parent
    assert spans.self_times(start, end, parent)[0] == pytest.approx(5.0)


def test_traced_records_nesting_and_restores_functions():
    import tropcount.moduli as mod

    original = mod.snf
    rec = spans.Recorder()
    with spans.traced(rec):
        assert mod.snf is not original
        rec.current_job = 7
        mod.kernel_order_gcstar(*covers.cover_instance("theta", 2, None))
    assert mod.snf is original and exactmath.snf is original
    summary = spans.summarize(rec)
    assert summary["moduli.kernel_order_gcstar"]["calls"] == 1
    assert summary["exactmath.snf"]["calls"] == 1
    assert set(rec.job) == {7}
    names = [rec.names[i] for i in rec.name]
    snf = names.index("exactmath.snf")
    assert names[rec.parent[snf]] == "moduli.kernel_order_gcstar"
    assert rec.counters["exactmath.snf.cells"] > 0
    top = summary["moduli.kernel_order_gcstar"]
    assert top["self_ms"] < top["total_ms"]


def test_benchmark_json_names_every_reported_metric():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
