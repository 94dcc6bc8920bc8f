"""Benchmark of the tropcount CLI: end to end, and layer by layer.

Run from the root of a checkout that holds the package under src/:

    python3 tropbench/run.py --workload count-scale --seed 1 --seconds 40
        --trace 0

--trace 0 times real CLI processes (`python -m tropcount.cli ... --json`
against src/) in a closed loop with one client and one child at a time,
scales each time to the speed of a fixed reference child run between the
jobs, and checks every output.  --trace 1 replays the same jobs in this
process through tropcount.cli.main, untraced and traced in turn, and
reports the per-layer spans and counters.  Every metric is printed by name
with its unit; the last line of stdout is one JSON object with the result.

Inputs are generated from --seed under .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import spans

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

#: Fewest rounds in a run: two count-scale rounds are 54 jobs, enough for
#: ten beyond the 80th percentile.
MIN_ROUNDS = 2
#: Fresh interpreter imports timed for setup_s in each round, and
#: -X importtime samples in a traced run.
SETUP_PER_ROUND = 4
IMPORT_SAMPLES = 5
JOB_TIMEOUT_S = 60

#: The speed reference: a fresh interpreter doing fixed stdlib imports and
#: Fraction arithmetic, which nothing in the package can change.  It runs
#: at least every REF_INTERVAL_S between jobs.  Scaled times are those of
#: a machine on which it takes REF_NOMINAL_S.
REFERENCE = ("from fractions import Fraction as F\n"
             "import argparse, json, dataclasses\n"
             "s = F(0)\n"
             "for i in range(6000): s += F(i % 7, 1 + i % 11)\n")
REF_INTERVAL_S = 1.0
REF_NOMINAL_S = 0.1

END_TO_END = {
    "job_ms_p50": "ms",
    "job_ms_p80": "ms",
    "jobs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: Span metrics: (layer.function, what), what in self_ms / calls / total_ms.
SPAN_METRICS = [
    (fn, what)
    for fn, whats in [
        ("moduli.rigidity_check", ("self_ms", "calls", "total_ms")),
        ("exactmath.nullspace_rational", ("self_ms", "calls")),
        ("exactmath.rank_rational", ("self_ms", "calls")),
        ("moduli.kernel_order_gcstar", ("self_ms", "calls", "total_ms")),
        ("curve.subdivide", ("self_ms", "calls")),
        ("moduli.build_D", ("self_ms", "calls")),
        ("exactmath.snf", ("self_ms", "calls")),
        ("moduli.deformation_ranks", ("self_ms", "calls")),
        ("moduli.dual_flag_space", ("self_ms", "calls")),
        ("moduli.build_F", ("self_ms", "calls")),
        ("prelog.assemble_system", ("self_ms", "calls")),
        ("prelog.solve_monomial", ("self_ms", "calls")),
        ("prelog.verify_assignment", ("self_ms", "calls")),
        ("valuegroup.mv_is_one", ("self_ms", "calls")),
        ("valuegroup.mv_pow", ("calls",)),
        ("curve.ensure_valid", ("self_ms", "calls")),
        ("curve.canonical_offset", ("self_ms", "calls")),
        ("curve.crossings", ("calls",)),
        ("realize.is_realizable", ("self_ms", "calls")),
        ("realize.sigma_cocycle", ("self_ms", "calls")),
        ("realize.sigma_geometric", ("self_ms", "calls")),
        ("moduli.edge_weight_product", ("self_ms", "calls")),
        ("moduli.count_curves", ("self_ms", "calls", "total_ms")),
        ("cli.main", ("self_ms",)),
        ("curvefile.load_curve", ("self_ms",)),
        ("plot.render_svg", ("self_ms",)),
    ]
    for what in whats
]
_UNITS = {"self_ms": "ms", "total_ms": "ms", "calls": "count"}

PER_LAYER = {f"{fn}.{what}": _UNITS[what] for fn, what in SPAN_METRICS}
PER_LAYER.update({
    "exactmath.snf.cells": "count",
    "exactmath.snf.max_bits": "bits",
    "curve.canonical_offset.hit_ratio": "ratio",
    "curvefile.load_curve.bytes": "bytes",
    "cli.import_ms": "ms",
    "cli.import_selftest_ms": "ms",
    "trace.overhead_ratio": "ratio",
})


def _child_env() -> dict:
    """The caller's environment with src/ on the path, no mode override,
    and bytecode caching on, as for an installed package."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("TROPCOUNT_MODE", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = SRC
    return env


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --------------------------------------------------------------------------
# end to end
# --------------------------------------------------------------------------


#: The launcher: a small process that spawns every timed child and reports
#: [wall seconds, exit code, ru_maxrss in KiB] for each.  A child's
#: ru_maxrss counts the memory of the process it was spawned from, so
#: spawning from this larger process would report this process's size.
LAUNCHER = r"""
import json, os, sys, threading, time

def kill(pid):
    try:
        os.kill(pid, 9)
    except ProcessLookupError:
        pass

for line in sys.stdin:
    args, out, timeout = json.loads(line)
    actions = [(os.POSIX_SPAWN_OPEN, 1, out,
                os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    t = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args],
                         os.environ, file_actions=actions)
    timer = threading.Timer(timeout, kill, (pid,))
    timer.start()
    _, status, usage = os.wait4(pid, 0)
    elapsed = time.perf_counter() - t
    timer.cancel()
    print(json.dumps([elapsed, os.waitstatus_to_exitcode(status),
                      usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """Runs `python <args>` children through the LAUNCHER process."""

    def __init__(self, env: dict, out_path: str):
        self.out_path = out_path
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER],
                                     env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self, args: list[str]) -> tuple[float, int, str, float]:
        """Wall seconds, exit code, stdout and peak RSS in MiB."""
        self.proc.stdin.write(
            json.dumps([args, self.out_path, JOB_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        elapsed, code, maxrss_kib = json.loads(self.proc.stdout.readline())
        with open(self.out_path, encoding="utf-8") as handle:
            return elapsed, code, handle.read(), maxrss_kib / 1024

    def seconds(self, args: list[str]) -> float:
        """Wall seconds of a child that must succeed."""
        elapsed, code, _, _ = self.run(args)
        if code != 0:
            raise RuntimeError(f"python {' '.join(args)} exited {code}")
        return elapsed

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def end_to_end(jobs, seed: int, seconds: float, out_path: str
               ) -> tuple[dict, dict, list]:
    """Closed loop, one client: whole rounds of the jobs, each round in a
    new seeded order, until another round would end past `seconds` (and
    at least MIN_ROUNDS rounds).  The package's bytecode cache is written
    first, from this process, so no child pays for compiling.

    A reference child runs at least every REF_INTERVAL_S, and set-up
    samples run SETUP_PER_ROUND times a round, both between jobs.  Every
    job and set-up time is scaled to reference speed: multiplied by
    REF_NOMINAL_S over the median of the three reference times nearest to
    it.  The machine's speed drifts by up to 2x within minutes, and this
    keeps that drift out of the metrics; the wall-clock figures are
    printed beside them."""
    compileall.compile_dir(os.path.join(SRC, "tropcount"), quiet=1)
    rng = random.Random(seed ^ 0x5EED)
    stride = math.ceil(len(jobs) / SETUP_PER_ROUND)
    times, setup, refs, failures, peak_mb = [], [], [], [], 0.0
    launcher = Launcher(_child_env(), out_path)
    try:
        t0 = time.perf_counter()
        rounds = 0
        while True:
            order = list(jobs)
            rng.shuffle(order)
            for i, job in enumerate(order):
                now = time.perf_counter()
                if not refs or now - refs[-1][0] >= REF_INTERVAL_S:
                    refs.append((now, launcher.seconds(["-c", REFERENCE])))
                if i % stride == 0:
                    setup.append((now, launcher.seconds(
                        ["-c", "import tropcount.cli"])))
                elapsed, code, out, rss_mb = launcher.run(
                    ["-m", "tropcount.cli", *job.argv])
                times.append((now, elapsed))
                peak_mb = max(peak_mb, rss_mb)
                reason = (f"killed after {JOB_TIMEOUT_S} s" if code == -9
                          else job.check(code, out))
                if reason:
                    failures.append(f"{' '.join(job.argv)}: {reason}")
            rounds += 1
            wall = time.perf_counter() - t0
            if (rounds >= MIN_ROUNDS
                    and wall * (rounds + 1) / rounds > seconds):
                break
    finally:
        launcher.close()

    def scaled(samples):
        out = []
        for at, elapsed in samples:
            near = sorted(refs, key=lambda ref: abs(ref[0] - at))[:3]
            out.append(elapsed * REF_NOMINAL_S
                       / statistics.median(t for _, t in near))
        return out

    job_ms = [t * 1e3 for t in scaled(times)]
    wall_ms = [t * 1e3 for _, t in times]
    n = len(times)
    metrics = {
        "job_ms_p50": _quantile(job_ms, 50),
        "job_ms_p80": _quantile(job_ms, 80),
        "jobs_per_s": n * 1e3 / sum(job_ms),
        "setup_s": statistics.median(scaled(setup)),
        "peak_rss_mb": peak_mb,
    }
    extra = {
        "wall_job_ms_p50": (_quantile(wall_ms, 50), "ms"),
        "wall_job_ms_p80": (_quantile(wall_ms, 80), "ms"),
        "wall_jobs_per_s": (n * 1e3 / sum(wall_ms), "1/s"),
        "wall_setup_s": (statistics.median(t for _, t in setup), "s"),
        "reference_ms": (statistics.median(t for _, t in refs) * 1e3, "ms"),
        "jobs": (n, "count"), "rounds": (rounds, "count"),
        "failed_ratio": (len(failures) / n, "ratio"),
    }
    if n * 0.1 >= 10:
        extra["job_ms_p90"] = (_quantile(job_ms, 90), "ms")
    if n * 0.2 < 10:
        print(f"note: {n} jobs leave fewer than ten beyond job_ms_p80")
    return metrics, extra, failures


# --------------------------------------------------------------------------
# traced, in process
# --------------------------------------------------------------------------


def import_times(env: dict) -> tuple[float, float]:
    """Median cumulative import ms of tropcount.cli and of
    tropcount.selftest (0 when it is not imported) from -X importtime."""
    cli, selftest = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import tropcount.cli"],
            env=env, check=True, capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e3
        cli.append(cumulative["tropcount.cli"])
        selftest.append(cumulative.get("tropcount.selftest", 0.0))
    return statistics.median(cli), statistics.median(selftest)


def run_inprocess(job) -> tuple[float, str | None]:
    """Replay one job through tropcount.cli.main in this process."""
    import tropcount.cli

    out = io.StringIO()
    t = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = tropcount.cli.main(list(job.argv))
    except Exception as exc:  # a crash is a failed job, not a failed run
        return time.perf_counter() - t, f"raised {exc!r}"
    elapsed = time.perf_counter() - t
    return elapsed, job.check(code, out.getvalue())


def traced_passes(jobs, seed: int, seconds: float, spans_path: str
                  ) -> tuple[dict, dict, list, int]:
    """Pairs of passes over one seeded order of the jobs, one pass
    untraced and one traced, the first of the two alternating, until
    another pair would end past `seconds`.  Per-layer metrics are the
    mean over traced passes of their sums over the jobs."""
    rng = random.Random(seed ^ 0x5EED)
    failures, elapsed = [], {False: 0.0, True: 0.0}
    passes, span_counts = [], []
    t0 = time.perf_counter()
    while True:
        order = list(jobs)
        rng.shuffle(order)
        rec = spans.Recorder()
        for traced in (False, True) if len(passes) % 2 == 0 else (True, False):
            with spans.traced(rec) if traced else contextlib.nullcontext():
                for i, job in enumerate(order):
                    rec.current_job = i
                    seconds_spent, reason = run_inprocess(job)
                    elapsed[traced] += seconds_spent
                    if reason:
                        failures.append(f"{' '.join(job.argv)}: {reason}")
        if not passes:
            rec.write(spans_path, [" ".join(job.argv) for job in order])
        passes.append(_pass_metrics(rec))
        span_counts.append(len(rec.start))
        wall = time.perf_counter() - t0
        if wall * (len(passes) + 1) / len(passes) > seconds:
            break
    metrics = {name: statistics.mean(p[name] for p in passes)
               for name in passes[0]}
    metrics["cli.import_ms"], metrics["cli.import_selftest_ms"] = \
        import_times(_child_env())
    metrics["trace.overhead_ratio"] = elapsed[True] / elapsed[False]
    extra = {"passes": (len(passes), "count"),
             "spans_per_pass": (statistics.mean(span_counts), "count")}
    total = metrics["moduli.count_curves.total_ms"]
    if total:
        extra["moduli.count_curves.rigidity_kernel_share"] = (
            (metrics["moduli.rigidity_check.total_ms"]
             + metrics["moduli.kernel_order_gcstar.total_ms"]) / total,
            "ratio")
    return metrics, extra, failures, 2 * len(passes) * len(jobs)


def _pass_metrics(rec) -> dict:
    summary = spans.summarize(rec)
    out = {f"{fn}.{what}": summary.get(fn, {}).get(what, 0)
           for fn, what in SPAN_METRICS}
    for name in ("exactmath.snf.cells", "exactmath.snf.max_bits",
                 "curvefile.load_curve.bytes"):
        out[name] = rec.counters.get(name, 0)
    attempts = spans.child_count(rec, "curve.crossings",
                                 "curve.canonical_offset")
    calls = summary.get("curve.canonical_offset", {}).get("calls", 0)
    out["curve.canonical_offset.hit_ratio"] = \
        calls / attempts if attempts else 0.0
    return out


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tropcount", "cli.py")):
        sys.stderr.write(f"error: no tropcount package under {SRC}; run "
                         "from the root of a checkout\n")
        return 2
    sys.path.insert(0, SRC)
    os.environ.pop("TROPCOUNT_MODE", None)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.build(args.workload, work, args.seed)

    if args.trace:
        metrics, extra, failures, attempted = traced_passes(
            jobs, args.seed, args.seconds, os.path.join(work, "spans.tsv.gz"))
        units = PER_LAYER
    else:
        metrics, extra, failures = end_to_end(
            jobs, args.seed, args.seconds, os.path.join(work, "stdout.txt"))
        attempted = extra["jobs"][0]
        units = END_TO_END

    for reason in failures[:20]:
        sys.stderr.write(f"FAILED {reason}\n")
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {attempted} jobs, {len(failures)} failed")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.4f} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:48s} {value:14.4f} {unit}  (not gated)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
