"""In-memory spans around the package's public functions.

A traced pass replaces every public function of each layer module with a
wrapper that records a span: name, start, end, parent span and job id.
The wrapper is installed in every `tropcount` namespace that holds the
function (a module that did `from .exactmath import snf` keeps its own
reference), and removed again after the pass, so untimed code and the
untraced passes run the original functions.  Nothing under the package
changes.  Spans stay in flat arrays until the pass ends; self time is a
span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("cli", "curvefile", "curve", "realize", "moduli", "exactmath",
          "prelog", "valuegroup", "plot")

#: Span name for the work of the counter hooks, kept out of the parents'
#: self time like any other child.
HOOK_SPAN = "trace.counters"


class Recorder:
    """Spans of one pass: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.current_job = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        span = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def maximum(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, 0), value)

    def write(self, path: str, jobs: list[str]) -> None:
        """Write the spans as gzip'd tab-separated lines, times in us,
        after one "# job <id> <argv>" line per job."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for i, job in enumerate(jobs):
                out.write(f"# job {i} {job}\n")
            out.write("span\tparent\tjob\tname\tstart_us\tend_us\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t{self.job[i]}\t"
                          f"{self.names[self.name[i]]}\t"
                          f"{(self.start[i] - t0) * 1e6:.1f}\t"
                          f"{(self.end[i] - t0) * 1e6:.1f}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append((start[i], end[i]))
    out = [e - s for s, e in zip(start, end)]
    for p, intervals in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        reach = lo
        for s, e in sorted(intervals):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out[p] -= covered
    return out


def summarize(rec: Recorder) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_ms and total_ms (inclusive)."""
    own = self_times(rec.start, rec.end, rec.parent)
    out: dict[str, dict[str, float]] = {}
    for i, nid in enumerate(rec.name):
        row = out.setdefault(rec.names[nid],
                             {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += own[i] * 1e3
        row["total_ms"] += (rec.end[i] - rec.start[i]) * 1e3
    return out


def child_count(rec: Recorder, child: str, parent: str) -> int:
    """Number of `child` spans whose parent span is a `parent` span."""
    names = rec.names
    return sum(1 for i, nid in enumerate(rec.name)
               if names[nid] == child and rec.parent[i] >= 0
               and names[rec.name[rec.parent[i]]] == parent)


# --------------------------------------------------------------------------
# counters read at layer boundaries
# --------------------------------------------------------------------------


def _snf_counters(rec: Recorder, args, kwargs, result) -> None:
    a = args[0] if args else kwargs["a"]
    rec.add("exactmath.snf.cells", len(a) * (len(a[0]) if a else 0))
    u, _, v = result
    bits = max((abs(x).bit_length() for m in (u, v) for row in m for x in row),
               default=0)
    rec.maximum("exactmath.snf.max_bits", bits)


def _load_counters(rec: Recorder, args, kwargs, result) -> None:
    rec.add("curvefile.load_curve.bytes",
            os.path.getsize(args[0] if args else kwargs["path"]))


HOOKS = {
    "exactmath.snf": _snf_counters,
    "curvefile.load_curve": _load_counters,
}


# --------------------------------------------------------------------------
# installing the wrappers
# --------------------------------------------------------------------------


def _wrap(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    hook = HOOKS.get(name)
    hook_id = rec.name_id(HOOK_SPAN)

    def wrapper(*args, **kwargs):
        span = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if hook is not None:
            inner = rec.open(hook_id)
            try:
                hook(rec, args, kwargs, result)
            finally:
                rec.close(inner)
        return result

    return functools.update_wrapper(wrapper, fn)


def layer_functions() -> dict:
    """{function: "layer.name"} for the public functions each layer
    module defines."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"tropcount.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == module.__name__):
                out[obj] = f"{layer}.{name}"
    return out


@contextmanager
def traced(rec: Recorder):
    """Install span wrappers for the duration of the block."""
    wrappers = {fn: _wrap(rec, name, fn)
                for fn, name in layer_functions().items()}
    replaced = []
    for modname, module in list(sys.modules.items()):
        if modname != "tropcount" and not modname.startswith("tropcount."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                replaced.append((module, attr, value))
                setattr(module, attr, wrappers[value])
    try:
        yield rec
    finally:
        for module, attr, value in replaced:
            setattr(module, attr, value)
