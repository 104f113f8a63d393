"""Shared pieces of the perf ledger: span recorder, sample stats, run result.

Everything here is harness-side.  The span recorder wraps *instance
attributes* of live objects (never classes or module globals) and keeps
integer-nanosecond timestamps, so self times telescope to the root span
exactly.  It never touches ``repro.obs.trace.TRACER`` or ``METRICS``:
enabling those flips the exchange onto its slow path, which is a
different program from the one the ledger measures.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]


def load_contract() -> dict:
    """``BENCHMARK.json`` — the one list of workload and metric names."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- span recorder ------------------------------------------------------------
class SpanRecorder:
    """In-memory spans: name, start, end, parent id, step id (columnar).

    A span's id is its index.  ``parent`` is the span open when it began
    (-1 for a root); ``step`` is whatever :attr:`step_id` held then, so
    all spans of one MD step (or one scenario, one figure pass) share an
    identifier.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.steps: list[int] = []
        self.step_id = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.steps.append(self.step_id)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.finish(idx)

    def wrap(self, obj: object, attr: str, name: str) -> None:
        """Shadow ``obj.attr`` with an instance attribute that records a
        span around every call.  The class and every other instance keep
        the original method."""
        fn = getattr(obj, attr)
        begin, finish = self.begin, self.finish

        def recorded(*args, **kwargs):
            idx = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        setattr(obj, attr, recorded)

    # -- analysis ---------------------------------------------------------
    def durations(self) -> list[int]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[int]:
        """Duration minus the part covered by direct children (ns)."""
        out = self.durations()
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def totals(self) -> dict[str, tuple[int, int]]:
        """name -> (call count, summed self time in ns)."""
        acc: dict[str, list[int]] = {}
        for name, self_ns in zip(self.names, self.self_times()):
            slot = acc.setdefault(name, [0, 0])
            slot[0] += 1
            slot[1] += self_ns
        return {name: (c, t) for name, (c, t) in acc.items()}

    def dump(self, path: str) -> None:
        doc = {
            "schema": "ledger-spans/1",
            "unit": "ns",
            "names": self.names,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "step": self.steps,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


# -- sample statistics ----------------------------------------------------------
def quartiles(samples: list[float]) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them; a single
    sample is its own quartiles."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q = statistics.quantiles(samples, n=4)
    return q[0], q[2]


def summary(samples: list[float], value: float | None = None) -> dict:
    """One metric entry: median (or a given value), quartiles, count.
    Units live in BENCHMARK.json only; run.py attaches them."""
    q1, q3 = quartiles(samples)
    return {
        "value": statistics.median(samples) if value is None else value,
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": list(samples),
    }


def exact(value: float) -> dict:
    """A single reading: a count, a simulated statistic, or a one-shot time."""
    return summary([value])


@contextmanager
def quiet_gc():
    """Collect, then keep the cyclic collector off for a timed region (as
    ``timeit`` does).  When a full collection lands is a property of the
    whole heap — including the harness's own sample lists — and it flips
    allocation-heavy operations such as the reneighbouring step between
    two modes, which no median survives."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- run result ------------------------------------------------------------------
class RunResult:
    """What one workload run produced: metrics, op counts, failed checks."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: dict = {}
        #: spans of the traced pass (first repeat), for ``--spans``
        self.recorder: SpanRecorder | None = None

    def op(self, ok: bool, what: str = "") -> bool:
        """Count one operation; a falsy ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        """An output check, counted as an operation of its own."""
        self.op(ok, f"{what}: {detail}" if detail else what)

    def to_doc(self, metrics: dict[str, dict], meta: dict) -> dict:
        """The run as ``--out`` writes it (``metrics`` with units attached)."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "ops_attempted": self.attempted,
            "ops_failed": self.failed,
            "failures": self.failures[:20],
            "info": self.info,
            "metrics": metrics,
            "meta": meta,
        }
