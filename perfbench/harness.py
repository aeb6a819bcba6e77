"""Measurement machinery shared by the three workloads.

Nothing here knows about a particular workload: the runner drives any
object with the :class:`Workload` shape in a closed loop for a fixed wall
time, times every operation with tracing off, and — in a traced run —
replays each operation through a :class:`Tracer` that records spans around
the library's public calls.  Spans and counts stay in memory and are
folded into metrics when the run ends.
"""

from __future__ import annotations

import gc
import importlib.util
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

#: Answer fingerprints are compared within one process only, so Python's
#: own (per-process salted) tuple hash is a sound row key.
MASK = (1 << 64) - 1


def row_keys(rows: Iterable[tuple]) -> List[int]:
    """One 64-bit key per answer row (same process, same key)."""
    return [hash(row) & MASK for row in rows]


def set_fingerprint(rows: Iterable[tuple]) -> Tuple[int, int]:
    """An order-free fingerprint of a set of distinct rows: (size, key sum)."""
    keys = row_keys(rows)
    return len(keys), sum(keys) & MASK


def is_limited_answer(keys: List[int], oracle: Set[int], limit: int) -> bool:
    """``keys`` are ``min(limit, |oracle|)`` distinct keys of oracle answers."""
    want = min(limit, len(oracle))
    return len(keys) == want and len(set(keys)) == want and oracle.issuperset(keys)


def same_set(left: Iterable[tuple], right: Iterable[tuple]) -> bool:
    return set_fingerprint(left) == set_fingerprint(right)


def same_rows(left: Iterable[tuple], right: Iterable[tuple]) -> bool:
    """Equal as multisets (a limited stream may list them in any order)."""
    return sorted(row_keys(left)) == sorted(row_keys(right))


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One client request.

    ``run`` is the untraced call, timed as the operation's latency; its
    result is handed to ``record`` outside the timed region, with the
    operation's number in the window (0 for requests made during set-up),
    which ``verify`` reports back for a wrong answer.  ``replay``
    (read and limit operations only) repeats the request through the public
    calls the entry point makes, under a tracer, and returns the answers it
    produced so they can be compared with the untraced ones.
    """

    kind: str  # "read", "limit" or "write"
    run: Callable[[], object]
    record: Callable[[int, object], None]
    replay: Optional[Callable[["Tracer"], object]] = None
    #: ``(answers, replayed answers) -> equal?`` for the trace check.
    same: Optional[Callable[[object, object], bool]] = None


class Workload:
    """The shape every workload module implements.

    ``setup`` builds all inputs from the seed (timed as ``setup_s``);
    ``next_op`` yields the closed-loop client's next request;
    ``verify`` runs the oracle after the measured window and returns
    ``(operation number, message)`` per wrong answer; ``end_trace`` drops
    what a traced run keeps only for its replays; ``counters`` snapshots
    the program's own counters and ``layer_metrics`` turns their change
    since a snapshot into the per-layer values only the workload can
    observe.
    """

    name = ""

    def setup(self) -> None:
        raise NotImplementedError

    def next_op(self) -> Op:
        raise NotImplementedError

    def verify(self) -> List[Tuple[int, str]]:
        raise NotImplementedError

    def end_trace(self) -> None:
        """Drop whatever the workload keeps only for traced replays."""

    def counters(self) -> Dict[str, int]:
        return {}

    def layer_metrics(self, before: Dict[str, int]) -> Dict[str, float]:
        return {}


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
#: ``(name, operation number, start, end, parent span name or None)``; a
#: tuple of atoms, so the collector stops tracking it after one pass.
Span = Tuple[str, int, float, float, Optional[str]]


class Tracer:
    """In-memory spans around the library calls of a replayed operation.

    ``with tracer.span(name):`` times a block; a span opened inside another
    records it as its parent, so only top-level spans add up towards
    ``trace.coverage``.  ``counts`` holds per-operation observations
    (probes, intermediate rows, answers) keyed by name.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self._open: List[str] = []
        self.counts: Dict[str, List[float]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((name, self.op, start, end, parent))

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)

    def durations(self, name: str) -> List[float]:
        """Per-operation total seconds spent in spans called ``name``."""
        per_op: Dict[int, float] = {}
        for span_name, op, start, end, _ in self.spans:
            if span_name == name:
                per_op[op] = per_op.get(op, 0.0) + end - start
        return list(per_op.values())

    def top_level_total(self) -> float:
        return sum(end - start for _, _, start, end, parent in self.spans if parent is None)


# ----------------------------------------------------------------------
# Garbage-collector accounting
# ----------------------------------------------------------------------
class GcMonitor:
    """Collector pauses that fall inside untraced operations (``gc.callbacks``).

    Only observes: collections run exactly when the program would run them.
    """

    def __init__(self) -> None:
        self.in_op = False
        self.pause = 0.0
        self.gen2 = 0
        self._start = 0.0
        self._counting = False

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._counting = self.in_op
            self._start = time.perf_counter()
        elif self._counting:
            self.pause += time.perf_counter() - self._start
            if info.get("generation") == 2:
                self.gen2 += 1


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: Seconds of window time between two measurements of the host's speed,
#: and the timed kernel runs in each (about 300 in a 30-s window); a
#: set-up is measured against the same number of runs just before it and
#: just after it.
REFERENCE_EVERY = 0.2
REFERENCE_RUNS = 2


def reference_kernel() -> int:
    """A fixed piece of pure-Python hash-join work that uses nothing from
    the library: the yardstick for how fast the host runs right now."""
    rows = [(i, (i * 7919) % 1021) for i in range(3000)]
    index: Dict[int, List[int]] = {}
    for key, value in rows:
        index.setdefault(value, []).append(key)
    out = set()
    for key, value in rows:
        for other in index.get(key % 1021, ()):
            out.add((value, other))
    return len(out)


def time_reference(runs: int) -> List[float]:
    """Seconds each of ``runs`` runs of the reference kernel takes.

    One untimed run goes first, so every timed run starts from the state
    the kernel itself leaves (a run straight after a request is about 15%
    slower, by an amount that depends on what the request did).  The
    collector is held off meanwhile, so the kernel never pays for scanning
    the program's heap; the kernel frees all it allocates, so the
    program's own collections fall where they would without it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference_kernel()
        times = []
        for _ in range(runs):
            start = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - start)
        return times
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation); needs >= 2 values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    attempted: int = 0
    #: Numbers of the operations that raised or whose replay disagreed.
    failed_ops: Set[int] = field(default_factory=set)
    errors: List[str] = field(default_factory=list)
    latency: Dict[str, List[float]] = field(default_factory=dict)
    untraced: List[float] = field(default_factory=list)
    replayed: List[float] = field(default_factory=list)
    #: Per op type, when each call started, in seconds into the window.
    started: Dict[str, List[float]] = field(default_factory=dict)
    #: ``(seconds into the window, seconds)`` of each reference kernel run.
    reference: List[Tuple[float, float]] = field(default_factory=list)
    #: Operations, and their summed latency, run under the GC monitor.
    watched_ops: int = 0
    watched_busy: float = 0.0

    def failed(self, wrong: Iterable[Tuple[int, str]]) -> int:
        """Failed operations: each counted once, whether it raised, its
        replay disagreed, the oracle rejected it, or several of these."""
        window = set(self.failed_ops)
        outside = 0  # wrong answers to requests made during set-up
        for number, _ in wrong:
            if number:
                window.add(number)
            else:
                outside += 1
        return min(self.attempted, len(window) + outside)


def measure_setup(workload: Workload, repeats: int) -> List[Tuple[float, float]]:
    """Time ``setup`` ``repeats`` times; the workload keeps the last build.

    Returns ``(seconds, reference seconds)`` per set-up, the second being the
    mean time of the reference kernel runs just before and just after it.
    """
    times = []
    for _ in range(repeats):
        around = time_reference(REFERENCE_RUNS)
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        around += time_reference(REFERENCE_RUNS)
        times.append((elapsed, sum(around) / len(around)))
    return times


def run_window(
    workload: Workload,
    seconds: float,
    tracer: Optional[Tracer] = None,
    monitor: Optional[GcMonitor] = None,
    watch_from: float = 0.0,
) -> RunResult:
    """Drive the closed loop for ``seconds`` of wall time.

    One client: each request starts when the previous reply (and its
    bookkeeping) is done.  Latency covers the library call only.  The GC
    monitor watches the calls made from ``watch_from`` seconds on.  With a
    tracer, every read/limit request before then is replayed right after
    its untraced call and the two answers are compared; at ``watch_from``
    the workload drops what it keeps for tracing (``end_trace``) and the
    collector clears it, so the monitor sees the program alone: replays
    allocate too, and would move when collections fall.  Between requests,
    every ``REFERENCE_EVERY`` seconds, the reference kernel runs outside
    any timed call.
    """
    result = RunResult()
    clock = time.perf_counter
    opened = clock()
    deadline = opened + seconds
    watch_at = opened + watch_from
    watching = False
    reference_at = opened
    while clock() < deadline:
        if clock() >= reference_at:
            at = clock() - opened
            result.reference += [(at, took) for took in time_reference(REFERENCE_RUNS)]
            reference_at = clock() + REFERENCE_EVERY
        if not watching and clock() >= watch_at:
            watching = True
            if tracer is not None:
                workload.end_trace()
                gc.collect()
        traced = tracer is not None and not watching
        watched = monitor is not None and watching
        op = workload.next_op()
        result.attempted += 1
        number = result.attempted
        answers: object = None
        failed = False
        if watched:
            monitor.in_op = True
        start = clock()
        try:
            answers = op.run()
        except Exception as error:  # a failed request is counted, not dropped
            failed = True
            result.errors.append(f"{op.kind}: {type(error).__name__}: {error}")
        elapsed = clock() - start
        if watched:
            monitor.in_op = False
            result.watched_ops += 1
            result.watched_busy += elapsed
        result.latency.setdefault(op.kind, []).append(elapsed)
        result.started.setdefault(op.kind, []).append(start - opened)
        if failed:
            result.failed_ops.add(number)
            continue
        op.record(number, answers)
        if traced and op.replay is not None:
            tracer.op += 1
            replay_start = clock()
            try:
                replayed = op.replay(tracer)
            except Exception as error:
                result.failed_ops.add(number)
                result.errors.append(f"replay: {type(error).__name__}: {error}")
                continue
            result.replayed.append(clock() - replay_start)
            result.untraced.append(elapsed)
            if not op.same(answers, replayed):
                result.failed_ops.add(number)
                result.errors.append(f"replay of a {op.kind} disagrees with the call")
    return result


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_record() -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }
