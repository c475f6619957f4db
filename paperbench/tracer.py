"""In-memory span tracer for the benchmark's traced run.

The traced run wraps calls into each layer's public functions (see
:func:`instrument`) and records one :class:`Span` per call: a name, a start,
an end and the span that caused it.  Calls too hot to give a span each
(``store.add``, a compiled ``expand``, ``Specification.successors``) are
*aggregated* instead: each one adds its call count and elapsed time to the
span that was open around it.  Spans stay in memory until the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover (their union, so children running in another thread are
not counted twice) minus the time of the hot calls aggregated under it.
Summed over the whole tree, self times account for the root span's wall;
:func:`layer_breakdown` checks that.

The aggregated wrappers cost a few hundred nanoseconds a call, which on
``store.add`` (870k calls per parallel locking check) would otherwise show
up as layer time.  :func:`calibrate` measures that cost on a no-op, and
:func:`layer_breakdown` moves it out of the layers into a separate
``overhead`` figure.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Calibration",
    "LayerBreakdown",
    "Span",
    "Tracer",
    "calibrate",
    "instrument",
    "layer_breakdown",
    "self_times",
    "union_length",
]


@dataclass
class Span:
    """One recorded call into a layer."""

    span_id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    #: Hot calls made while this span was innermost: name -> [calls, seconds].
    aggregates: Dict[str, List[float]] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "aggregates": {k: list(v) for k, v in self.aggregates.items()},
        }


class Tracer:
    """Records spans per thread; a thread with no open span adopts the main
    thread's innermost span as its parent (a batch runner's worker thread
    is caused by the call the main thread is blocked in)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        #: Objects the instrumented layers hand back for the run's report
        #: (check results, created stores).
        self.collected: Dict[str, List[Any]] = {}
        self.pid = os.getpid()
        self._ids = itertools.count()
        self._local = threading.local()
        self._main: List[Span] = []
        self._local.stack = self._main

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = self._main[-1:]
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids), name, stack[-1].span_id if stack else None, self.clock()
        )
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def collect(self, kind: str, item: Any) -> None:
        self.collected.setdefault(kind, []).append(item)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one span per call (only in the tracing process)."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != tracer.pid:  # a forked pool worker
                return fn(*args, **kwargs)
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def hot(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` adding its calls and time to the innermost open span."""
        stack_of, clock = self._stack, self.clock

        def counted(*args: Any) -> Any:
            stack = stack_of()
            started = clock()
            try:
                return fn(*args)
            finally:
                elapsed = clock() - started
                acc = stack[-1].aggregates.get(name)
                if acc is None:
                    stack[-1].aggregates[name] = [1, elapsed]
                else:
                    acc[0] += 1
                    acc[1] += elapsed

        return counted


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus children's covered interval and hot calls."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = union_length(
            [
                (max(child.start, span.start), min(child.end, span.end))
                for child in children.get(span.span_id, ())
            ]
        )
        hot = sum(acc[1] for acc in span.aggregates.values())
        result[span.span_id] = (span.end - span.start) - covered - hot
    return result


@dataclass(frozen=True)
class Calibration:
    """Per-call cost of a hot wrapper: inside its clock pair, and outside it."""

    inside: float = 0.0
    outside: float = 0.0


def calibrate(rounds: int = 5, calls: int = 100_000) -> Calibration:
    """Measure what :meth:`Tracer.hot` adds to a call, on a no-op.

    ``inside`` is the part the wrapper records as the callee's time (one
    clock read), ``outside`` the part it adds to the caller's.  The minimum
    over ``rounds`` is taken, as for any overhead measurement.
    """

    def noop(_arg: Any) -> None:
        return None

    best_total = best_inside = float("inf")
    for _ in range(rounds):
        clock = time.perf_counter
        started = clock()
        for i in range(calls):
            noop(i)
        direct = clock() - started

        tracer = Tracer()
        wrapped = tracer.hot("noop", noop)
        with tracer.span("calibrate") as span:
            started = clock()
            for i in range(calls):
                wrapped(i)
            total = clock() - started
        recorded = span.aggregates["noop"][1]
        best_total = min(best_total, (total - direct) / calls)
        best_inside = min(best_inside, max(0.0, recorded - direct) / calls)
    inside = min(best_inside, best_total)
    return Calibration(inside=inside, outside=max(0.0, best_total - inside))


@dataclass
class LayerBreakdown:
    """Per-layer self time and call counts of one traced wall."""

    wall: float
    self_s: Dict[str, float]
    calls: Dict[str, int]
    overhead_s: float

    @property
    def accounted(self) -> float:
        """Self times plus wrapper overhead; equals ``wall`` when consistent."""
        return sum(self.self_s.values()) + self.overhead_s

    def check(self, tolerance: float) -> List[str]:
        """Problems with the accounting; empty when it holds within tolerance."""
        problems = []
        if self.wall <= 0:
            return ["traced wall is not positive"]
        gap = abs(self.accounted - self.wall) / self.wall
        if gap > tolerance:
            problems.append(
                f"self times sum to {self.accounted:.6f}s against a traced wall "
                f"of {self.wall:.6f}s ({gap:.2%} > {tolerance:.2%})"
            )
        for name, value in self.self_s.items():
            if value < -tolerance * self.wall:
                problems.append(f"layer {name} has negative self time {value:.6f}s")
        return problems


def layer_breakdown(
    spans: Sequence[Span], root: Span, calibration: Calibration = Calibration()
) -> LayerBreakdown:
    """Group self times by span name; hot calls become layers of their own.

    Calibrated wrapper cost is taken out of each hot layer (``inside``) and
    out of the span it ran under (``outside``) and reported as overhead.
    """
    own = self_times(spans)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    overhead = 0.0
    for span in spans:
        cost = 0.0
        for name, (count, seconds) in span.aggregates.items():
            count = int(count)
            inside = count * calibration.inside
            self_s[name] = self_s.get(name, 0.0) + seconds - inside
            calls[name] = calls.get(name, 0) + count
            cost += count * calibration.outside
            overhead += inside
        self_s[span.name] = self_s.get(span.name, 0.0) + own[span.span_id] - cost
        calls[span.name] = calls.get(span.name, 0) + 1
        overhead += cost
    return LayerBreakdown(
        wall=root.end - root.start, self_s=self_s, calls=calls, overhead_s=overhead
    )


# ---------------------------------------------------------------------------
# Instrumentation of the library's layer boundaries
# ---------------------------------------------------------------------------


def _patch(stack: ExitStack, owner: Any, attr: str, replacement: Any) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, replacement)
    stack.callback(setattr, owner, attr, original)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the library's layer boundaries for the duration of the block.

    Every wrapper is removed on exit, so untraced iterations in the same
    process run the library unmodified.  Functions are patched where their
    callers look them up (``repro.pipeline.runner.check_trace``, not
    ``repro.tla.trace.check_trace``).
    """
    import repro.compile as compile_pkg
    import repro.engine.core as core
    import repro.mbtcg.emitters as emitters
    import repro.mbtcg.generator as generator
    import repro.pipeline.runner as runner
    from multiprocessing.connection import Connection
    from repro.engine.fingerprint import FingerprintEngine
    from repro.engine.parallel import ParallelEngine
    from repro.engine.serial import SerialStatesEngine
    from repro.resilience.supervisor import SupervisedPool
    from repro.tla.spec import Specification

    pid = tracer.pid

    def compile_spec(spec: Any, *args: Any, **kwargs: Any) -> Any:
        compiled = original_compile(spec, *args, **kwargs)
        if os.getpid() == pid:
            compiled.expand = tracer.hot("compile.expand", compiled.expand)
        return compiled

    def make_store(*args: Any, **kwargs: Any) -> Any:
        store = original_make_store(*args, **kwargs)
        # ``add`` for the fingerprint stores, ``intern`` for the retaining
        # store the ``states`` engine uses: both are the dedup call.
        for method in ("add", "intern"):
            if hasattr(store, method):
                setattr(store, method, tracer.hot("engine.store.add", getattr(store, method)))
        tracer.collect("store", store)
        return store

    def engine_run(original: Callable[..., Any]) -> Callable[..., Any]:
        traced = tracer.wrap("engine.bfs", original)

        def run(self: Any, ctx: Any) -> Any:
            try:
                return traced(self, ctx)
            finally:
                tracer.collect("check", ctx.result)

        return run

    def sent(fn: Callable[..., Any]) -> Callable[..., Any]:
        def send_bytes(self: Any, buf: Any) -> Any:
            if os.getpid() == pid:
                tracer.count("resilience.pool.sent_bytes", len(buf))
            return fn(self, buf)

        return send_bytes

    def received(fn: Callable[..., Any]) -> Callable[..., Any]:
        def recv_bytes(self: Any, *args: Any) -> Any:
            buf = fn(self, *args)
            if os.getpid() == pid:
                tracer.count("resilience.pool.recv_bytes", buf.getbuffer().nbytes)
            return buf

        return recv_bytes

    original_compile = compile_pkg.compile_spec
    original_make_store = core.make_store
    with ExitStack() as stack:
        _patch(stack, compile_pkg, "compile_spec", tracer.wrap("compile.compile_spec", compile_spec))
        _patch(stack, core, "make_store", make_store)
        for engine in (FingerprintEngine, ParallelEngine, SerialStatesEngine):
            _patch(stack, engine, "run", engine_run(engine.run))
        for attr, name in (
            ("_respawn", "resilience.pool.start"),
            ("submit", "resilience.pool.submit"),
            ("result", "resilience.pool.wait"),
        ):
            _patch(stack, SupervisedPool, attr, tracer.wrap(name, getattr(SupervisedPool, attr)))
        _patch(stack, Connection, "_send_bytes", sent(Connection._send_bytes))
        _patch(stack, Connection, "_recv_bytes", received(Connection._recv_bytes))
        _patch(stack, runner, "check_trace", tracer.wrap("tla.trace.check_trace", runner.check_trace))
        _patch(
            stack,
            runner,
            "coverage_of_trace",
            tracer.wrap("tla.coverage.coverage_of_trace", runner.coverage_of_trace),
        )
        _patch(stack, Specification, "successors", tracer.hot("tla.spec.successors", Specification.successors))
        _patch(stack, generator, "build_graph", tracer.wrap("mbtcg.build_graph", generator.build_graph))
        _patch(
            stack,
            generator,
            "exhaustive_behaviours",
            tracer.wrap("mbtcg.enumerate", generator.exhaustive_behaviours),
        )
        _patch(
            stack,
            emitters,
            "check_traces",
            tracer.wrap("pipeline.runner.check_traces", emitters.check_traces),
        )
        yield tracer
