"""The paper's workloads: set-up, the timed call sequence, and the gate.

Each workload is a closed loop with one client: it calls the library's
public entry points one after another and waits for each.  ``setup`` builds
the inputs from the seed (timed as set-up), ``prepare`` builds a fresh spec
before every iteration (untimed, so iterations share no memoized values),
``run`` is the timed part, and ``gate`` checks its outputs and counts the
operations that were wrong.  ``run`` takes an optional
:class:`~tracer.Tracer`; without one it calls the library directly.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, List, Optional, Tuple

__all__ = ["WORKLOADS", "Outcome"]

#: The paper's RaftMongo bounds for MBTC (3 nodes, terms and logs up to 3).
RAFT_MBTC = {"variant": "mbtc", "n_nodes": 3, "max_term": 3, "max_log_len": 3}


@dataclass
class Outcome:
    """What one iteration did, as the gate saw it."""

    #: Units of work the iteration completed (the throughput numerator).
    items: int
    #: Operations attempted and operations whose output was wrong.
    attempted: int
    failed: int
    mismatches: List[str] = field(default_factory=list)
    #: Counts the library itself reported, for the per-layer metrics.
    facts: Dict[str, float] = field(default_factory=dict)


def _span(tracer: Any, name: str) -> ContextManager[Any]:
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class CheckWorkload:
    """One exhaustive ``check_spec`` per iteration against golden statistics."""

    item = "generated states"
    size = 1
    modules = ("repro.tla.registry", "repro.engine")

    def __init__(
        self,
        name: str,
        spec_name: str,
        params: Dict[str, Any],
        golden: Tuple[int, int, int],
        *,
        engine: str,
        workers: Optional[int] = None,
        min_cores: int = 1,
    ) -> None:
        self.name = name
        self.spec_name = spec_name
        self.params = params
        self.golden = golden
        self.engine = engine
        self.workers = workers
        self.min_cores = min_cores
        self.spec: Any = None

    def setup(self, seed: int, workdir: str) -> None:
        self.prepare()

    def prepare(self) -> None:
        from repro.tla.registry import build_spec

        self.spec = build_spec(self.spec_name, **self.params)

    def run(self, tracer: Any = None) -> Any:
        from repro.engine import check_spec

        with _span(tracer, "engine.check_spec"):
            return check_spec(
                self.spec,
                engine=self.engine,
                workers=self.workers,
                check_properties=False,
            )

    def gate(self, result: Any) -> Outcome:
        mismatches = []
        observed = (result.distinct_states, result.generated_states, result.max_depth)
        if observed != self.golden:
            mismatches.append(
                f"distinct/generated/depth {observed} != golden {self.golden}"
            )
        if not result.ok or result.truncated:
            mismatches.append(f"check did not complete cleanly: {result.summary()}")
        return Outcome(
            items=result.generated_states,
            attempted=1,
            failed=1 if mismatches else 0,
            mismatches=mismatches,
        )


def _collapse_stutters(states: List[Any]) -> List[Any]:
    """The trace a log round trip yields: unchanged steps are never logged."""
    kept = states[:1]
    for state in states[1:]:
        if state != kept[-1]:
            kept.append(state)
    return kept


class MbtcWorkload:
    """A batch of fault-injected RaftMongo executions read back from logs."""

    name = "mbtc-raftmongo"
    item = "log events"
    min_cores = 1
    modules = ("repro.pipeline.registry", "repro.pipeline.runner", "repro.pipeline.logs")

    def __init__(self, size: int = 1000, fault_rate: float = 0.1) -> None:
        self.size = size
        self.fault_rate = fault_rate
        self.spec: Any = None
        self.per_node: Tuple[str, ...] = ()
        self.paths: List[List[str]] = []
        self.labels: List[Tuple[bool, Optional[str]]] = []
        self.expected: List[List[Any]] = []
        self.events = 0

    def setup(self, seed: int, workdir: str) -> None:
        from repro.pipeline.logs import write_per_node_logs
        from repro.pipeline.registry import build_spec_by_name
        from repro.pipeline.workload import generate_workload

        spec, entry = build_spec_by_name("raftmongo", **RAFT_MBTC)
        self.per_node = entry.per_node_variables(spec)
        nodes = entry.node_count(spec)
        # Repeated set-ups rewrite the same files: creating thousands of files
        # costs this host's disk anywhere from 0.4 to 3 s, which would drown
        # the library's own set-up work (see ``measure_setup``).
        logdir = os.path.join(workdir, "logs")
        os.makedirs(logdir, exist_ok=True)
        self.paths, self.labels, self.expected = [], [], []
        for index, trace in enumerate(
            generate_workload(
                spec, n_traces=self.size, seed=seed, fault_rate=self.fault_rate
            )
        ):
            self.paths.append(
                write_per_node_logs(
                    spec,
                    trace.states,
                    per_node=self.per_node,
                    nodes=nodes,
                    directory=logdir,
                    basename=f"trace{index:05d}",
                    actions=trace.actions,
                )
            )
            self.labels.append((trace.expect_ok, trace.fault))
            self.expected.append(_collapse_stutters(trace.states))
        self.events = 0
        for paths in self.paths:
            for path in paths:
                with open(path, encoding="utf-8") as handle:
                    self.events += sum(1 for _ in handle)
        self.prepare()

    def prepare(self) -> None:
        from repro.tla.registry import build_spec

        self.spec = build_spec("raftmongo", **RAFT_MBTC)

    def run(self, tracer: Any = None) -> Any:
        from repro.pipeline.logs import trace_from_logs
        from repro.pipeline.runner import check_traces
        from repro.pipeline.workload import GeneratedTrace

        spec, per_node = self.spec, self.per_node
        traces = []
        for paths, (expect_ok, fault) in zip(self.paths, self.labels):
            with _span(tracer, "pipeline.logs.trace_from_logs"):
                states = trace_from_logs(spec, paths, per_node=per_node)
            traces.append(
                GeneratedTrace(
                    states=states,
                    actions=[None] * len(states),
                    expect_ok=expect_ok,
                    fault=fault,
                )
            )
        with _span(tracer, "pipeline.runner.check_traces"):
            report = check_traces(spec, traces, workers=1, executor="thread")
        return traces, report

    def gate(self, raw: Any) -> Outcome:
        traces, report = raw
        mismatches = []
        bad = set()
        for index, (trace, expected) in enumerate(zip(traces, self.expected)):
            if trace.states != expected:
                bad.add(index)
                mismatches.append(f"trace {index}: rebuilt from logs differs")
        for outcome in report.surprises + report.errors:
            bad.add(outcome.index)
            mismatches.append(
                f"trace {outcome.index}: expected "
                f"{'pass' if outcome.expected_ok else 'fail'}, got "
                f"{outcome.error or ('pass' if outcome.ok else 'fail')}"
            )
        expect_pass = sum(1 for ok, _ in self.labels if ok)
        counts = (report.total, report.passed, report.failed)
        wanted = (self.size, expect_pass, self.size - expect_pass)
        missing = 0
        if counts != wanted:
            mismatches.append(f"total/passed/failed {counts} != labels {wanted}")
            missing = max(1, abs(self.size - report.total))
        return Outcome(
            items=self.events,
            attempted=self.size,
            failed=min(self.size, len(bad) + missing),
            mismatches=mismatches,
            facts={
                "events": self.events,
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
                "passed": report.passed,
                "failed": report.failed,
            },
        )


class MbtcgWorkload:
    """Generate the OT-array suite, write it as a corpus, replay it."""

    name = "mbtcg-ot-array"
    item = "replayed tests"
    size = 2550
    min_cores = 1
    modules = ("repro.tla.registry", "repro.mbtcg")
    #: Golden graph and suite figures for ``init_length=8, max_length=6``.
    golden = {"graph_states": 2601, "graph_edges": 3850, "tests": 2550}

    def __init__(self) -> None:
        self.spec: Any = None
        self.corpus = ""

    def setup(self, seed: int, workdir: str) -> None:
        self.corpus = os.path.join(workdir, "ot_array.corpus.jsonl")
        self.prepare()

    def prepare(self) -> None:
        from repro.tla.registry import build_spec

        self.spec = build_spec("ot_array", init_length=8)

    def run(self, tracer: Any = None) -> Any:
        from repro.mbtcg import generate_suite, replay_corpus, write_corpus

        with _span(tracer, "mbtcg.generate_suite"):
            suite = generate_suite(self.spec, strategy="exhaustive", max_length=6)
        with _span(tracer, "mbtcg.write_corpus"):
            write_corpus(suite, self.corpus)
        with _span(tracer, "mbtcg.replay_corpus"):
            _header, report = replay_corpus(self.corpus, workers=1, executor="thread")
        return suite, report

    def gate(self, raw: Any) -> Outcome:
        suite, report = raw
        golden = self.golden
        mismatches = []
        observed = {
            "graph_states": suite.stats.graph_states,
            "graph_edges": suite.stats.graph_edges,
            "tests": len(suite),
        }
        if observed != golden:
            mismatches.append(f"suite {observed} != golden {golden}")
        if report.total != len(suite):
            mismatches.append(f"replayed {report.total} of {len(suite)} cases")
        bad = {o.index for o in report.failures + report.errors + report.surprises}
        for index in sorted(bad)[:10]:
            mismatches.append(f"replayed case {index} did not pass")
        failed = len(bad) + abs(golden["tests"] - report.total)
        return Outcome(
            items=report.total,
            attempted=golden["tests"],
            failed=min(golden["tests"], failed),
            mismatches=mismatches,
            facts={
                "dedup_ratio": suite.stats.dedup_ratio,
                "cache_hits": report.cache_hits,
                "cache_misses": report.cache_misses,
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        CheckWorkload(
            "check-raftmongo",
            "raftmongo",
            {"variant": "original", "max_term": 3},
            (12_673, 63_676, 15),
            engine="fingerprint",
        ),
        CheckWorkload(
            "check-locking-par2",
            "locking",
            {"n_threads": 4},
            (116_240, 867_505, 12),
            engine="parallel",
            workers=2,
            min_cores=2,
        ),
        MbtcWorkload(),
        MbtcgWorkload(),
    )
}
