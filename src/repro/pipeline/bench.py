"""Benchmark harness: states/sec and traces/sec for every engine × worker count.

The paper's premise is that exhaustive checking (42,034 and 371,368 states
for the two RaftMongo variants) and CI-scale batch trace checking must be
fast enough to run routinely.  This harness records where this reproduction
stands after every PR: it times

* model checking with the ``states``, ``fingerprint`` and ``parallel``
  engines (the latter across a list of worker counts),
* random-walk simulation (the ``simulate`` engine) -- walks/sec, the
  throughput of the sampling path used when a state space is too large to
  exhaust,
* batch trace checking with the ``thread`` and ``process`` executors,
* MBTCG test-case generation (every :mod:`repro.mbtcg` strategy) -- the
  tests/sec and dedup-ratio trajectory of the generation workload, and
* chaos recovery (schema v4): the parallel engine under deterministic fault
  injection (:mod:`repro.resilience.faults`) against its fault-free twin --
  the wall-clock overhead of surviving injected worker crashes, slowdowns
  and corrupt results, with a bit-identical statistics verdict per row, and
* store scaling (schema v5): the same exploration through the in-memory
  ``fingerprint`` store and the SQLite-backed ``disk`` store, with
  tracemalloc peak memory, the store's disk-I/O share of the wall clock and
  a store-bound vs CPU-bound regime classification per row -- the evidence
  that the disk store trades bounded memory for bounded slowdown,
* streaming (schema v6): the ``repro watch`` service draining a directory of
  pre-written trace logs in ``--once`` mode -- events/sec through the tail ->
  parse -> incremental-check path, the throughput bound of live MBTC, and
* observability (schema v7): the same exploration bare vs under an active
  telemetry run with a JSONL sink -- the wall-clock cost of the
  instrumentation threaded through every layer, pinned under a few percent
  with a bit-identical statistics verdict per row,
* spec compilation (schema v8): the same exploration with the spec compiled
  (:mod:`repro.compile` successor kernels) vs interpreted -- the raw
  states/sec gain of the compiled fast path, with a bit-identical verdict
  per row that covers the counterexample trace as well as every statistic,

on the registered specification families, and writes one JSON document
(``BENCH_results.json``) with wall times, states/sec, walks/sec, traces/sec,
tests/sec, peak frontier sizes and speedups relative to the serial
``fingerprint`` baseline.  The file is written atomically (temp file +
rename), so a bench interrupted mid-write never leaves a truncated results
document behind.
CI runs ``python -m repro bench --smoke`` and uploads the JSON as an
artifact, so the perf trajectory is recorded per commit.

A machine note is appended whenever the hardware cannot show a parallel
speedup (``os.cpu_count() == 1``): multiprocessing cannot beat serial
execution without a second core, and pretending otherwise would poison the
trajectory data.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..engine import check_spec
from ..resilience import FaultPlan, SupervisionConfig, atomic_write_text
from ..tla.registry import build_spec
from .runner import check_traces
from .workload import generate_workload

__all__ = [
    "BenchConfig",
    "OBS_OVERHEAD_BUDGET",
    "failed_verdicts",
    "run_bench",
    "summarize",
    "write_results",
]

#: v8: a ``spec_compile`` stage joins the document (the same BFS with the
#: spec compiled vs interpreted, ``speedup_vs_interpreted`` and a
#: ``bit_identical`` verdict over every statistic *and* the counterexample
#: trace per row).  v7 added ``observability`` (instrumented vs bare wall
#: clock with the telemetry sink enabled, overhead pinned against
#: ``OBS_OVERHEAD_BUDGET``); v6 ``streaming`` (the watch service draining
#: trace logs in once mode, events/sec per spec); v5 ``store_scaling``
#: (in-memory vs disk store with peak-memory and store-bound/CPU-bound
#: regime per row) and ``store_io_seconds`` + ``regime`` on every
#: model-checking row; v4 the ``chaos`` stage; v3 the resolved ``store``
#: per row and the ``simulation`` stage.
SCHEMA_VERSION = 8

#: The observability stage's acceptance bar: instrumented wall clock within
#: 3% of the bare run on the same spec.
OBS_OVERHEAD_BUDGET = 1.03

#: (registry name, params) pairs benchmarked by default.  The second locking
#: configuration triples the thread count so the parallel engine has a state
#: space wide enough to amortize shard pickling.
DEFAULT_SPECS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("locking", {}),
    ("locking", {"n_threads": 3}),
    ("raftmongo", {"variant": "original"}),
    ("raftmongo", {"variant": "mbtc", "n_nodes": 2}),
)

SMOKE_SPECS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("locking", {}),
    ("raftmongo", {"variant": "mbtc", "n_nodes": 2}),
)

#: ``(registry name, params, max behaviour length)`` tuples for the MBTCG
#: generation stage.  ot_array is the paper's own generation workload;
#: locking exercises a cyclic graph where ``max_length`` does the bounding.
DEFAULT_GENERATION: Tuple[Tuple[str, Dict[str, Any], int], ...] = (
    ("ot_array", {}, 6),
    ("locking", {}, 4),
)

SMOKE_GENERATION: Tuple[Tuple[str, Dict[str, Any], int], ...] = (
    ("ot_array", {}, 5),
)

#: Configurations for the store-scaling stage: large enough that the disk
#: store actually exercises its write-back/flush path, small enough to run
#: in a bench.  (The million-state runs live in the README's worked example,
#: not the routine bench.)
DEFAULT_STORE_SPECS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("locking", {"n_threads": 4}),
    ("raftmongo", {"variant": "mbtc", "n_nodes": 3}),
)

SMOKE_STORE_SPECS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("locking", {"n_threads": 3}),
    ("raftmongo", {"variant": "mbtc", "n_nodes": 2}),
)


@dataclass
class BenchConfig:
    """What to measure; ``smoke`` shrinks everything to CI-smoke scale."""

    specs: Sequence[Tuple[str, Dict[str, Any]]] = DEFAULT_SPECS
    worker_counts: Sequence[int] = (1, 2, 4)
    n_traces: int = 400
    trace_seed: int = 42
    fault_rate: float = 0.1
    generation: Sequence[Tuple[str, Dict[str, Any], int]] = DEFAULT_GENERATION
    generation_samples: int = 100
    sim_walks: int = 200
    sim_depth: int = 50
    #: Chaos stage: fault-injection probability per (worker, task) and the
    #: seed of the deterministic fault schedule.  ``hang`` is excluded from
    #: the injected kinds -- every hang costs a full task timeout of wall
    #: clock, which would measure the timeout setting, not recovery cost.
    chaos_rate: float = 0.3
    chaos_seed: int = 7
    chaos_workers: int = 2
    #: Configurations timed through both the in-memory and the disk store.
    store_specs: Sequence[Tuple[str, Dict[str, Any]]] = DEFAULT_STORE_SPECS
    #: Disk-store write-back cache size for the store-scaling rows (None =
    #: the store's default); small values force the flush path.
    store_capacity: Optional[int] = None
    #: Trace-log files drained per spec by the streaming stage.
    streaming_traces: int = 80
    #: Configurations timed bare vs instrumented by the observability stage
    #: (one mid-sized BFS is enough to resolve a 3% overhead).
    observability_specs: Sequence[Tuple[str, Dict[str, Any]]] = (
        ("locking", {"n_threads": 3}),
    )
    #: Best-of-N walls per observability variant (times the floor, not
    #: scheduler noise).
    observability_repeats: int = 3
    #: Best-of-N walls per spec-compilation variant (interpreted/compiled).
    compile_repeats: int = 3
    smoke: bool = False

    @classmethod
    def smoke_config(cls) -> "BenchConfig":
        return cls(
            specs=SMOKE_SPECS,
            worker_counts=(1, 2),
            n_traces=60,
            generation=SMOKE_GENERATION,
            generation_samples=40,
            sim_walks=60,
            sim_depth=25,
            store_specs=SMOKE_STORE_SPECS,
            # Far below the smoke state counts, so the flush/re-probe path is
            # exercised even at CI scale.
            store_capacity=1000,
            streaming_traces=20,
            smoke=True,
        )


def _spec_label(name: str, params: Dict[str, Any]) -> str:
    if not params:
        return name
    inner = ",".join(f"{key}={params[key]}" for key in sorted(params))
    return f"{name}[{inner}]"


def _regime(io_seconds: float, wall: float) -> Tuple[float, str]:
    """``(io_fraction, regime)``: store-bound when disk I/O dominates wall."""
    fraction = (io_seconds / wall) if wall else 0.0
    return round(fraction, 4), ("store-bound" if fraction >= 0.5 else "cpu-bound")


def _time_check(
    name: str, params: Dict[str, Any], engine: str, workers: Optional[int]
) -> Dict[str, Any]:
    spec = build_spec(name, **params)
    result = check_spec(
        spec, check_properties=False, engine=engine, workers=workers
    )
    wall = result.duration_seconds
    io_fraction, regime = _regime(result.store_io_seconds, wall)
    return {
        "spec": name,
        "params": params,
        "label": _spec_label(name, params),
        "engine": result.engine,
        "store": result.store,
        "workers": result.workers if engine == "parallel" else 1,
        "wall_seconds": round(wall, 6),
        "distinct_states": result.distinct_states,
        "generated_states": result.generated_states,
        "max_depth": result.max_depth,
        "peak_frontier": result.peak_frontier,
        "states_per_second": round(result.generated_states / wall, 1) if wall else None,
        "store_io_seconds": round(result.store_io_seconds, 6),
        "io_fraction": io_fraction,
        "regime": regime,
        "compiled": result.compiled,
        "ok": result.ok,
    }


def _time_store(
    name: str,
    params: Dict[str, Any],
    store: str,
    store_capacity: Optional[int],
) -> Dict[str, Any]:
    """One store-scaling row: the same BFS through a given visited store.

    Peak memory is measured with tracemalloc (Python-heap peak, not RSS --
    comparable across rows on the same interpreter), and the store's share
    of the wall clock classifies the run as store-bound or CPU-bound.
    """
    import tracemalloc

    spec = build_spec(name, **params)
    tracemalloc.start()
    result = check_spec(
        spec,
        check_properties=False,
        engine="fingerprint",
        store=store,
        store_capacity=store_capacity if store == "disk" else None,
    )
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    wall = result.duration_seconds
    io_fraction, regime = _regime(result.store_io_seconds, wall)
    return {
        "spec": name,
        "params": params,
        "label": _spec_label(name, params),
        "store": store,
        "store_capacity": store_capacity if store == "disk" else None,
        "wall_seconds": round(wall, 6),
        "distinct_states": result.distinct_states,
        "generated_states": result.generated_states,
        "max_depth": result.max_depth,
        "peak_frontier": result.peak_frontier,
        "states_per_second": round(result.generated_states / wall, 1) if wall else None,
        "store_io_seconds": round(result.store_io_seconds, 6),
        "io_fraction": io_fraction,
        "regime": regime,
        "peak_memory_mb": round(peak / 1e6, 2),
        "frontier_spilled_states": result.frontier_spilled_states,
        "ok": result.ok,
    }


def _time_simulation(
    name: str, params: Dict[str, Any], walks: int, depth: int, seed: int
) -> Dict[str, Any]:
    """One random-walk simulation row: walks/sec for the ``simulate`` engine."""
    spec = build_spec(name, **params)
    result = check_spec(
        spec,
        check_properties=False,
        engine="simulate",
        walks=walks,
        walk_depth=depth,
        seed=seed,
    )
    wall = result.duration_seconds
    return {
        "spec": name,
        "params": params,
        "label": _spec_label(name, params),
        "engine": result.engine,
        "store": result.store,
        "walks": result.walks,
        "walk_depth": depth,
        "seed": seed,
        "wall_seconds": round(wall, 6),
        "distinct_states": result.distinct_states,
        "generated_states": result.generated_states,
        "longest_walk": result.max_depth,
        "walks_per_second": round(result.walks / wall, 1) if wall else None,
        "states_per_second": round(result.generated_states / wall, 1) if wall else None,
        "ok": result.ok,
    }


def _time_traces(
    spec: Any,
    name: str,
    params: Dict[str, Any],
    executor: str,
    workers: int,
    workload: List[Any],
) -> Dict[str, Any]:
    report = check_traces(spec, workload, workers=workers, executor=executor)
    return {
        "spec": name,
        "params": params,
        "label": _spec_label(name, params),
        "executor": executor,
        "workers": workers,
        "traces": report.total,
        "wall_seconds": round(report.duration_seconds, 6),
        "traces_per_second": round(report.traces_per_second, 1),
        "passed": report.passed,
        "failed": report.failed,
        "unexpected_verdicts": len(report.surprises),
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
    }


def _time_generation(
    name: str,
    params: Dict[str, Any],
    strategy: str,
    max_length: int,
    n_tests: int,
    seed: int,
) -> Dict[str, Any]:
    """One MBTCG generation row: graph build + enumeration + dedup, timed whole.

    The wall time deliberately includes the model-checking run that builds
    the state graph -- that is what ``repro generate`` costs end to end.
    """
    # Imported here, not at module level: repro.pipeline's own __init__ pulls
    # this module in, and repro.mbtcg's emitters import repro.pipeline.logs,
    # so a top-level import would make `import repro.mbtcg` circular.
    from ..mbtcg import generate_suite

    spec = build_spec(name, **params)
    suite = generate_suite(
        spec, strategy=strategy, max_length=max_length, n_tests=n_tests, seed=seed
    )
    stats = suite.stats
    return {
        "spec": name,
        "params": params,
        "label": _spec_label(name, params),
        "strategy": strategy,
        "max_length": max_length,
        "wall_seconds": round(stats.duration_seconds, 6),
        "graph_states": stats.graph_states,
        "enumerated": stats.enumerated,
        "tests": stats.emitted,
        "dedup_ratio": round(stats.dedup_ratio, 4),
        "tests_per_second": round(stats.tests_per_second, 1),
        "coverage_pairs": stats.coverage_pair_count,
    }


def _time_chaos(
    name: str, params: Dict[str, Any], workers: int, rate: float, seed: int
) -> Dict[str, Any]:
    """One chaos row: parallel checking under fault injection vs fault-free.

    Both runs use the same engine, worker count and spec; the only difference
    is the injected fault schedule.  ``bit_identical`` records whether every
    statistic (and the verdict) survived the faults unchanged -- the
    supervised pool's core promise.
    """
    spec = build_spec(name, **params)
    baseline = check_spec(
        spec, check_properties=False, engine="parallel", workers=workers
    )
    plan = FaultPlan(seed=seed, rate=rate, kinds=("crash", "slow", "corrupt"))
    supervision = SupervisionConfig.from_env(backoff_base=0.01)
    chaotic = check_spec(
        build_spec(name, **params),
        check_properties=False,
        engine="parallel",
        workers=workers,
        chaos=plan,
        supervision=supervision,
    )

    def stats_key(result: Any) -> Tuple[Any, ...]:
        return (
            result.distinct_states,
            result.generated_states,
            result.max_depth,
            result.peak_frontier,
            dict(result.action_counts),
            result.ok,
        )

    base_wall = baseline.duration_seconds
    chaos_wall = chaotic.duration_seconds
    supervision_stats = (
        chaotic.supervision.to_dict() if chaotic.supervision is not None else None
    )
    return {
        "spec": name,
        "params": params,
        "label": _spec_label(name, params),
        "workers": workers,
        "chaos_rate": rate,
        "chaos_seed": seed,
        "chaos_kinds": list(plan.kinds),
        "baseline_wall_seconds": round(base_wall, 6),
        "chaos_wall_seconds": round(chaos_wall, 6),
        "overhead_ratio": round(chaos_wall / base_wall, 3) if base_wall else None,
        "bit_identical": stats_key(baseline) == stats_key(chaotic),
        "supervision": supervision_stats,
        "ok": chaotic.ok,
    }


def _uses_native_kernel(name: str, params: Dict[str, Any]) -> bool:
    """Whether compilation picks a hand-specialized kernel for this config."""
    from ..compile import compile_spec

    try:
        return bool(compile_spec(build_spec(name, **params)).native)
    except Exception:
        return False


def _time_spec_compile(
    name: str, params: Dict[str, Any], repeats: int = 3
) -> Dict[str, Any]:
    """One spec-compilation row: the same BFS interpreted vs compiled.

    Both runs use the serial ``fingerprint`` engine, so the ratio isolates
    the successor-kernel cost from pool coordination.  ``bit_identical``
    covers every statistic *and* the counterexample trace (step-for-step
    value tuples), because the compiled path's whole contract is that it is
    an invisible substitution.  Best-of-N walls per variant, as in the
    observability stage.
    """

    def best_run(compile_mode: str) -> Any:
        best = None
        for _ in range(repeats):
            result = check_spec(
                build_spec(name, **params),
                check_properties=False,
                engine="fingerprint",
                compile_mode=compile_mode,
            )
            if best is None or result.duration_seconds < best.duration_seconds:
                best = result
        return best

    interpreted = best_run("off")
    compiled = best_run("on")

    def stats_key(result: Any) -> Tuple[Any, ...]:
        return (
            result.distinct_states,
            result.generated_states,
            result.max_depth,
            result.peak_frontier,
            dict(result.action_counts),
            result.ok,
        )

    def trace_key(result: Any) -> Optional[Tuple[Any, ...]]:
        violation = result.invariant_violation
        if violation is None:
            return None
        return (
            violation.property_name,
            tuple(state.values for state in violation.trace),
        )

    interp_wall = interpreted.duration_seconds
    comp_wall = compiled.duration_seconds
    return {
        "spec": name,
        "params": params,
        "label": _spec_label(name, params),
        "engine": "fingerprint",
        "repeats": repeats,
        "native_kernel": _uses_native_kernel(name, params),
        "interpreted_wall_seconds": round(interp_wall, 6),
        "compiled_wall_seconds": round(comp_wall, 6),
        "compile_seconds": round(compiled.compile_seconds, 6),
        "speedup_vs_interpreted": (
            round(interp_wall / comp_wall, 2) if comp_wall else None
        ),
        "interpreted_states_per_second": (
            round(interpreted.generated_states / interp_wall, 1)
            if interp_wall
            else None
        ),
        "compiled_states_per_second": (
            round(compiled.generated_states / comp_wall, 1) if comp_wall else None
        ),
        "distinct_states": compiled.distinct_states,
        "generated_states": compiled.generated_states,
        "bit_identical": (
            stats_key(interpreted) == stats_key(compiled)
            and trace_key(interpreted) == trace_key(compiled)
        ),
        "ok": compiled.ok,
    }


def _time_streaming(
    name: str, params: Dict[str, Any], n_traces: int, seed: int, fault_rate: float
) -> Optional[Dict[str, Any]]:
    """One streaming row: the watch service draining trace logs in once mode.

    The logs are written outside the timed region; the measurement covers
    the full tail -> adapter-parse -> incremental-check path.  Returns None
    for a spec registered without the log metadata the service requires.
    """
    import io
    import shutil
    import tempfile

    # Deferred so importing bench never drags the service (and its threads
    # machinery) into memory-profiled checking runs.
    from ..stream import WatchConfig, WatchService
    from ..tla.registry import get_entry
    from . import logs as log_module

    entry = get_entry(name)
    if entry.per_node_variables is None or entry.node_count is None:
        return None
    spec = build_spec(name, **params)
    per_node = entry.per_node_variables(spec)
    tmp = tempfile.mkdtemp(prefix="repro-bench-stream-")
    try:
        paths: List[str] = []
        for index, generated in enumerate(
            generate_workload(
                spec, n_traces=n_traces, seed=seed, fault_rate=fault_rate
            )
        ):
            events = log_module.events_from_trace(
                spec,
                generated.states,
                per_node=per_node,
                actions=generated.actions,
            )
            path = os.path.join(tmp, f"trace-{index:04d}.log")
            log_module.write_log_file(path, events)
            paths.append(path)
        service = WatchService(
            spec,
            paths,
            per_node=per_node,
            config=WatchConfig(
                once=True,
                report_every=0,
                poll_interval=0.01,
                partial_backoff=0.01,
                stall_timeout=0,
            ),
            out=io.StringIO(),
        )
        started = time.perf_counter()
        service.run()
        wall = time.perf_counter() - started
        report = service.report()
        events_total = report["totals"]["events"]
        return {
            "spec": name,
            "params": params,
            "label": _spec_label(name, params),
            "traces": len(paths),
            "events": events_total,
            "violated_traces": report["traces"]["violated"],
            "quarantined_lines": report["totals"]["quarantined_lines"],
            "wall_seconds": round(wall, 6),
            "events_per_second": int(events_total / wall) if wall else None,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _time_observability(
    name: str, params: Dict[str, Any], repeats: int = 3
) -> Dict[str, Any]:
    """One observability row: the same BFS bare vs fully instrumented.

    The instrumented variant runs under an active telemetry run with a real
    JSONL sink -- the worst case the overhead budget must hold for: every
    ``obs.current()`` gate open, per-level spans and counters live, and the
    final metrics snapshot serialized.  Both variants take the best of
    ``repeats`` walls, and ``bit_identical`` confirms instrumentation never
    changes a statistic.
    """
    import shutil
    import tempfile

    from ..obs import start_run

    def stats_key(result: Any) -> Tuple[Any, ...]:
        return (
            result.distinct_states,
            result.generated_states,
            result.max_depth,
            result.peak_frontier,
            dict(result.action_counts),
            result.ok,
        )

    baseline = None
    for _ in range(repeats):
        result = check_spec(
            build_spec(name, **params), check_properties=False, engine="fingerprint"
        )
        if baseline is None or result.duration_seconds < baseline.duration_seconds:
            baseline = result

    instrumented = None
    records = 0
    tmp = tempfile.mkdtemp(prefix="repro-bench-obs-")
    try:
        for index in range(repeats):
            path = os.path.join(tmp, f"metrics-{index}.jsonl")
            run = start_run(
                command="bench observability",
                sink_path=path,
                run_id=f"bench-obs-{index}",
            )
            try:
                result = check_spec(
                    build_spec(name, **params),
                    check_properties=False,
                    engine="fingerprint",
                )
            finally:
                run.close(exit_code=0)
            if (
                instrumented is None
                or result.duration_seconds < instrumented.duration_seconds
            ):
                instrumented = result
                with open(path, "r", encoding="utf-8") as handle:
                    records = sum(1 for line in handle if line.strip())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    base_wall = baseline.duration_seconds
    instr_wall = instrumented.duration_seconds
    ratio = round(instr_wall / base_wall, 3) if base_wall else None
    return {
        "spec": name,
        "params": params,
        "label": _spec_label(name, params),
        "engine": "fingerprint",
        "repeats": repeats,
        "baseline_wall_seconds": round(base_wall, 6),
        "instrumented_wall_seconds": round(instr_wall, 6),
        "overhead_ratio": ratio,
        "overhead_budget": OBS_OVERHEAD_BUDGET,
        "within_budget": ratio is not None and ratio <= OBS_OVERHEAD_BUDGET,
        "records": records,
        "distinct_states": instrumented.distinct_states,
        "generated_states": instrumented.generated_states,
        "bit_identical": stats_key(baseline) == stats_key(instrumented),
        "ok": instrumented.ok,
    }


def _attach_speedups(rows: List[Dict[str, Any]], baseline_of: Callable[[Dict[str, Any]], bool]) -> None:
    """Add ``speedup_vs_serial`` to every row, per spec label."""
    baselines: Dict[str, float] = {}
    for row in rows:
        if baseline_of(row) and row["wall_seconds"]:
            baselines[row["label"]] = row["wall_seconds"]
    for row in rows:
        base = baselines.get(row["label"])
        if base and row["wall_seconds"]:
            row["speedup_vs_serial"] = round(base / row["wall_seconds"], 2)
        else:
            row["speedup_vs_serial"] = None


def run_bench(
    config: Optional[BenchConfig] = None,
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the full benchmark matrix and return the results document."""
    cfg = config or BenchConfig()
    say = progress or (lambda message: None)
    cpu_count = os.cpu_count() or 1

    checking_rows: List[Dict[str, Any]] = []
    for name, params in cfg.specs:
        label = _spec_label(name, params)
        for engine in ("states", "fingerprint"):
            say(f"model-check {label} engine={engine}")
            checking_rows.append(_time_check(name, params, engine, None))
        for workers in cfg.worker_counts:
            say(f"model-check {label} engine=parallel workers={workers}")
            checking_rows.append(_time_check(name, params, "parallel", workers))
    _attach_speedups(checking_rows, lambda row: row["engine"] == "fingerprint")

    simulation_rows: List[Dict[str, Any]] = []
    for name, params in cfg.specs:
        label = _spec_label(name, params)
        say(f"simulate {label} walks={cfg.sim_walks} depth={cfg.sim_depth}")
        simulation_rows.append(
            _time_simulation(name, params, cfg.sim_walks, cfg.sim_depth, cfg.trace_seed)
        )

    trace_rows: List[Dict[str, Any]] = []
    for name, params in cfg.specs:
        label = _spec_label(name, params)
        spec = build_spec(name, **params)
        # One workload per spec, reused by every executor/worker row (it is
        # outside the timed region; regenerating it per row is pure waste).
        workload = list(
            generate_workload(
                spec,
                n_traces=cfg.n_traces,
                seed=cfg.trace_seed,
                fault_rate=cfg.fault_rate,
            )
        )
        # Thread mode is GIL-bound, so two points suffice -- but workers=1 is
        # always among them: it is the serial baseline every speedup is
        # computed against, whatever --workers-list says.
        thread_counts = sorted({1, max(cfg.worker_counts)})
        for executor, counts in (("thread", thread_counts), ("process", cfg.worker_counts)):
            for workers in counts:
                say(f"trace-check {label} executor={executor} workers={workers}")
                trace_rows.append(
                    _time_traces(spec, name, params, executor, workers, workload)
                )
    _attach_speedups(
        trace_rows,
        lambda row: row["executor"] == "thread" and row["workers"] == 1,
    )

    chaos_rows: List[Dict[str, Any]] = []
    for name, params in cfg.specs:
        label = _spec_label(name, params)
        say(
            f"chaos {label} workers={cfg.chaos_workers} "
            f"rate={cfg.chaos_rate} seed={cfg.chaos_seed}"
        )
        chaos_rows.append(
            _time_chaos(name, params, cfg.chaos_workers, cfg.chaos_rate, cfg.chaos_seed)
        )

    store_rows: List[Dict[str, Any]] = []
    for name, params in cfg.store_specs:
        label = _spec_label(name, params)
        pair: List[Dict[str, Any]] = []
        for store in ("fingerprint", "disk"):
            say(f"store-scaling {label} store={store}")
            pair.append(_time_store(name, params, store, cfg.store_capacity))
        # The disk store's whole value proposition rests on exactness: its
        # statistics must coincide bit for bit with the in-memory set's.
        base = pair[0]
        base["bit_identical"] = True
        for row in pair[1:]:
            row["bit_identical"] = all(
                row[key] == base[key]
                for key in (
                    "distinct_states",
                    "generated_states",
                    "max_depth",
                    "peak_frontier",
                    "ok",
                )
            )
        store_rows.extend(pair)

    streaming_rows: List[Dict[str, Any]] = []
    for name, params in cfg.specs:
        label = _spec_label(name, params)
        say(f"streaming {label} traces={cfg.streaming_traces}")
        row = _time_streaming(
            name, params, cfg.streaming_traces, cfg.trace_seed, cfg.fault_rate
        )
        if row is not None:
            streaming_rows.append(row)

    compile_rows: List[Dict[str, Any]] = []
    # The mutated-locking row exists so one bench row exercises the
    # counterexample half of the bit-identical verdict on every run.
    compile_specs = list(cfg.specs) + [("locking", {"mutation": "xx_compatible"})]
    for name, params in compile_specs:
        label = _spec_label(name, params)
        say(f"spec-compile {label} repeats={cfg.compile_repeats}")
        compile_rows.append(_time_spec_compile(name, params, cfg.compile_repeats))

    observability_rows: List[Dict[str, Any]] = []
    for name, params in cfg.observability_specs:
        label = _spec_label(name, params)
        say(f"observability {label} repeats={cfg.observability_repeats}")
        observability_rows.append(
            _time_observability(name, params, cfg.observability_repeats)
        )

    from ..mbtcg import STRATEGIES  # deferred: see _time_generation

    generation_rows: List[Dict[str, Any]] = []
    for name, params, max_length in cfg.generation:
        label = _spec_label(name, params)
        for strategy in STRATEGIES:
            say(f"generate {label} strategy={strategy} max_length={max_length}")
            generation_rows.append(
                _time_generation(
                    name,
                    params,
                    strategy,
                    max_length,
                    cfg.generation_samples,
                    cfg.trace_seed,
                )
            )

    notes: List[str] = []
    if cpu_count == 1:
        notes.append(
            "cpu_count=1: this machine has a single CPU core, so the parallel "
            "engine and the process executor cannot run shards concurrently; "
            "multi-worker rows measure pure coordination overhead and no "
            "speedup over serial is achievable here.  Re-run on a multi-core "
            "machine to observe the >1.5x target."
        )
    else:
        best = max(
            (
                row["speedup_vs_serial"]
                for row in checking_rows
                if row["engine"] == "parallel" and row["speedup_vs_serial"]
            ),
            default=None,
        )
        if best is not None and best < 1.5:
            notes.append(
                f"best parallel speedup {best}x on cpu_count={cpu_count}: the "
                "benchmarked state spaces may be too small to amortize "
                "process-pool startup and shard pickling on this machine."
            )
    if cfg.smoke:
        notes.append(
            "smoke mode: shrunken spec list, worker counts and trace batch; "
            "numbers track trends, not absolute throughput."
        )

    return {
        "schema_version": SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "environment": {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": cpu_count,
            "smoke": cfg.smoke,
        },
        "model_checking": checking_rows,
        "simulation": simulation_rows,
        "trace_checking": trace_rows,
        "test_generation": generation_rows,
        "chaos": chaos_rows,
        "store_scaling": store_rows,
        "streaming": streaming_rows,
        "spec_compile": compile_rows,
        "observability": observability_rows,
        "notes": notes,
    }


#: Row verdicts that fail ``repro bench``.  ``ok`` is deliberately absent:
#: the mutated-locking ``spec_compile`` row is meant to find a violation.
GATED_VERDICTS = ("bit_identical", "within_budget")


def failed_verdicts(results: Dict[str, Any]) -> List[str]:
    """``"<stage> <label>: <verdict>"`` for every gated verdict that is false."""
    failures = []
    for stage, rows in results.items():
        if not isinstance(rows, list):
            continue
        for row in rows:
            if not isinstance(row, dict):
                continue
            for verdict in GATED_VERDICTS:
                if row.get(verdict) is False:
                    failures.append(f"{stage} {row.get('label', '?')}: {verdict}")
    return failures


def write_results(results: Dict[str, Any], path: str) -> None:
    """Atomically persist the results document as pretty-printed JSON."""
    atomic_write_text(
        path, json.dumps(results, indent=2, sort_keys=False) + "\n"
    )


def summarize(results: Dict[str, Any]) -> str:
    """Human-readable digest of a results document, for the CLI."""
    lines = [
        f"benchmarked on {results['environment']['platform']} "
        f"(cpu_count={results['environment']['cpu_count']})"
    ]
    lines.append("model checking (states/sec; speedup vs serial fingerprint):")
    for row in results["model_checking"]:
        workers = f" workers={row['workers']}" if row["engine"] == "parallel" else ""
        speedup = (
            f" ({row['speedup_vs_serial']}x)" if row.get("speedup_vs_serial") else ""
        )
        lines.append(
            f"  {row['label']:<28} {row['engine']:<11}{workers:<11} "
            f"{row['wall_seconds']:.3f}s  {row['states_per_second']} st/s{speedup}"
        )
    if results.get("simulation"):
        lines.append("random-walk simulation (walks/sec):")
        for row in results["simulation"]:
            lines.append(
                f"  {row['label']:<28} walks={row['walks']} "
                f"depth={row['walk_depth']} {row['wall_seconds']:.3f}s  "
                f"{row['walks_per_second']} w/s  "
                f"{row['distinct_states']} distinct state(s)"
            )
    lines.append("batch trace checking (traces/sec; speedup vs 1 thread worker):")
    for row in results["trace_checking"]:
        speedup = (
            f" ({row['speedup_vs_serial']}x)" if row.get("speedup_vs_serial") else ""
        )
        lines.append(
            f"  {row['label']:<28} {row['executor']:<8} workers={row['workers']} "
            f"{row['wall_seconds']:.3f}s  {row['traces_per_second']} tr/s{speedup}"
        )
    if results.get("test_generation"):
        lines.append("MBTCG test generation (tests/sec; dedup ratio):")
        for row in results["test_generation"]:
            lines.append(
                f"  {row['label']:<28} {row['strategy']:<11} "
                f"max_length={row['max_length']} {row['wall_seconds']:.3f}s  "
                f"{row['tests']} tests  {row['tests_per_second']} t/s  "
                f"dedup {row['dedup_ratio']}"
            )
    if results.get("chaos"):
        lines.append("chaos recovery (parallel engine under fault injection):")
        for row in results["chaos"]:
            sup = row.get("supervision") or {}
            verdict = "bit-identical" if row["bit_identical"] else "STATS DIVERGED"
            lines.append(
                f"  {row['label']:<28} rate={row['chaos_rate']} "
                f"{row['chaos_wall_seconds']:.3f}s vs "
                f"{row['baseline_wall_seconds']:.3f}s "
                f"(x{row['overhead_ratio']})  "
                f"{sup.get('retries', 0)} retried, "
                f"{sup.get('crashes', 0)} crashes  [{verdict}]"
            )
    if results.get("store_scaling"):
        lines.append("store scaling (in-memory vs disk visited set):")
        for row in results["store_scaling"]:
            verdict = "bit-identical" if row["bit_identical"] else "STATS DIVERGED"
            lines.append(
                f"  {row['label']:<28} {row['store']:<12} "
                f"{row['wall_seconds']:.3f}s  {row['states_per_second']} st/s  "
                f"peak {row['peak_memory_mb']} MB  "
                f"io {row['io_fraction'] * 100:.0f}% ({row['regime']})  "
                f"[{verdict}]"
            )
    if results.get("streaming"):
        lines.append("streaming (watch service draining trace logs, once mode):")
        for row in results["streaming"]:
            lines.append(
                f"  {row['label']:<28} traces={row['traces']} "
                f"{row['wall_seconds']:.3f}s  {row['events_per_second']} ev/s  "
                f"{row['violated_traces']} violated trace(s)"
            )
    if results.get("spec_compile"):
        lines.append("spec compilation (compiled vs interpreted, fingerprint engine):")
        for row in results["spec_compile"]:
            verdict = "bit-identical" if row["bit_identical"] else "STATS DIVERGED"
            kernel = "native" if row["native_kernel"] else "generic"
            lines.append(
                f"  {row['label']:<28} {kernel:<8} "
                f"{row['compiled_wall_seconds']:.3f}s vs "
                f"{row['interpreted_wall_seconds']:.3f}s "
                f"({row['speedup_vs_interpreted']}x)  "
                f"{row['compiled_states_per_second']} st/s  [{verdict}]"
            )
    if results.get("observability"):
        lines.append("observability (telemetry overhead, JSONL sink enabled):")
        for row in results["observability"]:
            budget = (
                "within budget" if row["within_budget"] else "OVER BUDGET"
            )
            verdict = "bit-identical" if row["bit_identical"] else "STATS DIVERGED"
            lines.append(
                f"  {row['label']:<28} {row['instrumented_wall_seconds']:.3f}s vs "
                f"{row['baseline_wall_seconds']:.3f}s "
                f"(x{row['overhead_ratio']}, budget x{row['overhead_budget']})  "
                f"{row['records']} record(s)  [{budget}] [{verdict}]"
            )
    for note in results["notes"]:
        lines.append(f"note: {note}")
    return "\n".join(lines)
