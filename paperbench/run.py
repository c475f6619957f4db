"""Paper-workload benchmark: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 paperbench/run.py --workload check-raftmongo --seed 1 --seconds 15 --trace 0

``--trace 0`` times untraced iterations of the workload for ``--seconds``
and prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced iterations and prints the per-layer metrics.  Every iteration's
outputs are gated; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
when any output was wrong, 2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from summary import summarize
from tracer import Tracer, calibrate, instrument, layer_breakdown

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up is repeated per run and its medians are reported: the imports in a
#: fresh interpreter (cheap, so more often) and the spec and input build.
IMPORT_REPEATS = 5
SETUP_REPEATS = 3
#: Iterations measured at least, even past ``--seconds``: untraced ones in a
#: timed run, traced ones in a traced run.
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 1
#: Largest gap allowed between the traced wall and its self times plus the
#: calibrated wrapper overhead, as a share of the wall.
ACCOUNTING_TOLERANCE = 0.01

#: The metrics ``BENCHMARK.json`` declares, name -> unit, per mode.
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

#: Per-layer ``*_s`` metric -> the span (or hot call) whose self time it is:
#: time in the layer's own code, not in the layers it calls.
SELF_TIME_SPANS = {
    "compile.compile_s": "compile.compile_spec",
    "compile.expand_s": "compile.expand",
    "engine.store.add_s": "engine.store.add",
    "engine.bfs_self_s": "engine.bfs",
    "resilience.pool.start_s": "resilience.pool.start",
    "resilience.pool.submit_s": "resilience.pool.submit",
    "resilience.pool.wait_s": "resilience.pool.wait",
    "pipeline.logs.read_s": "pipeline.logs.trace_from_logs",
    "pipeline.runner.check_traces_s": "pipeline.runner.check_traces",
    "tla.trace.check_trace_s": "tla.trace.check_trace",
    "tla.spec.successors_s": "tla.spec.successors",
    "tla.coverage.coverage_s": "tla.coverage.coverage_of_trace",
    "mbtcg.build_graph_s": "mbtcg.build_graph",
    "mbtcg.enumerate_s": "mbtcg.enumerate",
    "mbtcg.write_corpus_s": "mbtcg.write_corpus",
    "mbtcg.replay_s": "mbtcg.replay_corpus",
}

#: Per-layer call count -> the span (or hot call) counted.
CALL_COUNT_SPANS = {
    "compile.expand_calls": "compile.expand",
    "engine.store.add_calls": "engine.store.add",
    "resilience.pool.submit_calls": "resilience.pool.submit",
    "tla.trace.check_trace_calls": "tla.trace.check_trace",
}


def _median(values: List[float]) -> float:
    return summarize(values)["median"]


def import_seconds(workload: Any) -> float:
    """Seconds a fresh interpreter takes to import the workload's modules."""
    code = (
        "import time; started = time.perf_counter(); import "
        + ", ".join(workload.modules)
        + "; print(time.perf_counter() - started)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(workload: Any, seed: int, workdir: str) -> float:
    """Median fresh-interpreter import time plus median spec and input build.

    One untimed set-up comes first.  It creates the input files, which the
    timed set-ups then rewrite, so the host's file-creation latency stays out
    of the figure and the library's own set-up work stays in it.
    """
    imports = [import_seconds(workload) for _ in range(IMPORT_REPEATS)]
    workload.setup(seed, workdir)
    builds = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup(seed, workdir)
        builds.append(time.perf_counter() - started)
    return _median(imports) + _median(builds)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Gate results over every iteration of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def add(self, outcome: Any) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.mismatches.extend(outcome.mismatches)

    def problem(self, message: str) -> None:
        """A wrong result outside any one operation's output."""
        self.failed += 1
        self.mismatches.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.mismatches


def _iteration(workload: Any) -> tuple:
    workload.prepare()
    gc.collect()
    started = time.perf_counter()
    raw = workload.run(None)
    wall = time.perf_counter() - started
    return wall, workload.gate(raw)


def _budget_left(
    started: float, seconds: float, done: int, minimum: int, per_iteration: float
) -> bool:
    if done < minimum:
        return True
    return time.perf_counter() - started + per_iteration <= seconds


def timed_run(workload: Any, seconds: float, tally: Tally) -> Dict[str, float]:
    """Untraced iterations for ``seconds``; the end-to-end metrics."""
    walls: List[float] = []
    rates: List[float] = []
    started = time.perf_counter()
    while not walls or _budget_left(
        started, seconds, len(walls), MIN_ITERATIONS, _median(walls)
    ):
        wall, outcome = _iteration(workload)
        tally.add(outcome)
        walls.append(wall)
        rates.append(outcome.items / wall)
    return {
        "wall_s": _median(walls),
        "throughput": _median(rates),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": 1.0 - tally.failed / max(1, tally.attempted),
        "iterations": len(walls),
    }


def layer_metrics(breakdown: Any, tracer: Any, facts: Dict[str, float]) -> Dict[str, float]:
    """One traced iteration's per-layer metrics (without the overhead ratio)."""
    metrics: Dict[str, float] = {}
    for metric, span in SELF_TIME_SPANS.items():
        metrics[metric] = breakdown.self_s.get(span, 0.0)
    for metric, span in CALL_COUNT_SPANS.items():
        metrics[metric] = breakdown.calls.get(span, 0)
    checks = tracer.collected.get("check", [])
    stores = tracer.collected.get("store", [])
    adds = metrics["engine.store.add_calls"]
    new = sum(store.distinct_count for store in stores)
    metrics["engine.store.new_ratio"] = new / adds if adds else 0.0
    metrics["engine.peak_frontier"] = max((r.peak_frontier for r in checks), default=0)
    metrics["resilience.pool.retries"] = sum(
        r.supervision.retries for r in checks if r.supervision is not None
    )
    for counter in ("resilience.pool.sent_bytes", "resilience.pool.recv_bytes"):
        metrics[counter] = tracer.counters.get(counter, 0)
    metrics["pipeline.logs.events"] = facts.get("events", 0)
    lookups = facts.get("cache_hits", 0) + facts.get("cache_misses", 0)
    metrics["tla.trace.cache_hit_ratio"] = facts["cache_hits"] / lookups if lookups else 0.0
    metrics["mbtcg.dedup_ratio"] = facts.get("dedup_ratio", 0.0)
    reported = set(SELF_TIME_SPANS.values())
    metrics["bench.other_s"] = sum(
        value for name, value in breakdown.self_s.items() if name not in reported
    )
    metrics["trace.accounted_ratio"] = breakdown.accounted / breakdown.wall
    return metrics


def traced_run(
    workload: Any, seconds: float, tally: Tally, spans_out: Path
) -> Dict[str, float]:
    """Alternating untraced and traced iterations; the per-layer metrics."""
    calibration = calibrate()
    plain: List[float] = []
    traced: List[float] = []
    samples: List[Dict[str, float]] = []
    started = time.perf_counter()
    last = None
    while not traced or _budget_left(
        started,
        seconds,
        len(traced),
        MIN_TRACED_ITERATIONS,
        _median(plain) + _median(traced),
    ):
        wall, outcome = _iteration(workload)
        tally.add(outcome)
        plain.append(wall)

        workload.prepare()
        gc.collect()
        tracer = Tracer()
        with instrument(tracer):
            with tracer.span("bench.iteration") as root:
                raw = workload.run(tracer)
        outcome = workload.gate(raw)
        tally.add(outcome)
        breakdown = layer_breakdown(tracer.spans, root, calibration)
        for problem in breakdown.check(ACCOUNTING_TOLERANCE):
            tally.problem(f"trace accounting: {problem}")
        traced.append(breakdown.wall)
        samples.append(layer_metrics(breakdown, tracer, outcome.facts))
        last = tracer
    metrics = {name: _median([s[name] for s in samples]) for name in samples[0]}
    metrics["trace.overhead_ratio"] = _median(traced) / _median(plain)
    metrics["iterations"] = len(traced)
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_out, "w", encoding="utf-8") as handle:
        for span in last.spans:
            handle.write(json.dumps(span.to_json()) + "\n")
    return metrics


def environment(workload: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """What a result must be read with: machine, interpreter, source, inputs."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    commit: Optional[str] = None
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.split()
        if Path(top).resolve() == ROOT:  # not some enclosing repository's
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload.name,
        "seed": args.seed,
        "n": workload.size,
        "throughput_item": workload.item,
        "nproc": cores,
        "comparable": cores >= workload.min_cores,
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"paperbench: no library source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"paperbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    import repro.obs

    env = environment(workload, args)
    if not env["comparable"]:
        print(
            f"paperbench: {workload.name} wants {workload.min_cores} cores and "
            f"has {env['nproc']}; its figures are not comparable",
            file=sys.stderr,
        )
    build = ROOT / ".bench_build"
    workdir = build / f"paperbench-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        setup_s = measure_setup(workload, args.seed, str(workdir))
        if repro.obs.current() is not None:
            tally.problem("a repro.obs telemetry run is active during the timed run")
        if args.trace:
            spans_out = build / "paperbench-spans" / f"{workload.name}-seed{args.seed}.jsonl"
            measured = traced_run(workload, args.seconds, tally, spans_out)
            units = PER_LAYER_UNITS
        else:
            measured = timed_run(workload, args.seconds, tally)
            measured["setup_s"] = setup_s
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["iterations"] = measured["iterations"]
    print(json.dumps({"env": env}))
    for mismatch in tally.mismatches[:20]:
        print(f"paperbench: MISMATCH {mismatch}", file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": measured[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
