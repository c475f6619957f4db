"""The `repro bench` harness: JSON schema, engine parity, CLI plumbing."""

import json
import os

import pytest

from repro.pipeline import bench as bench_module
from repro.pipeline.bench import (
    BenchConfig,
    failed_verdicts,
    run_bench,
    summarize,
    write_results,
)
from repro.pipeline.cli import main


@pytest.fixture(scope="module")
def smoke_results():
    config = BenchConfig(
        specs=(("locking", {}), ("raftmongo", {"n_nodes": 2, "variant": "mbtc"})),
        worker_counts=(1, 2),
        n_traces=30,
        store_specs=(("locking", {}),),
        store_capacity=100,
        smoke=True,
    )
    return run_bench(config)


def test_results_document_shape(smoke_results):
    assert smoke_results["schema_version"] == 8
    env = smoke_results["environment"]
    assert env["cpu_count"] >= 1 and env["python"]
    # 2 specs x (states + fingerprint + 2 parallel worker counts)
    assert len(smoke_results["model_checking"]) == 8
    # schema v3: one simulation row per spec config
    assert len(smoke_results["simulation"]) == 2
    # 2 specs x (thread@1, thread@max, process@1, process@2)
    assert len(smoke_results["trace_checking"]) == 8
    # 2 generation specs (this config inherits DEFAULT_GENERATION) x 3 strategies
    assert len(smoke_results["test_generation"]) == 6
    for row in smoke_results["model_checking"]:
        assert row["ok"]
        assert row["wall_seconds"] > 0
        assert row["states_per_second"] > 0
        # schema v3: every checking row records its resolved store
        assert row["store"] == ("states" if row["engine"] == "states" else "fingerprint")
    for row in smoke_results["simulation"]:
        assert row["engine"] == "simulate" and row["store"] == "fingerprint"
        assert row["ok"]
        assert row["walks"] > 0 and row["walks_per_second"] > 0
        assert 0 < row["distinct_states"] <= row["generated_states"]
        assert 0 < row["longest_walk"] <= row["walk_depth"]
    for row in smoke_results["trace_checking"]:
        assert row["unexpected_verdicts"] == 0
        assert row["traces"] == 30
    for row in smoke_results["test_generation"]:
        assert row["tests"] > 0
        assert 0.0 < row["dedup_ratio"] <= 1.0
        assert row["coverage_pairs"] > 0
    # schema v4: one chaos row per spec config, fault-free parity confirmed
    assert len(smoke_results["chaos"]) == 2
    for row in smoke_results["chaos"]:
        assert row["ok"]
        assert row["bit_identical"], f"chaos run diverged on {row['label']}"
        assert row["chaos_rate"] > 0
        assert row["baseline_wall_seconds"] > 0
        assert row["chaos_wall_seconds"] > 0
    # schema v5: fingerprint + disk store rows per store-scaling config, with
    # a regime classification and a bit-identical verdict on the disk row
    assert len(smoke_results["store_scaling"]) == 2
    stores = [row["store"] for row in smoke_results["store_scaling"]]
    assert stores == ["fingerprint", "disk"]
    for row in smoke_results["store_scaling"]:
        assert row["ok"]
        assert row["bit_identical"], f"disk store diverged on {row['label']}"
        assert row["regime"] in ("store-bound", "cpu-bound")
        assert 0.0 <= row["io_fraction"] <= 1.0
        assert row["peak_memory_mb"] > 0
    # schema v5: every checking row classifies its store regime
    for row in smoke_results["model_checking"]:
        assert row["regime"] in ("store-bound", "cpu-bound")
        assert row["store_io_seconds"] >= 0.0
    # schema v6: one streaming row per spec config with log metadata
    assert len(smoke_results["streaming"]) >= 1
    for row in smoke_results["streaming"]:
        assert row["traces"] > 0
        assert row["events"] > 0
        assert row["wall_seconds"] > 0
        assert row["events_per_second"] > 0
        # the workload seeds faults, and the service must catch some live
        assert row["violated_traces"] > 0
    # schema v7: one observability row per configured spec, instrumented vs
    # bare wall clock with a bit-identical statistics verdict
    assert len(smoke_results["observability"]) >= 1
    for row in smoke_results["observability"]:
        assert row["ok"]
        assert row["bit_identical"], f"instrumentation diverged on {row['label']}"
        assert row["baseline_wall_seconds"] > 0
        assert row["instrumented_wall_seconds"] > 0
        assert row["overhead_ratio"] is not None
        # The strict <3% bar is pinned by the dedicated obs tests on a
        # quiet run; a loaded CI box still must not show gross overhead.
        assert row["overhead_ratio"] < 1.5
        # run_start + check.run span + metrics + run_end at minimum
        assert row["records"] >= 4
    # schema v8: one spec-compile row per spec config plus the seeded
    # mutated-locking row (which exercises the counterexample comparison)
    assert len(smoke_results["spec_compile"]) == 3
    labels = [row["label"] for row in smoke_results["spec_compile"]]
    assert labels[-1] == "locking[mutation=xx_compatible]"
    for row in smoke_results["spec_compile"]:
        diverged = f"compiled run diverged on {row['label']}"
        assert row["bit_identical"], diverged
        assert row["speedup_vs_interpreted"] is not None
        assert row["interpreted_wall_seconds"] > 0
        assert row["compiled_wall_seconds"] > 0
        assert row["compile_seconds"] >= 0
        # The mutated row *must* find its violation; the clean rows must not.
        assert row["ok"] == ("mutation" not in row["params"])
    # schema v8: every checking row records whether it ran compiled (the
    # default-on fast path), so throughput trends are attributable
    for row in smoke_results["model_checking"]:
        assert row["compiled"] is True


def test_bench_is_a_cross_engine_parity_witness(smoke_results):
    """All engines must report identical state counts per configuration."""
    by_label = {}
    for row in smoke_results["model_checking"]:
        key = row["label"]
        stats = (row["distinct_states"], row["generated_states"], row["max_depth"])
        by_label.setdefault(key, set()).add(stats)
    for label, variants in by_label.items():
        assert len(variants) == 1, f"engines disagree on {label}: {variants}"


def test_speedups_are_relative_to_serial_fingerprint(smoke_results):
    for row in smoke_results["model_checking"]:
        if row["engine"] == "fingerprint":
            assert row["speedup_vs_serial"] == 1.0
        else:
            assert row["speedup_vs_serial"] is not None
    single_core = smoke_results["environment"]["cpu_count"] == 1
    if single_core:
        # Acceptance criterion: a machine that cannot show the >1.5x speedup
        # must say so in the results document.
        assert any("cpu_count=1" in note for note in smoke_results["notes"])


def test_write_results_and_summarize(tmp_path, smoke_results):
    out = tmp_path / "BENCH_results.json"
    write_results(smoke_results, str(out))
    loaded = json.loads(out.read_text())
    assert loaded["model_checking"] == smoke_results["model_checking"]
    digest = summarize(smoke_results)
    assert "model checking" in digest and "batch trace checking" in digest
    assert "random-walk simulation" in digest
    assert "MBTCG test generation" in digest
    assert "chaos recovery" in digest
    assert "store scaling" in digest
    assert "streaming" in digest
    assert "spec compilation" in digest
    assert "observability" in digest


def test_cli_bench_smoke_writes_json(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(
        ["bench", "--smoke", "--out", str(out), "--workers-list", "1,2", "--traces", "20"]
    )
    assert os.path.exists(out)
    payload = json.loads(out.read_text())
    # Every parity verdict holds; the exit code then tracks the one timing
    # verdict (the observability overhead budget), which load can trip.
    assert not [f for f in failed_verdicts(payload) if f.endswith("bit_identical")]
    assert code == (1 if failed_verdicts(payload) else 0)
    assert payload["environment"]["smoke"] is True
    assert payload["trace_checking"][0]["traces"] == 20
    assert f"results written to {out}" in capsys.readouterr().out


def test_cli_bench_rejects_bad_worker_list(capsys):
    assert main(["bench", "--workers-list", "1,x"]) == 2
    assert main(["bench", "--workers-list", "0"]) == 2


def _clean_results(smoke_results):
    """A deep copy with the load-sensitive overhead verdict forced to pass."""
    clean = json.loads(json.dumps(smoke_results))
    for row in clean["observability"]:
        row["within_budget"] = True
    return clean


@pytest.mark.parametrize(
    "stage,verdict",
    [
        ("chaos", "bit_identical"),
        ("store_scaling", "bit_identical"),
        ("spec_compile", "bit_identical"),
        ("observability", "within_budget"),
    ],
)
def test_cli_bench_fails_on_a_failed_verdict(
    monkeypatch, tmp_path, capsys, smoke_results, stage, verdict
):
    doctored = _clean_results(smoke_results)
    doctored[stage][0][verdict] = False
    monkeypatch.setattr(bench_module, "run_bench", lambda config, progress=None: doctored)
    out = tmp_path / "bench.json"
    assert main(["bench", "--smoke", "--out", str(out)]) == 1
    label = doctored[stage][0]["label"]
    assert f"FAILED {stage} {label}: {verdict}" in capsys.readouterr().err
    # The document is still written, so CI can upload the failing run.
    assert json.loads(out.read_text())[stage][0][verdict] is False


def test_cli_bench_passes_when_every_verdict_holds(
    monkeypatch, tmp_path, smoke_results
):
    clean = _clean_results(smoke_results)
    # The mutated-locking compile row finds a violation (ok is false); that
    # is its purpose and must not fail the bench.
    assert any(not row["ok"] for row in clean["spec_compile"])
    assert failed_verdicts(clean) == []
    monkeypatch.setattr(bench_module, "run_bench", lambda config, progress=None: clean)
    assert main(["bench", "--smoke", "--out", str(tmp_path / "bench.json")]) == 0
