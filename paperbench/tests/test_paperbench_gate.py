"""The correctness gate rejects doctored outputs."""

from types import SimpleNamespace

from repro.engine.base import CheckResult
from repro.pipeline.runner import BatchReport, TraceOutcome
from workloads import WORKLOADS


def _check_result(distinct, generated, depth):
    return CheckResult(
        spec_name="RaftMongo",
        distinct_states=distinct,
        generated_states=generated,
        max_depth=depth,
    )


def test_check_gate_accepts_the_golden_counts():
    outcome = WORKLOADS["check-raftmongo"].gate(_check_result(12_673, 63_676, 15))
    assert (outcome.attempted, outcome.failed, outcome.mismatches) == (1, 0, [])
    assert outcome.items == 63_676


def test_check_gate_rejects_a_doctored_count():
    outcome = WORKLOADS["check-raftmongo"].gate(_check_result(12_674, 63_676, 15))
    assert outcome.failed == 1
    assert "golden" in outcome.mismatches[0]


def test_check_gate_rejects_a_truncated_run():
    result = _check_result(116_240, 867_505, 12)
    result.truncated = True
    outcome = WORKLOADS["check-locking-par2"].gate(result)
    assert outcome.failed == 1


def _mbtc_workload(labels):
    workload = WORKLOADS["mbtc-raftmongo"].__class__(size=len(labels))
    workload.labels = labels
    workload.expected = [["s0", "s1"] for _ in labels]
    workload.events = 2 * len(labels)
    return workload


def _traces(n):
    return [SimpleNamespace(states=["s0", "s1"]) for _ in range(n)]


def test_mbtc_gate_accepts_verdicts_matching_the_labels():
    workload = _mbtc_workload([(True, None), (False, "teleport"), (True, None)])
    report = BatchReport(spec_name="RaftMongo", total=3, passed=2, failed=1)
    outcome = workload.gate((_traces(3), report))
    assert (outcome.attempted, outcome.failed, outcome.mismatches) == (3, 0, [])


def test_mbtc_gate_rejects_a_doctored_pass_count_and_a_surprise():
    workload = _mbtc_workload([(True, None), (False, "teleport"), (True, None)])
    report = BatchReport(spec_name="RaftMongo", total=3, passed=3, failed=0)
    report.surprises.append(
        TraceOutcome(index=1, ok=True, expected_ok=False, fault="teleport")
    )
    outcome = workload.gate((_traces(3), report))
    assert outcome.failed >= 1
    assert any("labels" in m for m in outcome.mismatches)


def test_mbtc_gate_rejects_a_trace_rebuilt_wrongly_from_logs():
    workload = _mbtc_workload([(True, None)])
    report = BatchReport(spec_name="RaftMongo", total=1, passed=1, failed=0)
    traces = [SimpleNamespace(states=["s0", "other"])]
    outcome = workload.gate((traces, report))
    assert outcome.failed == 1


class _Suite(list):
    def __init__(self, tests, states=2601, edges=3850):
        super().__init__(range(tests))
        self.stats = SimpleNamespace(
            graph_states=states, graph_edges=edges, dedup_ratio=1.0
        )


def test_mbtcg_gate_accepts_a_fully_passing_replay():
    report = BatchReport(spec_name="OTArray", total=2550, passed=2550)
    outcome = WORKLOADS["mbtcg-ot-array"].gate((_Suite(2550), report))
    assert (outcome.attempted, outcome.failed, outcome.mismatches) == (2550, 0, [])


def test_mbtcg_gate_rejects_a_doctored_test_count():
    report = BatchReport(spec_name="OTArray", total=2549, passed=2549)
    outcome = WORKLOADS["mbtcg-ot-array"].gate((_Suite(2549), report))
    assert outcome.failed == 1
    assert any("golden" in m for m in outcome.mismatches)


def test_mbtcg_gate_rejects_a_failing_replayed_case():
    report = BatchReport(spec_name="OTArray", total=2550, passed=2549, failed=1)
    report.failures.append(TraceOutcome(index=7, ok=False))
    outcome = WORKLOADS["mbtcg-ot-array"].gate((_Suite(2550), report))
    assert outcome.failed == 1
