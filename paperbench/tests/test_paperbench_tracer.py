"""Self-time arithmetic of the traced run."""

import threading

import pytest

from tracer import (
    Calibration,
    Span,
    Tracer,
    calibrate,
    layer_breakdown,
    self_times,
    union_length,
)


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 1.0), (2.0, 3.0)]) == 2.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (2.5, 2.6)]) == 3.0
    assert union_length([(1.0, 1.0), (3.0, 2.0)]) == 0.0


def test_self_time_subtracts_children_and_hot_calls():
    root = Span(0, "root", None, 0.0, 10.0)
    child = Span(1, "child", 0, 1.0, 5.0, aggregates={"hot": [100, 1.5]})
    grandchild = Span(2, "grandchild", 1, 2.0, 3.0)
    sibling = Span(3, "child", 0, 6.0, 7.0)
    own = self_times([root, child, grandchild, sibling])
    assert own == {0: 5.0, 1: 1.5, 2: 1.0, 3: 1.0}
    assert sum(own.values()) + 1.5 == 10.0  # the hot calls account for the rest


def test_overlapping_children_are_counted_once():
    # Two worker-thread children running at the same time under one parent.
    root = Span(0, "root", None, 0.0, 4.0)
    a = Span(1, "work", 0, 1.0, 3.0)
    b = Span(2, "work", 0, 2.0, 3.5)
    assert self_times([root, a, b])[0] == pytest.approx(1.5)


def test_breakdown_groups_by_name_and_moves_calibrated_cost_to_overhead():
    root = Span(0, "root", None, 0.0, 10.0)
    child = Span(1, "engine", 0, 0.0, 8.0, aggregates={"add": [1000, 2.0]})
    calibration = Calibration(inside=0.0005, outside=0.001)
    breakdown = layer_breakdown([root, child], root, calibration)
    assert breakdown.calls == {"root": 1, "engine": 1, "add": 1000}
    assert breakdown.self_s["add"] == pytest.approx(2.0 - 0.5)
    assert breakdown.self_s["engine"] == pytest.approx(6.0 - 1.0)
    assert breakdown.self_s["root"] == pytest.approx(2.0)
    assert breakdown.overhead_s == pytest.approx(1.5)
    assert breakdown.accounted == pytest.approx(10.0)
    assert breakdown.check(0.01) == []


def test_breakdown_check_flags_a_gap_and_negative_self_time():
    root = Span(0, "root", None, 0.0, 10.0)
    # A child that claims more hot time than its own duration.
    child = Span(1, "engine", 0, 0.0, 1.0, aggregates={"add": [10, 3.0]})
    breakdown = layer_breakdown([root, child], root)
    problems = breakdown.check(0.01)
    assert any("negative self time" in problem for problem in problems)
    breakdown.overhead_s = 5.0
    assert any("sum to" in problem for problem in breakdown.check(0.01))


def test_tracer_records_nested_spans_hot_calls_and_thread_parents():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    hot = tracer.hot("hot", lambda x: x * 2)
    seen = []

    def worker():
        with tracer.span("in-thread"):
            seen.append(hot(21))

    with tracer.span("root") as root:
        with tracer.span("child"):
            assert hot(1) == 2
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=10)
    assert not thread.is_alive() and seen == [42]
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["child"].parent == root.span_id
    assert by_name["in-thread"].parent == root.span_id
    assert by_name["child"].aggregates["hot"][0] == 1
    assert by_name["in-thread"].aggregates["hot"][0] == 1
    breakdown = layer_breakdown(tracer.spans, root)
    assert breakdown.accounted == pytest.approx(breakdown.wall)


def test_calibration_is_small_and_non_negative():
    calibration = calibrate(rounds=2, calls=2000)
    assert 0.0 <= calibration.inside < 1e-4
    assert 0.0 <= calibration.outside < 1e-4
