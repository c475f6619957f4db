"""The median and quartile summary the benchmark reports and gates on."""

import statistics

import pytest

from summary import spread, summarize


def test_summary_matches_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 6.0, 7.0, 9.0, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summarize(values) == {"n": 10, "median": 5.5, "q1": q1, "q3": q3}
    assert (q1, q3) == (2.75, 8.25)


def test_single_value_is_its_own_quartiles():
    assert summarize([2.5]) == {"n": 1, "median": 2.5, "q1": 2.5, "q3": 2.5}


def test_spread_is_interquartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert spread([4.0, 4.0, 4.0]) == 0.0
    assert spread([0.0, 0.0]) == 0.0


def test_empty_sample_is_rejected():
    with pytest.raises(ValueError):
        summarize([])
