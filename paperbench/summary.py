"""Median and quartile summaries of repeated measurements."""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

__all__ = ["spread", "summarize"]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Count, median, first and third quartile of ``values``.

    Quartiles are :func:`statistics.quantiles` with ``n=4`` (its default
    ``exclusive`` method); a single value is its own quartiles.
    """
    if not values:
        raise ValueError("cannot summarize an empty sample")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a zero median)."""
    summary = summarize(values)
    if summary["median"] == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(summary["median"])
