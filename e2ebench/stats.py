"""The benchmark's arithmetic: percentiles, ratios and the per-call
layer remainder.  Pure functions, unit-tested in ``tests/test_stats.py``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    the closest ranks (numpy's default ``linear`` method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must lie in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_above(values: Sequence[float], threshold: float) -> int:
    """How many samples lie strictly above ``threshold`` — the tail
    support of a percentile (the guide asks for at least ten)."""
    return sum(1 for v in values if v > threshold)


def grouped_percentile(groups: Mapping[str, Sequence[float]], q: float) -> float:
    """Mean over operand groups of each group's ``q``-th percentile.

    Workloads alternate operands whose calls differ by 2-3x, so a pooled
    percentile would sit in the gap between the clusters and jump with
    the sample count's parity.  Averaging per-operand percentiles weighs
    every operand equally and is stable."""
    if not groups:
        raise ValueError("no sample groups")
    return sum(percentile(v, q) for v in groups.values()) / len(groups)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; a zero denominator is an error, not
    an infinity, because every ratio the benchmark reports has a
    measured non-zero base."""
    if denominator == 0:
        raise ZeroDivisionError("ratio with a zero base")
    return numerator / denominator


def unattributed(wall: float, layers: Mapping[str, float]) -> float:
    """Call wall time minus the sum of its measured layers, with sign.

    Negative means the separately timed layers overlap or were measured
    on a repeat that ran faster than the call; it is reported, never
    clamped."""
    return wall - math.fsum(layers.values())


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    if not vals:
        raise ValueError("mean of an empty sample")
    return math.fsum(vals) / len(vals)


def layer_means(records: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key mean over the call records that carry the key.  Means,
    not medians, so that the mean layer seconds of layers every call
    has still add up to the mean call wall."""
    keys = sorted({k for r in records for k in r})
    return {k: mean(r[k] for r in records if k in r) for k in keys}
