"""Streaming stats: exactness, percentiles, and the merge laws."""

import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import StatsSummary, StreamingStats, merge_all

observations = st.lists(st.integers(min_value=0, max_value=10_000),
                        max_size=200)


def folded(values):
    stats = StreamingStats()
    stats.extend(values)
    return stats


def test_empty_stats():
    stats = StreamingStats()
    assert stats.count == 0
    assert stats.total == 0
    assert stats.mean == 0.0
    assert stats.minimum is None and stats.maximum is None
    assert stats.percentile(50.0) is None
    summary = stats.summary()
    assert summary.count == 0 and summary.p99 is None


def test_basic_statistics():
    stats = folded([1, 2, 2, 3, 100])
    assert stats.count == 5
    assert stats.total == 108
    assert stats.mean == pytest.approx(21.6)
    assert stats.minimum == 1
    assert stats.maximum == 100
    assert stats.percentile(50.0) == 2
    assert stats.percentile(100.0) == 100


def test_weighted_add():
    stats = StreamingStats()
    stats.add(7, weight=1000)
    stats.add(9, weight=0)  # no-op
    assert stats.count == 1000
    assert stats.total == 7000
    assert stats.maximum == 7


def test_rejects_non_integer_observations():
    stats = StreamingStats()
    with pytest.raises(TypeError):
        stats.add(1.5)
    with pytest.raises(TypeError):
        stats.add(True)
    with pytest.raises(ValueError):
        stats.add(1, weight=-1)


def test_percentile_bounds():
    stats = folded([1, 2, 3])
    with pytest.raises(ValueError):
        stats.percentile(0.0)
    with pytest.raises(ValueError):
        stats.percentile(101.0)


def test_percentile_nearest_rank():
    # 100 observations 1..100: nearest-rank p95 is the 95th value.
    stats = folded(list(range(1, 101)))
    assert stats.percentile(50.0) == 50
    assert stats.percentile(95.0) == 95
    assert stats.percentile(99.0) == 99
    assert stats.percentile(1.0) == 1


def test_percentile_single_sample():
    # Any percentile of one observation is that observation: the rank
    # is ceil(p/100 * 1) == 1 for every p in (0, 100].
    stats = folded([42])
    for p in (0.1, 1.0, 50.0, 99.9, 100.0):
        assert stats.percentile(p) == 42


def test_percentile_all_equal():
    stats = folded([7] * 1000)
    for p in (0.1, 50.0, 99.9, 100.0):
        assert stats.percentile(p) == 7


def test_percentile_fractional_p_does_not_truncate():
    # ceil(50.25/100 * 2) == ceil(1.005) == 2 — the second value. The
    # historical int(p * count) // 100 spelling truncated 100.5 -> 100
    # before the ceiling, yielding rank 1.
    stats = folded([1, 2])
    assert stats.percentile(50.25) == 2
    # ceil(0.5/100 * 2) == 1 — fractional p below one rank stays at 1.
    assert stats.percentile(0.5) == 1


def test_percentile_float_epsilon_does_not_round_up():
    # 64.1 is not exactly representable: 64.1/100 * 1000 floats to an
    # epsilon above 641, so a float ceil would return the 642nd value.
    # The exact rank is ceil(641.0) == 641.
    stats = folded(list(range(1, 1001)))
    assert stats.percentile(64.1) == 641
    assert stats.percentile(29.7) == 297


def test_percentile_nearest_rank_matches_sorted_reference():
    values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
    stats = folded(values)
    ordered = sorted(values)
    for p in (10.0, 25.0, 33.3, 50.0, 66.6, 75.0, 90.0, 100.0):
        exact = Fraction(repr(p)) * len(values) / 100
        rank = max(1, math.ceil(exact))
        assert stats.percentile(p) == ordered[rank - 1]


@given(values=observations)
@settings(max_examples=200, deadline=None)
def test_merge_equals_single_pass(values):
    """Splitting anywhere and merging matches one pass over the union."""
    for split in (0, len(values) // 2, len(values)):
        left, right = values[:split], values[split:]
        merged = folded(left).merge(folded(right))
        assert merged == folded(values)
        assert merged.summary() == folded(values).summary()


@given(a=observations, b=observations)
@settings(max_examples=200, deadline=None)
def test_merge_commutative(a, b):
    assert folded(a).merge(folded(b)) == folded(b).merge(folded(a))


@given(a=observations, b=observations, c=observations)
@settings(max_examples=200, deadline=None)
def test_merge_associative(a, b, c):
    sa, sb, sc = folded(a), folded(b), folded(c)
    assert sa.merge(sb).merge(sc) == sa.merge(sb.merge(sc))


@given(a=observations)
@settings(max_examples=100, deadline=None)
def test_merge_identity(a):
    stats = folded(a)
    assert stats.merge(StreamingStats()) == stats
    assert StreamingStats().merge(stats) == stats


@given(chunks=st.lists(observations, max_size=6))
@settings(max_examples=100, deadline=None)
def test_merge_all_matches_flat_fold(chunks):
    flat = [value for chunk in chunks for value in chunk]
    assert merge_all(folded(chunk) for chunk in chunks) == folded(flat)


@given(values=st.lists(st.integers(min_value=0, max_value=10_000),
                       min_size=1, max_size=200),
       p=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=200, deadline=None)
def test_percentile_matches_sorted_reference(values, p):
    """Nearest-rank percentile agrees with the sorted-list definition.

    The reference rank is ceil(p/100 * N) computed in exact rational
    arithmetic over the decimal the caller wrote (``repr(p)``), the
    same definition ``percentile`` implements — float spellings of the
    ceiling disagree with it on fractional percentiles.
    """
    stats = folded(values)
    ordered = sorted(values)
    rank = max(1, math.ceil(Fraction(repr(p)) * len(values) / 100))
    assert stats.percentile(p) == ordered[rank - 1]


@given(counts=st.dictionaries(st.integers(min_value=-1_000,
                                          max_value=10_000),
                              st.integers(min_value=0, max_value=50),
                              max_size=60))
@settings(max_examples=200, deadline=None)
def test_summary_equals_the_single_statistics(counts):
    """The one-walk summary equals each statistic read on its own.

    Zero weights are drawn too: a key present with count 0 still counts
    for ``minimum``/``maximum`` but never as a percentile.
    """
    stats = StreamingStats(counts=Counter(counts))
    assert stats.summary() == StatsSummary(
        count=stats.count, total=stats.total, minimum=stats.minimum,
        maximum=stats.maximum, mean=stats.mean,
        p50=stats.percentile(50.0), p95=stats.percentile(95.0),
        p99=stats.percentile(99.0))
