"""MetricsRegistry semantics: instruments, exact merge, round trip."""

import pytest

from repro.obs.metrics import MetricsRegistry, merge_registries


def test_counter_accumulates():
    registry = MetricsRegistry()
    registry.counter("ops")
    registry.counter("ops", 4)
    assert registry.counters["ops"] == 5


def test_counter_rejects_bool_and_negative():
    registry = MetricsRegistry()
    with pytest.raises(TypeError):
        registry.counter("ops", True)
    with pytest.raises(ValueError):
        registry.counter("ops", -1)


def test_histogram_exact_distribution():
    registry = MetricsRegistry()
    for value in (10, 10, 30):
        registry.histogram("cycles", value)
    registry.histogram("cycles", 50, weight=2)
    summary = registry.histograms["cycles"].summary()
    assert summary.count == 5
    assert summary.total == 150
    assert summary.maximum == 50


def test_merge_is_exact_union():
    a = MetricsRegistry()
    a.counter("ops", 2)
    a.histogram("cycles", 10)
    b = MetricsRegistry()
    b.counter("ops", 5)
    b.counter("only-b")
    b.histogram("cycles", 10)
    b.histogram("other", 7)
    merged = a.merge(b)
    assert merged.counters == {"ops": 7, "only-b": 1}
    assert merged.histograms["cycles"].counts == {10: 2}
    assert merged.histograms["other"].counts == {7: 1}
    # merge returns a new object; inputs are untouched
    assert a.counters == {"ops": 2}
    assert b.counters == {"ops": 5, "only-b": 1}


def test_equality_ignores_empty_histograms():
    a = MetricsRegistry()
    b = MetricsRegistry()
    b.histogram("cycles", 1, weight=0)
    assert a == b


def test_to_dict_from_dict_round_trip():
    registry = MetricsRegistry()
    registry.counter("ops", 3)
    registry.histogram("cycles", 10, weight=2)
    registry.histogram("cycles", 40)
    rebuilt = MetricsRegistry.from_dict(registry.to_dict())
    assert rebuilt == registry


def test_from_dict_rejects_foreign_documents():
    with pytest.raises(ValueError):
        MetricsRegistry.from_dict({"kind": "something-else"})
    with pytest.raises(ValueError):
        MetricsRegistry.from_dict({"kind": "metrics-registry",
                                   "schema": 99})
    # Version 1 carried gauges: refused rather than read without them.
    with pytest.raises(ValueError, match="schema version 1"):
        MetricsRegistry.from_dict({"kind": "metrics-registry",
                                   "schema": 1, "counters": {},
                                   "gauges": {"depth": 3}})


def test_merge_registries_folds_many():
    shards = []
    for i in range(4):
        shard = MetricsRegistry()
        shard.counter("ops", i + 1)
        shard.histogram("cycles", 10 * (i + 1))
        shards.append(shard)
    merged = merge_registries(shards)
    assert merged.counters["ops"] == 10
    assert merged.histograms["cycles"].count == 4
