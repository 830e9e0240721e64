"""Mergeable metrics: counters and exact histograms.

A :class:`MetricsRegistry` is the fleet-friendly sibling of the tracer:
where spans record *when* something happened on the cycle timeline, the
registry records *how often* and *how much*, in a form that merges
exactly. Both instrument kinds are integer-valued with associative,
commutative merge operators:

* **counters** — monotonic totals, merged by addition;
* **histograms** — full value distributions backed by
  :class:`~repro.core.stats.StreamingStats` (Counter-based, exact
  percentiles), merged by exact union.

Because every merge is associative and commutative with bit-identical
results, per-shard registries built by the fleet engine fold into the
same registry for any worker count or merge order — the same contract
:mod:`repro.core.stats` gives the fleet accumulator.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable

from ..core.stats import StreamingStats

#: Schema version written into every metrics export. Version 1
#: documents also carried gauges; they are refused, not read with their
#: gauges dropped.
SCHEMA_VERSION = 2


@dataclass
class MetricsRegistry:
    """Named counters and histograms with exact merge."""

    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, StreamingStats] = field(default_factory=dict)

    # -- ingestion -------------------------------------------------------
    def counter(self, name: str, delta: int = 1) -> None:
        """Increment counter ``name`` by ``delta`` (non-negative)."""
        if not isinstance(delta, int) or isinstance(delta, bool):
            raise TypeError("counter deltas must be integers")
        if delta < 0:
            raise ValueError("counter deltas must be non-negative")
        self.counters[name] = self.counters.get(name, 0) + delta

    def histogram(self, name: str, value: int, weight: int = 1) -> None:
        """Fold ``value`` (observed ``weight`` times) into a histogram."""
        stats = self.histograms.get(name)
        if stats is None:
            stats = self.histograms[name] = StreamingStats()
        stats.add(value, weight)

    # -- merge -----------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Exact union of two registries (associative, commutative)."""
        merged = MetricsRegistry()
        for source in (self, other):
            for name, value in source.counters.items():
                merged.counters[name] = merged.counters.get(name, 0) + value
        for name in set(self.histograms) | set(other.histograms):
            merged.histograms[name] = (
                self.histograms.get(name, StreamingStats()).merge(
                    other.histograms.get(name, StreamingStats())))
        return merged

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return (self.counters == other.counters
                and {k: v for k, v in self.histograms.items() if v.counts}
                == {k: v for k, v in other.histograms.items() if v.counts})

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready representation with deterministic key order."""
        return {
            "schema": SCHEMA_VERSION,
            "kind": "metrics-registry",
            "counters": {name: self.counters[name]
                         for name in sorted(self.counters)},
            "histograms": {
                name: [[value, self.histograms[name].counts[value]]
                       for value in sorted(self.histograms[name].counts)]
                for name in sorted(self.histograms)
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        if data.get("kind") != "metrics-registry":
            raise ValueError("not a metrics-registry document")
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                "unsupported schema version %r" % data.get("schema"))
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry.counters[str(name)] = int(value)
        for name, pairs in data.get("histograms", {}).items():
            stats = StreamingStats()
            for value, count in pairs:
                stats.add(int(value), int(count))
            registry.histograms[str(name)] = stats
        return registry


def merge_registries(
        registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Left fold of :meth:`MetricsRegistry.merge` over ``registries``."""
    result = MetricsRegistry()
    for registry in registries:
        result = result.merge(registry)
    return result
