"""Deterministic observability: spans, events and mergeable metrics.

The paper's method is observability-by-construction — run the functional
model, extract the operation list, price it (§2.4.5). This package makes
the *interior* of a run visible without giving up determinism:

* :mod:`~repro.obs.tracer` — hierarchical spans and point events stamped
  on the **virtual cycle timeline** (cycles priced so far under the
  active :class:`~repro.core.costs.CostTable` and architecture profile,
  never wall-clock), plus a zero-overhead :class:`NullTracer` default.
* :mod:`~repro.obs.metrics` — counters and histograms backed by the
  exact-mergeable :class:`~repro.core.stats.StreamingStats`, so
  per-shard registries merge bit-identically for any worker count.
* :mod:`~repro.obs.slo` — the SLO monitor: windowed objectives, burn
  rates and alerts.

The exporters and the call-tree profiler, which only the CLI and the
report use, are imported from their own submodules:
:mod:`~repro.obs.export` (the Chrome trace-event JSON writer, loadable
in Perfetto / ``chrome://tracing``, and its re-importer) and
:mod:`~repro.obs.profile` (the modeled-cycle call tree).
"""

from .metrics import MetricsRegistry, merge_registries
from .tracer import (Event, NULL_TRACER, NullTracer, OPERATION_CATEGORY,
                     Span, Tracer)
from .slo import (Alert, DEFAULT_OBJECTIVES, Exemplar, Objective,
                  ObjectiveReport, SLOMonitor, SLOReport)

__all__ = [
    "MetricsRegistry", "merge_registries",
    "Event", "NULL_TRACER", "NullTracer", "OPERATION_CATEGORY",
    "Span", "Tracer",
    "Alert", "DEFAULT_OBJECTIVES", "Exemplar", "Objective",
    "ObjectiveReport", "SLOMonitor", "SLOReport",
]
