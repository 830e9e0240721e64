"""Deterministic observability: spans, events and mergeable metrics.

The paper's method is observability-by-construction — run the functional
model, extract the operation list, price it (§2.4.5). This package makes
the *interior* of a run visible without giving up determinism:

* :mod:`~repro.obs.tracer` — hierarchical spans and point events stamped
  on the **virtual cycle timeline** (cycles priced so far under the
  active :class:`~repro.core.costs.CostTable` and architecture profile,
  never wall-clock), plus a zero-overhead :class:`NullTracer` default.
* :mod:`~repro.obs.metrics` — counters/gauges/histograms backed by the
  exact-mergeable :class:`~repro.core.stats.StreamingStats`, so
  per-shard registries merge bit-identically for any worker count.
* :mod:`~repro.obs.export` — the Chrome trace-event JSON writer
  (loadable in Perfetto / ``chrome://tracing``), and a re-importer that
  reconstructs the :class:`~repro.core.trace.OperationTrace`.
"""

from .metrics import MetricsRegistry, merge_registries
from .tracer import (Event, NULL_TRACER, NullTracer, OPERATION_CATEGORY,
                     Span, Tracer)
from .export import (to_chrome, trace_from_chrome, write_chrome,
                     write_metrics)
from .profile import (ProfileDiff, ProfileNode, ProfileTree, diff,
                      paths_from_collapsed, paths_from_speedscope)
from .slo import (Alert, DEFAULT_OBJECTIVES, Exemplar, Objective,
                  ObjectiveReport, SLOMonitor, SLOReport)

__all__ = [
    "MetricsRegistry", "merge_registries",
    "Event", "NULL_TRACER", "NullTracer", "OPERATION_CATEGORY",
    "Span", "Tracer",
    "to_chrome", "trace_from_chrome", "write_chrome", "write_metrics",
    "ProfileDiff", "ProfileNode", "ProfileTree", "diff",
    "paths_from_collapsed", "paths_from_speedscope",
    "Alert", "DEFAULT_OBJECTIVES", "Exemplar", "Objective",
    "ObjectiveReport", "SLOMonitor", "SLOReport",
]
