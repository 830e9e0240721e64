"""Span/event tracer on the model's virtual cycle clock.

A :class:`Tracer` owns a monotonically advancing *virtual clock* measured
in CPU cycles: the cumulative cost of every
:class:`~repro.core.trace.OperationRecord` priced so far from the paper's
Table 1 (:data:`~repro.core.costs.PAPER_TABLE1`) under the active
:class:`~repro.core.architecture.ArchitectureProfile`. Nothing ever reads
wall-clock time, so traces of the same seed are byte-identical across
machines and runs — instrumentation inherits the repository's
determinism contract instead of fighting it.

Three record kinds:

* **operation spans** — emitted by :meth:`Tracer.on_record` (hooked into
  :class:`~repro.core.meter.MeteredCrypto`): one span per primitive
  batch, placed on the track of its protocol phase, covering exactly the
  cycles the cost model charges. The clock advances by that amount, so
  per-algorithm span totals reconcile *exactly* with
  :meth:`~repro.core.model.CostBreakdown.cycles_by_algorithm`.
* **structural spans** — opened with :meth:`Tracer.span` around protocol
  passes, transactions, install/consume flows. They take zero cycles
  themselves; their duration is whatever operations ran inside them.
* **events** — instantaneous marks (:meth:`Tracer.event`) for retries,
  backoff waits, fault injections, crashes, journal commits, recovery
  replays.

The default tracer everywhere is :data:`NULL_TRACER`, whose every method
is a constant no-op, so un-instrumented runs (and all pre-existing
artifacts) stay byte-identical.

Recording is kept cheap because profiling a run must not distort it
(``benchmarks/bench_obs_overhead.py`` holds the real tracer under 5 % of
the protocol scenarios): spans and events are slotted, a structural
span is a small context object rather than a generator, the per-
algorithm price is looked up once per tracer, and :attr:`Tracer.metrics`
is derived from the recorded spans and events on read instead of being
kept up to date on every call.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..core.architecture import ArchitectureProfile, SW_PROFILE
from ..core.costs import LinearCost, PAPER_TABLE1
from ..core.trace import OperationRecord

from .metrics import MetricsRegistry

#: Category stamped on spans emitted by :meth:`Tracer.on_record`; the
#: Chrome re-importer reconstructs the operation trace from these.
OPERATION_CATEGORY = "operation"

#: Category for structural (protocol/storage) spans.
STRUCTURE_CATEGORY = "structure"

#: Category for instantaneous events.
EVENT_CATEGORY = "event"

#: Default track for spans/events not tied to a protocol phase.
DEFAULT_TRACK = "main"


@dataclass
class Span:
    """One closed interval on the virtual cycle timeline.

    Only :class:`Tracer` creates spans, so every field is positional.
    """

    __slots__ = ("name", "track", "category", "start", "end", "args",
                 "index", "parent")

    name: str
    track: str
    category: str
    start: int
    #: ``None`` while the span is still open.
    end: Optional[int]
    args: Dict[str, Any]
    index: int
    #: ``index`` of the enclosing structural span (``None`` at top
    #: level). Maintained by the tracer's open-span stack so the
    #: profiler can fold spans into an exact call tree without
    #: re-inferring nesting from intervals (zero-width structural spans
    #: would make interval containment ambiguous).
    parent: Optional[int]

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one argument on the span."""
        self.args[key] = value

    @property
    def duration(self) -> int:
        """Cycles covered; 0 while the span is still open."""
        return (self.end - self.start) if self.end is not None else 0


@dataclass
class Event:
    """One instantaneous mark on the virtual cycle timeline."""

    __slots__ = ("name", "track", "ts", "args", "index")

    name: str
    track: str
    ts: int
    args: Dict[str, Any]
    index: int


class _SpanContext:
    """``with tracer.span(...)``: opens the span on enter, closes on exit.

    Nothing is recorded until ``__enter__``, so a span that is never
    entered cannot leave the open-span stack unbalanced.
    """

    __slots__ = ("_tracer", "_name", "_track", "_category", "_args",
                 "_span")

    def __init__(self, tracer: "Tracer", name: str, track: str,
                 category: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._track = track
        self._category = category
        self._args = args

    def __enter__(self) -> Span:
        tracer = self._tracer
        stack = tracer._open
        tracer._seq += 1
        span = Span(self._name, self._track, self._category, tracer.now,
                    None, self._args, tracer._seq,
                    stack[-1].index if stack else None)
        tracer.spans.append(span)
        stack.append(span)
        self._span = span
        return span

    def __exit__(self, *exc: Any) -> bool:
        self._tracer._open.pop()
        self._span.end = self._tracer.now
        return False


class Tracer:
    """Collects spans/events stamped with priced-cycle timestamps.

    ``spans`` and ``events`` are each in ``index`` (recording) order.
    Operations are priced from Table 1 under a profile fixed for the
    tracer's life: prices are looked up once per algorithm.
    """

    def __init__(self, profile: ArchitectureProfile = SW_PROFILE,
                 actor: str = "device") -> None:
        self._profile = profile
        self.actor = actor
        self.now = 0
        self.spans: List[Span] = []
        self.events: List[Event] = []
        self._seq = 0
        self._open: List[Span] = []
        #: Algorithm value -> (implementation, Table 1 entry).
        self._prices: Dict[str, Tuple[str, LinearCost]] = {}

    @property
    def profile(self) -> ArchitectureProfile:
        """The architecture every operation span is priced under."""
        return self._profile

    @property
    def metrics(self) -> MetricsRegistry:
        """Counts and cycle histograms, derived from what was recorded.

        ``ops.<algorithm>`` counts operation spans, ``cycles.<algorithm>``
        holds their cycle distribution and ``events.<name>`` counts
        events. Built on each read.
        """
        registry = MetricsRegistry()
        for span in self.spans:
            if span.category == OPERATION_CATEGORY:
                algorithm = span.args["algorithm"]
                registry.counter("ops." + algorithm)
                registry.histogram("cycles." + algorithm,
                                   span.args["cycles"])
        for event in self.events:
            registry.counter("events." + event.name)
        return registry

    # -- structural spans ------------------------------------------------
    def span(self, name: str, track: str = DEFAULT_TRACK,
             category: str = STRUCTURE_CATEGORY,
             **args: Any) -> _SpanContext:
        """Open a span at the current virtual time; close it on exit.

        The span itself consumes no cycles — its duration is the cycle
        cost of the operations priced inside the ``with`` block.
        """
        return _SpanContext(self, name, track, category, args)

    # -- events ----------------------------------------------------------
    def event(self, name: str, track: str = DEFAULT_TRACK,
              **args: Any) -> Event:
        """Record an instantaneous event at the current virtual time."""
        self._seq += 1
        event = Event(name, track, self.now, args, self._seq)
        self.events.append(event)
        return event

    # -- operation records (MeteredCrypto hook) --------------------------
    def on_record(self, record: OperationRecord) -> Span:
        """Price one trace record and advance the virtual clock.

        Called by :class:`~repro.core.meter.MeteredCrypto` for every
        primitive batch. Pricing uses the same Table 1 entry and
        :meth:`~repro.core.costs.LinearCost.cycles` call as
        :class:`~repro.core.model.PerformanceModel`, so span totals and
        breakdown totals cannot disagree.
        """
        # ``_value_`` is the enum member's plain value attribute; the
        # ``.value`` property and enum hashing cost a Python-level call.
        algorithm_name = record.algorithm._value_
        price = self._prices.get(algorithm_name)
        if price is None:
            implementation = self._profile.implementation(record.algorithm)
            price = self._prices[algorithm_name] = (
                implementation,
                PAPER_TABLE1.cost(record.algorithm, implementation))
        implementation, cost = price
        invocations = record.invocations
        blocks = record.blocks
        cycles = cost.cycles(invocations, blocks)
        label = record.label
        phase = record.phase._value_
        start = self.now
        self.now = start + cycles
        self._seq += 1
        stack = self._open
        span = Span(label, phase, OPERATION_CATEGORY, start, self.now, {
            "algorithm": algorithm_name,
            "phase": phase,
            "label": label,
            "invocations": invocations,
            "blocks": blocks,
            "implementation": implementation,
            "cycles": cycles,
        }, self._seq, stack[-1].index if stack else None)
        self.spans.append(span)
        return span

    # -- aggregate views -------------------------------------------------
    def operation_spans(self) -> List[Span]:
        """Spans emitted from operation records, in emission order."""
        return [span for span in self.spans
                if span.category == OPERATION_CATEGORY]

    def cycles_by_algorithm(self) -> Dict[str, int]:
        """Total operation-span cycles per algorithm value string."""
        totals: Dict[str, int] = {}
        for span in self.operation_spans():
            key = span.args["algorithm"]
            totals[key] = totals.get(key, 0) + span.args["cycles"]
        return totals

    def cycles_by_track(self) -> Dict[str, int]:
        """Total operation-span cycles per track (protocol phase)."""
        totals: Dict[str, int] = {}
        for span in self.operation_spans():
            totals[span.track] = totals.get(span.track, 0) + span.duration
        return totals


class _NullSpan:
    """Inert span handle returned by :class:`NullTracer` contexts."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass


class _NullContext:
    """Reusable no-op context manager — zero allocation per use."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullContext()


class NullTracer:
    """Do-nothing tracer: the default wired into every provider.

    Every method is a constant-time no-op that allocates nothing, so a
    protocol-layer call site costs one attribute lookup and one call
    when tracing is off — the overhead budget
    (:mod:`benchmarks.bench_obs_overhead`) holds it under 5 % on the
    protocol scenarios, and un-traced artifacts stay byte-identical.
    """

    now = 0

    def span(self, name: str, track: str = DEFAULT_TRACK,
             category: str = STRUCTURE_CATEGORY,
             **args: Any) -> _NullContext:
        return _NULL_CONTEXT

    def event(self, name: str, track: str = DEFAULT_TRACK,
              **args: Any) -> None:
        return None

    def on_record(self, record: OperationRecord) -> None:
        return None


#: Shared singleton — the default ``tracer`` everywhere.
NULL_TRACER = NullTracer()
