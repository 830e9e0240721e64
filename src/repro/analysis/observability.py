"""Experiment ``observability``: what a traced run looks like inside.

Runs the seeded ``registration`` trace scenario
(:mod:`repro.usecases.tracing`) under each paper architecture profile
and summarizes the tracer's view: spans and events recorded, cycles per
track (protocol phase) and per algorithm. The layer's core guarantee —
that the operation spans reconcile *exactly* with pricing the run's
:class:`~repro.core.trace.OperationTrace` through
:class:`~repro.core.model.PerformanceModel`, in total and per
algorithm — is checked by :func:`~repro.usecases.tracing.run_scenario`
itself, which raises on a mismatch.
Everything is stamped on the virtual cycle timeline, so the rendered
artifact is a pure function of the seed.
"""

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.architecture import PAPER_PROFILES
from ..obs.tracer import Tracer
from ..usecases.tracing import run_scenario
from .common import DEFAULT_SEED
from .formatting import format_table

#: The scenario the report section traces.
REPORT_SCENARIO = "registration"


@dataclass
class ProfileTraceSummary:
    """One traced scenario run under one architecture profile."""

    architecture: str
    clock_hz: int
    spans: int
    events: int
    operation_spans: int
    total_cycles: int
    cycles_by_track: Dict[str, int]
    cycles_by_algorithm: Dict[str, int]

    @property
    def total_ms(self) -> float:
        """Scenario cycle total in milliseconds at this clock."""
        return self.total_cycles / self.clock_hz * 1000.0


@dataclass
class ObservabilityResult:
    """The rendered observability experiment."""

    seed: str
    scenario: str
    summaries: List[ProfileTraceSummary]

    def render(self) -> str:
        """Per-architecture tracer summaries.

        :func:`~repro.usecases.tracing.run_scenario` raises on any
        mismatch with the cost model, so that column reads ``exact``.
        """
        rows: List[Tuple[str, ...]] = []
        for summary in self.summaries:
            rows.append((
                summary.architecture,
                "%d" % summary.spans,
                "%d" % summary.events,
                "%d" % summary.operation_spans,
                "%d" % summary.total_cycles,
                "%.1f" % summary.total_ms,
                "exact",
            ))
        table = format_table(
            ("arch", "spans", "events", "op spans", "cycles", "ms",
             "vs cost model"),
            rows,
            title="Traced %r scenario (seed %r, cycle timebase)"
                  % (self.scenario, self.seed))

        algo_rows = []
        reference = self.summaries[0]
        for algorithm in sorted(reference.cycles_by_algorithm):
            algo_rows.append(tuple(
                [algorithm] + ["%d" % s.cycles_by_algorithm[algorithm]
                               for s in self.summaries]))
        algorithms = format_table(
            tuple(["algorithm"] + [s.architecture
                                   for s in self.summaries]),
            algo_rows,
            title="Operation-span cycles per algorithm")

        return "%s\n\n%s" % (table, algorithms)


def generate(seed: str = DEFAULT_SEED,
             scenario: str = REPORT_SCENARIO,
             rsa_bits: int = 1024) -> ObservabilityResult:
    """Trace ``scenario`` under every paper profile and summarize."""
    summaries = []
    for profile in PAPER_PROFILES:
        tracer = Tracer(profile=profile, actor="terminal")
        run_scenario(scenario, tracer, seed=seed + "/trace",
                     rsa_bits=rsa_bits)
        summaries.append(ProfileTraceSummary(
            architecture=profile.name,
            clock_hz=profile.clock_hz,
            spans=len(tracer.spans),
            events=len(tracer.events),
            operation_spans=len(tracer.operation_spans()),
            total_cycles=tracer.now,
            cycles_by_track=tracer.cycles_by_track(),
            cycles_by_algorithm=tracer.cycles_by_algorithm(),
        ))
    return ObservabilityResult(seed=seed, scenario=scenario,
                               summaries=summaries)
