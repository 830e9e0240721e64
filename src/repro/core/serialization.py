"""JSON export for priced breakdowns.

A flat, versioned summary of one :class:`~repro.core.model.CostBreakdown`
for spreadsheets and external plotting; ``python -m repro run --json``
carries one per architecture. Operation traces travel as Chrome
trace-event JSON instead (:mod:`repro.obs.export`), which
:func:`~repro.obs.export.trace_from_chrome` re-imports record for record.
"""

from typing import Any, Dict

from .model import CostBreakdown

#: Schema version written into every export.
SCHEMA_VERSION = 1


def breakdown_to_dict(breakdown: CostBreakdown) -> Dict[str, Any]:
    """A JSON-ready summary of a priced breakdown."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "cost-breakdown",
        "profile": breakdown.profile.name,
        "clock_hz": breakdown.profile.clock_hz,
        "total_cycles": breakdown.total_cycles,
        "total_ms": breakdown.total_ms,
        "by_algorithm_cycles": {
            algorithm.value: cycles
            for algorithm, cycles
            in breakdown.cycles_by_algorithm().items()
        },
        "by_phase_cycles": {
            phase.value: cycles
            for phase, cycles in breakdown.cycles_by_phase().items()
        },
        "operations": [
            {
                "algorithm": op.record.algorithm.value,
                "phase": op.record.phase.value,
                "label": op.record.label,
                "implementation": op.implementation,
                "invocations": op.record.invocations,
                "blocks": op.record.blocks,
                "cycles": op.cycles,
            }
            for op in breakdown.operations
        ],
    }
