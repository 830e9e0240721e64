"""Trace exporter: Chrome trace-event JSON.

The Chrome trace-event format (the JSON Perfetto and ``chrome://tracing``
load directly) maps cleanly onto the tracer's model: one *process* per
tracer (the actor), one *thread* per track (protocol phase or subsystem),
complete ``"X"`` events for spans and instant ``"i"`` events for marks.
One trace-event timestamp unit represents **one CPU cycle** of the
architecture profile the tracer priced under — the ``otherData`` block
records the profile and clock so cycle counts can be read back as time.

Exports are byte-deterministic: pids/tids are assigned in first-use
order, entries are emitted in recording order, and JSON is written with
sorted keys — two runs of the same seed produce identical files, so
trace goldens diff cleanly.

``trace_from_chrome`` inverts the export for operation spans: the
reconstructed :class:`~repro.core.trace.OperationTrace` has the same
``canonical()`` form as the trace the run produced (property-tested in
``tests/obs``).
"""

import json
from typing import Any, Dict, List

from ..core.trace import Algorithm, OperationRecord, OperationTrace, Phase

from .metrics import MetricsRegistry
from .tracer import OPERATION_CATEGORY, Span, Tracer

#: Schema version written into the ``otherData`` block.
SCHEMA_VERSION = 1


def _ordered(tracer: Tracer) -> List[Any]:
    """Spans and events interleaved in recording order."""
    return sorted(tracer.spans + tracer.events,
                  key=lambda entry: entry.index)


def to_chrome(tracer: Tracer) -> Dict[str, Any]:
    """Chrome trace-event JSON document for one tracer."""
    pid = 1
    tids: Dict[str, int] = {}
    body: List[Dict[str, Any]] = []
    for item in _ordered(tracer):
        track = item.track
        if track not in tids:
            tids[track] = len(tids) + 1
        tid = tids[track]
        if isinstance(item, Span):
            if item.end is None:
                raise ValueError(
                    "span %r is still open; close every span before "
                    "export" % item.name)
            body.append({
                "name": item.name, "cat": item.category, "ph": "X",
                "pid": pid, "tid": tid,
                "ts": item.start, "dur": item.duration,
                "args": item.args,
            })
        else:
            body.append({
                "name": item.name, "cat": "event", "ph": "i", "s": "t",
                "pid": pid, "tid": tid, "ts": item.ts,
                "args": item.args,
            })
    metadata: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid,
        "args": {"name": tracer.actor},
    }]
    for track, tid in sorted(tids.items(), key=lambda kv: kv[1]):
        metadata.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": track},
        })
    return {
        "traceEvents": metadata + body,
        "otherData": {
            "schema": SCHEMA_VERSION,
            "kind": "repro-cycle-trace",
            "timebase": "cycles",
            "profile": tracer.profile.name,
            "clock_hz": tracer.profile.clock_hz,
            "actor": tracer.actor,
            "total_cycles": tracer.now,
        },
    }


def write_chrome(tracer: Tracer, path: str) -> None:
    """Write :func:`to_chrome` output as deterministic, pretty JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_chrome(tracer), handle, indent=2, sort_keys=True)
        handle.write("\n")


def trace_from_chrome(data: Dict[str, Any]) -> OperationTrace:
    """Rebuild the operation trace from an exported Chrome document.

    Only spans in :data:`~repro.obs.tracer.OPERATION_CATEGORY` carry
    operation records; structural spans and events are ignored. Raises
    ``ValueError`` on documents this library did not write or on
    malformed operation spans.
    """
    other = data.get("otherData", {})
    if other.get("kind") != "repro-cycle-trace":
        raise ValueError("not a repro cycle-trace document")
    if other.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            "unsupported schema version %r" % other.get("schema"))
    records = []
    for entry in data.get("traceEvents", []):
        if entry.get("ph") != "X" or entry.get("cat") != OPERATION_CATEGORY:
            continue
        args = entry.get("args", {})
        try:
            records.append(OperationRecord(
                algorithm=Algorithm(args["algorithm"]),
                phase=Phase(args["phase"]),
                invocations=int(args["invocations"]),
                blocks=int(args["blocks"]),
                label=str(args.get("label", "")),
            ))
        except (KeyError, ValueError) as exc:
            raise ValueError(
                "malformed operation span %r" % (entry,)) from exc
    return OperationTrace(records)


def write_metrics(registry: MetricsRegistry, path: str) -> None:
    """Write a metrics registry as deterministic JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(registry.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
