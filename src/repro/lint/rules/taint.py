"""REP801 — interprocedural secret taint.

Key material (CEK/KEK/REK fields, private keys, DRBG/nonce outputs) is
tracked by the :mod:`repro.lint.dataflow` engine through assignments,
string building, and *calls* (via per-function summaries over the
whole-program call graph) into sinks: exception messages, tracer
span/event attributes, metrics labels, log calls, JSON serialization,
and f-string interpolation. Interprocedural findings carry the call
path as evidence; the seeded mutation gate proves a secret routed
through a formatting helper into a span attribute fails the build.

Sanitized values — ``len``/``type`` metadata, constant-time verdicts,
and stable-digest redactors (``fingerprint``/``redact``/``digest``) —
are clean by construction: publishing a fingerprint of a key is the
sanctioned way to name one in diagnostics.
"""

from typing import Iterator

from .base import RawFinding, Rule


class SecretFlowRule(Rule):
    """REP801: key material must not flow into an exported sink."""

    id = "REP801"
    title = ("key material flows (possibly through helper calls) into "
             "an exception message, trace attribute, metrics label, "
             "log call, JSON output, or interpolated string — a "
             "key-extraction channel; redact with a stable digest")

    def check(self, ctx, project) -> Iterator[RawFinding]:
        if project.dataflow is None:
            return
        for flow in project.dataflow.findings_for(ctx.name):
            yield RawFinding(line=flow.line, column=flow.column,
                             message=flow.message)


RULES = (SecretFlowRule,)
