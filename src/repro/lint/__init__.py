"""``repro.lint`` — invariant analyzer with interprocedural dataflow.

The paper's cost model is only trustworthy if every crypto operation a
protocol run performs is priced, and key material must never leave the
protected path. Both are *invariants of the codebase*; this package
enforces them statically over a whole-program call graph
(:mod:`repro.lint.callgraph`) and a forward taint engine with
per-function summaries (:mod:`repro.lint.dataflow`).

Every rule has evidence: it found a real bug in this tree, or the
seeded mutation gate proves it catches a bug class
(``docs/static-analysis.md`` lists which):

* **REP201/REP202 metering completeness** — ``repro.drm``/``repro.sim``
  must route all crypto through the
  :class:`~repro.core.meter.PlainCrypto` /
  :class:`~repro.core.meter.MeteredCrypto` provider: no direct
  :mod:`repro.crypto` primitive imports (REP201), and *no call path*
  reaching a primitive around the provider — proven by reachability
  over the call graph, with the uncovered path as evidence (REP202).
* **REP302 timing** — no variable-time ``==`` on digest/tag bytes
  inside ``repro.crypto``.
* **REP403 error contract** — typed
  :class:`~repro.drm.errors.WireDecodeError` in wire-decode paths.
* **REP801 secret taint** — key material tracked through assignments
  and helper calls into exception messages, trace attributes, metrics
  labels, logs, and JSON output; findings carry the call path.
* **REP901 sim resource protocol** — ``Acquire`` grants released on
  exception paths.
* **REP001/REP002/REP003 meta** — suppressions naming an unknown rule
  or lacking a justification, and files that do not parse.

Findings are fixed, or suppressed inline with a *justified*
``# repro: allow[REPnnn] -- reason`` comment. Run
``python -m repro lint src/`` (``--format sarif`` for code-scanning
upload).
"""

from .config import LintConfig, RuleConfig
from .engine import Finding, LintEngine, LintResult
from .reporters import render_json, render_sarif, render_text
from .rules import all_rules

__all__ = [
    "Finding", "LintConfig", "LintEngine", "LintResult", "RuleConfig",
    "all_rules", "render_json", "render_sarif", "render_text",
]
