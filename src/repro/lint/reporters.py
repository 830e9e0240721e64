"""Finding reporters: human text, machine JSON, and SARIF.

The JSON document is the CI interface; its shape is pinned by
``tests/lint/test_reporters.py``::

    {
      "version": 1,
      "findings": [{"rule", "path", "line", "column", "message",
                    "fingerprint"}, ...],
      "counts": {"REP201": 2, ...},
      "summary": {"new": 2, "suppressed": 1, "files": 40,
                  "clean": false}
    }

Each finding's ``fingerprint`` is a hash of (rule, path, normalized
source line, occurrence index): it survives unrelated edits that shift
line numbers, so JSON consumers and SARIF's ``partialFingerprints`` can
track one finding across runs.

The SARIF 2.1.0 document (``--format sarif``) is what the CI lint job
uploads so findings render as GitHub code-scanning annotations; its
shape is pinned by the golden snapshot in
``tests/lint/test_reporters.py``.
"""

import hashlib
from collections import Counter
from typing import Dict, List, Tuple

from .engine import LintResult

#: Schema version of the JSON report.
REPORT_VERSION = 1

#: SARIF specification version emitted by :func:`render_sarif`.
SARIF_VERSION = "2.1.0"

_SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                 "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")


def fingerprint(rule: str, path: str, snippet: str, occurrence: int) -> str:
    """Stable identity of one finding, independent of line numbers."""
    payload = "%s|%s|%s|%d" % (rule, path.replace("\\", "/"),
                               snippet.strip(), occurrence)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def assign_fingerprints(findings) -> List[str]:
    """Fingerprints for a finding list, disambiguating duplicates.

    Two findings of the same rule on identical source lines in one file
    get occurrence indexes 0, 1, ... in line order, keeping the
    fingerprints distinct and stable.
    """
    seen: Dict[Tuple[str, str, str], int] = {}
    prints = []
    for finding in findings:
        key = (finding.rule, finding.path, finding.snippet.strip())
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        prints.append(fingerprint(finding.rule, finding.path,
                                  finding.snippet, occurrence))
    return prints


def render_text(result: LintResult) -> str:
    """Human-readable report: one ``path:line:col: RULE message`` line
    per finding plus a summary."""
    lines = ["%s:%d:%d: %s %s" % (finding.path, finding.line,
                                  finding.column + 1, finding.rule,
                                  finding.message)
             for finding in result.findings]
    summary = ("%d finding(s) in %d file(s) (%d suppressed)"
               % (len(result.findings), result.files_scanned,
                  len(result.suppressed)))
    if result.clean:
        summary = ("clean: 0 new findings in %d file(s) (%d suppressed)"
                   % (result.files_scanned, len(result.suppressed)))
    lines.append(summary)
    return "\n".join(lines)


def render_json(result: LintResult) -> Dict:
    """The machine-readable report dictionary (see module docstring)."""
    findings = []
    for finding, print_ in zip(result.findings,
                               assign_fingerprints(result.findings)):
        findings.append({
            "rule": finding.rule,
            "path": finding.path.replace("\\", "/"),
            "line": finding.line,
            "column": finding.column,
            "message": finding.message,
            "fingerprint": print_,
        })
    counts = Counter(finding.rule for finding in result.findings)
    return {
        "version": REPORT_VERSION,
        "findings": findings,
        "counts": dict(sorted(counts.items())),
        "summary": {
            "new": len(result.findings),
            "suppressed": len(result.suppressed),
            "files": result.files_scanned,
            "clean": result.clean,
        },
    }


def render_sarif(result: LintResult) -> Dict:
    """SARIF 2.1.0 run for GitHub code-scanning upload.

    New findings become ``results`` (level ``error`` — they fail the
    gate); the rule metadata of every *fired* rule is embedded in the
    driver so annotations carry the invariant description. SARIF
    ``startColumn`` is 1-based where the engine's columns are 0-based.
    """
    from .rules import all_rules

    fired = sorted({finding.rule for finding in result.findings})
    titles = {rule.id: rule.title for rule in all_rules()}
    rules = [{
        "id": rule_id,
        "shortDescription": {
            "text": titles.get(rule_id, "analyzer meta-finding"),
        },
    } for rule_id in fired]
    results = []
    for finding, print_ in zip(result.findings,
                               assign_fingerprints(result.findings)):
        results.append({
            "ruleId": finding.rule,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.column + 1,
                    },
                },
            }],
            "partialFingerprints": {"reproLint/v1": print_},
        })
    return {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "docs/static-analysis.md",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }
