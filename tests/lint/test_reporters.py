"""Reporter output: the JSON schema CI parses, text, SARIF, and the
finding fingerprints both machine formats carry.

The SARIF document is byte-pinned against a golden snapshot (the CI
lint job uploads it for code-scanning annotations); regenerate after an
intentional format change with::

    UPDATE_GOLDEN=1 python -m pytest tests/lint/test_reporters.py
"""

import json
import os
import pathlib
import textwrap

from repro.lint import LintEngine, render_json, render_sarif, \
    render_text
from repro.lint.reporters import assign_fingerprints, fingerprint

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_SARIF = GOLDEN_DIR / "findings.sarif.json"

#: One REP201 finding, on line 2.
VIOLATION = """
    from ..crypto.sha1 import sha1

    def digest(data):
        return sha1(data)
    """


def run_on(tmp_path, source):
    target = tmp_path / "repro" / "drm" / "w.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return LintEngine().run([str(tmp_path)])


def test_json_report_schema(tmp_path):
    result = run_on(tmp_path, VIOLATION)
    document = render_json(result)
    # Pin the whole shape: CI and external tooling parse this.
    assert set(document) == {"version", "findings", "counts", "summary"}
    assert document["version"] == 1
    finding = document["findings"][0]
    assert set(finding) == {"rule", "path", "line", "column", "message",
                            "fingerprint"}
    assert finding["rule"] == "REP201"
    assert finding["line"] == 2
    assert document["counts"] == {"REP201": 1}
    assert document["summary"] == {
        "new": 1, "suppressed": 0, "files": result.files_scanned,
        "clean": False,
    }
    json.dumps(document)  # must be serializable as-is


def test_json_report_clean_summary(tmp_path):
    result = run_on(tmp_path, "x = 1\n")
    document = render_json(result)
    assert document["findings"] == []
    assert document["summary"]["clean"] is True


def test_text_report_lists_findings_and_summary(tmp_path):
    result = run_on(tmp_path, VIOLATION)
    text = render_text(result)
    assert "REP201" in text
    assert "w.py:2:" in text
    assert "1 finding(s)" in text


def test_text_report_clean(tmp_path):
    result = run_on(tmp_path, "x = 1\n")
    assert render_text(result).startswith("clean: 0 new findings")


def _sarif_fixture_result(tmp_path, monkeypatch):
    # Relative paths keep fingerprints and artifact URIs independent
    # of the tmp directory, so the document can be byte-pinned.
    target = tmp_path / "repro" / "drm" / "w.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(VIOLATION))
    monkeypatch.chdir(tmp_path)
    return LintEngine().run(["repro"])


def test_sarif_schema_shape(tmp_path, monkeypatch):
    document = render_sarif(_sarif_fixture_result(tmp_path, monkeypatch))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert [rule["id"] for rule in run["tool"]["driver"]["rules"]] \
        == ["REP201"]
    result = run["results"][0]
    assert result["ruleId"] == "REP201"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "repro/drm/w.py"
    assert location["region"]["startLine"] == 2
    assert location["region"]["startColumn"] >= 1
    assert result["partialFingerprints"]["reproLint/v1"]


def test_sarif_matches_golden_snapshot(tmp_path, monkeypatch):
    document = render_sarif(_sarif_fixture_result(tmp_path, monkeypatch))
    generated = json.dumps(document, indent=2, sort_keys=True) + "\n"
    monkeypatch.chdir(GOLDEN_DIR.parent)  # leave tmp before writing
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN_SARIF.write_text(generated, encoding="utf-8")
    assert generated == GOLDEN_SARIF.read_text(encoding="utf-8"), \
        "SARIF output drifted from the golden snapshot; if " \
        "intentional, regenerate with UPDATE_GOLDEN=1."


def test_fingerprints_survive_line_drift(tmp_path):
    first = run_on(tmp_path, VIOLATION)
    target = tmp_path / "repro" / "drm" / "w.py"

    # Prepend unrelated lines: line numbers shift, fingerprint holds.
    target.write_text("# a comment\n\nCONSTANT = 1\n"
                      + target.read_text())
    second = LintEngine().run([str(tmp_path)])
    assert assign_fingerprints(first.findings) \
        == assign_fingerprints(second.findings)
    assert second.findings[0].line != first.findings[0].line


def test_duplicate_findings_get_distinct_fingerprints():
    assert fingerprint("REP201", "a.py", "from x import sha1", 0) \
        != fingerprint("REP201", "a.py", "from x import sha1", 1)
