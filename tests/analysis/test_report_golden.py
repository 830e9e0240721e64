"""Golden snapshot of ``python -m repro report``.

Every published number flows through the report, so its rendered output
is pinned as a golden file: formatting regressions (column drift, float
formatting changes, dropped sections, reordered tables) are caught even
when every underlying number still matches.

The comparison is *normalized* — trailing whitespace and line-ending
differences are ignored, so the snapshot does not break on editor or
platform noise — but every character of content must match.

The report is built once per session (the ``report_document`` fixture
in ``tests/conftest.py``) and shared by these three tests and the CLI
path, ``tests/test_cli.py::test_report``.

To regenerate after an intentional change::

    UPDATE_GOLDEN=1 python -m pytest tests/analysis/test_report_golden.py
"""

import difflib
import os
import pathlib

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "golden" / "report.md")

#: Section headings the report contract promises, in order.
EXPECTED_SECTIONS = (
    "## Table 1",
    "## Figure 5",
    "## Figure 6 — Music Player",
    "## Figure 7 — Ringtone",
    "## In-text claims",
    "## ROAP message sizes",
    "## Retry overhead under loss",
    "## Durability overhead and recovery",
    "## Fleet-scale workload",
    "## Rights Issuer saturation",
    "## Overload control and retry storms",
    "## Adversary and outage degradation",
    "## Observability",
    "## Verdict",
)


def normalize(text):
    """Content-only form: universal newlines, no trailing whitespace."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    stripped = [line.rstrip() for line in lines]
    while stripped and not stripped[-1]:
        stripped.pop()
    return "\n".join(stripped) + "\n"


def test_report_matches_golden_snapshot(report_document):
    generated = normalize(report_document.markdown)
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN_PATH.write_text(generated, encoding="utf-8")
    golden = normalize(GOLDEN_PATH.read_text(encoding="utf-8"))
    if generated != golden:
        diff = "\n".join(difflib.unified_diff(
            golden.splitlines(), generated.splitlines(),
            fromfile="golden/report.md", tofile="generated",
            lineterm=""))
        raise AssertionError(
            "report drifted from the golden snapshot; if the change is "
            "intentional, regenerate with UPDATE_GOLDEN=1.\n" + diff)


def test_report_sections_in_order(report_document):
    markdown = report_document.markdown
    position = -1
    for heading in EXPECTED_SECTIONS:
        found = markdown.find(heading)
        assert found > position, "missing or misplaced %r" % heading
        position = found


def test_report_write_roundtrip(report_document, tmp_path):
    path = tmp_path / "report.md"
    report_document.write(str(path))
    assert path.read_text(encoding="utf-8") == report_document.markdown
