"""Baseline round-trip, fingerprint stability, and config scoping."""

import json
import textwrap

from repro.lint import Baseline, LintConfig, LintEngine, RuleConfig
from repro.lint.baseline import assign_fingerprints, fingerprint

VIOLATION = """
    from ..crypto.sha1 import sha1

    def digest(data):
        return sha1(data)
"""


def write_violation(tmp_path):
    target = tmp_path / "repro" / "drm" / "m.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(VIOLATION))
    return target


def test_baseline_round_trip_grandfathers_findings(tmp_path):
    write_violation(tmp_path)
    engine = LintEngine()
    first = engine.run([str(tmp_path)])
    assert len(first.findings) == 1

    baseline_path = tmp_path / "lint-baseline.json"
    Baseline.save(str(baseline_path), first.all_current)
    baseline = Baseline.load(str(baseline_path))

    second = engine.run([str(tmp_path)], baseline=baseline)
    assert second.clean
    assert len(second.baselined) == 1


def test_baseline_expires_when_the_line_changes(tmp_path):
    target = write_violation(tmp_path)
    engine = LintEngine()
    first = engine.run([str(tmp_path)])
    baseline_path = tmp_path / "lint-baseline.json"
    Baseline.save(str(baseline_path), first.all_current)

    # A different primitive on the same line is a *new* finding.
    target.write_text(textwrap.dedent(VIOLATION).replace(
        "crypto.sha1 import sha1", "crypto.hmac import hmac_sha1"))
    second = engine.run([str(tmp_path)],
                        baseline=Baseline.load(str(baseline_path)))
    assert len(second.findings) == 1
    assert not second.baselined


def test_fingerprints_survive_line_drift(tmp_path):
    target = write_violation(tmp_path)
    engine = LintEngine()
    first = engine.run([str(tmp_path)])

    # Prepend unrelated lines: line numbers shift, fingerprint holds.
    target.write_text("# a comment\n\nCONSTANT = 1\n"
                      + target.read_text())
    second = engine.run([str(tmp_path)])
    assert assign_fingerprints(first.findings) \
        == assign_fingerprints(second.findings)
    assert second.findings[0].line != first.findings[0].line


def test_duplicate_findings_get_distinct_fingerprints():
    assert fingerprint("REP201", "a.py", "from x import sha1", 0) \
        != fingerprint("REP201", "a.py", "from x import sha1", 1)


def test_baseline_file_shape(tmp_path):
    write_violation(tmp_path)
    result = LintEngine().run([str(tmp_path)])
    baseline_path = tmp_path / "baseline.json"
    Baseline.save(str(baseline_path), result.all_current)
    document = json.loads(baseline_path.read_text())
    assert document["version"] == 1
    entry = document["findings"][0]
    assert set(entry) == {"fingerprint", "rule", "path", "message"}
    assert entry["rule"] == "REP201"


def test_missing_baseline_file_is_empty():
    assert Baseline.load("/nonexistent/baseline.json").fingerprints \
        == set()


def test_config_can_disable_and_rescope_rules(tmp_path):
    write_violation(tmp_path)
    disabled = LintConfig(rules={"REP201": RuleConfig(enabled=False)})
    assert LintEngine(config=disabled).run([str(tmp_path)]).clean

    # Re-scoping REP201 away from repro.drm also silences it.
    rescoped = LintConfig(
        rules={"REP201": RuleConfig(scopes=("repro.usecases",))})
    assert LintEngine(config=rescoped).run([str(tmp_path)]).clean


def test_config_from_mapping_parses_pyproject_table():
    config = LintConfig.from_mapping({
        "disable": ["REP403"],
        "baseline": "custom.json",
        "scopes": {"REP201": ["repro.core"]},
    })
    assert not config.rule("REP403").enabled
    assert config.baseline_path == "custom.json"
    assert config.rule("REP201").applies_to("repro.core.stats", ())
    assert not config.rule("REP201").applies_to("repro.usecases.fleet",
                                                ())
    # Prefixes match whole components: repro.corex is out of scope.
    assert not config.rule("REP201").applies_to("repro.corex", ())
