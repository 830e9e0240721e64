"""Rule configuration: toggles, re-scoping and the pyproject table."""

import textwrap

from repro.lint import LintConfig, LintEngine, RuleConfig

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
        "scopes": {"REP201": ["repro.core"]},
    })
    assert not config.rule("REP403").enabled
    assert config.rule("REP201").applies_to("repro.core.stats", ())
    assert not config.rule("REP201").applies_to("repro.usecases.fleet",
                                                ())
    # Prefixes match whole components: repro.corex is out of scope.
    assert not config.rule("REP201").applies_to("repro.corex", ())
