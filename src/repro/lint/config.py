"""Per-rule configuration for the analyzer.

Every rule ships a default scope (the module-name prefixes it applies
to) and default options; a ``[tool.repro-lint]`` table in
``pyproject.toml`` can disable rules, re-scope them, or override the
baseline path::

    [tool.repro-lint]
    disable = ["REP403"]
    baseline = "lint-baseline.json"

    [tool.repro-lint.scopes]
    REP201 = ["repro.drm", "repro.sim", "repro.store"]

``tomllib`` is stdlib from Python 3.11; on older interpreters the
config file is simply ignored and the defaults apply (the defaults are
what CI enforces, so this degrades safely).
"""

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

try:
    import tomllib
except ImportError:  # pragma: no cover - Python < 3.11
    tomllib = None

#: Default baseline file, relative to the working directory.
DEFAULT_BASELINE = "lint-baseline.json"


@dataclass(frozen=True)
class RuleConfig:
    """Effective configuration of one rule.

    ``scopes`` is a tuple of module-name prefixes (``"repro.drm"``
    matches ``repro.drm`` and every submodule); an empty tuple means
    the rule applies everywhere.
    """

    enabled: bool = True
    scopes: Optional[Tuple[str, ...]] = None

    def applies_to(self, module_name: str,
                   default_scopes: Tuple[str, ...]) -> bool:
        """Whether a module is inside this rule's effective scope."""
        scopes = self.scopes if self.scopes is not None else default_scopes
        if not scopes:
            return True
        parts = module_name.split(".")
        for scope in scopes:
            prefix = scope.split(".")
            if parts[:len(prefix)] == prefix:
                return True
        return False


@dataclass
class LintConfig:
    """Analyzer-wide configuration: rule toggles, scopes, baseline path."""

    rules: Dict[str, RuleConfig] = field(default_factory=dict)
    baseline_path: str = DEFAULT_BASELINE

    def rule(self, rule_id: str) -> RuleConfig:
        """The configuration for ``rule_id`` (defaults if unconfigured)."""
        return self.rules.get(rule_id, RuleConfig())

    @classmethod
    def from_mapping(cls, table: Mapping) -> "LintConfig":
        """Build a config from a ``[tool.repro-lint]`` mapping."""
        rules: Dict[str, RuleConfig] = {}
        for rule_id in table.get("disable", ()):
            rules[str(rule_id)] = RuleConfig(enabled=False)
        for rule_id, scopes in table.get("scopes", {}).items():
            base = rules.get(str(rule_id), RuleConfig())
            rules[str(rule_id)] = RuleConfig(
                enabled=base.enabled,
                scopes=tuple(str(s) for s in scopes))
        return cls(rules=rules,
                   baseline_path=str(table.get("baseline",
                                               DEFAULT_BASELINE)))

    @classmethod
    def from_pyproject(cls, path: str) -> "LintConfig":
        """Load config from ``pyproject.toml``; defaults when absent."""
        if tomllib is None:
            return cls()
        try:
            with open(path, "rb") as handle:
                document = tomllib.load(handle)
        except (OSError, ValueError):
            return cls()
        table = document.get("tool", {}).get("repro-lint", {})
        if not isinstance(table, dict):
            return cls()
        return cls.from_mapping(table)
