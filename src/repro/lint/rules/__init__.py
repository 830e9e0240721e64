"""Rule registry: every rule family, in id order.

A rule stays registered only while it has evidence behind it: it found
a real bug in this tree, or the seeded mutation gate
(``tests/lint/test_mutation.py``) proves it catches a bug class (see
``docs/static-analysis.md``). The engine, the CLI ``--list-rules``
output, and suppression validation all derive from this registry.
"""

from typing import Tuple, Type

from . import contracts, metering, secrets, simproto, taint
from .base import RawFinding, Rule

#: All rule classes, ordered by id.
RULE_CLASSES: Tuple[Type[Rule], ...] = tuple(sorted(
    metering.RULES + secrets.RULES + contracts.RULES + taint.RULES
    + simproto.RULES,
    key=lambda rule: rule.id))


def all_rules() -> Tuple[Rule, ...]:
    """Fresh instances of every registered rule."""
    return tuple(cls() for cls in RULE_CLASSES)


__all__ = ["RULE_CLASSES", "RawFinding", "Rule", "all_rules"]
