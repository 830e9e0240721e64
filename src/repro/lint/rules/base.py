"""Rule infrastructure: the base class and the raw finding shape.

A rule sees one module at a time (its AST plus the project-wide call
graph and taint fixpoint) and yields :class:`RawFinding` positions; the
engine attaches paths, snippets and suppressions. Scoping is by
module-name prefix so the same rule can be pointed at different layers
through configuration.
"""

from dataclasses import dataclass
from typing import Iterator, Tuple


@dataclass(frozen=True)
class RawFinding:
    """A rule hit before the engine decorates it."""

    line: int
    column: int
    message: str


class Rule:
    """Base class for all analyzer rules."""

    #: Unique id, e.g. ``"REP201"``; the suppression key.
    id: str = "REP000"

    #: One-line description of the invariant the rule protects.
    title: str = ""

    #: Module-name prefixes the rule applies to; empty = everywhere.
    default_scopes: Tuple[str, ...] = ()

    def check(self, ctx, project) -> Iterator[RawFinding]:
        """Yield findings for one module.

        ``ctx`` is the engine's :class:`~repro.lint.engine.ModuleContext`
        (name, tree, source, summary); ``project`` the
        :class:`~repro.lint.graph.ProjectGraph` over every scanned
        module.
        """
        raise NotImplementedError

    def finding(self, node, message: str) -> RawFinding:
        """A :class:`RawFinding` located at an AST node."""
        return RawFinding(line=node.lineno, column=node.col_offset,
                          message=message)
