"""REP403 — typed errors on wire-decode paths.

PR 1 hardened the wire layer behind typed
:class:`~repro.drm.errors.WireDecodeError` subclasses so the session
layer can tell retryable corruption from semantic refusal. That
contract erodes one ``raise ValueError`` at a time: the rule found
``rights_from_bytes`` raising ``ValueError`` on corrupt input, which
the session layer would have misclassified instead of retrying.
"""

import ast
from typing import Iterator

from .base import RawFinding, Rule

#: Builtin exception types a wire-decode path must not raise.
_BUILTIN_RAISES = frozenset({
    "Exception", "ValueError", "TypeError", "KeyError", "IndexError",
    "RuntimeError", "AssertionError",
})

#: Function-name shapes that identify a wire-decode path.
_DECODE_NAME_PARTS = ("decode", "parse", "from_bytes", "from_wire",
                      "unpack")


class TypedWireDecodeErrorRule(Rule):
    """REP403: wire-decode paths raise typed ``WireDecodeError``."""

    id = "REP403"
    title = ("wire-decode path raises a builtin exception; the session "
             "layer needs typed WireDecodeError subclasses to "
             "classify retryable corruption")
    default_scopes = ("repro.drm",)

    @staticmethod
    def _is_decode_function(name: str) -> bool:
        lowered = name.lower()
        return any(part in lowered for part in _DECODE_NAME_PARTS)

    def check(self, ctx, project) -> Iterator[RawFinding]:
        for function in ctx.functions():
            if not self._is_decode_function(function.name):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                name = None
                if isinstance(exc, ast.Call) \
                        and isinstance(exc.func, ast.Name):
                    name = exc.func.id
                elif isinstance(exc, ast.Name):
                    name = exc.id
                if name in _BUILTIN_RAISES:
                    yield self.finding(
                        node, "raise %s in wire-decode path %r; raise "
                              "a WireDecodeError subclass so the "
                              "session layer can classify the fault"
                              % (name, function.name))


RULES = (TypedWireDecodeErrorRule,)
