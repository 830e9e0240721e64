"""REP901 — grants of the discrete-event kernel released on every path.

PR 7's kernel runs generator processes that ``yield Acquire(r)`` /
``yield Release(r)`` against bounded :class:`~repro.sim.kernel.Resource`
queues. The kernel cannot release on a process's behalf — an exception
raised while a grant is held leaks the server slot forever, silently
deadlocking every queued process behind it. REP901 flags an
``Acquire`` whose matching ``Release`` is not in a ``finally`` block
while other yields sit inside the critical section (each suspension is
a point where service code can raise), or an ``Acquire`` with no
matching ``Release`` at all. It found two real leaks:
``RIServer.serve`` and the queueing harness's ``job`` process.

Resources are keyed by the *text* of the expression passed to
``Acquire``/``Release`` (``self.signing`` matches ``self.signing``), so
the match is syntactic — exactly the level at which a reviewer pairs
them up.
"""

import ast
from typing import Iterator, List, Optional, Tuple

from .base import RawFinding, Rule

#: Kernel command constructors, matched by name at the yield site.
_ACQUIRE = "Acquire"
_RELEASE = "Release"


def _command_call(node: ast.AST) -> Optional[Tuple[str, str]]:
    """(command name, resource key) when ``node`` is Acquire/Release."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    name = func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None
    if name not in (_ACQUIRE, _RELEASE):
        return None
    if node.args:
        key = ast.dump(node.args[0])
    else:
        key = ast.dump(node)
    return name, key


class _Event:
    """One yield inside a generator body, in source order."""

    __slots__ = ("kind", "key", "node", "in_finally")

    def __init__(self, kind: str, key: str, node: ast.AST,
                 in_finally: bool) -> None:
        self.kind = kind          # "acquire" | "release" | "yield"
        self.key = key
        self.node = node
        self.in_finally = in_finally


def _collect_events(body: List[ast.stmt]) -> List[_Event]:
    """All yields of a function body, in source order, finally-tagged."""
    events: List[_Event] = []

    def walk_expr(node: ast.AST, in_finally: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            return
        if isinstance(node, ast.Yield):
            command = _command_call(node.value) \
                if node.value is not None else None
            if command is not None:
                kind = "acquire" if command[0] == _ACQUIRE \
                    else "release"
                events.append(_Event(kind, command[1], node,
                                     in_finally))
            else:
                events.append(_Event("yield", "", node, in_finally))
            if node.value is not None:
                walk_expr(node.value, in_finally)
            return
        for child in ast.iter_child_nodes(node):
            walk_expr(child, in_finally)

    def walk_stmts(statements: List[ast.stmt],
                   in_finally: bool) -> None:
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                continue
            if isinstance(statement, ast.Try):
                walk_stmts(statement.body, in_finally)
                for handler in statement.handlers:
                    walk_stmts(handler.body, in_finally)
                walk_stmts(statement.orelse, in_finally)
                walk_stmts(statement.finalbody, True)
                continue
            for child in ast.iter_child_nodes(statement):
                if isinstance(child, ast.stmt):
                    walk_stmts([child], in_finally)
                else:
                    walk_expr(child, in_finally)

    walk_stmts(body, False)
    return events


def _render_key(node: ast.AST) -> str:
    """Readable form of the resource expression for messages."""
    command = node.value if isinstance(node, ast.Yield) else node
    if isinstance(command, ast.Call) and command.args:
        try:
            return ast.unparse(command.args[0])
        except Exception:
            return "<resource>"
    return "<resource>"


class ReleaseOnExceptionPathsRule(Rule):
    """REP901: every Acquire must release on exception paths too."""

    id = "REP901"
    title = ("yield Acquire(...) whose matching Release is missing or "
             "not in a finally block while the critical section "
             "contains further yields — an exception while holding "
             "leaks the grant and deadlocks the queue")
    default_scopes = ("repro.sim", "repro.usecases")

    def check(self, ctx, project) -> Iterator[RawFinding]:
        for function in ctx.functions():
            events = _collect_events(function.body)
            for index, event in enumerate(events):
                if event.kind != "acquire":
                    continue
                release_at = None
                for later in range(index + 1, len(events)):
                    if events[later].kind == "release" \
                            and events[later].key == event.key:
                        release_at = later
                        break
                resource = _render_key(event.node)
                if release_at is None:
                    yield self.finding(
                        event.node,
                        "Acquire(%s) has no matching yield "
                        "Release(%s) in this process; the grant can "
                        "never be returned" % (resource, resource))
                    continue
                intervening = any(
                    e.kind in ("yield", "acquire")
                    for e in events[index + 1:release_at])
                if intervening \
                        and not events[release_at].in_finally:
                    yield self.finding(
                        event.node,
                        "Release(%s) runs on the normal path only; "
                        "an exception at any yield inside the "
                        "critical section leaks the grant — move the "
                        "Release into a try/finally" % resource)


RULES = (ReleaseOnExceptionPathsRule,)
