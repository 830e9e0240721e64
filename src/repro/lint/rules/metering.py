"""REP2xx — metering completeness of the DRM and simulation layers.

The paper's cost model prices the operation trace a protocol run
leaves behind (``repro.core.meter.MeteredCrypto``). Any crypto a
``repro.drm`` or ``repro.sim`` module performs *outside* the provider
is functionally correct but invisible to the meter, so Table 1
silently under-counts. REP201 catches direct imports of
:mod:`repro.crypto` primitives; REP202 proves the stronger property
over the whole-program call graph: **no path** from an in-scope
function to a crypto primitive avoids the provider. The proof is by
reverse reachability — every function from which an unmetered
primitive is reachable without passing through ``repro.core.meter``
(or crypto-internal code) is *escaping*, and each in-scope call into
the escaping set is reported with the uncovered path as evidence.
REP201 found the streaming decrypt importing ``unpad`` directly; the
seeded mutation gate proves REP202 catches a helper-module escape.

Exception types (``repro.crypto.errors``) and pure data types/constants
(``KemCiphertext``, key classes, size constants) are allowed anywhere:
importing them executes nothing.
"""

from typing import Dict, Iterator, Optional, Tuple

from ..graph import (ALLOWED_CRYPTO_MODULES, ALLOWED_CRYPTO_NAMES,
                     CRYPTO_PACKAGE)
from .base import RawFinding, Rule

#: The one module sanctioned to wrap primitives: the provider itself.
_PROVIDER_MODULE = "repro.core.meter"

#: Longest uncovered path rendered in a finding message.
_MAX_WITNESS = 8


def _is_crypto_primitive(qualname: str) -> bool:
    """Whether calling this dotted target executes unmetered crypto."""
    if not (qualname == CRYPTO_PACKAGE
            or qualname.startswith(CRYPTO_PACKAGE + ".")):
        return False
    for allowed in ALLOWED_CRYPTO_MODULES:
        if qualname == allowed or qualname.startswith(allowed + "."):
            return False
    if any(part in ALLOWED_CRYPTO_NAMES
           for part in qualname.split(".")):
        return False
    return True


def _is_sanctioned(module: str) -> bool:
    """Modules allowed to touch primitives: the provider and crypto."""
    return (module == _PROVIDER_MODULE
            or module == CRYPTO_PACKAGE
            or module.startswith(CRYPTO_PACKAGE + "."))


def _escape_map(graph) -> Dict[str, Tuple[str, str]]:
    """``function -> (next hop, reached primitive)`` for escaping nodes.

    A function *escapes* when some call chain from it reaches a crypto
    primitive without passing through the metered provider. Computed by
    reverse BFS from primitive call targets; provider and
    crypto-internal functions never enter the set (their primitive use
    is sanctioned), so paths through them are pruned exactly as the
    soundness property requires.
    """
    reverse: Dict[str, list] = {}
    escaping: Dict[str, Tuple[str, str]] = {}
    frontier = []
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        for site in graph.edges_from(qualname):
            reverse.setdefault(site.callee, []).append(qualname)
            if _is_crypto_primitive(site.callee) \
                    and not _is_sanctioned(fn.module) \
                    and qualname not in escaping:
                escaping[qualname] = (site.callee, site.callee)
                frontier.append(qualname)
    while frontier:
        current = frontier.pop(0)
        primitive = escaping[current][1]
        for caller in sorted(reverse.get(current, ())):
            if caller in escaping:
                continue
            fn = graph.functions.get(caller)
            if fn is None or _is_sanctioned(fn.module):
                continue
            escaping[caller] = (current, primitive)
            frontier.append(caller)
    return escaping


def _witness(escaping: Dict[str, Tuple[str, str]],
             start: str) -> str:
    """Render the uncovered path from ``start`` to its primitive."""
    hops = [start]
    cursor = start
    while cursor in escaping and len(hops) < _MAX_WITNESS:
        cursor = escaping[cursor][0]
        hops.append(cursor)
    if cursor in escaping:
        hops.append("...")
        hops.append(escaping[start][1])
    return " -> ".join(hops)


class NoDirectCryptoImportRule(Rule):
    """REP201: metered layers must not import crypto primitives."""

    id = "REP201"
    title = ("repro.drm/repro.sim imports a repro.crypto primitive "
             "directly; route it through the PlainCrypto/MeteredCrypto "
             "provider so the cost model prices it")
    default_scopes = ("repro.drm", "repro.sim")

    def check(self, ctx, project) -> Iterator[RawFinding]:
        for imported in ctx.summary.crypto_imports:
            what = imported.dotted
            yield RawFinding(
                line=imported.line, column=0,
                message="direct import of %s bypasses the metered "
                        "crypto provider; hashing/encryption done "
                        "with it never appears in priced traces"
                        % what)


class NoTransitiveCryptoEscapeRule(Rule):
    """REP202: no call path may reach primitives around the provider."""

    id = "REP202"
    title = ("a call path from repro.drm/repro.sim reaches repro.crypto "
             "primitives without passing through MeteredCrypto — a "
             "transitive metering escape, proven over the call graph")
    default_scopes = ("repro.drm", "repro.sim")

    @staticmethod
    def _callee_module(graph, callee: str) -> Optional[str]:
        fn = graph.functions.get(callee)
        if fn is not None:
            return fn.module
        return None

    def check(self, ctx, project) -> Iterator[RawFinding]:
        graph = project.callgraph
        if graph is None:
            return
        escaping = getattr(project, "_rep202_escaping", None)
        if escaping is None:
            escaping = _escape_map(graph)
            project._rep202_escaping = escaping
        in_scope = self.default_scopes
        for fn in graph.functions_in_module(ctx.name):
            for site in graph.edges_from(fn.qualname):
                if site.callee not in escaping:
                    continue
                if _is_crypto_primitive(site.callee):
                    # The direct edge is REP201's turf: the telltale
                    # import line is already flagged in this module.
                    continue
                callee_module = self._callee_module(graph, site.callee)
                if callee_module is not None and any(
                        callee_module == scope
                        or callee_module.startswith(scope + ".")
                        for scope in in_scope):
                    # The escaping callee is itself in a metered layer;
                    # its own frontier edge carries the finding.
                    continue
                yield RawFinding(
                    line=site.line, column=0,
                    message="call to %s escapes the metered provider; "
                            "uncovered path: %s -> %s"
                            % (site.callee, fn.qualname,
                               _witness(escaping, site.callee)))


RULES = (NoDirectCryptoImportRule, NoTransitiveCryptoEscapeRule)
