"""Forward taint engine with per-function summaries.

A secret that travels — ``kcek`` passed to a formatting helper whose
result lands in a tracer span two calls later — looks like three
innocent lines to any per-line check. This module tracks the flow
itself:

* **Sources** seed taint: secret-*named* variables and attributes
  (``kdev``, ``kmac``, ``krek``, ``kcek``, ``kek``, ``cek``, ``rek``,
  key/secret/private/nonce/token/password segments), and calls that
  mint key material (``random_bytes``, ``new_nonce``, ``os.urandom``,
  DRBG ``generate``/``random_*`` methods).
* **Propagation** follows assignments (including tuple unpacking and
  augmented assigns), subscripts/slices, string building (``%``,
  ``+``, ``.format``, ``str``/``repr``/``.hex()``), collection
  literals, conditional expressions — and *calls*, through each
  callee's summary (``params_to_return``, ``returns_secret``).
* **Sanitizers** stop it: size/type metadata (``len``, ``type``,
  ``id``, ``bool``, ``int``), boolean verdicts (``hmac_verify``,
  ``constant_time_equal``, ``pss_verify``), and stable-digest
  redactors (``fingerprint``/``redact``/``digest`` names) whose whole
  point is to be safe to publish.
* **Sinks** report: exception-constructor arguments, f-string
  interpolation, log calls, tracer ``span``/``event`` attributes and
  ``span.set`` values, metrics label/value arguments, and
  ``json.dumps`` serialization.

Every function gets a **summary** — which parameters reach its return
value, whether it returns fresh secret material, and which parameters
reach a sink (with the qualname path down to the sink). Summaries are
computed to a fixpoint over the :mod:`repro.lint.callgraph` worklist
(monotone: facts are only ever added, so convergence and determinism
are structural, held under Hypothesis by
``tests/lint/test_callgraph.py``). A finding is reported either where
a secret hits a sink directly, or at the call frontier where a secret
argument enters a parameter that some transitive callee sinks — with
the full path as evidence.
"""

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .callgraph import CallGraph, FunctionNode
from .graph import ModuleSummary

#: Identifier segments that mark a value as key material.  ``nonce`` is
#: included deliberately: ROAP nonces are DRBG output and an audit
#: channel for it (the paper's replay defenses assume they are
#: unpredictable).
SECRET_SEGMENTS = re.compile(
    r"(?:^|_)(?:key|keys|kek|cek|rek|kdev|kmac|krek|kcek|secret|"
    r"secrets|password|passwd|token|nonce|private)(?:_|$)")

#: Identifiers that match the segment regex but are not secret values.
SECRET_EXCEPTIONS = re.compile(
    r"public|_id$|_ids$|_name$|_label$|_kind$|keyword|_size$|_len$|"
    r"_length$|_octets$")

#: Call names that mint fresh secret material.
_SOURCE_CALLS = frozenset({"random_bytes", "new_nonce", "urandom",
                           "token_bytes", "random_odd_int"})

#: Metadata calls: the result reveals nothing about the argument bytes.
_METADATA_CALLS = frozenset({"len", "type", "id", "bool", "int",
                             "float", "ord", "isinstance", "hasattr",
                             "min", "max", "sum", "range",
                             "enumerate"})

#: Verdict calls: constant-size boolean outcomes of a comparison.
_VERDICT_CALLS = frozenset({"hmac_verify", "constant_time_equal",
                            "pss_verify", "verify"})

#: Redactor names: produce stable, publishable identifiers of secrets.
_REDACTOR_RE = re.compile(r"fingerprint|redact|digest")

#: Logger-ish receivers and their emitting methods.
_LOGGER_NAMES = frozenset({"log", "logger", "logging"})
_LOG_METHODS = frozenset({"debug", "info", "warning", "warn", "error",
                          "exception", "critical", "log"})

#: Tracer emitting methods (keyword attributes land in exports).
_TRACER_METHODS = frozenset({"event", "span"})

#: Metrics emitting methods (label and value arguments are exported).
_METRICS_METHODS = frozenset({"counter", "histogram"})

#: Upper bound on recorded sink paths; monotone summaries make this a
#: belt-and-braces guard, not a correctness requirement.
_MAX_PATH = 12

#: Taint origins: ("secret", label) or ("param", index).
Origin = Tuple[str, object]
Taint = FrozenSet[Origin]

_EMPTY: Taint = frozenset()


def is_secret_name(identifier: str) -> bool:
    """Whether an identifier names key material by convention."""
    lowered = identifier.strip("_").lower()
    return bool(SECRET_SEGMENTS.search(lowered)) \
        and not SECRET_EXCEPTIONS.search(lowered)


@dataclass(frozen=True)
class SinkFlow:
    """How one function parameter reaches a sink."""

    kind: str                  # e.g. "exception message"
    line: int                  # sink line (or call line when remote)
    path: Tuple[str, ...]      # qualnames from this function to sink


@dataclass
class FunctionSummary:
    """Dataflow facts about one function, for its callers."""

    qualname: str
    params: Tuple[str, ...]
    returns_secret: bool = False
    secret_label: str = ""
    params_to_return: FrozenSet[int] = frozenset()
    param_sinks: Dict[int, SinkFlow] = field(default_factory=dict)

    def merge(self, other: "FunctionSummary") -> bool:
        """Fold ``other``'s facts in monotonically; True if changed."""
        changed = False
        if other.returns_secret and not self.returns_secret:
            self.returns_secret = True
            self.secret_label = other.secret_label
            changed = True
        merged = self.params_to_return | other.params_to_return
        if merged != self.params_to_return:
            self.params_to_return = merged
            changed = True
        for index, flow in sorted(other.param_sinks.items()):
            if index not in self.param_sinks:
                self.param_sinks[index] = flow
                changed = True
        return changed


@dataclass(frozen=True)
class TaintFinding:
    """One secret-to-sink flow, located in its module."""

    module: str
    line: int
    column: int
    message: str


class _FunctionAnalyzer:
    """Analyze one function body against current summaries."""

    def __init__(self, analysis: "DataflowAnalysis",
                 fn: FunctionNode, node: ast.AST,
                 summary: ModuleSummary, collect: bool) -> None:
        self.analysis = analysis
        self.fn = fn
        self.node = node
        self.module_summary = summary
        self.collect = collect
        self.env: Dict[str, Taint] = {}
        self.span_vars: Set[str] = {"span"}
        self.result = FunctionSummary(qualname=fn.qualname,
                                      params=fn.params)
        self.findings: List[TaintFinding] = []
        for index, param in enumerate(fn.params):
            origins: Set[Origin] = {("param", index)}
            if is_secret_name(param):
                origins.add(("secret", param))
            self.env[param] = frozenset(origins)

    # -- expression taint --------------------------------------------------
    def taint_of(self, node: ast.AST) -> Taint:
        if isinstance(node, ast.Name):
            found = self.env.get(node.id, _EMPTY)
            if is_secret_name(node.id):
                found = found | {("secret", node.id)}
            return found
        if isinstance(node, ast.Attribute):
            # Attribute reads do not inherit the receiver's taint
            # (``key.bit_length`` is metadata) but secret-named
            # attributes seed it (``context.kcek``).
            if is_secret_name(node.attr):
                return frozenset({("secret", node.attr)})
            if node.attr == "hex" or node.attr == "decode":
                # bound-method reference; handled at the Call.
                return self.taint_of(node.value)
            return _EMPTY
        if isinstance(node, ast.Subscript):
            return self.taint_of(node.value)
        if isinstance(node, ast.BinOp):
            return self.taint_of(node.left) | self.taint_of(node.right)
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, ast.BoolOp):
            merged: Taint = _EMPTY
            for value in node.values:
                merged |= self.taint_of(value)
            return merged
        if isinstance(node, ast.IfExp):
            return self.taint_of(node.body) | self.taint_of(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            merged = _EMPTY
            for element in node.elts:
                merged |= self.taint_of(element)
            return merged
        if isinstance(node, ast.Dict):
            merged = _EMPTY
            for value in node.values:
                if value is not None:
                    merged |= self.taint_of(value)
            return merged
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value)
        if isinstance(node, ast.JoinedStr):
            merged = _EMPTY
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    merged |= self.taint_of(value.value)
            return merged
        if isinstance(node, ast.Compare):
            return _EMPTY
        if isinstance(node, ast.Await):
            return self.taint_of(node.value)
        if isinstance(node, ast.NamedExpr):
            return self.taint_of(node.value)
        if isinstance(node, ast.Call):
            return self._taint_of_call(node)
        return _EMPTY

    def _call_name(self, node: ast.Call) -> str:
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return ""

    def _taint_of_call(self, node: ast.Call) -> Taint:
        name = self._call_name(node)
        if name in _METADATA_CALLS or name in _VERDICT_CALLS:
            return _EMPTY
        if _REDACTOR_RE.search(name.lower()):
            return _EMPTY
        if name in _SOURCE_CALLS:
            return frozenset({("secret", "%s() output" % name)})
        if name in {"str", "repr", "format", "bytes", "bytearray",
                    "hex", "join"}:
            merged: Taint = _EMPTY
            for arg in node.args:
                merged |= self.taint_of(arg)
            if isinstance(node.func, ast.Attribute):
                merged |= self.taint_of(node.func.value)
            return merged
        resolved = self.analysis.resolve_call(
            self.fn, self.module_summary, node)
        if resolved is not None:
            callee = self.analysis.summaries.get(resolved)
            if callee is not None:
                merged = _EMPTY
                if callee.returns_secret:
                    merged |= {("secret", callee.secret_label
                                or callee.qualname)}
                for index, argument in self._arguments(callee, node):
                    if index in callee.params_to_return:
                        merged |= self.taint_of(argument)
                return merged
        # Unresolved call: conservatively forward argument taint —
        # provider methods like aes_unwrap(kdev, ...) *return* key
        # material derived from their arguments.
        merged = _EMPTY
        for arg in node.args:
            merged |= self.taint_of(arg)
        for keyword in node.keywords:
            merged |= self.taint_of(keyword.value)
        return merged

    def _arguments(self, callee: FunctionSummary, node: ast.Call
                   ) -> List[Tuple[int, ast.AST]]:
        """(parameter index, argument expression) pairs for a call."""
        pairs = []
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                continue
            if position < len(callee.params):
                pairs.append((position, arg))
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            if keyword.arg in callee.params:
                pairs.append((callee.params.index(keyword.arg),
                              keyword.value))
        return pairs

    # -- sinks -------------------------------------------------------------
    def _sink(self, kind: str, node: ast.AST, taint: Taint,
              via: Optional[SinkFlow] = None) -> None:
        """Record a tainted value reaching a sink of ``kind``."""
        secrets = sorted(str(label) for tag, label in taint
                         if tag == "secret")
        params = sorted(index for tag, index in taint
                        if tag == "param")
        line = getattr(node, "lineno", self.fn.line)
        column = getattr(node, "col_offset", 0)
        if secrets and self.collect:
            if via is not None:
                trail = " -> ".join(via.path[:_MAX_PATH])
                message = ("secret %r flows into a %s "
                           "(interprocedural; path: %s -> %s)"
                           % (secrets[0], via.kind,
                              self.fn.qualname, trail))
            else:
                message = "secret %r reaches a %s" % (secrets[0], kind)
            self.findings.append(TaintFinding(
                module=self.fn.module, line=line, column=column,
                message=message))
        for index in params:
            if index in self.result.param_sinks:
                continue
            if via is not None:
                path = ((self.fn.qualname,) + via.path)[:_MAX_PATH]
                flow = SinkFlow(kind=via.kind, line=line, path=path)
            else:
                flow = SinkFlow(kind=kind, line=line,
                                path=(self.fn.qualname,))
            self.result.param_sinks[index] = flow

    def _receiver_chain(self, func: ast.Attribute) -> str:
        parts = []
        cursor = func.value
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if isinstance(cursor, ast.Name):
            parts.append(cursor.id)
        return ".".join(reversed(parts)).lower()

    def _scan_call_sinks(self, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            # json.dumps via ``from json import dumps``.
            if isinstance(func, ast.Name) and func.id in {"dumps",
                                                          "dump"}:
                for arg in node.args:
                    self._sink("JSON serialization", node,
                               self.taint_of(arg))
            return
        receiver = self._receiver_chain(func)
        method = func.attr
        if method in _LOG_METHODS \
                and receiver.split(".")[-1] in _LOGGER_NAMES:
            for arg in node.args:
                self._sink("log call", node, self.taint_of(arg))
        elif method in _TRACER_METHODS and "tracer" in receiver:
            for arg in list(node.args) \
                    + [kw.value for kw in node.keywords]:
                self._sink("trace attribute", node, self.taint_of(arg))
        elif method == "set" \
                and receiver.split(".")[-1] in self.span_vars:
            for arg in node.args:
                self._sink("trace attribute", node, self.taint_of(arg))
        elif method in _METRICS_METHODS and "metrics" in receiver:
            for arg in list(node.args) \
                    + [kw.value for kw in node.keywords]:
                self._sink("metrics label", node, self.taint_of(arg))
        elif method in {"dumps", "dump"} \
                and receiver.split(".")[-1] == "json":
            for arg in node.args:
                self._sink("JSON serialization", node,
                           self.taint_of(arg))

    def _scan_interprocedural(self, node: ast.Call) -> None:
        resolved = self.analysis.resolve_call(
            self.fn, self.module_summary, node)
        if resolved is None:
            return
        callee = self.analysis.summaries.get(resolved)
        if callee is None or not callee.param_sinks:
            return
        for index, argument in self._arguments(callee, node):
            flow = callee.param_sinks.get(index)
            if flow is None:
                continue
            taint = self.taint_of(argument)
            if not taint:
                continue
            # A secret-named callee parameter already produces the
            # intraprocedural finding inside the callee; reporting the
            # call site too would double-count one flow.
            param_name = callee.params[index] \
                if index < len(callee.params) else ""
            remote = frozenset(
                origin for origin in taint
                if origin[0] == "secret"
                and not is_secret_name(param_name))
            params_only = frozenset(origin for origin in taint
                                    if origin[0] == "param")
            self._sink(flow.kind, node, remote | params_only, via=flow)

    # -- statements --------------------------------------------------------
    def _assign_target(self, target: ast.AST, taint: Taint,
                       value: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) \
                    and len(value.elts) == len(target.elts):
                for element, sub in zip(target.elts, value.elts):
                    self._assign_target(element, self.taint_of(sub),
                                        sub)
            else:
                for element in target.elts:
                    self._assign_target(element, taint, None)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, taint, None)

    def _scan_expression_tree(self, node: ast.AST) -> None:
        """Visit every call in an expression for sinks and summaries."""
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                self._scan_call_sinks(child)
                self._scan_interprocedural(child)
            elif isinstance(child, ast.JoinedStr):
                for value in child.values:
                    if isinstance(value, ast.FormattedValue):
                        self._sink("formatted string "
                                   "(f-string interpolation)",
                                   value.value,
                                   self.taint_of(value.value))

    def _scan_statements(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self._scan_statement(statement)

    def _scan_statement(self, statement: ast.stmt) -> None:
        if isinstance(statement, (ast.FunctionDef,
                                  ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            return
        if isinstance(statement, ast.Assign):
            self._scan_expression_tree(statement.value)
            taint = self.taint_of(statement.value)
            for target in statement.targets:
                self._assign_target(target, taint, statement.value)
            return
        if isinstance(statement, ast.AnnAssign):
            if statement.value is not None:
                self._scan_expression_tree(statement.value)
                self._assign_target(statement.target,
                                    self.taint_of(statement.value),
                                    statement.value)
            return
        if isinstance(statement, ast.AugAssign):
            self._scan_expression_tree(statement.value)
            if isinstance(statement.target, ast.Name):
                merged = self.env.get(statement.target.id, _EMPTY) \
                    | self.taint_of(statement.value)
                self.env[statement.target.id] = merged
            return
        if isinstance(statement, ast.Return):
            if statement.value is not None:
                self._scan_expression_tree(statement.value)
                taint = self.taint_of(statement.value)
                secrets = [label for tag, label in taint
                           if tag == "secret"]
                if secrets and not self.result.returns_secret:
                    self.result.returns_secret = True
                    self.result.secret_label = str(sorted(
                        str(label) for label in secrets)[0])
                params = frozenset(index for tag, index in taint
                                   if tag == "param")
                self.result.params_to_return |= params
            return
        if isinstance(statement, ast.Raise):
            if statement.exc is not None:
                self._scan_expression_tree(statement.exc)
                if isinstance(statement.exc, ast.Call):
                    values = list(statement.exc.args) \
                        + [kw.value for kw in statement.exc.keywords]
                else:
                    values = [statement.exc]
                for value in values:
                    self._sink("exception message", statement,
                               self.taint_of(value))
            return
        if isinstance(statement, ast.Expr):
            self._scan_expression_tree(statement.value)
            return
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            for item in statement.items:
                self._scan_expression_tree(item.context_expr)
                if isinstance(item.optional_vars, ast.Name) \
                        and isinstance(item.context_expr, ast.Call) \
                        and isinstance(item.context_expr.func,
                                       ast.Attribute) \
                        and item.context_expr.func.attr == "span":
                    self.span_vars.add(item.optional_vars.id)
            self._scan_statements(statement.body)
            return
        if isinstance(statement, (ast.If, ast.While)):
            self._scan_expression_tree(statement.test)
            self._scan_statements(statement.body)
            self._scan_statements(statement.orelse)
            return
        if isinstance(statement, (ast.For, ast.AsyncFor)):
            self._scan_expression_tree(statement.iter)
            self._assign_target(statement.target,
                                self.taint_of(statement.iter), None)
            self._scan_statements(statement.body)
            self._scan_statements(statement.orelse)
            return
        if isinstance(statement, ast.Try):
            self._scan_statements(statement.body)
            for handler in statement.handlers:
                self._scan_statements(handler.body)
            self._scan_statements(statement.orelse)
            self._scan_statements(statement.finalbody)
            return
        # Everything else (pass, global, import, assert, delete, ...):
        # scan embedded expressions for sinks.
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.expr):
                self._scan_expression_tree(child)

    def run(self) -> Tuple[FunctionSummary, List[TaintFinding]]:
        body = getattr(self.node, "body", [])
        # Pass 1 warms the environment so loops and forward references
        # settle; only pass 2 records sinks and findings.
        saved_collect = self.collect
        self.collect = False
        findings_off = self.findings
        self._scan_statements(body)
        self.collect = saved_collect
        self.findings = [] if saved_collect else findings_off
        self.result = FunctionSummary(qualname=self.fn.qualname,
                                      params=self.fn.params)
        self._scan_statements(body)
        return self.result, self.findings


class DataflowAnalysis:
    """Project-wide fixpoint over per-function taint summaries."""

    def __init__(self, graph: CallGraph,
                 modules: Dict[str, Tuple[ast.AST, ModuleSummary]]
                 ) -> None:
        self.graph = graph
        self.modules = modules
        self.summaries: Dict[str, FunctionSummary] = {}
        self.findings_by_module: Dict[str, List[TaintFinding]] = {}
        self._bodies: Dict[str, ast.AST] = {}
        self._index_bodies()
        self._fixpoint()
        self._collect_findings()

    # -- body lookup -------------------------------------------------------
    def _index_bodies(self) -> None:
        for module in sorted(self.modules):
            tree, _summary = self.modules[module]
            self._walk_defs(module, tree, [])

    def _walk_defs(self, module: str, node: ast.AST,
                   path: List[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qualname = ".".join([module] + path + [child.name])
                if not isinstance(child, ast.ClassDef):
                    self._bodies[qualname] = child
                self._walk_defs(module, child, path + [child.name])
            else:
                self._walk_defs(module, child, path)

    # -- call resolution (shared with the analyzer) ------------------------
    def resolve_call(self, fn: FunctionNode, summary: ModuleSummary,
                     node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Name):
            module_level = "%s.%s" % (fn.module, func.id)
            if module_level in self.graph.functions:
                return module_level
            if module_level in self.graph.classes:
                return self.graph.method_on(module_level, "__init__")
            imported = summary.imports.get(func.id)
            if imported is not None and imported.symbol is not None:
                dotted = "%s.%s" % (imported.module, imported.symbol)
                if dotted in self.graph.functions:
                    return dotted
                if dotted in self.graph.classes:
                    return self.graph.method_on(dotted, "__init__")
            return None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) \
                    and func.value.id in {"self", "cls"} \
                    and fn.owner_class is not None:
                return self.graph.method_on(fn.owner_class, func.attr)
            if isinstance(func.value, ast.Name):
                imported = summary.imports.get(func.value.id)
                if imported is not None and imported.symbol is None:
                    dotted = "%s.%s" % (imported.module, func.attr)
                    if dotted in self.graph.functions:
                        return dotted
        return None

    # -- the fixpoint ------------------------------------------------------
    def _analyze(self, qualname: str,
                 collect: bool) -> Tuple[FunctionSummary,
                                         List[TaintFinding]]:
        fn = self.graph.functions[qualname]
        node = self._bodies.get(qualname)
        if node is None:
            return FunctionSummary(qualname=qualname,
                                   params=fn.params), []
        _tree, module_summary = self.modules[fn.module]
        analyzer = _FunctionAnalyzer(self, fn, node, module_summary,
                                     collect)
        return analyzer.run()

    def _fixpoint(self) -> None:
        order = [fn.qualname for fn in self.graph.sorted_functions()
                 if fn.module in self.modules]
        reverse: Dict[str, Set[str]] = {}
        for qualname in order:
            for site in self.graph.edges_from(qualname):
                reverse.setdefault(site.callee, set()).add(qualname)
        for qualname in order:
            fn = self.graph.functions[qualname]
            self.summaries[qualname] = FunctionSummary(
                qualname=qualname, params=fn.params)
        pending = list(order)
        queued = set(pending)
        rounds = 0
        budget = max(64, 16 * len(order))
        while pending and rounds < budget:
            rounds += 1
            qualname = pending.pop(0)
            queued.discard(qualname)
            fresh, _findings = self._analyze(qualname, collect=False)
            if self.summaries[qualname].merge(fresh):
                for caller in sorted(reverse.get(qualname, ())):
                    if caller not in queued:
                        pending.append(caller)
                        queued.add(caller)

    def _collect_findings(self) -> None:
        for qualname in [fn.qualname
                         for fn in self.graph.sorted_functions()
                         if fn.module in self.modules]:
            _summary, findings = self._analyze(qualname, collect=True)
            for finding in findings:
                self.findings_by_module.setdefault(
                    finding.module, []).append(finding)
        for module in self.findings_by_module:
            self.findings_by_module[module].sort(
                key=lambda f: (f.line, f.column, f.message))

    def findings_for(self, module: str) -> List[TaintFinding]:
        return list(self.findings_by_module.get(module, ()))
