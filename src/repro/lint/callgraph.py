"""Whole-program call graph over every scanned module.

A per-module import table cannot *prove* anything: a ``repro.drm``
entry point can reach a primitive through two helpers, and a secret
can flow through a formatting helper into a span attribute without any
single module looking wrong. This module builds the structure those
proofs need:

* a **function registry**: every function and method definition in the
  scanned tree, keyed by qualified name (``repro.drm.agent.DRMAgent.
  install``), with its parameter list;
* a **class registry**: methods and (project-resolvable) base classes,
  so ``self.helper()`` and single-module inheritance resolve;
* **call edges**: for every call site, the qualified name it resolves
  to — through ``from x import y`` aliases, ``import x as z`` module
  aliases, relative imports, local ``f = g`` rebindings, ``self.``
  method dispatch, and locally constructed instances
  (``obj = ClassName(...); obj.method()``);
* **reference edges**: a bare ``Name`` load of a known function outside
  call position (passed as a callback, stored in a table) becomes a
  conservative potential-call edge, so first-class function use never
  hides a path.

Unresolvable targets (calls on call results, attribute chains whose
root is unknown) keep their dotted path when one can be printed —
``repro.crypto.sha1.sha1`` stays classifiable as a crypto primitive by
prefix even when the crypto tree itself is outside the scanned paths
(fixture trees in tests) — and are dropped otherwise.

Everything is built and iterated in sorted order: two builds over the
same files are identical, regardless of file discovery order
(``tests/lint/test_callgraph.py`` holds this under Hypothesis).
"""

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .graph import ModuleSummary

#: Receiver names treated as the current instance inside a method.
_SELF_NAMES = frozenset({"self", "cls"})


@dataclass(frozen=True)
class FunctionNode:
    """One function or method definition in the scanned tree."""

    qualname: str              # repro.drm.agent.DRMAgent.install
    module: str                # repro.drm.agent
    name: str                  # DRMAgent.install (module-relative)
    line: int
    params: Tuple[str, ...]    # declared names, self/cls stripped
    owner_class: Optional[str] = None   # qualname of the owning class


@dataclass(frozen=True)
class CallSite:
    """One resolved call (or reference) edge out of a function."""

    caller: str                # caller qualname
    callee: str                # project qualname or external dotted path
    line: int
    is_reference: bool = False  # bare-name reference, not a call


@dataclass
class ClassInfo:
    """One class definition: its methods and resolvable bases."""

    qualname: str
    module: str
    name: str
    bases: Tuple[str, ...] = ()         # resolved base qualnames
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn


class CallGraph:
    """Functions, classes and call edges for the whole scanned tree."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionNode] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._edges: Dict[str, List[CallSite]] = {}

    # -- construction ------------------------------------------------------
    def add_function(self, node: FunctionNode) -> None:
        self.functions[node.qualname] = node
        self._edges.setdefault(node.qualname, [])

    def add_edge(self, site: CallSite) -> None:
        self._edges.setdefault(site.caller, []).append(site)

    def finalize(self) -> None:
        """Sort every edge list; the graph is append-only before this."""
        for caller in self._edges:
            self._edges[caller].sort(
                key=lambda s: (s.line, s.callee, s.is_reference))

    # -- queries -----------------------------------------------------------
    def edges_from(self, qualname: str) -> Tuple[CallSite, ...]:
        return tuple(self._edges.get(qualname, ()))

    def functions_in_module(self, module: str) -> List[FunctionNode]:
        return sorted((fn for fn in self.functions.values()
                       if fn.module == module),
                      key=lambda fn: (fn.line, fn.qualname))

    def sorted_functions(self) -> List[FunctionNode]:
        return [self.functions[name] for name in sorted(self.functions)]

    def method_on(self, class_qualname: str,
                  method: str) -> Optional[str]:
        """Resolve ``method`` on a class or its project-visible bases."""
        seen = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.bases)
        return None


class _ModuleIndexer(ast.NodeVisitor):
    """First pass: register every function, method and class."""

    def __init__(self, graph: CallGraph, module: str) -> None:
        self.graph = graph
        self.module = module
        self._class_stack: List[ClassInfo] = []
        self._func_stack: List[str] = []

    def _qualify(self, name: str) -> str:
        inner = [part for part in self._func_stack] + [name]
        if self._class_stack:
            prefix = self._class_stack[-1].qualname
            return "%s.%s" % (prefix, ".".join(inner))
        return "%s.%s" % (self.module, ".".join(inner))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualify(node.name)
        info = ClassInfo(qualname=qualname, module=self.module,
                         name=node.name)
        self.graph.classes[qualname] = info
        self._class_stack.append(info)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node) -> None:
        qualname = self._qualify(node.name)
        params = [arg.arg for arg in (node.args.posonlyargs
                                      + node.args.args
                                      + node.args.kwonlyargs)]
        is_method = bool(self._class_stack) and not self._func_stack
        if is_method and params and params[0] in _SELF_NAMES:
            params = params[1:]
        owner = self._class_stack[-1].qualname if is_method else None
        relative = qualname[len(self.module) + 1:]
        self.graph.add_function(FunctionNode(
            qualname=qualname, module=self.module, name=relative,
            line=node.lineno, params=tuple(params),
            owner_class=owner))
        if is_method:
            self._class_stack[-1].methods[node.name] = qualname
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function


class _EdgeBuilder(ast.NodeVisitor):
    """Second pass over one function body: resolve its call sites."""

    def __init__(self, graph: CallGraph, module: str,
                 summary: ModuleSummary, caller: FunctionNode,
                 body) -> None:
        self.graph = graph
        self.module = module
        self.summary = summary
        self.caller = caller
        #: local name -> qualname/dotted path of a function it aliases
        self.local_functions: Dict[str, str] = {}
        #: local name -> class qualname it instantiates
        self.local_instances: Dict[str, str] = {}
        self._body = body

    # -- name resolution ---------------------------------------------------
    def _resolve_name(self, name: str) -> Optional[str]:
        """The call target for a bare name used as a callable."""
        if name in self.local_functions:
            return self.local_functions[name]
        module_level = "%s.%s" % (self.module, name)
        if module_level in self.graph.functions:
            return module_level
        if module_level in self.graph.classes:
            return self._class_target(module_level)
        imported = self.summary.imports.get(name)
        if imported is not None and imported.symbol is not None:
            dotted = "%s.%s" % (imported.module, imported.symbol)
            return self._project_or_external(dotted)
        return None

    def _resolve_function_reference(self, name: str) -> Optional[str]:
        """A bare name that stands for a *function* (never a class)."""
        if name in self.local_functions:
            target = self.local_functions[name]
            if target in self.graph.functions:
                return target
            return None
        module_level = "%s.%s" % (self.module, name)
        if module_level in self.graph.functions:
            return module_level
        imported = self.summary.imports.get(name)
        if imported is not None and imported.symbol is not None:
            dotted = "%s.%s" % (imported.module, imported.symbol)
            if dotted in self.graph.functions:
                return dotted
        return None

    def _class_target(self, class_qualname: str) -> str:
        """Calling a class: edge to its __init__ when it has one."""
        init = self.graph.method_on(class_qualname, "__init__")
        return init if init is not None else class_qualname

    def _project_or_external(self, dotted: str) -> str:
        if dotted in self.graph.classes:
            return self._class_target(dotted)
        return dotted

    def _resolve_attribute_call(self, func: ast.Attribute
                                ) -> Optional[str]:
        # self.method() / cls.method() inside a class body.
        if isinstance(func.value, ast.Name) \
                and func.value.id in _SELF_NAMES \
                and self.caller.owner_class is not None:
            return self.graph.method_on(self.caller.owner_class,
                                        func.attr)
        # obj.method() on a locally constructed instance.
        if isinstance(func.value, ast.Name) \
                and func.value.id in self.local_instances:
            owner = self.local_instances[func.value.id]
            return self.graph.method_on(owner, func.attr)
        # module-alias attribute chains: dt.now(), repro.crypto.sha1.sha1().
        dotted = self.summary.dotted_call_path(
            ast.Call(func=func, args=[], keywords=[]))
        if dotted is None:
            return None
        if "." not in dotted:
            return None
        # The dotted path has the *substituted* root (``dt.now`` →
        # ``datetime.now``); the import-table key is the original
        # receiver name, so unroll the chain back to it.
        cursor = func.value
        while isinstance(cursor, ast.Attribute):
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        imported = self.summary.imports.get(cursor.id)
        if imported is None:
            # A plain object attribute (agent.storage.install) whose
            # receiver we know nothing about: no edge.
            return None
        # Attribute on an imported module (plain or via ``from package
        # import module as alias``) or symbol (Class.method).
        return self._project_or_external(dotted)

    # -- statement tracking ------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self._track_binding(node.targets, node.value)
        self.generic_visit(node)

    def _track_binding(self, targets, value) -> None:
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            return
        name = targets[0].id
        if isinstance(value, ast.Name):
            target = self._resolve_name(value.id)
            if target is not None:
                self.local_functions[name] = target
            return
        if isinstance(value, ast.Call) \
                and isinstance(value.func, ast.Name):
            target = self._resolve_name(value.func.id)
            if target is not None:
                fn = self.graph.functions.get(target)
                if fn is not None and fn.name.endswith("__init__") \
                        and fn.owner_class is not None:
                    self.local_instances[name] = fn.owner_class
                elif target in self.graph.classes:
                    self.local_instances[name] = target

    # -- call and reference edges ------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        target: Optional[str] = None
        if isinstance(node.func, ast.Name):
            target = self._resolve_name(node.func.id)
            # The callee Name is a call, not a first-class reference.
            self._callee_names.add(id(node.func))
        elif isinstance(node.func, ast.Attribute):
            target = self._resolve_attribute_call(node.func)
        if target is not None:
            self.graph.add_edge(CallSite(
                caller=self.caller.qualname, callee=target,
                line=node.lineno))
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        """Bare Name loads of known functions are reference edges."""
        if id(node) in self._callee_names \
                or not isinstance(node.ctx, ast.Load):
            return
        target = self._resolve_function_reference(node.id)
        if target is None:
            return
        self.graph.add_edge(CallSite(
            caller=self.caller.qualname, callee=target,
            line=node.lineno, is_reference=True))

    def visit_FunctionDef(self, node) -> None:
        # Nested definitions get their own _EdgeBuilder pass.
        return

    visit_AsyncFunctionDef = visit_FunctionDef

    def run(self) -> None:
        self._callee_names: Set[int] = set()
        for statement in self._body:
            self.visit(statement)


def _base_name(graph: CallGraph, summary: ModuleSummary, module: str,
               base: ast.expr) -> Optional[str]:
    """Resolve a class base expression to a project class qualname."""
    if isinstance(base, ast.Name):
        local = "%s.%s" % (module, base.id)
        if local in graph.classes:
            return local
        imported = summary.imports.get(base.id)
        if imported is not None and imported.symbol is not None:
            dotted = "%s.%s" % (imported.module, imported.symbol)
            if dotted in graph.classes:
                return dotted
            return dotted
    elif isinstance(base, ast.Attribute) \
            and isinstance(base.value, ast.Name):
        imported = summary.imports.get(base.value.id)
        if imported is not None and imported.symbol is None:
            return "%s.%s" % (imported.module, base.attr)
    return None


def build_call_graph(modules: Sequence[Tuple[str, ast.AST,
                                             ModuleSummary]]
                     ) -> CallGraph:
    """Build the project call graph from (name, tree, summary) triples.

    The result is independent of the order of ``modules``: both passes
    iterate a sorted copy, and edge lists are sorted at the end.
    """
    ordered = sorted(modules, key=lambda entry: entry[0])
    graph = CallGraph()
    # Pass 1: register every definition so cross-module calls resolve.
    for name, tree, _summary in ordered:
        _ModuleIndexer(graph, name).visit(tree)
    # Pass 1b: resolve class bases now that every class is known.
    for name, tree, summary in ordered:
        def resolve_bases(node, path):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    qualname = ".".join(path + [child.name])
                    info = graph.classes.get(qualname)
                    if info is not None:
                        info.bases = tuple(
                            resolved for resolved in
                            (_base_name(graph, summary, name, base)
                             for base in child.bases)
                            if resolved is not None)
                    resolve_bases(child, path + [child.name])
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    resolve_bases(child, path + [child.name])
                else:
                    resolve_bases(child, path)
        resolve_bases(tree, [name])
    # Pass 2: edges, function by function in definition order.
    for name, tree, summary in ordered:
        _build_module_edges(graph, name, tree, summary)
    graph.finalize()
    return graph


def _build_module_edges(graph: CallGraph, module: str, tree: ast.AST,
                        summary: ModuleSummary) -> None:
    def walk(node, class_stack: Tuple[str, ...],
             func_stack: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, class_stack + (child.name,), func_stack)
            elif isinstance(child, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
                inner = ".".join(class_stack + func_stack
                                 + (child.name,))
                qualname = "%s.%s" % (module, inner)
                caller = graph.functions.get(qualname)
                if caller is not None:
                    _EdgeBuilder(graph, module, summary, caller,
                                 child.body).run()
                walk(child, class_stack, func_stack + (child.name,))
            else:
                walk(child, class_stack, func_stack)

    walk(tree, (), ())
