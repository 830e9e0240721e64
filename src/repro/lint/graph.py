"""Per-module import tables and the project-wide analysis bundle.

Every interprocedural rule starts from the same per-module fact: an
**import table** mapping local aliases to the (module, symbol) they
resolve to, with relative imports resolved against the module's dotted
name. :func:`summarize_module` builds it (plus the module's direct
crypto-primitive imports, which REP201 reports), and
:class:`ProjectGraph` bundles the whole-program call graph and taint
fixpoint built on top of those tables.
"""

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

#: The package whose primitives must stay behind the provider.
CRYPTO_PACKAGE = "repro.crypto"

#: Crypto modules any layer may import freely (exception types only).
ALLOWED_CRYPTO_MODULES = frozenset({"repro.crypto.errors"})

#: Data types and size constants that carry no computation: importing
#: them cannot bypass metering.
ALLOWED_CRYPTO_NAMES = frozenset({
    "KemCiphertext", "RSAPrivateKey", "RSAPublicKey", "RSAKeyPair",
    "DIGEST_SIZE", "BLOCK_SIZE", "KEK_LENGTH", "SEMIBLOCK",
})


@dataclass(frozen=True)
class ImportedName:
    """One local alias introduced by an import statement."""

    alias: str                 # the name as visible in the module
    module: str                # resolved dotted module
    symbol: Optional[str]      # None for plain module imports
    line: int

    @property
    def dotted(self) -> str:
        """Fully dotted path this alias stands for."""
        return self.module + "." + self.symbol if self.symbol \
            else self.module

    @property
    def is_crypto_primitive(self) -> bool:
        """Whether using this name executes unmetered crypto."""
        if not (self.module == CRYPTO_PACKAGE
                or self.module.startswith(CRYPTO_PACKAGE + ".")):
            return False
        if self.module in ALLOWED_CRYPTO_MODULES:
            return False
        if self.symbol is not None and self.symbol in ALLOWED_CRYPTO_NAMES:
            return False
        return True


def resolve_relative(module_name: str, is_package: bool, level: int,
                     target: Optional[str]) -> str:
    """Resolve a ``from ..x import y`` module spec to a dotted name."""
    if level == 0:
        return target or ""
    parts = module_name.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[:len(parts) - (level - 1)]
    if target:
        parts = parts + target.split(".")
    return ".".join(parts)


def iter_imports(tree: ast.AST, module_name: str,
                 is_package: bool) -> Iterator[ImportedName]:
    """All aliases any import statement in ``tree`` introduces."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                # ``import a.b`` binds ``a``; ``import a.b as c`` binds
                # the full module to ``c``.
                module = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                yield ImportedName(alias=local, module=module,
                                   symbol=None, line=node.lineno)
        elif isinstance(node, ast.ImportFrom):
            base = resolve_relative(module_name, is_package,
                                    node.level, node.module)
            for alias in node.names:
                if alias.name == "*":
                    continue
                yield ImportedName(alias=alias.asname or alias.name,
                                   module=base, symbol=alias.name,
                                   line=node.lineno)


@dataclass
class ModuleSummary:
    """A module's import table and its direct crypto-primitive imports."""

    name: str
    imports: Dict[str, ImportedName] = field(default_factory=dict)
    crypto_imports: Tuple[ImportedName, ...] = ()

    def dotted_call_path(self, node: ast.Call) -> Optional[str]:
        """Fully dotted path of a call target (``datetime.datetime.now``).

        Unrolls the attribute chain and substitutes the root name
        through the import table, so aliases (``import datetime as dt``)
        resolve to canonical paths. Returns ``None`` for dynamic
        targets (calls on call results, subscripts, ...).
        """
        parts = []
        cursor = node.func
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        imported = self.imports.get(cursor.id)
        root = imported.dotted if imported is not None else cursor.id
        return ".".join([root] + list(reversed(parts)))


def summarize_module(name: str, tree: ast.AST,
                     is_package: bool) -> ModuleSummary:
    """Build the import table and crypto imports of one module."""
    summary = ModuleSummary(name=name)
    crypto = []
    for imported in iter_imports(tree, name, is_package):
        summary.imports[imported.alias] = imported
        if imported.is_crypto_primitive:
            crypto.append(imported)
    summary.crypto_imports = tuple(crypto)
    return summary


class ProjectGraph:
    """The whole-program analyses every rule can query.

    ``modules`` is a sequence of ``(name, tree, summary)`` triples for
    every parsed module; construction builds the
    :class:`~repro.lint.callgraph.CallGraph` and runs the
    :class:`~repro.lint.dataflow.DataflowAnalysis` fixpoint (REP202
    reachability and REP801 taint query them).
    """

    def __init__(self, modules) -> None:
        # Imported here: both modules import ModuleSummary from this one.
        from .callgraph import build_call_graph
        from .dataflow import DataflowAnalysis
        self.callgraph = build_call_graph(modules)
        self.dataflow = DataflowAnalysis(
            self.callgraph,
            {name: (tree, summary) for name, tree, summary in modules})
