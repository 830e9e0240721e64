"""The analyzer core: scan, parse, run rules, suppress, baseline.

The pipeline for one invocation:

1. collect ``.py`` files from the given paths (directories are walked,
   ``__pycache__`` and dotted directories skipped);
2. parse each file once, derive its dotted module name (``src/`` and
   everything above the last ``repro``/``src`` path component is
   stripped, so ``src/repro/drm/session.py`` → ``repro.drm.session``
   and fixture trees like ``tmp/repro/drm/x.py`` scope identically);
3. build the :class:`~repro.lint.graph.ProjectGraph`: the
   whole-program call graph and taint fixpoint;
4. run every enabled rule over every module inside its scope;
5. drop findings covered by a *justified* inline suppression, report
   defective suppressions (REP001/REP002) as findings;
6. fingerprint what is left and split it against the committed
   baseline.

A file that fails to parse yields a single REP003 finding rather than
aborting the run: the lint gate must degrade loudly, not crash.
"""

import ast
import os
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from .baseline import Baseline, assign_fingerprints
from .config import LintConfig
from .graph import ModuleSummary, ProjectGraph, summarize_module
from .rules import all_rules
from .suppressions import build_suppression_index, parse_suppressions

#: Meta rule id for files the parser rejects.
PARSE_ERROR = "REP003"


@dataclass(frozen=True)
class Finding:
    """One decorated analyzer finding."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    snippet: str = ""

    def render(self) -> str:
        """``path:line:col: RULE message`` (the text reporter's line)."""
        return "%s:%d:%d: %s %s" % (self.path, self.line,
                                    self.column + 1, self.rule,
                                    self.message)


@dataclass
class ModuleContext:
    """Everything the rules can see about one module."""

    name: str
    path: str
    tree: ast.AST
    source_lines: List[str]
    is_package: bool
    summary: ModuleSummary

    def functions(self) -> Iterator[ast.AST]:
        """Every function/method definition in the module."""
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def compares_with_function(self) -> Iterator[Tuple[str, ast.Compare]]:
        """(enclosing function name, Compare node) pairs.

        The enclosing name is ``"<module>"`` at module level; rules use
        it to exempt specific functions (e.g. ``constant_time_equal``
        comparing its own accumulator).
        """
        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    yield from visit(child, child.name)
                else:
                    if isinstance(child, ast.Compare):
                        yield scope, child
                    yield from visit(child, scope)

        yield from visit(self.tree, "<module>")

    def snippet(self, line: int) -> str:
        """The source text of ``line`` (1-based), or empty."""
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1]
        return ""


@dataclass
class LintResult:
    """Outcome of one analyzer run."""

    findings: List[Finding] = field(default_factory=list)     # new
    baselined: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def clean(self) -> bool:
        """Whether the run produced no new findings."""
        return not self.findings

    @property
    def all_current(self) -> List[Finding]:
        """New plus baselined findings — what ``--update-baseline`` saves."""
        return sorted(self.findings + self.baselined,
                      key=lambda f: (f.path, f.line, f.column, f.rule))


def module_name_for(path: str) -> Tuple[str, bool]:
    """(dotted module name, is_package) for a file path.

    The name starts at the path component after the *last* ``src``
    component when present, else at the last ``repro`` component, else
    it is the bare stem — so source trees, fixture trees, and loose
    files all scope sensibly.
    """
    parts = list(os.path.splitext(os.path.abspath(path))[0].split(os.sep))
    parts = [part for part in parts if part]
    if "src" in parts:
        start = len(parts) - 1 - parts[::-1].index("src") + 1
    elif "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
    else:
        start = len(parts) - 1
    module_parts = parts[start:]
    is_package = module_parts[-1] == "__init__"
    if is_package:
        module_parts = module_parts[:-1]
    return ".".join(module_parts) or parts[-1], is_package


def collect_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    collected = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d != "__pycache__" and not d.startswith("."))
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        collected.append(os.path.join(dirpath, filename))
        elif path.endswith(".py"):
            collected.append(path)
    return collected


class LintEngine:
    """Runs the registered rules over a set of paths."""

    def __init__(self, config: Optional[LintConfig] = None,
                 rules=None) -> None:
        self.config = config if config is not None else LintConfig()
        self.rules = tuple(rules) if rules is not None else all_rules()

    # -- parsing ----------------------------------------------------------
    def _load_modules(self, files: Sequence[str]
                      ) -> Tuple[List[ModuleContext], List[Finding]]:
        contexts = []
        errors = []
        for path in files:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
                tree = ast.parse(source, filename=path)
            except (OSError, SyntaxError, ValueError) as exc:
                line = getattr(exc, "lineno", None) or 1
                errors.append(Finding(
                    rule=PARSE_ERROR, path=path, line=line, column=0,
                    message="file does not parse: %s" % exc))
                continue
            name, is_package = module_name_for(path)
            contexts.append(ModuleContext(
                name=name, path=path, tree=tree,
                source_lines=source.splitlines(),
                is_package=is_package,
                summary=summarize_module(name, tree, is_package)))
        return contexts, errors

    # -- per-module scan --------------------------------------------------
    def _check_module(self, ctx: ModuleContext, project: ProjectGraph,
                      known_ids) -> Tuple[List[Finding], List[Finding]]:
        """(reported, suppressed) findings for one module."""
        module_findings = []
        for rule in self.rules:
            rule_config = self.config.rule(rule.id)
            if not rule_config.enabled:
                continue
            if not rule_config.applies_to(ctx.name,
                                          rule.default_scopes):
                continue
            for hit in rule.check(ctx, project):
                module_findings.append(Finding(
                    rule=rule.id, path=ctx.path, line=hit.line,
                    column=hit.column, message=hit.message,
                    snippet=ctx.snippet(hit.line)))

        raw: List[Finding] = []
        suppressed: List[Finding] = []
        index, problems = build_suppression_index(
            parse_suppressions(ctx.source_lines), known_ids)
        for finding in module_findings:
            if (finding.line, finding.rule) in index:
                suppressed.append(finding)
            else:
                raw.append(finding)
        for problem in problems:
            raw.append(Finding(
                rule=problem.rule, path=ctx.path, line=problem.line,
                column=0, message=problem.message,
                snippet=ctx.snippet(problem.line)))
        return raw, suppressed

    # -- the run ----------------------------------------------------------
    def run(self, paths: Sequence[str],
            baseline: Optional[Baseline] = None) -> LintResult:
        """Analyze ``paths`` and split findings against ``baseline``."""
        files = collect_files(paths)
        contexts, parse_errors = self._load_modules(files)

        project = ProjectGraph([(ctx.name, ctx.tree, ctx.summary)
                                for ctx in contexts])

        known_ids = {rule.id for rule in self.rules}
        result = LintResult(files_scanned=len(files))
        raw: List[Finding] = list(parse_errors)
        suppressed: List[Finding] = []

        for ctx in contexts:
            module_raw, module_suppressed = self._check_module(
                ctx, project, known_ids)
            raw.extend(module_raw)
            suppressed.extend(module_suppressed)

        raw.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
        baseline = baseline if baseline is not None else Baseline()
        for finding, print_ in zip(raw, assign_fingerprints(raw)):
            if print_ in baseline:
                result.baselined.append(finding)
            else:
                result.findings.append(finding)
        result.suppressed = suppressed
        return result
