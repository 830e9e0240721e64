"""Deterministic profiler: fold tracer spans into exact call trees.

The paper's contribution is *attribution* — Table 1 prices each
primitive, Figures 5-7 attribute whole use cases to phases. A
:class:`~repro.obs.tracer.Tracer` already records every priced operation
span and every structural span on the virtual cycle timeline; this
module folds that flat span list into a call tree keyed by span *path*
(the chain of enclosing structural spans), with exact self/cumulative
cycle counts per node.

Because every operation span carries the exact cycles the cost model
charged, the tree reconciles bit-exactly with
:class:`~repro.core.model.CostBreakdown`: the root's cumulative cycles
equal ``CostBreakdown.total_cycles`` for the same trace and profile.
There is no sampling, no wall clock, no jitter — the same seed produces
the same tree, byte-identical exports included.

Exports:

* **collapsed stacks** (:meth:`ProfileTree.collapsed`) — the
  ``path;path;leaf cycles`` format consumed by flamegraph.pl and most
  flame-graph viewers;
* **speedscope** (:meth:`ProfileTree.to_speedscope`) — a ``sampled``
  profile (frames + weighted stacks) loadable at https://speedscope.app;
  the sampled encoding maps one-to-one onto collapsed stacks, so the
  two exports always agree;
* **diff** (:func:`diff`) — path-keyed comparison of two trees (SW vs
  HW, clean vs lossy), reporting the top regressed paths.
"""

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .tracer import OPERATION_CATEGORY, STRUCTURE_CATEGORY, Tracer

#: Schema stamp on speedscope exports (theirs, not ours).
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

#: Name given to the synthetic root node.
ROOT_NAME = "(root)"


@dataclass
class ProfileNode:
    """One node of the folded call tree (slotted: a fold makes many)."""

    __slots__ = ("name", "calls", "self_cycles", "children")

    name: str
    calls: int
    self_cycles: int
    children: "Dict[str, ProfileNode]"

    @property
    def cumulative_cycles(self) -> int:
        """Own cycles plus every descendant's, exactly."""
        return self.self_cycles + sum(
            child.cumulative_cycles for child in self.children.values())

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able nested representation (insertion-ordered)."""
        return {
            "name": self.name,
            "calls": self.calls,
            "self_cycles": self.self_cycles,
            "cumulative_cycles": self.cumulative_cycles,
            "children": [child.to_dict()
                         for child in self.children.values()],
        }


@dataclass
class ProfileTree:
    """A folded span tree for one traced run under one architecture."""

    root: ProfileNode
    architecture: str = ""
    scenario: str = ""
    seed: str = ""

    @classmethod
    def from_tracer(cls, tracer: Tracer, architecture: str = "",
                    scenario: str = "", seed: str = "") -> "ProfileTree":
        """Fold ``tracer``'s spans into an exact call tree.

        Nesting comes from the tracer's open-span stack
        (:attr:`~repro.obs.tracer.Span.parent`), not from interval
        containment — zero-cycle structural spans make intervals
        ambiguous, parent links never are. Sibling spans with the same
        name merge into one node (classic profile folding), so ``calls``
        counts how many spans folded in. ``tracer.spans`` is already in
        index order, so a parent is always folded before its children.
        """
        if architecture == "":
            architecture = tracer.profile.name
        root = ProfileNode(ROOT_NAME, 1, 0, {})
        nodes: Dict[int, ProfileNode] = {}
        for span in tracer.spans:
            siblings = (root if span.parent is None
                        else nodes[span.parent]).children
            node = siblings.get(span.name)
            if node is None:
                node = siblings[span.name] = ProfileNode(span.name, 0, 0, {})
            node.calls += 1
            category = span.category
            if category == OPERATION_CATEGORY:
                node.self_cycles += span.args["cycles"]
            elif category == STRUCTURE_CATEGORY:
                nodes[span.index] = node
        return cls(root=root, architecture=architecture,
                   scenario=scenario, seed=seed)

    @property
    def total_cycles(self) -> int:
        """Root cumulative cycles — the whole run, exactly."""
        return self.root.cumulative_cycles

    # -- flat views ------------------------------------------------------
    def paths(self) -> "Dict[Tuple[str, ...], Tuple[int, int, int]]":
        """``{path: (self_cycles, cumulative_cycles, calls)}``.

        Paths exclude the synthetic root; the empty-path entry is the
        root itself, so ``paths()[()][1] == total_cycles``.
        """
        out: Dict[Tuple[str, ...], Tuple[int, int, int]] = {}

        def walk(node: ProfileNode, prefix: Tuple[str, ...]) -> None:
            out[prefix] = (node.self_cycles, node.cumulative_cycles,
                           node.calls)
            for child in node.children.values():
                walk(child, prefix + (child.name,))

        walk(self.root, ())
        return out

    # -- collapsed stacks ------------------------------------------------
    def collapsed(self) -> str:
        """Flamegraph collapsed-stack lines, sorted for determinism.

        One ``a;b;c cycles`` line per node with non-zero self cycles.
        The line total is exactly :attr:`total_cycles`, so a flame graph
        built from this output attributes every priced cycle.
        """
        lines = []
        for path, (self_cycles, _cum, _calls) in self.paths().items():
            if self_cycles and path:
                lines.append("%s %d" % (";".join(path), self_cycles))
        return "\n".join(sorted(lines)) + ("\n" if lines else "")

    # -- speedscope ------------------------------------------------------
    def to_speedscope(self, name: Optional[str] = None) -> Dict[str, Any]:
        """A speedscope ``sampled`` profile document.

        Each tree node with self cycles becomes one weighted sample
        whose stack is its path; weights are exact cycle counts (unit
        ``none`` — speedscope has no cycle unit). Frames appear in
        first-use (DFS) order so the document is deterministic.
        """
        if name is None:
            name = "%s %s (seed %s)" % (self.architecture, self.scenario,
                                        self.seed)
        frames: List[Dict[str, str]] = []
        frame_index: Dict[str, int] = {}
        samples: List[List[int]] = []
        weights: List[int] = []

        def frame(frame_name: str) -> int:
            if frame_name not in frame_index:
                frame_index[frame_name] = len(frames)
                frames.append({"name": frame_name})
            return frame_index[frame_name]

        def walk(node: ProfileNode, stack: List[int]) -> None:
            stack = stack + [frame(node.name)]
            if node.self_cycles:
                samples.append(stack)
                weights.append(node.self_cycles)
            for child in node.children.values():
                walk(child, stack)

        for child in self.root.children.values():
            walk(child, [])

        total = sum(weights)
        return {
            "$schema": SPEEDSCOPE_SCHEMA,
            "name": name,
            "exporter": "repro-profiler",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": [{
                "type": "sampled",
                "name": name,
                "unit": "none",
                "startValue": 0,
                "endValue": total,
                "samples": samples,
                "weights": weights,
            }],
        }

    def write_speedscope(self, path: str,
                         name: Optional[str] = None) -> None:
        """Serialize :meth:`to_speedscope` deterministically to disk."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_speedscope(name), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")

    def write_collapsed(self, path: str) -> None:
        """Write :meth:`collapsed` lines to disk."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.collapsed())

    # -- rendering -------------------------------------------------------
    def render(self, max_depth: Optional[int] = None) -> str:
        """Indented text tree, children sorted by descending cycles."""
        total = self.total_cycles or 1
        lines = ["%-11s %-11s %-6s path"
                 % ("cumulative", "self", "calls")]

        def walk(node: ProfileNode, depth: int) -> None:
            if max_depth is not None and depth > max_depth:
                return
            share = 100.0 * node.cumulative_cycles / total
            lines.append("%-11d %-11d %-6d %s%s  (%.1f%%)"
                         % (node.cumulative_cycles, node.self_cycles,
                            node.calls, "  " * depth, node.name, share))
            for child in sorted(node.children.values(),
                                key=lambda c: (-c.cumulative_cycles,
                                               c.name)):
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def paths_from_collapsed(text: str) -> "Dict[Tuple[str, ...], int]":
    """Parse collapsed-stack lines back to ``{path: self_cycles}``.

    The exact inverse of :meth:`ProfileTree.collapsed` — used by the
    golden tests to prove the export round-trips losslessly.
    """
    out: Dict[Tuple[str, ...], int] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        stack, cycles = line.rsplit(" ", 1)
        out[tuple(stack.split(";"))] = int(cycles)
    return out


def paths_from_speedscope(document: Dict[str, Any]
                          ) -> "Dict[Tuple[str, ...], int]":
    """Recover ``{path: self_cycles}`` from a speedscope document."""
    frames = [frame["name"]
              for frame in document["shared"]["frames"]]
    profile = document["profiles"][document.get("activeProfileIndex", 0)]
    out: Dict[Tuple[str, ...], int] = {}
    for stack, weight in zip(profile["samples"], profile["weights"]):
        path = tuple(frames[index] for index in stack)
        out[path] = out.get(path, 0) + weight
    return out


# -- diffing ---------------------------------------------------------------

@dataclass(frozen=True)
class PathDelta:
    """One path's change between two profiles."""

    path: Tuple[str, ...]
    before_cycles: int
    after_cycles: int

    @property
    def delta(self) -> int:
        """Cumulative-cycle change (positive = regression)."""
        return self.after_cycles - self.before_cycles

    @property
    def ratio(self) -> Optional[float]:
        """after/before, ``None`` for newly-appeared paths."""
        if not self.before_cycles:
            return None
        return self.after_cycles / self.before_cycles


@dataclass
class ProfileDiff:
    """Path-keyed comparison of two profile trees."""

    before: ProfileTree
    after: ProfileTree
    deltas: List[PathDelta]

    @property
    def total_delta(self) -> int:
        """Whole-run cumulative cycle change."""
        return self.after.total_cycles - self.before.total_cycles

    def regressions(self) -> List[PathDelta]:
        """Paths that got more expensive, worst first."""
        return [d for d in self.deltas if d.delta > 0]

    def render(self, top: int = 10) -> str:
        """The top regressed (and improved) paths as a text table."""
        label_before = self.before.architecture or "before"
        label_after = self.after.architecture or "after"
        if self.before.scenario != self.after.scenario:
            label_before += "/" + self.before.scenario
            label_after += "/" + self.after.scenario
        lines = ["profile diff: %s -> %s" % (label_before, label_after),
                 "total cycles: %d -> %d (%+d)"
                 % (self.before.total_cycles, self.after.total_cycles,
                    self.total_delta),
                 "",
                 "%-12s %-12s %-12s path"
                 % ("before", "after", "delta")]
        shown = self.deltas[:top]
        for delta in shown:
            lines.append("%-12d %-12d %+-12d %s"
                         % (delta.before_cycles, delta.after_cycles,
                            delta.delta, ";".join(delta.path)))
        hidden = len(self.deltas) - len(shown)
        if hidden > 0:
            lines.append("... %d more changed paths" % hidden)
        return "\n".join(lines)


def diff(before: ProfileTree, after: ProfileTree) -> ProfileDiff:
    """Compare two trees path-by-path (cumulative cycles).

    Only *leaf-level attribution* is compared — paths whose cumulative
    cycles changed — sorted worst regression first, then largest
    improvement, then path (fully deterministic).
    """
    before_paths = before.paths()
    after_paths = after.paths()
    deltas = []
    for path in set(before_paths) | set(after_paths):
        if not path:
            continue
        cycles_before = before_paths.get(path, (0, 0, 0))[1]
        cycles_after = after_paths.get(path, (0, 0, 0))[1]
        if cycles_before != cycles_after:
            deltas.append(PathDelta(path=path,
                                    before_cycles=cycles_before,
                                    after_cycles=cycles_after))
    deltas.sort(key=lambda d: (-d.delta, d.path))
    return ProfileDiff(before=before, after=after, deltas=deltas)
