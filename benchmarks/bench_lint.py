"""Analyzer cost: end-to-end lint wall-clock over ``src/``.

The lint gate runs on every CI build, so its cost is a tax on every
change; this benchmark tracks it across PRs the same way
``BENCH_kernel.json`` tracks scheduler throughput. Two measurements:

* **sequential** — the full pipeline (parse, call graph, taint
  fixpoint, rules), which must report the committed tree clean;
* **graph+fixpoint share** — the interprocedural build alone, so a
  regression can be attributed to the engine vs the rules.

Run directly (``python benchmarks/bench_lint.py``) it prints the
table and emits ``BENCH_lint.json`` in the shared bench-report schema
(``benchmarks/harness.py``): everything here is wall-clock, so every
metric is informational and the clean-tree check is the only verdict.
``--out PATH`` redirects the artifact.
"""

import ast
import pathlib
import sys
import time

import harness

from repro.lint import LintEngine
from repro.lint.callgraph import build_call_graph
from repro.lint.dataflow import DataflowAnalysis
from repro.lint.engine import collect_files, module_name_for
from repro.lint.graph import summarize_module

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
TARGET = str(REPO_ROOT / "src")


def _lint():
    engine = LintEngine()
    start = time.perf_counter()
    result = engine.run([TARGET])
    wall = time.perf_counter() - start
    return wall, result


def _engine_only():
    files = collect_files([TARGET])
    modules = []
    for path in files:
        name, is_package = module_name_for(path)
        tree = ast.parse(pathlib.Path(path).read_text(encoding="utf-8"),
                         filename=path)
        modules.append((name, tree,
                        summarize_module(name, tree, is_package)))
    start = time.perf_counter()
    graph = build_call_graph(modules)
    DataflowAnalysis(graph, {n: (t, s) for n, t, s in modules})
    return time.perf_counter() - start, len(files)


def main(argv) -> int:
    out = "BENCH_lint.json"
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]

    seq_wall, seq_result = _lint()
    engine_wall, files = _engine_only()

    report = harness.BenchReport(
        bench="lint", seed="-",
        metrics=(
            harness.Metric("files", files, "files",
                           direction="higher"),
            harness.Metric("sequential.wall_seconds", seq_wall, "s",
                           direction="lower"),
            harness.Metric("sequential.files_per_second",
                           files / seq_wall, "files/s",
                           direction="higher"),
            harness.Metric("callgraph_and_fixpoint.wall_seconds",
                           engine_wall, "s", direction="lower"),
        ),
        verdicts={"committed-tree-clean": seq_result.clean})
    print("mode          files  wall [s]  files/s")
    print("sequential    %-6d %-9.2f %.0f"
          % (files, seq_wall, files / seq_wall))
    print("graph+fixpoint share: %.2fs" % engine_wall)
    report.write(out)
    print("wrote %s" % out)
    print("committed tree clean %s"
          % ("PASSED" if seq_result.clean else "FAILED"))
    return 0 if seq_result.clean else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
