"""The ``python -m repro lint`` command.

Exit codes: 0 clean (no new findings), 1 new findings, 2 usage error —
so CI can gate on the exit status while parsing ``--format json`` for
attribution.
"""

import argparse
import json
import os
import sys
from typing import List

from .baseline import Baseline
from .config import LintConfig
from .engine import LintEngine
from .reporters import render_json, render_sarif, render_text
from .rules import all_rules


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the lint command's arguments on ``parser``."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyze "
                             "(default: src)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="baseline file (default: lint-baseline.json "
                             "or [tool.repro-lint] baseline)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline; report every finding")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the current "
                             "findings and exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the registered rules and exit")


def _list_rules() -> int:
    for rule in all_rules():
        scopes = ", ".join(rule.default_scopes) or "(everywhere)"
        print("%s  %s" % (rule.id, rule.title))
        print("        scope: %s" % scopes)
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute the lint command; returns the process exit code."""
    if args.list_rules:
        return _list_rules()

    config = LintConfig.from_pyproject("pyproject.toml")
    baseline_path = args.baseline or config.baseline_path

    paths = args.paths or ["src"]
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print("error: no such path: %s" % ", ".join(missing),
              file=sys.stderr)
        return 2

    engine = LintEngine(config=config)
    if args.no_baseline:
        baseline = Baseline()
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as error:
            print("error: %s" % error, file=sys.stderr)
            return 2
    result = engine.run(paths, baseline=baseline)

    if args.update_baseline:
        Baseline.save(baseline_path, result.all_current)
        print("baseline written to %s (%d finding(s) grandfathered)"
              % (baseline_path, len(result.all_current)))
        return 0

    if args.format == "json":
        print(json.dumps(render_json(result), indent=2, sort_keys=True))
    elif args.format == "sarif":
        print(json.dumps(render_sarif(result), indent=2,
                         sort_keys=True))
    else:
        print(render_text(result))
    return 0 if result.clean else 1


def main(argv: List[str] = None) -> int:
    """Entry point of ``python -m repro lint`` (and, standalone,
    ``python -m repro.lint.cli``): parse ``argv`` and run."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant analyzer for this repository")
    add_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
