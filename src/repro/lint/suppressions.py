"""Inline suppressions: ``# repro: allow[REPnnn] -- justification``.

A suppression silences the named rule(s) on its own line, or — when the
comment stands alone — on the next line of code. The justification text
after ``--`` is **mandatory**: a suppression without one does not
suppress anything and is itself reported (REP002), because an allow
nobody can audit is a convention, and conventions are exactly what the
analyzer exists to replace. A suppression naming an unknown rule is
reported as REP001 (it would otherwise rot silently when rules are
renamed).
"""

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

#: ``# repro: allow[REP201]`` or ``# repro: allow[REP201,REP202] -- why``.
#: Matched against COMMENT tokens only, so prose in docstrings that
#: *describes* the syntax is never mistaken for a suppression.
_ALLOW_RE = re.compile(
    r"^#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]"
    r"(?:\s*--\s*(.*\S))?\s*$")

#: Meta-rule ids emitted by the suppression parser itself.
UNKNOWN_RULE = "REP001"
MISSING_JUSTIFICATION = "REP002"


@dataclass(frozen=True)
class Suppression:
    """One parsed allow comment."""

    line: int            # line the comment sits on (1-based)
    target_line: int     # line of code it covers
    rule_ids: Tuple[str, ...]
    justification: str   # empty string when missing

    @property
    def justified(self) -> bool:
        """Whether the mandatory justification text is present."""
        return bool(self.justification)


@dataclass(frozen=True)
class SuppressionProblem:
    """A defect in a suppression comment (reported as a finding)."""

    rule: str            # UNKNOWN_RULE or MISSING_JUSTIFICATION
    line: int
    message: str


def _iter_comments(source_lines: List[str]
                   ) -> Iterator[Tuple[int, int, str]]:
    """(line, column, text) of every comment token in the source."""
    source = "\n".join(source_lines) + "\n"
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Files that fail to tokenize already produced a parse-error
        # finding; suppressions in them are moot.
        return


def parse_suppressions(source_lines: List[str]) -> List[Suppression]:
    """Extract all allow comments from a file's source lines."""
    suppressions = []
    for line, column, text in _iter_comments(source_lines):
        match = _ALLOW_RE.match(text)
        if match is None:
            continue
        rule_ids = tuple(part.strip() for part in match.group(1).split(",")
                         if part.strip())
        before = source_lines[line - 1][:column].strip()
        target = line if before else line + 1
        suppressions.append(Suppression(
            line=line, target_line=target, rule_ids=rule_ids,
            justification=(match.group(2) or "").strip()))
    return suppressions


def build_suppression_index(
        suppressions: List[Suppression],
        known_rule_ids) -> Tuple[Dict[Tuple[int, str], Suppression],
                                 List[SuppressionProblem]]:
    """Index justified suppressions by (line, rule) and collect defects.

    Only *justified* suppressions enter the index — an unjustified allow
    never silences a finding.
    """
    index: Dict[Tuple[int, str], Suppression] = {}
    problems: List[SuppressionProblem] = []
    known = set(known_rule_ids)
    for suppression in suppressions:
        for rule_id in suppression.rule_ids:
            if rule_id not in known:
                problems.append(SuppressionProblem(
                    rule=UNKNOWN_RULE, line=suppression.line,
                    message="suppression names unknown rule %r" % rule_id))
        if not suppression.justified:
            problems.append(SuppressionProblem(
                rule=MISSING_JUSTIFICATION, line=suppression.line,
                message="suppression is missing the mandatory "
                        "justification text (use "
                        "'# repro: allow[RULE] -- reason')"))
            continue
        for rule_id in suppression.rule_ids:
            index[(suppression.target_line, rule_id)] = suppression
    return index, problems
