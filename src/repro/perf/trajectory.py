"""Perf-trajectory aggregation: merge bench artifacts, gate drift.

The bench scripts under ``benchmarks/`` each emit one
``BENCH_<name>.json`` in the shared ``bench-report`` schema
(``benchmarks/harness.py``): metrics stamped with a direction and a
tolerance band, plus the script's own gate verdicts. This
module folds those into one ``BENCH_trajectory.json`` — the repo's
performance trajectory across PRs — and detects regressions against
it:

* :func:`merge` combines fresh reports into a :class:`Trajectory`,
  assigning each metric a *reference* value: the matching metric from
  the previous (committed) trajectory when one exists, else the fresh
  value itself. A first-seen metric therefore never regresses; a
  metric that disappears from a bench simply drops out.
* :func:`Trajectory.regressions` applies the direction-aware tolerance
  band to every metric: a "higher"-is-better metric regresses when it
  falls more than the band below its reference, a "lower"-is-better
  one when it rises more than the band above. A metric without a band
  is rejected at load time, so every number carried is gated. Failed
  in-script verdicts always fail validation.

The committed ``BENCH_trajectory.json`` is self-contained — its
references are the values it was merged against — so
``python -m repro perfdiff BENCH_trajectory.json`` validates it on any
machine and exits zero. CI regenerates the bench artifacts, merges
them with ``--previous`` pointing at the committed trajectory, and
fails the build when a metric drifted.
"""

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Artifact schema version shared with ``benchmarks/harness.py``.
SCHEMA = 1

REPORT_KIND = "bench-report"
TRAJECTORY_KIND = "bench-trajectory"

DIRECTIONS = ("higher", "lower")


class TrajectoryError(ValueError):
    """A bench artifact failed schema validation."""


@dataclass(frozen=True)
class MetricPoint:
    """One metric inside a trajectory: value, policy and reference."""

    bench: str
    name: str
    value: float
    unit: str
    direction: str
    tolerance_pct: float
    reference: float

    @property
    def allowed(self) -> float:
        """The worst acceptable value given reference and band."""
        band = abs(self.reference) * self.tolerance_pct / 100.0
        if self.direction == "higher":
            return self.reference - band
        return self.reference + band

    @property
    def regressed(self) -> bool:
        """Direction-aware drift outside the tolerance band."""
        if self.direction == "higher":
            return self.value < self.allowed
        return self.value > self.allowed

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "tolerance_pct": self.tolerance_pct,
            "reference": self.reference,
        }


@dataclass(frozen=True)
class BenchEntry:
    """One bench's slice of the trajectory."""

    bench: str
    seed: str
    rev: str
    metrics: Tuple[MetricPoint, ...]
    verdicts: Dict[str, bool]

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "git_rev": self.rev,
            "metrics": [metric.to_dict() for metric in self.metrics],
            "verdicts": dict(sorted(self.verdicts.items())),
        }


@dataclass
class Trajectory:
    """The merged performance trajectory across all bench scripts."""

    entries: Dict[str, BenchEntry] = field(default_factory=dict)

    def metric(self, bench: str, name: str) -> Optional[MetricPoint]:
        entry = self.entries.get(bench)
        if entry is None:
            return None
        for point in entry.metrics:
            if point.name == name:
                return point
        return None

    def regressions(self) -> List[MetricPoint]:
        """Every metric outside its tolerance band."""
        found = []
        for bench in sorted(self.entries):
            for point in self.entries[bench].metrics:
                if point.regressed:
                    found.append(point)
        return found

    def failed_verdicts(self) -> List[Tuple[str, str]]:
        """``(bench, verdict)`` for every in-script gate that failed."""
        failures = []
        for bench in sorted(self.entries):
            for name, passed in sorted(
                    self.entries[bench].verdicts.items()):
                if not passed:
                    failures.append((bench, name))
        return failures

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "kind": TRAJECTORY_KIND,
            "benches": {bench: entry.to_dict()
                        for bench, entry in
                        sorted(self.entries.items())},
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def render(self) -> str:
        """The trajectory table plus regression/verdict findings."""
        lines = ["%-14s %-42s %14s %14s %9s %-6s" % (
            "bench", "metric", "value", "reference", "band", "state")]
        for bench in sorted(self.entries):
            for point in self.entries[bench].metrics:
                lines.append("%-14s %-42s %14.6g %14.6g %8.1f%% %-6s" % (
                    bench, point.name, point.value, point.reference,
                    point.tolerance_pct,
                    "REGRESSED" if point.regressed else "ok"))
        for bench, verdict in self.failed_verdicts():
            lines.append("FAIL: %s verdict %r did not hold"
                         % (bench, verdict))
        return "\n".join(lines)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TrajectoryError(message)


def _validated_metric(bench: str, raw: Dict[str, object],
                      reference: Optional[float]) -> MetricPoint:
    _require(isinstance(raw, dict), "%s: metric must be an object"
             % bench)
    for field_name in ("name", "value", "unit", "direction"):
        _require(field_name in raw,
                 "%s: metric missing %r" % (bench, field_name))
    _require(raw["direction"] in DIRECTIONS,
             "%s/%s: direction must be one of %r"
             % (bench, raw["name"], DIRECTIONS))
    tolerance = raw.get("tolerance_pct")
    _require(isinstance(tolerance, (int, float)) and tolerance >= 0,
             "%s/%s: tolerance_pct must be a number >= 0, got %r"
             % (bench, raw["name"], tolerance))
    value = float(raw["value"])
    return MetricPoint(
        bench=bench, name=str(raw["name"]), value=value,
        unit=str(raw["unit"]), direction=str(raw["direction"]),
        tolerance_pct=float(tolerance),
        reference=value if reference is None else reference)


def load_report(path: str) -> Dict[str, object]:
    """Read and schema-validate one ``bench-report`` artifact."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    _require(isinstance(raw, dict), "%s: not a JSON object" % path)
    _require(raw.get("schema") == SCHEMA,
             "%s: unsupported schema %r (expected %d)"
             % (path, raw.get("schema"), SCHEMA))
    _require(raw.get("kind") == REPORT_KIND,
             "%s: kind %r is not %r"
             % (path, raw.get("kind"), REPORT_KIND))
    for field_name in ("bench", "seed", "metrics", "verdicts"):
        _require(field_name in raw,
                 "%s: missing %r" % (path, field_name))
    return raw


def merge(reports: List[Dict[str, object]],
          previous: Optional[Trajectory] = None) -> Trajectory:
    """Fold fresh bench reports into a trajectory.

    References come from ``previous`` (the committed trajectory) when
    the same bench/metric exists there; first-seen metrics reference
    themselves, so adding a bench never fails the gate retroactively.
    """
    trajectory = Trajectory()
    for raw in reports:
        bench = str(raw["bench"])
        _require(bench not in trajectory.entries,
                 "duplicate bench %r in merge input" % bench)
        metrics = []
        for metric_raw in raw["metrics"]:
            name = str(metric_raw.get("name"))
            prior = (previous.metric(bench, name)
                     if previous is not None else None)
            metrics.append(_validated_metric(
                bench, metric_raw,
                None if prior is None else prior.value))
        verdicts = {str(name): bool(passed)
                    for name, passed in dict(raw["verdicts"]).items()}
        trajectory.entries[bench] = BenchEntry(
            bench=bench, seed=str(raw["seed"]),
            rev=str(raw.get("git_rev", "unknown")),
            metrics=tuple(metrics), verdicts=verdicts)
    return trajectory


def load_trajectory(path: str) -> Trajectory:
    """Read and schema-validate a ``bench-trajectory`` artifact."""
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    _require(isinstance(raw, dict), "%s: not a JSON object" % path)
    _require(raw.get("schema") == SCHEMA,
             "%s: unsupported schema %r (expected %d)"
             % (path, raw.get("schema"), SCHEMA))
    _require(raw.get("kind") == TRAJECTORY_KIND,
             "%s: kind %r is not %r"
             % (path, raw.get("kind"), TRAJECTORY_KIND))
    _require(isinstance(raw.get("benches"), dict),
             "%s: missing benches object" % path)
    trajectory = Trajectory()
    for bench, entry in raw["benches"].items():
        _require(isinstance(entry, dict),
                 "%s: bench %r must be an object" % (path, bench))
        metrics = []
        for metric_raw in entry.get("metrics", ()):
            reference = metric_raw.get("reference")
            _require(isinstance(reference, (int, float)),
                     "%s/%s: metric missing numeric reference"
                     % (bench, metric_raw.get("name")))
            metrics.append(_validated_metric(bench, metric_raw,
                                             float(reference)))
        verdicts = {str(name): bool(passed)
                    for name, passed in
                    dict(entry.get("verdicts", {})).items()}
        trajectory.entries[bench] = BenchEntry(
            bench=bench, seed=str(entry.get("seed", "")),
            rev=str(entry.get("git_rev", "unknown")),
            metrics=tuple(metrics), verdicts=verdicts)
    return trajectory


def validate(trajectory: Trajectory) -> Tuple[bool, str]:
    """``(ok, rendered findings)`` — the perfdiff gate in one call."""
    regressions = trajectory.regressions()
    verdicts = trajectory.failed_verdicts()
    text = trajectory.render()
    summary = ("perf trajectory: %d bench(es), %d regression(s), "
               "%d failed verdict(s)"
               % (len(trajectory.entries), len(regressions),
                  len(verdicts)))
    return not regressions and not verdicts, text + "\n" + summary
