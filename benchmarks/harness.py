"""Shared benchmark artifact schema: ``BENCH_<name>.json``.

Every bench script under ``benchmarks/`` historically wrote its own
ad-hoc JSON shape, so nothing downstream could read them uniformly.
This module is the one schema they all emit now (``schema: 1``,
``kind: "bench-report"``):

* a :class:`Metric` is one measured number with a ``direction``
  ("higher" or "lower" is better) and a required ``tolerance_pct``.
  Every metric is *gated*: the trajectory aggregator
  (:mod:`repro.perf.trajectory`) fails the build when it drifts
  outside the band relative to its reference. A host-clock number
  that no band can hold on a noisy CI host does not belong in a
  report.
* a :class:`BenchReport` is one script's run: its pinned seed, the git
  revision, its metrics, and its ``verdicts`` — the script's own
  pass/fail gates (replay determinism, smoke contracts), all of which
  must be true.

Deterministic metrics (call counts, modeled cycles — anything derived
from the virtual timebase or the metered model) should be gated with
``tolerance_pct=0.0``: they are bit-exact per seed, so any drift is a
real behavior change, not noise.

The module lives in ``benchmarks/`` (not the package) because the
bench scripts are standalone: ``python benchmarks/bench_obs_overhead.py``
puts this directory on ``sys.path``.
"""

import json
import pathlib
import subprocess
from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Artifact schema version; bump on incompatible shape changes.
SCHEMA = 1

#: The ``kind`` discriminator the trajectory loader checks.
KIND = "bench-report"

DIRECTIONS = ("higher", "lower")


def _git(args, cwd: pathlib.Path):
    """Run one git query in ``cwd``; ``None`` when it cannot answer."""
    try:
        out = subprocess.run(["git"] + args, cwd=str(cwd),
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_rev(cwd=None) -> str:
    """The short revision the bench ran at; ``unknown`` off-repo.

    A work tree whose tracked files differ from that revision gets a
    ``-dirty`` suffix, so a run on uncommitted changes is not stamped
    with the revision they sit on.
    """
    cwd = pathlib.Path(cwd or pathlib.Path(__file__).resolve().parent)
    rev = _git(["rev-parse", "--short", "HEAD"], cwd)
    if not rev:
        return "unknown"
    changes = _git(["status", "--porcelain", "--untracked-files=no"], cwd)
    return rev + "-dirty" if changes else rev


@dataclass(frozen=True)
class Metric:
    """One measured number with its regression-gating policy."""

    name: str
    value: float
    unit: str
    #: Regression band in percent of the reference value. ``0.0``
    #: means the value must match its reference exactly — the right
    #: setting for anything deterministic per seed.
    tolerance_pct: float
    #: Which way is good: "higher" (throughput) or "lower" (latency).
    direction: str = "higher"

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError("direction must be one of %r, got %r"
                             % (DIRECTIONS, self.direction))
        if not isinstance(self.tolerance_pct, (int, float)) \
                or self.tolerance_pct < 0:
            raise ValueError("tolerance_pct must be a number >= 0, "
                             "got %r" % (self.tolerance_pct,))

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "tolerance_pct": self.tolerance_pct,
        }


@dataclass
class BenchReport:
    """One bench script's run: metrics plus its own gate verdicts."""

    bench: str
    seed: str
    metrics: Tuple[Metric, ...] = ()
    #: The script's own pass/fail gates (replay determinism, smoke
    #: contracts). Every verdict must be true for the report to pass.
    verdicts: Dict[str, bool] = field(default_factory=dict)
    rev: str = field(default_factory=git_rev)

    @property
    def passed(self) -> bool:
        """Whether every in-script gate held."""
        return all(self.verdicts.values())

    def metric(self, name: str) -> Metric:
        for entry in self.metrics:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "kind": KIND,
            "bench": self.bench,
            "seed": self.seed,
            "git_rev": self.rev,
            "metrics": [metric.to_dict() for metric in self.metrics],
            "verdicts": dict(sorted(self.verdicts.items())),
        }

    def write(self, path: str) -> None:
        """Write the artifact deterministically (sorted, newline)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
