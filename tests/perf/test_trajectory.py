"""Perf-trajectory pipeline: schema, merge semantics, the gate.

The committed ``BENCH_trajectory.json`` must validate cleanly on any
machine (its references are its own values), and an injected
regression must flip ``python -m repro perfdiff`` to a non-zero exit —
that pair is the CI contract. The harness emitter under
``benchmarks/`` and the loader here share one schema; the round-trip
test keeps them honest.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main
from repro.perf.trajectory import (Trajectory, TrajectoryError,
                                   load_report, load_trajectory, merge,
                                   validate)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
COMMITTED_TRAJECTORY = REPO_ROOT / "BENCH_trajectory.json"

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
import harness  # noqa: E402  (the bench-side emitter, not a package)


def report_dict(bench="kernel", value=100.0, tolerance_pct=0.0,
                direction="higher", verdicts=None):
    report = harness.BenchReport(
        bench=bench, seed="seed-x",
        metrics=(harness.Metric("m", value, "events/s",
                                direction=direction,
                                tolerance_pct=tolerance_pct),),
        verdicts={"gate": True} if verdicts is None else verdicts)
    return report.to_dict()


# -- schema round-trip ------------------------------------------------------

def test_harness_report_round_trips_through_loader(tmp_path):
    path = tmp_path / "BENCH_kernel.json"
    report = harness.BenchReport(
        bench="kernel", seed="s",
        metrics=(harness.Metric("a.events", 123, "events",
                                direction="higher", tolerance_pct=0.0),
                 harness.Metric("a.wall", 0.5, "s",
                                direction="lower", tolerance_pct=10.0)),
        verdicts={"replay": True})
    report.write(str(path))
    loaded = load_report(str(path))
    trajectory = merge([loaded])
    point = trajectory.metric("kernel", "a.events")
    assert point.value == 123 and point.reference == 123
    assert trajectory.metric("kernel", "a.wall").tolerance_pct == 10.0


def test_git_rev_marks_uncommitted_changes(tmp_path):
    def git(*args):
        return subprocess.run(
            ["git", "-c", "user.name=bench", "-c", "user.email=bench@x",
             "-c", "commit.gpgsign=false"] + list(args),
            cwd=str(tmp_path), check=True, capture_output=True,
            text=True).stdout.strip()

    assert harness.git_rev(tmp_path) == "unknown"
    git("init", "-q")
    tracked = tmp_path / "tracked.txt"
    tracked.write_text("one\n")
    git("add", "tracked.txt")
    git("commit", "-q", "-m", "one")
    head = git("rev-parse", "--short", "HEAD")
    assert harness.git_rev(tmp_path) == head
    (tmp_path / "untracked.txt").write_text("noise\n")
    assert harness.git_rev(tmp_path) == head
    tracked.write_text("two\n")
    assert harness.git_rev(tmp_path) == head + "-dirty"


def test_metric_validation():
    with pytest.raises(ValueError):
        harness.Metric("m", 1.0, "u", direction="sideways",
                       tolerance_pct=0.0)
    with pytest.raises(ValueError):
        harness.Metric("m", 1.0, "u", tolerance_pct=-1.0)


def test_loader_rejects_malformed_reports(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "kind": "bench-report"}))
    with pytest.raises(TrajectoryError):
        load_report(str(path))
    path.write_text(json.dumps({"schema": 1, "kind": "other"}))
    with pytest.raises(TrajectoryError):
        load_report(str(path))


# -- merge semantics --------------------------------------------------------

def test_first_seen_metric_references_itself():
    trajectory = merge([report_dict(value=50.0)])
    point = trajectory.metric("kernel", "m")
    assert point.reference == 50.0
    assert not point.regressed


def test_merge_takes_references_from_previous_trajectory():
    previous = merge([report_dict(value=100.0)])
    fresh = merge([report_dict(value=90.0)], previous=previous)
    point = fresh.metric("kernel", "m")
    assert point.reference == 100.0
    assert point.regressed  # higher-is-better dropped with 0% band


def test_merge_rejects_duplicate_benches():
    with pytest.raises(TrajectoryError):
        merge([report_dict(), report_dict()])


# -- regression detection ---------------------------------------------------

def test_tolerance_band_is_direction_aware():
    previous = merge([report_dict(value=100.0, tolerance_pct=5.0)])
    inside = merge([report_dict(value=96.0, tolerance_pct=5.0)],
                   previous=previous)
    assert not inside.regressions()
    outside = merge([report_dict(value=94.0, tolerance_pct=5.0)],
                    previous=previous)
    assert [p.name for p in outside.regressions()] == ["m"]
    # Improvement never regresses, in either direction.
    better = merge([report_dict(value=200.0, tolerance_pct=0.0)],
                   previous=previous)
    assert not better.regressions()


def test_lower_is_better_regresses_upward():
    previous = merge([report_dict(value=10.0, direction="lower",
                                  tolerance_pct=10.0)])
    ok = merge([report_dict(value=10.9, direction="lower",
                            tolerance_pct=10.0)], previous=previous)
    assert not ok.regressions()
    bad = merge([report_dict(value=11.5, direction="lower",
                             tolerance_pct=10.0)], previous=previous)
    assert bad.regressions()


def test_failed_verdict_fails_validation():
    trajectory = merge([report_dict(verdicts={"gate": False})])
    ok, _text = validate(trajectory)
    assert not ok
    assert trajectory.failed_verdicts() == [("kernel", "gate")]


def test_null_band_is_rejected(tmp_path):
    with pytest.raises(ValueError):
        harness.Metric("m", 1.0, "u", tolerance_pct=None)
    raw = report_dict()
    raw["metrics"][0]["tolerance_pct"] = None
    with pytest.raises(TrajectoryError):
        merge([raw])
    doc = merge([report_dict()]).to_dict()
    doc["benches"]["kernel"]["metrics"][0]["tolerance_pct"] = None
    path = tmp_path / "BENCH_trajectory.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(TrajectoryError):
        load_trajectory(str(path))


# -- the CLI gate -----------------------------------------------------------

def write_trajectory(tmp_path, trajectory: Trajectory) -> str:
    path = tmp_path / "BENCH_trajectory.json"
    trajectory.write(str(path))
    return str(path)


def test_perfdiff_exits_zero_on_clean_trajectory(tmp_path, capsys):
    path = write_trajectory(tmp_path, merge([report_dict()]))
    assert main(["perfdiff", path]) == 0
    assert "PASSED" in capsys.readouterr().out


def test_perfdiff_exits_nonzero_on_injected_regression(tmp_path,
                                                       capsys):
    # A zero-band count, and drmbench's throughput halved at its band.
    for bench, name, tolerance_pct in (
            ("kernel", "m", 0.0),
            ("drmbench", "playback.ops_per_s", 10.0)):
        raw = report_dict(bench=bench, tolerance_pct=tolerance_pct)
        raw["metrics"][0]["name"] = name
        path = write_trajectory(tmp_path, merge([raw]))
        doc = json.loads(pathlib.Path(path).read_text())
        metric = doc["benches"][bench]["metrics"][0]
        metric["value"] = metric["reference"] / 2
        pathlib.Path(path).write_text(json.dumps(doc))
        assert main(["perfdiff", path]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "FAILED" in out


def test_perfdiff_merge_writes_trajectory(tmp_path, capsys):
    report_path = tmp_path / "BENCH_kernel.json"
    harness.BenchReport(
        bench="kernel", seed="s",
        metrics=(harness.Metric("m", 100.0, "events/s",
                                direction="higher",
                                tolerance_pct=0.0),),
        verdicts={"gate": True}).write(str(report_path))
    out_path = tmp_path / "BENCH_trajectory.json"
    assert main(["perfdiff", "--merge", str(report_path),
                 "--out", str(out_path)]) == 0
    merged = load_trajectory(str(out_path))
    assert merged.metric("kernel", "m").reference == 100.0


def test_perfdiff_usage_errors_exit_two(tmp_path, capsys):
    assert main(["perfdiff"]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["perfdiff", missing]) == 2


def test_committed_trajectory_validates_self_contained(capsys):
    """The committed artifact must pass on any machine, as-is."""
    trajectory = load_trajectory(str(COMMITTED_TRAJECTORY))
    ok, _text = validate(trajectory)
    assert ok
    assert main(["perfdiff", str(COMMITTED_TRAJECTORY)]) == 0
    assert set(trajectory.entries) == {"drmbench", "obs_overhead"}
