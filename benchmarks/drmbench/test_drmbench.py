"""Smoke tests of the benchmark itself (3 ops per workload, 512-bit keys).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/drmbench
"""

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(tmp: pathlib.Path, trace: int) -> dict:
    details = tmp / "details.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seed", "test", "--smoke",
         "--trace", str(trace), "--out", str(tmp / "out"),
         "--json", str(details)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    runs = json.loads(details.read_text())["runs"]
    assert len(runs) == 1
    return {"stdout": done.stdout, "run": runs[0], "out": tmp / "out"}


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _smoke(tmp_path_factory.mktemp("untraced"), 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _smoke(tmp_path_factory.mktemp("traced"), 1)


def test_every_metric_is_printed_with_its_unit(spec, untraced, traced):
    workloads = [w["name"] for w in spec["workloads"]]
    for result, section in ((untraced, "end_to_end"),
                            (traced, "per_layer")):
        for metric in spec[section]:
            assert NAME.fullmatch(metric["name"]), metric["name"]
            for workload in workloads:
                line = r"^%s\s+%s\s+-?[0-9.]+ %s\b" % (
                    re.escape(workload), re.escape(metric["name"]),
                    re.escape(metric["unit"]))
                assert re.search(line, result["stdout"], re.M), line


def test_output_parses_and_every_check_passes(spec, untraced, traced):
    for result in (untraced, traced):
        last = json.loads(result["stdout"].strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True
        assert last["failed"] == 0 and last["attempted"] >= 1
        for outcome in result["run"].values():
            assert outcome["checks"] and all(outcome["checks"].values())
    # The trajectory artifact validates on the repo's own gate.
    done = subprocess.run(
        [sys.executable, "-m", "repro", "perfdiff", "--merge",
         str(untraced["out"] / "BENCH_drmbench.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=False,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_run_matches_untraced_and_zero_call_predictions(
        untraced, traced):
    for workload, outcome in traced["run"].items():
        assert outcome["digest"] == untraced["run"][workload]["digest"]
    for workload in ("ri-saturation", "ri-storm"):
        metrics = traced["run"][workload]["metrics"]
        crypto = {name: value for name, value in metrics.items()
                  if name.startswith("crypto.") and name.endswith(".calls")}
        assert crypto and not any(crypto.values()), crypto
    assert traced["run"]["ri-saturation"]["metrics"][
        "sim.admission.admit.calls"] == 0
    playback = traced["run"]["playback"]
    assert playback["metrics"]["sim.kernel.events"] == 0
    # Bulk crypto is almost all of an access: SHA-1 plus AES-CBC self
    # time over the timed ops against their wall time.
    main = playback["main"]
    bulk_ns = sum(main["layers"][name][1] - main["setup_layers"][name][1]
                  for name in ("crypto.sha1", "crypto.aes_cbc"))
    assert bulk_ns / 1e9 >= 0.8 * main["wall_s"]


def test_refuses_to_run_without_the_sources(spec, tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the run
    fails fast and prints no result."""
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
