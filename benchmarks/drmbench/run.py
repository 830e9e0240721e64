"""End-to-end and per-layer benchmark of the OMA DRM 2 reproduction.

Usage, from the repository root::

    python3 benchmarks/drmbench/run.py --seed S [--workload W]
        [--seconds N] [--trace 0|1] [--repeat N] [--smoke]
        [--json PATH] [--out DIR]

Each workload runs in fresh child interpreters, one at a time, so
caches never leak between workloads and set-up time and memory are the
workload's own. With ``--trace 0`` the children measure the end-to-end
metrics: set-up time is the median of five fresh set-ups, then one
child loops the workload's op for ``--seconds`` (in whole cycles of its
input mix, at least 100 ops). Each time is scaled to a reference host
speed by a short calibration loop timed around it (``CAL_REFERENCE_S``).
With ``--trace 1`` one untraced and one traced child run the same fixed
ops; the traced one gives the per-layer metrics, and the two must
produce the same output digest.

Every metric is printed by name with its unit. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is non-zero when an output check fails.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DEFAULT_OUT = HERE / "out"

#: Fresh set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Timed ops at least, so the run holds ten samples beyond the p90.
MIN_TIMED_OPS = 100
#: ``--smoke``: ops per run and RSA modulus, for a seconds-long check.
SMOKE_OPS = 3
SMOKE_RSA_BITS = 512
PAPER_RSA_BITS = 1024
#: The calibration loop's time on the reference host. End-to-end times
#: are reported at that host speed: an op timed while the loop took C
#: seconds (the mean of the samples on either side of the op) counts
#: CAL_REFERENCE_S / C times its wall time.
CAL_REFERENCE_S = 0.003
#: The children of one workload run end within this many seconds.
RUN_DEADLINE_S = 170


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def nearest_rank(count: int, p: int) -> int:
    """1-based rank of the ``p``-th percentile among ``count`` samples."""
    return max(1, -(-count * p // 100))


def calibrate() -> float:
    """Time fixed pure-Python work: how fast the host runs right now.

    Integer arithmetic plus dict and heap churn, so that contention for
    caches slows it roughly as much as it slows the workloads.
    """
    started = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    table = {}
    for i in range(1500):
        table[i * 7919 % 10007] = (i, "k%d" % i)
    heap = []
    for key, value in table.items():
        heapq.heappush(heap, (value[0] * 31 % 1009, key, value))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - started


def calibrate_median() -> float:
    """The median of five calibration samples."""
    return statistics.median(calibrate() for _ in range(5))


# -- child: one interpreter, one workload -----------------------------------

def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    import repro
    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        raise SystemExit("repro imported from %s, not from %s"
                         % (repro.__file__, SRC))


def run_child(args) -> dict:
    cal_started = time.perf_counter()
    cal_before = calibrate_median()
    cal_time = time.perf_counter() - cal_started
    import_repro()
    recorder = None
    if args.child == "traced":
        import spans
        recorder = spans.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        args.seed, SMOKE_RSA_BITS if args.smoke else PAPER_RSA_BITS)
    setup_s = ((time.perf_counter() - START - cal_time) * CAL_REFERENCE_S
               * 2 / (cal_before + calibrate_median()))
    if args.child == "setup":
        return {"setup_s": setup_s}

    fixed = SMOKE_OPS if args.smoke else workload.fixed_ops
    timed = args.child == "timed" and not args.smoke
    cycle = workload.cycle_ops if timed else 1
    min_ops = max(fixed, MIN_TIMED_OPS) if timed else fixed
    budget = args.seconds if timed else 0.0
    events_before = workload.counters["sim.kernel.events"]
    setup_tallies = recorder.snapshot() if recorder else None

    latencies, cals, parts, failed, index = [], [calibrate()], [], 0, 0
    clock = time.perf_counter
    started = clock()
    while True:
        if recorder is not None:
            recorder.op = index
        op_started = clock()
        try:
            part = workload.op(index)
        except Exception:  # an op boundary: count it, report, go on
            failed += 1
            part = "failed"
            traceback.print_exc()
        latencies.append(clock() - op_started)
        cals.append(calibrate())
        if index < fixed:
            parts.append(part)
        index += 1
        if index >= min_ops and index % cycle == 0 \
                and clock() - started >= budget:
            break

    result = {
        "setup_s": setup_s, "ops": index,
        "failed": failed, "wall_s": sum(latencies),
        "events_timed": workload.counters["sim.kernel.events"]
        - events_before,
        "digest": hashlib.sha1("\n".join(parts).encode()).hexdigest(),
        "counters": dict(workload.counters),
        "calibration_s": statistics.median(cals),
    }
    if recorder is not None:
        result["layers"] = recorder.snapshot()
        result["setup_layers"] = setup_tallies
        result["octet_layers"] = sorted(recorder.counts_octets)
        args.out.mkdir(parents=True, exist_ok=True)
        trace_path = args.out / ("trace-%s.json" % args.workload)
        recorder.write_chrome_trace(str(trace_path))
        result["trace_file"] = str(trace_path)
    # Each op's time at the reference host speed, from the calibration
    # samples on either side of it.
    scaled = [latency * CAL_REFERENCE_S * 2 / (before + after)
              for latency, before, after in zip(latencies, cals, cals[1:])]
    ranked = sorted(scaled)
    p90_rank = nearest_rank(index, 90)
    result.update({
        "scaled_wall_s": sum(scaled),
        "raw_ops_per_s": index / sum(latencies),
        "ops_per_s": index / sum(scaled),
        "op_p50_ms": 1000.0 * ranked[nearest_rank(index, 50) - 1],
        "op_p90_ms": 1000.0 * ranked[p90_rank - 1],
        "beyond_p90": index - p90_rank,
        "checks": {"ops": failed == 0,
                   **workload.final_checks(parts)},
        "modeled": workload.modeled(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return result


# -- parent: orchestrate children, derive and print metrics -----------------

class Runner:
    """Spawns one child at a time and turns results into metrics."""

    def __init__(self, args, spec: dict) -> None:
        self.args = args
        self.spec = spec
        self.deadline = 0.0

    def child(self, mode: str, workload: str, seed: str) -> dict:
        command = [sys.executable, str(HERE / "run.py"), "--child", mode,
                   "--workload", workload, "--seed", seed,
                   "--seconds", str(self.args.seconds),
                   "--out", str(self.args.out)]
        if self.args.smoke:
            command.append("--smoke")
        remaining = max(1.0, self.deadline - time.monotonic())
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=remaining, check=False)
        if done.returncode != 0:
            raise RuntimeError("%s child for %s exited with %d"
                               % (mode, workload, done.returncode))
        return json.loads(done.stdout.strip().splitlines()[-1])

    def end_to_end(self, workload: str, seed: str) -> dict:
        reps = 1 if self.args.smoke else SETUP_REPS
        setups = [self.child("setup", workload, seed)["setup_s"]
                  for _ in range(reps - 1)]
        main = self.child("timed", workload, seed)
        setups.append(main["setup_s"])
        metrics = {
            "ops_per_s": main["ops_per_s"],
            "op_p50_ms": main["op_p50_ms"],
            "op_p90_ms": main["op_p90_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        return {"metrics": metrics, "main": main, "setups": setups,
                "checks": main["checks"]}

    def per_layer(self, workload: str, seed: str) -> dict:
        reference = self.child("fixed", workload, seed)
        traced = self.child("traced", workload, seed)
        metrics = {}
        for name, (calls, self_ns, octets) in traced["layers"].items():
            metrics[name + ".calls"] = calls
            metrics[name + ".self_s"] = self_ns / 1e9
            if name in traced["octet_layers"]:
                metrics[name + ".octets"] = octets
        metrics["sim.kernel.spawns"] = traced["layers"]["sim.kernel.spawn"][0]
        counters = traced["counters"]
        metrics.update(counters)
        metrics["drm.session.useful_ratio"] = _ratio(
            counters["drm.session.completed"],
            counters["drm.session.attempts"])
        # Storms count fresh clients fed; open load counts requests.
        metrics["sim.ri.goodput_ratio"] = (
            _ratio(counters["sim.ri.successes"], counters["sim.ri.clients"])
            if counters["sim.ri.clients"]
            else _ratio(counters["sim.ri.served"],
                        counters["sim.ri.requests"]))
        metrics["sim.ri.wasted_share"] = _ratio(
            counters["sim.ri.wasted_service_ticks"],
            counters["sim.ri.service_ticks"])
        metrics["sim.kernel.events_per_s"] = (
            reference["events_timed"] / reference["scaled_wall_s"])
        for profile, cycles in traced["modeled"].items():
            metrics["modeled.cycles_per_op." + profile] = cycles
        metrics["trace.overhead_ratio"] = (
            traced["scaled_wall_s"] / reference["scaled_wall_s"] - 1.0)
        checks = dict(traced["checks"])
        checks["trace_matches"] = (
            reference["digest"] == traced["digest"]
            and reference["modeled"] == traced["modeled"])
        return {"metrics": metrics, "main": traced, "reference": reference,
                "checks": checks}

    def run(self, workload: str, seed: str) -> dict:
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        if self.args.trace:
            outcome = self.per_layer(workload, seed)
            wanted = self.spec["per_layer"]
        else:
            outcome = self.end_to_end(workload, seed)
            wanted = self.spec["end_to_end"]
        missing = [m["name"] for m in wanted
                   if m["name"] not in outcome["metrics"]]
        if missing:
            raise RuntimeError("%s did not measure %s"
                               % (workload, ", ".join(missing)))
        main = outcome["main"]
        outcome.update({
            "workload": workload, "seed": seed,
            "selected": {m["name"]: {"value": outcome["metrics"][m["name"]],
                                     "unit": m["unit"]} for m in wanted},
            "attempted": main["ops"], "failed": main["failed"],
            "digest": main["digest"], "modeled": main["modeled"],
            "correct": all(outcome["checks"].values()),
        })
        return outcome


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def print_outcome(outcome: dict) -> None:
    workload = outcome["workload"]
    main = outcome["main"]
    for name, metric in outcome["selected"].items():
        note = ""
        if name == "op_p90_ms":
            note = "  (n=%d, %d beyond)" % (main["ops"],
                                            main["beyond_p90"])
        print("%-14s %-36s %16.6f %s%s" % (workload, name, metric["value"],
                                           metric["unit"], note))
    print("%-14s info calibration loop %.3f ms (reference %.3f ms); "
          "unscaled ops_per_s %.4f" % (
              workload, main["calibration_s"] * 1000.0,
              CAL_REFERENCE_S * 1000.0, main["raw_ops_per_s"]))
    if "trace_file" in main:
        print("%-14s info chrome trace %s" % (workload, main["trace_file"]))
    print("%-14s info failed_op_share %d/%d" % (
        workload, main["failed"], main["ops"]))
    print("%-14s info output digest %s (seed %s)" % (
        workload, outcome["digest"], outcome["seed"]))
    for name, passed in sorted(outcome["checks"].items()):
        print("%-14s check %-12s %s" % (workload, name,
                                        "ok" if passed else "FAILED"))


def summarize(spec: dict, runs, trace: bool) -> list:
    """Median and quartiles per (workload, metric) over repeated runs."""
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    rows = []
    for workload in runs[0]:
        for name, metric in runs[0][workload]["selected"].items():
            values = [run[workload]["selected"][name]["value"]
                      for run in runs]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (median,) * 3)
            spread = (q3 - q1) / median if median else 0.0
            bound = None if trace else bounds[name]
            rows.append({"workload": workload, "name": name,
                         "unit": metric["unit"], "median": median,
                         "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound,
                         "within": bound is None or spread <= bound})
    return rows


def print_summary(rows) -> None:
    print("%-14s %-36s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "median", "q1", "q3", "iqr/med", "bound"))
    for row in rows:
        bound = "-" if row["bound"] is None else "%.2f" % row["bound"]
        print("%-14s %-36s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
            row["workload"], row["name"], row["median"], row["q1"],
            row["q3"], row["spread"], bound,
            "" if row["within"] else "OUTSIDE BOUND"))


def write_trajectory(spec: dict, rows, runs, path: pathlib.Path,
                     seed: str) -> None:
    """``BENCH_drmbench.json`` in the shared ``benchmarks/harness`` schema:
    end-to-end medians gated at their bound, modeled cycles and the
    failed-op share gated exactly."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from harness import BenchReport, Metric

    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    metrics = [Metric("%s.%s" % (row["workload"], row["name"]),
                      row["median"], row["unit"],
                      direction=directions[row["name"]],
                      tolerance_pct=row["bound"] * 100.0)
               for row in rows]
    verdicts = {}
    for workload in runs[0]:
        last = runs[-1][workload]
        attempted = sum(run[workload]["attempted"] for run in runs)
        failed = sum(run[workload]["failed"] for run in runs)
        metrics.append(Metric(workload + ".failed_op_share",
                              failed / attempted, "ratio",
                              direction="lower", tolerance_pct=0.0))
        for profile, cycles in sorted(last["modeled"].items()):
            metrics.append(Metric(
                "%s.modeled.cycles_per_op.%s" % (workload, profile),
                cycles, "cycles", direction="lower", tolerance_pct=0.0))
        verdicts[workload + ".correct"] = all(
            run[workload]["correct"] for run in runs)
    path.parent.mkdir(parents=True, exist_ok=True)
    BenchReport(bench="drmbench", seed=seed, metrics=tuple(metrics),
                verdicts=verdicts).write(str(path))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", required=True,
                        help="workload seed; op i draws from '<seed>/<i>'")
    parser.add_argument("--workload", default=None,
                        help="workload to run (default: all)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-phase length (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--repeat", type=int, default=1,
                        help="N full runs on seeds <seed>-0..N-1, then "
                             "median/quartiles per metric")
    parser.add_argument("--smoke", action="store_true",
                        help="3 ops per run, 512-bit keys")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="write every run's details here")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="directory for chrome traces and "
                             "BENCH_drmbench.json")
    parser.add_argument("--child", default=None,
                        choices=("setup", "timed", "fixed", "traced"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: no repro sources at %s" % SRC, file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(run_child(args)))
        return 0

    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    selected = [args.workload] if args.workload else names
    if selected[0] not in names:
        print("error: unknown workload %s" % args.workload, file=sys.stderr)
        return 2

    runner = Runner(args, spec)
    runs = []
    for repeat in range(args.repeat):
        seed = args.seed if args.repeat == 1 \
            else "%s-%d" % (args.seed, repeat)
        run = {}
        for workload in selected:
            run[workload] = runner.run(workload, seed)
            print_outcome(run[workload])
            sys.stdout.flush()
        runs.append(run)

    rows = summarize(spec, runs, bool(args.trace))
    if args.repeat > 1:
        print_summary(rows)
    if not args.trace:
        write_trajectory(spec, rows, runs,
                         args.out / "BENCH_drmbench.json", args.seed)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump({"runs": runs, "summary": rows}, handle, indent=1)

    single = len(selected) == 1
    metrics = {}
    for row in rows:
        key = row["name"] if single else "%s:%s" % (row["workload"],
                                                    row["name"])
        metrics[key] = {"value": row["median"], "unit": row["unit"]}
    outcomes = [run[w] for run in runs for w in selected]
    correct = all(o["correct"] for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
