"""Retry-storm engine throughput and the overload smoke gate.

Two storm runs at the pinned benchmark seed, both on the software RI:

* **unmitigated** — no admission control, naive fixed-delay retries,
  no deadline propagation: the metastable collapse;
* **mitigated** — token-bucket admission, capped exponential backoff
  with jitter, in-queue deadlines: the escape.

Run directly (``python benchmarks/bench_overload.py``) it prints the
throughput/goodput table, re-runs each storm to prove bit-identical
digests (the determinism contract under timing pressure), enforces the
overload smoke gate — goodput with mitigation must not be *worse* than
without, and the unmitigated collapse must outlive the recovery window
while the mitigated cell recovers inside it — and emits
``BENCH_overload.json`` in the shared bench-report schema
(``benchmarks/harness.py``): event counts, goodput ratios and collapse
durations are gated (deterministic per seed), wall-clock throughput is
informational. ``--out PATH`` redirects the artifact.
"""

import sys
import time

import harness

from repro.sim.overload import StormSpec, run_storm

SEED = "bench-overload"

SPECS = (
    ("unmitigated", StormSpec(seed=SEED)),
    ("mitigated", StormSpec(seed=SEED, admission="token-bucket",
                            retry="backoff-jitter", deadlines=True)),
)

#: The smoke-gate recovery window: five spike durations, the same bar
#: the analysis contract holds.
WINDOW = 5 * SPECS[0][1].spike_duration


def _storm(spec):
    result = run_storm(spec)
    return result.events, result


def measure(spec):
    start = time.perf_counter()
    events, result = _storm(spec)
    wall = time.perf_counter() - start
    return {"events": events, "wall_seconds": wall,
            "events_per_second": events / wall,
            "goodput_ratio": result.goodput_ratio,
            "collapse_service_units": result.collapse_duration,
            "recovery_service_units": result.recovery_time,
            "wasted_share": result.wasted_share,
            "digest": result.digest()}, result


def main(argv) -> int:
    out = "BENCH_overload.json"
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]

    metrics = []
    failures = []
    results = {}
    print("storm         wall [s]   events     events/s   goodput  "
          "collapse  recovery")
    for name, spec in SPECS:
        timing, result = measure(spec)
        replay_timing, replay = measure(spec)
        if replay.digest() != timing["digest"]:
            failures.append("%s diverged between runs" % name)
        best = min(timing, replay_timing,
                   key=lambda t: t["wall_seconds"])
        results[name] = result
        # Everything on the virtual timebase is bit-exact per seed:
        # gate it with a zero band. Wall-clock stays informational.
        metrics.extend([
            harness.Metric("%s.events" % name, best["events"],
                           "events", direction="higher",
                           tolerance_pct=0.0),
            harness.Metric("%s.goodput_ratio" % name,
                           result.goodput_ratio, "ratio",
                           direction="higher", tolerance_pct=0.0),
            harness.Metric("%s.collapse_service_units" % name,
                           result.collapse_duration, "service units",
                           direction="lower", tolerance_pct=0.0),
            harness.Metric("%s.wasted_share" % name,
                           result.wasted_share, "ratio",
                           direction="lower", tolerance_pct=0.0),
            harness.Metric("%s.events_per_second" % name,
                           best["events_per_second"], "events/s",
                           direction="higher"),
            harness.Metric("%s.wall_seconds" % name,
                           best["wall_seconds"], "s",
                           direction="lower"),
        ])
        print("%-13s %-10.2f %-10d %-10.0f %-8.2f %-9d %s"
              % (name, best["wall_seconds"], best["events"],
                 best["events_per_second"], result.goodput_ratio,
                 result.collapse_duration,
                 "never" if result.recovery_time is None
                 else result.recovery_time))

    verdicts = {
        "replay-determinism": not any(
            "diverged" in failure for failure in failures),
        "mitigated-goodput-not-worse":
            results["mitigated"].goodput_ratio
            >= results["unmitigated"].goodput_ratio,
        "unmitigated-metastable":
            results["unmitigated"].collapse_duration >= WINDOW,
        "mitigated-recovers-in-window":
            results["mitigated"].recovered_within(WINDOW),
    }
    if not verdicts["mitigated-goodput-not-worse"]:
        failures.append("mitigated goodput below unmitigated")
    if not verdicts["unmitigated-metastable"]:
        failures.append("unmitigated storm was not metastable")
    if not verdicts["mitigated-recovers-in-window"]:
        failures.append("mitigated storm failed to recover in the "
                        "window")

    report = harness.BenchReport(bench="overload", seed=SEED,
                                 metrics=tuple(metrics),
                                 verdicts=verdicts)
    report.write(out)
    print("wrote %s" % out)

    for failure in failures:
        print("FAIL: " + failure)
    print("overload smoke gate %s"
          % ("FAILED" if failures else "PASSED"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
