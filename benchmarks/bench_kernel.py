"""Event-kernel throughput: events/second at 10^4 concurrent sessions.

Two workloads, both pure kernel mechanics (no RSA key generation, no
protocol stack), so the number measured is the scheduler itself:

* **open-load RI** — 10^4 Poisson request arrivals contending for one
  hardware-profile Rights Issuer signing unit (the saturation
  experiment's inner loop);
* **M/M/1 queue** — 10^4 jobs through the queueing-law harness (the
  validation suite's inner loop).

Run directly (``python benchmarks/bench_kernel.py``) it prints the
throughput table, re-runs each workload to prove bit-identical
statistics (the determinism contract under timing pressure), and emits
``BENCH_kernel.json`` in the shared bench-report schema
(``benchmarks/harness.py``): event counts are gated (deterministic per
seed), wall-clock throughput is informational. ``--out PATH``
redirects the artifact.
"""

import sys
import time

import harness

from repro.core.architecture import HW_PROFILE
from repro.sim.fleet import run_open_load
from repro.sim.queueing import exponential_draw, simulate_queue

SESSIONS = 10_000
SEED = "bench-kernel"

#: Arrival rate for the open-load workload: 60% of the hardware RI's
#: nominal capacity — busy but not saturated, so the heap stays deep.
OPEN_LOAD_RATE = 730.0


def _open_load():
    result = run_open_load(SEED, HW_PROFILE,
                           arrivals_per_second=OPEN_LOAD_RATE,
                           requests=SESSIONS)
    load = result.load
    return load.events, (load.served, load.refused, load.span_ticks,
                         load.latency, load.utilization)


def _mm1():
    obs = simulate_queue(SEED, SESSIONS,
                         interarrival=exponential_draw(1500),
                         service=exponential_draw(1000))
    return obs.events, (obs.completed, obs.span_ticks, obs.queue_area,
                        obs.busy_area, obs.wait.summary())


WORKLOADS = (("open-load-ri", _open_load), ("mm1-queue", _mm1))


def measure(workload):
    start = time.perf_counter()
    events, signature = workload()
    wall = time.perf_counter() - start
    return {"events": events, "wall_seconds": wall,
            "events_per_second": events / wall}, signature


def main(argv) -> int:
    out = "BENCH_kernel.json"
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]

    metrics = []
    failures = []
    print("workload      sessions  wall [s]   events     events/s")
    for name, workload in WORKLOADS:
        timing, signature = measure(workload)
        replay_timing, replay_signature = measure(workload)
        if replay_signature != signature:
            failures.append("%s diverged between runs" % name)
        best = min(timing, replay_timing,
                   key=lambda t: t["wall_seconds"])
        # Event counts are bit-exact per seed, so any drop is a real
        # scheduler change; wall-clock throughput is informational.
        metrics.extend([
            harness.Metric("%s.events" % name, best["events"],
                           "events", direction="higher",
                           tolerance_pct=0.0),
            harness.Metric("%s.events_per_second" % name,
                           best["events_per_second"], "events/s",
                           direction="higher"),
            harness.Metric("%s.wall_seconds" % name,
                           best["wall_seconds"], "s",
                           direction="lower"),
        ])
        print("%-13s %-9d %-10.2f %-10d %.0f"
              % (name, SESSIONS, best["wall_seconds"], best["events"],
                 best["events_per_second"]))

    report = harness.BenchReport(
        bench="kernel", seed=SEED, metrics=tuple(metrics),
        verdicts={"replay-determinism": not failures})
    report.write(out)
    print("wrote %s" % out)

    for failure in failures:
        print("FAIL: " + failure)
    print("replay determinism %s"
          % ("FAILED" if failures else "PASSED"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
