"""NullTracer overhead budget on the protocol scenarios.

The observability layer's zero-overhead claim (``docs/observability.md``)
is that with the default :class:`~repro.obs.tracer.NullTracer` every
instrumented call site costs one attribute lookup plus one constant
no-op call. This benchmark makes that claim a gate:

1. count the instrumentation calls (spans, events, operation records)
   one run of each protocol scenario actually performs, using
   a counting tracer;
2. measure the per-call cost of the real ``NULL_TRACER`` methods in a
   tight loop;
3. measure the scenario's wall time with the default tracer;
4. assert ``calls x per-call-cost < 5 %`` of the scenario time.

Measuring the null-path cost directly (instead of diffing two noisy
end-to-end timings) keeps the gate stable on loaded CI hosts while
still bounding exactly the quantity users care about: what tracing-off
costs.

The same method gates the *profiler-enabled* path: per-call cost of
the real :class:`~repro.obs.tracer.Tracer` methods (which allocate a
span and advance the virtual clock) times the call count, plus the
one-shot :class:`~repro.obs.profile.ProfileTree` fold, must stay under
5 % of the scenario runtime — profiling a run should never distort
what it profiles.

Run directly (``python benchmarks/bench_obs_overhead.py``) it prints
the per-scenario budget table, emits ``BENCH_obs_overhead.json`` in
the shared bench-report schema (``benchmarks/harness.py``; the call
counts at a zero band, the two budgets as verdicts) and exits non-zero
on a budget breach. ``--out PATH`` redirects the artifact.
"""

import sys
import time

import harness

from repro.core.trace import Algorithm, OperationRecord, Phase
from repro.drm.rel import play_count
from repro.obs.profile import ProfileTree
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.usecases.world import DRMWorld

BITS = 512
SEED = "bench-obs-overhead"
CONTENT = b"\xbe" * 4096

#: The gate: NullTracer instrumentation cost per scenario run.
BUDGET_FRACTION = 0.05

#: The gate with profiling *on*: real-Tracer instrumentation plus the
#: profile fold per scenario run.
PROFILED_BUDGET_FRACTION = 0.05

#: Iterations for the per-call micro-measurement.
MICRO_LOOPS = 200_000

#: Wall-time repeats per scenario (minimum is reported).
REPEATS = 3


class CountingTracer:
    """Counts instrumentation call sites; behaves like NullTracer."""

    now = 0

    class _Span:
        def set(self, key, value):
            pass

    class _Context:
        def __init__(self, outer):
            self._outer = outer

        def __enter__(self):
            return self._outer._span

        def __exit__(self, *exc):
            return False

    def __init__(self):
        self.calls = 0
        self._span = self._Span()
        self._context = self._Context(self)

    def span(self, name, track="main", category="structure", **args):
        self.calls += 1
        return self._context

    def event(self, name, track="main", **args):
        self.calls += 1
        return None

    def on_record(self, record):
        self.calls += 1
        return None


def _pristine(tracer=None):
    world = DRMWorld.create(seed=SEED, rsa_bits=BITS, tracer=tracer)
    world.ci.publish("cid:b", "audio/mpeg", CONTENT, "u")
    world.ri.add_offer("ro:b", world.ci.negotiate_license("cid:b"),
                       play_count(10 ** 9))
    return world


def _scenario_registration(world):
    world.agent.register(world.ri)


def _scenario_acquire_install(world):
    world.agent.register(world.ri)
    protected = world.agent.acquire(world.ri, "ro:b")
    world.agent.install(protected, world.ci.get_dcf("cid:b"))


def _scenario_consume(world):
    world.agent.register(world.ri)
    protected = world.agent.acquire(world.ri, "ro:b")
    world.agent.install(protected, world.ci.get_dcf("cid:b"))
    world.agent.consume("cid:b")


SCENARIOS = (
    ("registration", _scenario_registration),
    ("acquire+install", _scenario_acquire_install),
    ("consume-4k", _scenario_consume),
)


def null_call_cost() -> float:
    """Conservative per-call cost (seconds) of NULL_TRACER methods."""
    record = OperationRecord(algorithm=Algorithm.SHA1,
                             phase=Phase.REGISTRATION,
                             invocations=1, blocks=4, label="probe")
    costs = []
    start = time.perf_counter()
    for _ in range(MICRO_LOOPS):
        NULL_TRACER.on_record(record)
    costs.append((time.perf_counter() - start) / MICRO_LOOPS)
    start = time.perf_counter()
    for _ in range(MICRO_LOOPS):
        with NULL_TRACER.span("probe", track="t"):
            pass
    costs.append((time.perf_counter() - start) / MICRO_LOOPS)
    start = time.perf_counter()
    for _ in range(MICRO_LOOPS):
        NULL_TRACER.event("probe", track="t")
    costs.append((time.perf_counter() - start) / MICRO_LOOPS)
    return max(costs)


def real_call_cost() -> float:
    """Conservative per-call cost (seconds) of real Tracer methods.

    A fresh tracer per micro-loop: the measured cost includes the span
    allocation and list append the profiler's input actually pays.
    """
    record = OperationRecord(algorithm=Algorithm.SHA1,
                             phase=Phase.REGISTRATION,
                             invocations=1, blocks=4, label="probe")
    costs = []
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(MICRO_LOOPS):
        tracer.on_record(record)
    costs.append((time.perf_counter() - start) / MICRO_LOOPS)
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(MICRO_LOOPS):
        with tracer.span("probe", track="t"):
            pass
    costs.append((time.perf_counter() - start) / MICRO_LOOPS)
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(MICRO_LOOPS):
        tracer.event("probe", track="t")
    costs.append((time.perf_counter() - start) / MICRO_LOOPS)
    return max(costs)


def fold_seconds(scenario) -> float:
    """Wall cost of folding one real-traced run into a ProfileTree."""
    tracer = Tracer()
    scenario(_pristine(tracer=tracer))
    start = time.perf_counter()
    ProfileTree.from_tracer(tracer)
    return time.perf_counter() - start


def instrumentation_calls(scenario) -> int:
    """How many tracer calls one run of ``scenario`` performs."""
    tracer = CountingTracer()
    scenario(_pristine(tracer=tracer))
    return tracer.calls


def scenario_seconds(scenario) -> float:
    """Minimum wall time of ``scenario`` with the default NullTracer."""
    worlds = [_pristine() for _ in range(REPEATS)]
    best = None
    for world in worlds:
        start = time.perf_counter()
        scenario(world)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def overhead_rows():
    """(name, calls, per-call s, scenario s, fraction) per scenario."""
    per_call = null_call_cost()
    rows = []
    for name, scenario in SCENARIOS:
        calls = instrumentation_calls(scenario)
        seconds = scenario_seconds(scenario)
        fraction = (calls * per_call) / seconds
        rows.append((name, calls, per_call, seconds, fraction))
    return rows


def profiled_rows():
    """(name, calls, per-call s, fold s, scenario s, fraction)."""
    per_call = real_call_cost()
    rows = []
    for name, scenario in SCENARIOS:
        calls = instrumentation_calls(scenario)
        seconds = scenario_seconds(scenario)
        fold = fold_seconds(scenario)
        fraction = (calls * per_call + fold) / seconds
        rows.append((name, calls, per_call, fold, seconds, fraction))
    return rows


def main(argv) -> int:
    out = "BENCH_obs_overhead.json"
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]

    null_failures = 0
    profiled_failures = 0
    metrics = []
    print("%-16s %8s %12s %12s %9s" % (
        "scenario", "calls", "per-call[ns]", "runtime[ms]", "overhead"))
    for name, calls, per_call, seconds, fraction in overhead_rows():
        print("%-16s %8d %12.1f %12.2f %8.3f%%" % (
            name, calls, per_call * 1e9, seconds * 1e3,
            100.0 * fraction))
        if fraction >= BUDGET_FRACTION:
            null_failures += 1
        # Call counts are deterministic (one per instrumented call
        # site); the wall-derived fraction is gated by the budget.
        metrics.append(
            harness.Metric("%s.instrumentation_calls" % name, calls,
                           "calls", direction="lower",
                           tolerance_pct=0.0))
    print("NullTracer overhead budget (<%.0f%%) %s"
          % (100.0 * BUDGET_FRACTION,
             "FAILED" if null_failures else "PASSED"))

    print("%-16s %8s %12s %10s %12s %9s" % (
        "profiled", "calls", "per-call[ns]", "fold[us]",
        "runtime[ms]", "overhead"))
    for name, calls, per_call, fold, seconds, fraction \
            in profiled_rows():
        print("%-16s %8d %12.1f %10.1f %12.2f %8.3f%%" % (
            name, calls, per_call * 1e9, fold * 1e6, seconds * 1e3,
            100.0 * fraction))
        if fraction >= PROFILED_BUDGET_FRACTION:
            profiled_failures += 1
    print("profiler-on overhead budget (<%.0f%%) %s"
          % (100.0 * PROFILED_BUDGET_FRACTION,
             "FAILED" if profiled_failures else "PASSED"))

    report = harness.BenchReport(
        bench="obs_overhead", seed=SEED, metrics=tuple(metrics),
        verdicts={"null-overhead-budget": not null_failures,
                  "profiled-overhead-budget": not profiled_failures})
    report.write(out)
    print("wrote %s" % out)
    return 1 if null_failures or profiled_failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
