"""Tracer semantics: cycle timebase, reconciliation, null overhead."""

from dataclasses import asdict

import pytest

from repro.core.architecture import HW_PROFILE, PAPER_PROFILES, SW_PROFILE
from repro.core.model import PerformanceModel
from repro.core.trace import Algorithm, OperationRecord, Phase
from repro.obs.tracer import (NULL_TRACER, NullTracer, OPERATION_CATEGORY,
                              Tracer, _NULL_CONTEXT, _NULL_SPAN)
from repro.usecases.tracing import run_scenario
from repro.usecases.world import DRMWorld

SEED = "test-tracer"
BITS = 512


def record(algorithm=Algorithm.SHA1, phase=Phase.REGISTRATION,
           invocations=1, blocks=4, label="probe"):
    return OperationRecord(algorithm=algorithm, phase=phase,
                           invocations=invocations, blocks=blocks,
                           label=label)


def test_on_record_advances_clock_by_priced_cycles():
    tracer = Tracer(profile=SW_PROFILE)
    rec = record()
    span = tracer.on_record(rec)
    expected = tracer.cost_table.cycles(
        rec, SW_PROFILE.implementation(rec.algorithm))
    assert span.duration == expected
    assert tracer.now == expected
    assert span.category == OPERATION_CATEGORY
    assert span.track == "registration"


def test_operation_spans_reconcile_with_cost_model():
    for profile in PAPER_PROFILES:
        tracer = Tracer(profile=profile, actor="terminal")
        world = run_scenario("consume", tracer, seed=SEED,
                             rsa_bits=BITS)
        breakdown = PerformanceModel().evaluate(
            world.agent_crypto.trace, profile)
        assert tracer.now == breakdown.total_cycles
        priced = {algorithm.value: cycles for algorithm, cycles
                  in breakdown.cycles_by_algorithm().items() if cycles}
        assert tracer.cycles_by_algorithm() == priced


def test_structural_span_duration_is_inner_operation_cost():
    tracer = Tracer(profile=HW_PROFILE)
    with tracer.span("outer", track="roap") as outer:
        tracer.on_record(record())
        tracer.on_record(record(blocks=8))
    assert outer.end == tracer.now
    assert outer.duration == tracer.now
    assert outer.args == {}


def test_span_set_attaches_arguments():
    tracer = Tracer()
    with tracer.span("txn", track="store", mode="journaled") as span:
        span.set("outcome", "committed")
    assert span.args == {"mode": "journaled", "outcome": "committed"}


def test_unentered_span_records_nothing():
    # span() returns a context object: the span is created and
    # pushed on the open-span stack only on __enter__, so a call that
    # is never entered cannot leave the stack unbalanced.
    tracer = Tracer()
    tracer.span("never-entered", track="roap")
    with tracer.span("outer") as outer:
        tracer.on_record(record())
    assert [span.name for span in tracer.spans] == ["outer", "probe"]
    assert outer.parent is None
    assert tracer.spans[1].parent == outer.index


def test_span_stack_unwinds_on_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("failing") as failing:
            tracer.on_record(record())
            raise RuntimeError("must propagate")
    with tracer.span("next") as following:
        pass
    assert failing.end == tracer.now
    assert following.parent is None


def test_event_stamped_at_current_time_and_counted():
    tracer = Tracer()
    tracer.on_record(record())
    event = tracer.event("session.retry", track="roap", attempt=2)
    assert event.ts == tracer.now
    assert tracer.metrics.counters["events.session.retry"] == 1


def test_tracks_in_first_use_order():
    tracer = Tracer()
    with tracer.span("a", track="roap"):
        tracer.on_record(record())           # registration track
    tracer.event("x", track="store")
    assert tracer.tracks() == ("roap", "registration", "store")


def test_same_seed_runs_are_identical():
    def capture():
        tracer = Tracer(profile=SW_PROFILE, actor="terminal")
        run_scenario("full", tracer, seed=SEED, rsa_bits=BITS)
        return tracer
    a, b = capture(), capture()
    assert [asdict(s) for s in a.spans] == [asdict(s) for s in b.spans]
    assert [asdict(e) for e in a.events] == [asdict(e) for e in b.events]
    assert a.metrics == b.metrics


def test_null_tracer_is_inert_singleton():
    assert NULL_TRACER.enabled is False
    assert NULL_TRACER.now == 0
    # reusable singletons: no allocation per span/event
    assert NULL_TRACER.span("x", track="y") is _NULL_CONTEXT
    with NULL_TRACER.span("x") as span:
        assert span is _NULL_SPAN
        span.set("k", "v")          # swallowed
    assert NULL_TRACER.event("e", detail=1) is None
    assert NULL_TRACER.on_record(record()) is None
    assert NULL_TRACER.now == 0


def test_null_tracer_does_not_swallow_exceptions():
    with pytest.raises(RuntimeError):
        with NullTracer().span("x"):
            raise RuntimeError("must propagate")


def test_untraced_run_matches_traced_operation_trace():
    """Instrumentation must not change what the meter records."""
    def world_trace(tracer):
        world = DRMWorld.create(seed=SEED, rsa_bits=BITS, tracer=tracer)
        world.ci.publish("cid:x", "audio/mpeg", b"\x11" * 2048,
                         "http://ri.example/shop")
        world.agent.register(world.ri)
        return world.agent_crypto.trace
    untraced = world_trace(None)            # defaults to NULL_TRACER
    traced = world_trace(Tracer(profile=SW_PROFILE))
    assert untraced.canonical() == traced.canonical()
