"""Tracer semantics: cycle timebase, reconciliation, null overhead."""

from dataclasses import asdict

import pytest

from repro.core.architecture import HW_PROFILE, PAPER_PROFILES, SW_PROFILE
from repro.core.model import PerformanceModel
from repro.core.trace import Algorithm, OperationRecord, Phase
from repro.drm.rel import ExportMode, export_rights, play_count
from repro.drm.roap.triggers import TriggerType
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
        trace = run_scenario("consume", tracer, seed=SEED,
                             rsa_bits=BITS)
        breakdown = PerformanceModel().evaluate(trace, profile)
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


def test_streaming_export_and_domain_flows_parent_their_operations():
    """Every operation span of these flows sits under an agent span."""
    tracer = Tracer(profile=SW_PROFILE, actor="terminal")
    world = DRMWorld.create(seed=SEED, rsa_bits=BITS, tracer=tracer)
    offers = (("cid:play", "ro:play", play_count(3)),
              ("cid:export", "ro:export",
               export_rights(("target-drm",), ExportMode.COPY)))
    dcfs = {}
    for content_id, ro_id, rights in offers:
        dcfs[ro_id] = world.ci.publish(content_id, "audio/mpeg",
                                       b"\x22" * 2048,
                                       "http://ri.example/shop")
        world.ri.add_offer(ro_id, world.ci.negotiate_license(content_id),
                           rights)
    world.ri.create_domain("domain:spans")
    world.agent.register(world.ri)
    for ro_id, dcf in dcfs.items():
        world.agent.install(world.agent.acquire(world.ri, ro_id), dcf)

    start = len(tracer.spans)
    list(world.agent.consume_streaming("cid:play", chunk_octets=512))
    world.agent.export("cid:export", "target-drm")
    world.agent.join_domain(world.ri, "domain:spans")
    world.agent.leave_domain(world.ri, "domain:spans")
    spans = tracer.spans[start:]
    operations = [s for s in spans if s.category == OPERATION_CATEGORY]
    assert operations
    assert [s.name for s in operations if s.parent is None] == []
    names = {s.name for s in spans}
    assert {"agent.consume_streaming", "agent.stream_chunk",
            "agent.export", "agent.join_domain",
            "agent.leave_domain"} <= names


def test_trigger_verify_sits_under_a_handle_trigger_span():
    """The trigger signature verify is parented, not a profile root."""
    tracer = Tracer(profile=SW_PROFILE, actor="terminal")
    world = DRMWorld.create(seed=SEED, rsa_bits=BITS, tracer=tracer)
    world.ci.publish("cid:trigger", "audio/mpeg", b"\x33" * 1024,
                     "http://ri.example/shop")
    world.ri.add_offer("ro:trigger",
                       world.ci.negotiate_license("cid:trigger"),
                       play_count(1))
    world.agent.register(world.ri)
    start = len(tracer.spans)
    world.agent.handle_trigger(
        world.ri.trigger(TriggerType.RO_ACQUISITION, ro_id="ro:trigger"),
        world.ri)
    spans = tracer.spans[start:]
    verifies = [s for s in spans if s.name.startswith("verify-trigger")]
    assert verifies
    assert [s.name for s in spans if s.parent is None] \
        == ["agent.handle_trigger", "agent.acquire"]
    handler = spans[0]
    assert handler.args == {"trigger": "roAcquisition"}
    assert all(s.parent is not None for s in verifies)
