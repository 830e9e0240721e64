"""Unit contracts of the discrete-event kernel.

Mechanics only: command validation, FIFO resource semantics, bounded
queues, pause/resume bookkeeping, stream derivation. The statistical
contracts (queueing laws) and the whole-system determinism properties
live in ``test_queueing_laws.py`` and ``test_determinism.py``.
"""

import gc
import weakref

import pytest

from repro.core.architecture import HW_PROFILE
from repro.sim.kernel import (REJECTED, Acquire, Kernel, Release,
                              Resource, Wait)
from repro.sim.ri import RIServer

from .conftest import EventRecorder


def test_wait_rejects_negative_ticks():
    with pytest.raises(ValueError):
        Wait(-1)


def test_wait_rejects_non_integer_ticks():
    with pytest.raises(TypeError):
        Wait(1.5)
    with pytest.raises(TypeError):
        Wait(True)


def test_spawn_rejects_duplicate_names():
    kernel = Kernel(seed="unit")
    kernel.spawn("p", iter(()))
    with pytest.raises(ValueError):
        kernel.spawn("p", iter(()))


def test_spawn_rejects_negative_start():
    kernel = Kernel(seed="unit")
    with pytest.raises(ValueError):
        kernel.spawn("p", iter(()), at=-1)


@pytest.mark.parametrize("at", [1.5, True, 2.0])
def test_spawn_rejects_non_integer_start(at):
    kernel = Kernel(seed="unit")
    with pytest.raises(TypeError):
        kernel.spawn("p", iter(()), at=at)
    assert kernel.run() == 0


def test_midrun_spawn_rejects_non_integer_offset():
    kernel = Kernel(seed="unit")

    def parent():
        yield Wait(1)
        kernel.spawn("child", iter(()), at=1.5)

    kernel.spawn("parent", parent())
    with pytest.raises(TypeError):
        kernel.run()
    assert kernel.now == 1


@pytest.mark.parametrize("until", [1.5, True, 2.0])
def test_run_rejects_non_integer_horizon(until):
    kernel = Kernel(seed="unit")

    def body():
        yield Wait(1)

    kernel.spawn("p", body())
    with pytest.raises(TypeError):
        kernel.run(until=until)
    assert kernel.now == 0
    assert kernel.run() == 1


def test_command_subclasses_are_foreign_yields():
    """Dispatch is on the exact command class, not isinstance."""
    class LongWait(Wait):
        pass

    kernel = Kernel(seed="unit")

    def body():
        yield LongWait(3)

    kernel.spawn("p", body())
    with pytest.raises(TypeError, match="expected Wait, Acquire or "
                                        "Release"):
        kernel.run()


def test_commands_are_slotted():
    wait = Wait(4)
    assert wait.ticks == 4
    acquire = Acquire(None, timeout=7, priority=2)
    assert (acquire.resource, acquire.timeout, acquire.priority) \
        == (None, 7, 2)
    assert Release(None).resource is None
    for command in (wait, acquire, Release(None)):
        assert not hasattr(command, "__dict__")


def test_recorded_run_logs_every_kind_and_matches_a_plain_run():
    def build(recorded):
        kernel = Kernel(seed="unit")
        recorder = EventRecorder(kernel)
        if recorded:
            resource = recorder.resource("r", queue_limit=2)
            spawn = recorder.spawn
        else:
            resource = Resource(kernel, "r", queue_limit=2)
            spawn = kernel.spawn
        order = []

        def body(name, timeout):
            grant = yield Acquire(resource, timeout=timeout)
            order.append((name, kernel.now, grant is resource))
            if grant is resource:
                yield Wait(5)
                yield Release(resource)

        # a is served, b times out in the queue, c expires on
        # arrival, d waits its turn and e finds the queue full.
        for name, timeout in (("a", None), ("b", 2), ("c", 0),
                              ("d", None), ("e", None)):
            spawn(name, body(name, timeout))
        kernel.run()
        return kernel, order, recorder.event_log()

    logged, logged_order, log = build(True)
    plain, plain_order, _ = build(False)
    assert {entry[1] for entry in log} == {
        "spawn", "grant", "enqueue", "timeout", "reject", "wait",
        "release", "exit"}
    # Recording leaves the schedule exactly as a plain run has it.
    assert plain_order == logged_order == [
        ("a", 0, True), ("c", 0, False), ("e", 0, False),
        ("b", 2, False), ("d", 5, True)]
    assert plain.events_executed == logged.events_executed
    assert plain.state_digest() == logged.state_digest()


def test_run_rejects_past_deadline():
    kernel = Kernel(seed="unit")

    def body():
        yield Wait(10)

    kernel.spawn("p", body())
    kernel.run()
    with pytest.raises(ValueError):
        kernel.run(until=5)


def test_process_yielding_garbage_is_a_type_error():
    kernel = Kernel(seed="unit")

    def body():
        yield "not a command"

    kernel.spawn("p", body())
    with pytest.raises(TypeError):
        kernel.run()


def test_wait_advances_virtual_time_and_counts_events():
    kernel = Kernel(seed="unit")

    def body():
        yield Wait(7)
        yield Wait(3)
        return "done"

    process = kernel.spawn("p", body())
    assert repr(process) == "Process('p')"
    assert kernel.run() == 10
    assert kernel.now == 10
    # start + resume-after-first-wait + resume-after-second-wait.
    assert kernel.events_executed == 3


def test_run_until_pauses_without_executing_future_events():
    kernel = Kernel(seed="unit")
    seen = []

    def body():
        yield Wait(100)
        seen.append(kernel.now)

    kernel.spawn("p", body())
    assert kernel.run(until=50) == 50
    assert kernel.now == 50
    assert seen == []
    assert kernel.run() == 100
    assert seen == [100]


def test_run_until_advances_clock_past_an_empty_heap():
    kernel = Kernel(seed="unit")
    assert kernel.run(until=25) == 25
    assert kernel.now == 25


def test_midrun_spawn_executes_at_current_time_plus_offset():
    kernel = Kernel(seed="unit")
    order = []

    def child(name):
        order.append((name, kernel.now))
        return None
        yield  # pragma: no cover - makes this a generator

    def parent():
        yield Wait(5)
        kernel.spawn("child/late", child("late"), at=10)
        kernel.spawn("child/now", child("now"))
        yield Wait(0)

    kernel.spawn("parent", parent())
    kernel.run()
    assert order == [("now", 5), ("late", 15)]


def test_resource_validation():
    kernel = Kernel(seed="unit")
    with pytest.raises(ValueError):
        Resource(kernel, "r", capacity=0)
    with pytest.raises(ValueError):
        Resource(kernel, "r", queue_limit=-1)


def test_release_without_grant_is_an_error():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r")

    def body():
        yield Release(resource)

    kernel.spawn("p", body())
    with pytest.raises(ValueError):
        kernel.run()


def _worker(resource, holds, order, name):
    grant = yield Acquire(resource)
    assert grant is resource
    order.append(("grant", name, resource.kernel.now))
    yield Wait(holds)
    yield Release(resource)
    order.append(("done", name, resource.kernel.now))


def test_single_server_grants_fifo_in_spawn_order():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r")
    order = []
    for name in ("a", "b", "c"):
        kernel.spawn(name, _worker(resource, 10, order, name))
    kernel.run()
    assert order == [
        ("grant", "a", 0), ("done", "a", 10),
        ("grant", "b", 10), ("done", "b", 20),
        ("grant", "c", 20), ("done", "c", 30),
    ]
    assert resource.grants == 3
    assert resource.rejections == 0
    assert resource.busy == 0
    assert resource.queued == 0
    # Exact occupancy: one server busy for all 30 ticks.
    assert resource.utilization() == 1.0
    # Waits: 0, 10 and 20 ticks.
    assert resource.wait_ticks.summary().total == 30


def test_multi_server_capacity_serves_concurrently():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r", capacity=2)
    order = []
    for name in ("a", "b", "c"):
        kernel.spawn(name, _worker(resource, 10, order, name))
    kernel.run()
    # a and b run together; c waits for the first release.
    assert kernel.now == 20
    assert [entry for entry in order if entry[0] == "grant"] == [
        ("grant", "a", 0), ("grant", "b", 0), ("grant", "c", 10)]


def test_bounded_queue_rejects_beyond_the_limit():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r", capacity=1, queue_limit=1)
    outcomes = {}

    def body(name):
        grant = yield Acquire(resource)
        if grant is REJECTED:
            outcomes[name] = "rejected"
            return None
        yield Wait(10)
        yield Release(resource)
        outcomes[name] = "served"

    for name in ("a", "b", "c"):
        kernel.spawn(name, body(name))
    kernel.run()
    assert outcomes == {"a": "served", "b": "served", "c": "rejected"}
    assert resource.grants == 2
    assert resource.rejections == 1


def test_zero_queue_limit_refuses_any_waiting():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r", capacity=1, queue_limit=0)
    outcomes = {}

    def body(name):
        grant = yield Acquire(resource)
        outcomes[name] = "rejected" if grant is REJECTED else "served"
        if grant is not REJECTED:
            yield Wait(1)
            yield Release(resource)

    for name in ("a", "b"):
        kernel.spawn(name, body(name))
    kernel.run()
    assert outcomes == {"a": "served", "b": "rejected"}


def test_utilization_of_untouched_resource_is_zero():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r")
    assert resource.utilization() == 0.0
    assert resource.mean_queue_depth() == 0.0


def test_streams_are_memoized_and_name_derived():
    kernel = Kernel(seed="unit")
    assert kernel.stream("a") is kernel.stream("a")
    # Same (seed, name) in a fresh kernel replays the same draws ...
    fresh = Kernel(seed="unit")
    assert [kernel.stream("a").random() for _ in range(4)] == \
        [fresh.stream("a").random() for _ in range(4)]
    # ... and a different name is a different stream.
    assert kernel.stream("b").random() != fresh.stream("a").random()


def test_event_log_records_the_full_lifecycle():
    kernel = Kernel(seed="unit")
    recorder = EventRecorder(kernel)
    resource = recorder.resource("r")
    order = []
    recorder.spawn("a", _worker(resource, 5, order, "a"))
    recorder.spawn("b", _worker(resource, 5, order, "b"))
    kernel.run()
    kinds = [entry[1] for entry in recorder.event_log()]
    assert kinds.count("spawn") == 2
    assert kinds.count("grant") == 2
    assert kinds.count("release") == 2
    assert kinds.count("exit") == 2
    assert kinds.count("enqueue") == 1  # b queued behind a


def test_a_finished_process_keeps_nothing_of_its_return_value():
    class Outcome:
        pass

    kernel = Kernel(seed="unit")
    refs = []

    def body():
        yield Wait(1)
        outcome = Outcome()
        refs.append(weakref.ref(outcome))
        return outcome

    kernel.spawn("p", body())
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel.run()
        # Without the cycle collector: the returned object is freed by
        # reference counting as soon as the process finishes.
        assert len(refs) == 1 and refs[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_a_finished_request_is_freed_during_the_run():
    kernel = Kernel(seed="unit")
    ri = RIServer(kernel, HW_PROFILE)
    request = ri.serve_request("hello")
    ref = weakref.ref(request)
    kernel.spawn("request", request)
    del request
    seen = []

    def watcher():
        yield Wait(10 * ri.base_ticks("hello"))
        seen.append((ri.served, ref() is None))

    kernel.spawn("watcher", watcher())
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel.run()
    finally:
        if enabled:
            gc.enable()
    # Without the cycle collector: the served request's generator is
    # freed by reference counting while the run is still going.
    assert seen == [(1, True)]


def test_a_paused_kernel_holds_only_its_suspended_processes():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r")
    order = []
    for name in ("a", "b", "c"):
        kernel.spawn(name, _worker(resource, 10, order, name))

    def quick():
        yield Wait(5)

    kernel.spawn("quick", quick())
    kernel.run(until=15)
    # "quick" finished at 5 and "a" at 10; "b" is in service, "c" queued.
    assert order == [("grant", "a", 0), ("done", "a", 10),
                     ("grant", "b", 10)]
    assert set(kernel._processes) == {"b", "c"}
    kernel.run()
    assert kernel._processes == {}


def test_state_digest_distinguishes_and_matches_states():
    def build():
        kernel = Kernel(seed="unit")
        resource = Resource(kernel, "r")
        order = []
        for name in ("a", "b"):
            kernel.spawn(name, _worker(resource, 10, order, name))
        return kernel

    one, two = build(), build()
    assert one.state_digest() == two.state_digest()
    one.run(until=5)
    assert one.state_digest() != two.state_digest()
    two.run(until=5)
    assert one.state_digest() == two.state_digest()
    one.run()
    two.run()
    assert one.state_digest() == two.state_digest()
