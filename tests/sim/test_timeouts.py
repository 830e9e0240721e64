"""Acquire timeouts and priorities: in-queue expiry, held exactly.

The deadline-propagation substrate the overload work stands on:
an :class:`~repro.sim.kernel.Acquire` can arm a ``timeout`` (the
waiter resumes with :data:`~repro.sim.kernel.TIMED_OUT` if no server
frees up in time, consuming zero service) and a ``priority`` (lower
values overtake the FIFO queue; equal values preserve it). The unit
half pins each mechanism at hand-checkable schedules; the Hypothesis
half holds the queue-discipline and conservation properties across
schedules no hand-written case would try, plus the determinism
contract with expiry timers in the heap.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import (REJECTED, TIMED_OUT, Acquire, Kernel,
                              Release, Resource, Wait)

from .conftest import EventRecorder


def _holder(resource, hold):
    """Take the single server and hold it for ``hold`` ticks."""
    grant = yield Acquire(resource)
    assert grant is not REJECTED and grant is not TIMED_OUT
    yield Wait(hold)
    yield Release(resource)


def _contender(resource, trail, name, timeout=None, priority=0,
               hold=0):
    grant = yield Acquire(resource, timeout=timeout,
                          priority=priority)
    if grant is REJECTED:
        trail.append((name, resource.kernel.now, "rejected"))
        return None
    if grant is TIMED_OUT:
        trail.append((name, resource.kernel.now, "timed-out"))
        return None
    trail.append((name, resource.kernel.now, "granted"))
    yield Wait(hold)
    yield Release(resource)
    return None


# -- validation -------------------------------------------------------------

def test_acquire_rejects_bad_timeouts_and_priorities():
    with pytest.raises(ValueError):
        Acquire(None, timeout=-1)
    with pytest.raises(TypeError):
        Acquire(None, timeout=1.5)
    with pytest.raises(TypeError):
        Acquire(None, timeout=True)
    with pytest.raises(TypeError):
        Acquire(None, priority=1.5)
    with pytest.raises(TypeError):
        Acquire(None, priority=True)


# -- unit schedules ---------------------------------------------------------

def test_timeout_zero_expires_immediately_when_busy():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r")
    trail = []
    kernel.spawn("a", _holder(resource, 10))
    kernel.spawn("b", _contender(resource, trail, "b", timeout=0))
    kernel.run()
    assert trail == [("b", 0, "timed-out")]
    assert resource.timeouts == 1
    assert resource.grants == 1  # the holder only


def test_timeout_zero_grants_when_a_server_is_free():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r")
    trail = []
    kernel.spawn("a", _contender(resource, trail, "a", timeout=0))
    kernel.run()
    assert trail == [("a", 0, "granted")]
    assert resource.timeouts == 0


def test_waiter_expires_in_queue_at_its_deadline():
    kernel = Kernel(seed="unit")
    recorder = EventRecorder(kernel)
    resource = recorder.resource("r")
    trail = []
    recorder.spawn("a", _holder(resource, 10))
    recorder.spawn("b", _contender(resource, trail, "b", timeout=4))
    kernel.run()
    assert trail == [("b", 4, "timed-out")]
    assert resource.timeouts == 1
    assert (4, "timeout", "b", "r", 4) in recorder.event_log()
    # The expired waiter consumed zero service: the holder's span is
    # the only occupancy the resource ever saw.
    assert resource.busy_servers.area_until(10) == 10


def test_grant_before_timeout_leaves_no_trace_of_the_timer():
    def run(timeout):
        kernel = Kernel(seed="unit")
        recorder = EventRecorder(kernel)
        resource = recorder.resource("r")
        trail = []
        recorder.spawn("a", _holder(resource, 3))
        recorder.spawn("b", _contender(resource, trail, "b",
                                       timeout=timeout))
        kernel.run()
        return kernel, resource, tuple(trail), recorder.event_log()

    timed = run(timeout=50)
    untimed = run(timeout=None)
    # The timer never fired, so the runs are observationally identical:
    # same event log, same event count, same grants.
    assert timed[3] == untimed[3]
    assert timed[0].events_executed == untimed[0].events_executed
    assert timed[2] == untimed[2] == (("b", 3, "granted"),)
    assert timed[1].timeouts == 0


def test_priority_overtakes_fifo_and_equal_priority_preserves_it():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r")
    trail = []
    kernel.spawn("a", _holder(resource, 10))
    # b queues first at priority 2; c queues later at priority 0 and
    # overtakes it; d queues last at priority 2 and stays behind b.
    kernel.spawn("b", _contender(resource, trail, "b", priority=2),
                 at=1)
    kernel.spawn("c", _contender(resource, trail, "c", priority=0),
                 at=2)
    kernel.spawn("d", _contender(resource, trail, "d", priority=2),
                 at=3)
    kernel.run()
    assert [name for name, _at, _what in trail] == ["c", "b", "d"]


def test_expired_waiter_frees_its_queue_slot():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r", queue_limit=1)
    trail = []
    kernel.spawn("a", _holder(resource, 50))
    kernel.spawn("b", _contender(resource, trail, "b", timeout=5),
                 at=1)
    # The queue is full while b waits, so c bounces...
    kernel.spawn("c", _contender(resource, trail, "c"), at=3)
    # ...but after b expires at t=6 the slot is free again for d.
    kernel.spawn("d", _contender(resource, trail, "d"), at=7)
    kernel.run()
    assert trail == [("c", 3, "rejected"), ("b", 6, "timed-out"),
                     ("d", 50, "granted")]


def test_state_digest_tracks_armed_and_cancelled_timers():
    def paused(timeout):
        kernel = Kernel(seed="unit")
        resource = Resource(kernel, "r")
        kernel.spawn("a", _holder(resource, 10))
        kernel.spawn("b", _contender(resource, [], "b",
                                     timeout=timeout))
        kernel.run(until=2)
        return kernel.state_digest()

    # Mid-flight, an armed expiry timer is real state: a kernel that
    # will expire its waiter must not digest equal to one that won't.
    assert paused(timeout=4) != paused(timeout=None)
    assert paused(timeout=4) == paused(timeout=4)


def test_close_silences_suspended_processes():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r")

    def guarded(name):
        grant = yield Acquire(resource)
        if grant is REJECTED or grant is TIMED_OUT:
            return None
        try:
            yield Wait(100)
        finally:
            yield Release(resource)

    kernel.spawn("a", guarded("a"))
    kernel.spawn("b", guarded("b"))
    kernel.run(until=10)
    # a holds the server inside its try block; b sits in the queue.
    # close() must wind both down without raising, even though a's
    # ``finally: yield Release`` fires during the close.
    kernel.close()
    kernel.close()  # idempotent


def test_close_frees_a_stopped_simulation_by_reference_counting():
    kernel = Kernel(seed="unit")
    resource = Resource(kernel, "r")

    def holder():
        yield Acquire(resource)
        try:
            yield Wait(100)
        finally:
            yield Release(resource)

    bodies = [holder() for _ in range(3)]
    for index, body in enumerate(bodies):
        kernel.spawn("p%d" % index, body)
    kernel.run(until=10)
    refs = [weakref.ref(body) for body in bodies]
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel.close()
        del kernel, resource, body, bodies
        # Without the cycle collector: nothing of the run is left.
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


# -- properties -------------------------------------------------------------

#: One contender: (start, timeout-or-None, hold).
CONTENDERS = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e", "f"]),
    st.tuples(st.integers(min_value=0, max_value=25),
              st.one_of(st.none(),
                        st.integers(min_value=0, max_value=15)),
              st.integers(min_value=0, max_value=20)),
    min_size=1, max_size=6)

QUEUE_LIMITS = st.one_of(st.none(),
                         st.integers(min_value=0, max_value=3))


def _run_contention(spawn_set, order, queue_limit):
    kernel = Kernel(seed="prop")
    recorder = EventRecorder(kernel)
    resource = recorder.resource("r", queue_limit=queue_limit)
    trail = []
    for name in order:
        start, timeout, hold = spawn_set[name]
        recorder.spawn(name, _contender(resource, trail, name,
                                        timeout=timeout, hold=hold),
                       at=start)
    kernel.run()
    return kernel, resource, tuple(trail), recorder.event_log()


@settings(max_examples=40, deadline=None)
@given(spawn_set=CONTENDERS, queue_limit=QUEUE_LIMITS, data=st.data())
def test_expiring_waiters_keep_the_run_deterministic(spawn_set,
                                                     queue_limit,
                                                     data):
    names = sorted(spawn_set)
    permuted = data.draw(st.permutations(names))
    kernel, _resource, trail, log = _run_contention(spawn_set, names,
                                                    queue_limit)
    kernel2, _resource2, trail2, log2 = _run_contention(
        spawn_set, permuted, queue_limit)
    assert log2 == log
    assert trail2 == trail
    assert kernel2.state_digest() == kernel.state_digest()


@settings(max_examples=40, deadline=None)
@given(spawn_set=CONTENDERS, queue_limit=QUEUE_LIMITS)
def test_every_acquire_resolves_exactly_once(spawn_set, queue_limit):
    _kernel, resource, trail, _log = _run_contention(spawn_set,
                                                     sorted(spawn_set),
                                                     queue_limit)
    # Conservation: each contender's one Acquire ends in exactly one
    # of granted / rejected / timed-out, and the resource's counters
    # agree with the processes' own observations.
    assert len(trail) == len(spawn_set)
    outcomes = [what for _name, _at, what in trail]
    assert resource.grants == outcomes.count("granted")
    assert resource.rejections == outcomes.count("rejected")
    assert resource.timeouts == outcomes.count("timed-out")
    assert resource.busy == 0 and resource.queued == 0


@settings(max_examples=40, deadline=None)
@given(spawn_set=CONTENDERS, queue_limit=QUEUE_LIMITS)
def test_fifo_order_survives_expiring_waiters(spawn_set, queue_limit):
    _kernel, _resource, _trail, log = _run_contention(spawn_set,
                                                      sorted(spawn_set),
                                                      queue_limit)
    # Among same-priority waiters that reached the queue and were
    # eventually granted, grants must come in enqueue order — a waiter
    # expiring ahead of them must not reshuffle the survivors.
    enqueued = [entry[2] for entry in log if entry[1] == "enqueue"]
    granted = {entry[2] for entry in log if entry[1] == "grant"}
    queued_grants = [entry[2] for entry in log
                     if entry[1] == "grant" and entry[2] in enqueued]
    survivors = [name for name in enqueued if name in granted]
    assert queued_grants == survivors
