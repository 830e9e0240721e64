"""Determinism contract of the kernel, held under Hypothesis.

Three properties make a kernel run a pure function of
``(seed, registered processes)``:

* **Registration-order invariance** — any permutation of the same
  pre-run spawn set produces a bit-identical schedule and final state
  digest (pre-run spawns are sorted by ``(start, name)`` before seq
  assignment).
* **FIFO tie-breaking** — simultaneous contenders for a resource are
  granted in schedule order, never hash or arrival-of-generator order.
* **Pause/resume transparency** — ``run(until=t)`` followed by
  ``run()`` replays exactly the schedule an unpaused ``run()``
  executes; the pause is invisible in the schedule, the digest and
  every statistic.

A run keeps no event log, so the schedule is watched through
``EventRecorder`` (``conftest.py``): a recording ``Resource`` subclass
plus a body wrapper that log every spawn, wait, grant, enqueue,
rejection, timeout, release and exit.

The process bodies are generated from small command scripts (waits,
acquire/hold/release rounds, stream draws), so the properties are
exercised across schedules no hand-written case would think to try.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import (REJECTED, Acquire, Kernel, Release,
                              Resource, Wait)

from .conftest import EventRecorder

#: One process's script: a start offset plus (pre-wait, hold) rounds.
SCRIPTS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=0, max_value=20)),
    min_size=0, max_size=4)

#: A spawn set: unique names mapped to (start, script).
SPAWN_SETS = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e", "f"]),
    st.tuples(st.integers(min_value=0, max_value=25), SCRIPTS),
    min_size=1, max_size=6)


def _body(kernel, resource, name, script, trail):
    """A process that waits, contends and draws per its script."""
    rng = kernel.stream(name)
    for pre_wait, hold in script:
        yield Wait(pre_wait)
        grant = yield Acquire(resource)
        if grant is REJECTED:
            trail.append((name, kernel.now, "rejected"))
            continue
        trail.append((name, kernel.now, "granted", rng.randrange(100)))
        yield Wait(hold)
        yield Release(resource)
    trail.append((name, kernel.now, "exit"))


def _run(spawn_set, order, seed="prop", queue_limit=None, until=None):
    """One complete run; returns (event log, trail, digest, now)."""
    kernel = Kernel(seed=seed)
    recorder = EventRecorder(kernel)
    resource = recorder.resource("r", queue_limit=queue_limit)
    trail = []
    for name in order:
        start, script = spawn_set[name]
        recorder.spawn(name,
                       _body(kernel, resource, name, script, trail),
                       at=start)
    if until is not None:
        kernel.run(until=until)
    kernel.run()
    return (recorder.event_log(), tuple(trail), kernel.state_digest(),
            kernel.now)


@settings(max_examples=40, deadline=None)
@given(spawn_set=SPAWN_SETS, data=st.data())
def test_registration_order_is_immaterial(spawn_set, data):
    names = sorted(spawn_set)
    permuted = data.draw(st.permutations(names))
    reference = _run(spawn_set, names)
    shuffled = _run(spawn_set, permuted)
    assert shuffled == reference


@settings(max_examples=40, deadline=None)
@given(spawn_set=SPAWN_SETS, data=st.data())
def test_bounded_queues_preserve_order_invariance(spawn_set, data):
    # Rejection decisions depend on queue occupancy at arrival, the
    # most schedule-sensitive part of the kernel — registration order
    # still must not matter.
    names = sorted(spawn_set)
    permuted = data.draw(st.permutations(names))
    reference = _run(spawn_set, names, queue_limit=1)
    shuffled = _run(spawn_set, permuted, queue_limit=1)
    assert shuffled == reference


@settings(max_examples=30, deadline=None)
@given(names=st.lists(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    min_size=2, max_size=5, unique=True))
def test_simultaneous_contenders_grant_fifo(names):
    # All contenders arrive at tick 0; grants must follow the
    # deterministic schedule order — sorted by (start, name) — and
    # never overlap on the single server.
    kernel = Kernel(seed="fifo")
    resource = Resource(kernel, "r")
    grants = []

    def contender(name):
        yield Acquire(resource)
        grants.append((name, kernel.now))
        yield Wait(10)
        yield Release(resource)

    for name in names:
        kernel.spawn(name, contender(name))
    kernel.run()
    expected = [(name, 10 * rank)
                for rank, name in enumerate(sorted(names))]
    assert grants == expected


@settings(max_examples=40, deadline=None)
@given(spawn_set=SPAWN_SETS,
       until=st.integers(min_value=0, max_value=120))
def test_pause_resume_is_invisible(spawn_set, until):
    names = sorted(spawn_set)
    unpaused = _run(spawn_set, names)
    paused = _run(spawn_set, names, until=until)
    # Log and trail are pause-blind unconditionally.
    assert paused[:2] == unpaused[:2]
    # The clock (and hence the digest, which includes it) differs only
    # when the pause deadline outlived the schedule — run(until)
    # advances an idle clock to the deadline.
    assert paused[3] == max(unpaused[3], until)
    if until <= unpaused[3]:
        assert paused[2] == unpaused[2]


@settings(max_examples=25, deadline=None)
@given(spawn_set=SPAWN_SETS,
       until=st.integers(min_value=0, max_value=120))
def test_paused_digest_appears_on_the_unpaused_timeline(spawn_set,
                                                        until):
    # A paused kernel is byte-for-byte the kernel an unpaused run
    # passes through: advancing a fresh kernel to the same boundary
    # reproduces the digest exactly.
    names = sorted(spawn_set)

    def build():
        kernel = Kernel(seed="prop")
        recorder = EventRecorder(kernel)
        resource = recorder.resource("r")
        trail = []
        for name in names:
            start, script = spawn_set[name]
            recorder.spawn(name,
                           _body(kernel, resource, name, script, trail),
                           at=start)
        return kernel, recorder

    paused, paused_log = build()
    paused.run(until=until)
    checkpoint = paused.state_digest()

    replay, replay_log = build()
    replay.run(until=until)
    assert replay.state_digest() == checkpoint

    paused.run()
    replay.run()
    assert replay.state_digest() == paused.state_digest()
    assert replay_log.event_log() == paused_log.event_log()
