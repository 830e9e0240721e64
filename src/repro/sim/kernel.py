"""Deterministic discrete-event kernel: one heap, one virtual clock.

The fleet engine (:mod:`repro.usecases.fleet`) prices devices as if each
one had the Rights Issuer to itself — embarrassingly parallel, which is
exactly why it cannot express contention, queueing or saturation. This
kernel is the shared-clock substrate those phenomena need:

* **One binary event heap** keyed by ``(virtual_time, seq)``. ``seq`` is
  a monotone schedule counter, so simultaneous events pop in the order
  they were scheduled — FIFO-stable tie-breaking, never hash order.
* **Processes are generators.** A process yields :class:`Wait`,
  :class:`Acquire` and :class:`Release` commands; the kernel resumes it
  when the wait elapses or the resource grants. Nothing preemptive,
  nothing threaded: a run is a single deterministic fold over the heap.
* **Seeded per-entity DRBG streams.** :meth:`Kernel.stream` derives a
  ``random.Random`` from ``(kernel seed, stream name)`` — the same
  derivation idiom as the fleet's per-device draws, so no entity's
  randomness depends on any other entity's schedule.

**Determinism contract.** A kernel run is a pure function of
``(seed, registered processes)``: registration *order* does not matter
(pre-run spawns are sorted by ``(start, name)`` before seq assignment),
virtual time is integer ticks (no float accumulation order), and the
schedule — every spawn, wait, grant, release and exit — is identical
across runs, worker counts and pause/resume boundaries. A run keeps no
event log: ``tests/sim/test_determinism.py`` watches the schedule
through a recording :class:`Resource` subclass and body wrapper, and
holds these properties under Hypothesis. :meth:`Kernel.state_digest`
exposes a stable digest of ``(clock, heap, DRBG states, queues)`` so
paused kernels can be compared mid-flight.

Tick units are the caller's choice; :mod:`repro.sim.ri` uses one tick
per RI clock cycle so service times come straight from the priced
:class:`~repro.core.costs.CostTable`.
"""

import heapq
from random import Random
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..core.jitter import stream_seed
from ..core.stats import StreamingStats, TimeWeightedStats
# repro: allow[REP201] -- state digests are simulation bookkeeping, not protocol crypto; pricing them would distort every priced artifact
from ..crypto.sha1 import sha1

#: Sentinel sent into a process whose Acquire was refused (queue full).
REJECTED = object()

#: Sentinel sent into a process whose Acquire waited out its timeout:
#: the request expired *in the queue*, consuming no service.
TIMED_OUT = object()

#: Process generator type: yields commands, receives grants.
ProcessBody = Generator[Any, Any, Any]


class Wait:
    """Suspend the yielding process for ``ticks`` of virtual time."""

    __slots__ = ("ticks",)

    def __init__(self, ticks: int) -> None:
        if ticks.__class__ is not int and (
                not isinstance(ticks, int) or isinstance(ticks, bool)):
            raise TypeError("waits must be integer ticks; quantize "
                            "continuous delays before yielding")
        if ticks < 0:
            raise ValueError("a process cannot wait backwards in time")
        self.ticks = ticks


class Acquire:
    """Request one unit of ``resource``; resumes with a grant token.

    The sent value is the grant — or :data:`REJECTED` when the bounded
    queue is full, or :data:`TIMED_OUT` when ``timeout`` ticks elapsed
    before a server freed up (the request expires in-queue without ever
    consuming service; ``timeout=0`` expires immediately unless a
    server is free right now). Lower ``priority`` values are granted
    first; equal priorities keep strict FIFO arrival order, so the
    default ``priority=0`` preserves the historical queue discipline
    exactly.
    """

    __slots__ = ("resource", "timeout", "priority")

    def __init__(self, resource: "Resource",
                 timeout: Optional[int] = None, priority: int = 0) -> None:
        if timeout is not None:
            if not isinstance(timeout, int) or isinstance(timeout, bool):
                raise TypeError("acquire timeouts are integer ticks")
            if timeout < 0:
                raise ValueError("an acquire timeout cannot be "
                                 "negative")
        if priority.__class__ is not int and (
                not isinstance(priority, int)
                or isinstance(priority, bool)):
            raise TypeError("acquire priorities are integers")
        self.resource = resource
        self.timeout = timeout
        self.priority = priority


class Release:
    """Return one previously granted unit of ``resource``."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        self.resource = resource


def _require_ticks(value: Any, what: str) -> None:
    """Raise ``TypeError`` unless ``value`` is an integer tick count."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError("%s must be integer ticks; virtual time has no "
                        "fractions" % what)


class Process:
    """One schedulable entity: a named generator and the value it
    resumes with next."""

    __slots__ = ("name", "body", "_inbox")

    def __init__(self, name: str, body: ProcessBody) -> None:
        self.name = name
        self.body = body
        self._inbox: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Process(%r)" % self.name


class _Waiter:
    """One queued Acquire: its process plus queue-discipline keys."""

    __slots__ = ("process", "enqueued", "priority", "order", "alive")

    def __init__(self, process: Process, enqueued: int, priority: int,
                 order: int) -> None:
        self.process = process
        self.enqueued = enqueued
        self.priority = priority
        self.order = order
        #: Cleared on grant or expiry; a dead waiter's pending expiry
        #: timer is a no-op (popped without advancing the clock).
        self.alive = True


class _Expiry:
    """A heap entry that expires one queued waiter at its deadline."""

    __slots__ = ("resource", "waiter")

    def __init__(self, resource: "Resource", waiter: _Waiter) -> None:
        self.resource = resource
        self.waiter = waiter


class Kernel:
    """The discrete-event scheduler; see the module docstring."""

    def __init__(self, seed: str = "repro-sim") -> None:
        self.seed = seed
        self.now = 0
        self._seq = 0
        self._heap: List[Tuple[int, int, Any]] = []
        self._pending: List[Tuple[int, Process]] = []
        self._processes: Dict[str, Process] = {}
        self._streams: Dict[str, Random] = {}
        self._resources: List["Resource"] = []
        self._running = False
        self.events_executed = 0

    # -- entity plumbing --------------------------------------------------
    def stream(self, name: str) -> Random:
        """The seeded DRBG stream for entity ``name`` (memoized).

        Derived from ``(kernel seed, name)`` alone — independent of
        schedule order, other streams and first-use time.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = Random(stream_seed(self.seed,
                                                           name))
        return rng

    def spawn(self, name: str, body: ProcessBody,
              at: int = 0) -> Process:
        """Register process ``name`` to start ``at`` ticks from zero.

        Names must be unique among live processes only: the kernel
        drops a process when its body finishes, so a finished name may
        be spawned again. Pre-run spawns are order-independent (sorted
        by ``(at, name)`` before scheduling); spawns issued by a running
        process start at the current virtual time plus ``at`` and
        inherit the running process's deterministic position in the
        schedule.
        """
        if name in self._processes:
            raise ValueError("process name %r already registered" % name)
        if at.__class__ is not int:
            _require_ticks(at, "spawn offsets")
        if at < 0:
            raise ValueError("a process cannot start in the past")
        process = Process(name, body)
        self._processes[name] = process
        if self._running:
            # A spawn issued by a running process inherits that
            # process's deterministic position in the schedule — it is
            # scheduled immediately.
            self._schedule(process, self.now + at, None)
        else:
            self._pending.append((self.now + at, process))
        return process

    def _schedule(self, process: Process, at: int, inbox: Any) -> None:
        self._seq += 1
        process._inbox = inbox
        heapq.heappush(self._heap, (at, self._seq, process))

    def _schedule_timer(self, expiry: "_Expiry", at: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, expiry))

    def _flush_pending(self) -> None:
        # Sorting by (start, name) before seq assignment is what makes
        # registration order immaterial: any permutation of the same
        # spawn set schedules identically.
        self._pending.sort(key=lambda entry: (entry[0], entry[1].name))
        for at, process in self._pending:
            self._schedule(process, at, None)
        self._pending.clear()

    # -- the event loop ---------------------------------------------------
    def run(self, until: Optional[int] = None) -> int:
        """Execute events until the heap drains (or ``until`` passes).

        Returns the virtual time at exit. Pausing with ``until`` and
        calling ``run`` again replays exactly the schedule an unpaused
        run would have executed — the pause is invisible to processes.

        Commands dispatch on their exact class, so a subclass of
        :class:`Wait`, :class:`Acquire` or :class:`Release` is rejected
        like any other foreign yield.
        """
        if until is not None:
            _require_ticks(until, "run horizons")
            if until < self.now:
                raise ValueError("cannot run until a time already "
                                 "passed")
        self._flush_pending()
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        try:
            while heap:
                at, _seq, entry = heap[0]
                if until is not None and at > until:
                    self.now = until
                    return self.now
                heappop(heap)
                if entry.__class__ is _Expiry:
                    if not entry.waiter.alive:
                        # A cancelled timer (its waiter was granted or
                        # rejected first) is popped silently: no clock
                        # advance, no event executed, so a run with
                        # unfired timeouts is bit-identical to one
                        # that never armed them.
                        continue
                    self.now = at
                    self.events_executed += 1
                    entry.resource._expire(entry.waiter)
                    continue
                self.now = at
                self.events_executed += 1
                # Resume the process with its inbox, then act on the
                # command it yields next. A finished process is dropped
                # at once, so the kernel holds only what is in flight.
                inbox = entry._inbox
                entry._inbox = None
                try:
                    command = entry.body.send(inbox)
                except StopIteration:
                    del self._processes[entry.name]
                    continue
                kind = command.__class__
                if kind is Wait:
                    self._seq += 1
                    heappush(heap, (at + command.ticks, self._seq, entry))
                elif kind is Acquire:
                    command.resource._request(entry, command.timeout,
                                              command.priority)
                elif kind is Release:
                    command.resource._release(entry)
                else:
                    raise TypeError(
                        "process %r yielded %r; expected Wait, Acquire "
                        "or Release" % (entry.name, command))
        finally:
            self._running = False
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def close(self) -> None:
        """Close every live process generator, silently.

        A run stopped at ``until`` leaves suspended generators behind
        — queued waiters, in-service holders, sleeping clients. Left
        to garbage collection, Python closes them lazily and prints
        an ignored ``RuntimeError`` whenever a ``finally: yield
        Release`` fires during close. Closing explicitly (and
        swallowing that structurally-inevitable yield) tears a stopped
        simulation down without noise. The kernel then drops its
        processes, pending events and resources, so the stopped
        simulation is freed by reference counting as soon as its
        caller lets go of it, not at the next full garbage collection.
        Idempotent; do not ``run`` the kernel afterwards.
        """
        for process in self._processes.values():
            close = getattr(process.body, "close", None)
            if close is None:
                continue
            try:
                close()
            except RuntimeError:
                # The process's ``finally: yield Release`` fired while
                # closing — the release it would have issued had it
                # finished. There is no scheduler left to hand it to.
                pass
        self._heap.clear()
        self._pending.clear()
        self._processes.clear()
        self._resources.clear()

    # -- snapshots --------------------------------------------------------
    def state_digest(self) -> str:
        """A stable hex digest of the kernel's complete dynamic state.

        Two kernels with equal digests are in the same state: same
        clock, same heap (keys, process names and the inbox each
        process resumes with), same DRBG stream states, same resource
        occupancy and queues. Used by the pause/resume property tests
        to prove a paused kernel is byte-for-byte the kernel an
        unpaused run passes through.
        """
        heap = sorted(
            (at, seq, entry.name, _inbox_key(entry._inbox))
            if isinstance(entry, Process)
            else (at, seq, "timer:%s" % entry.waiter.process.name,
                  "armed" if entry.waiter.alive else "cancelled")
            for at, seq, entry in self._heap)
        pending = sorted((at, process.name)
                         for at, process in self._pending)
        streams = [(name, self._streams[name].getstate())
                   for name in sorted(self._streams)]
        resources = [resource._state_key()
                     for resource in self._resources]
        blob = repr((self.now, self._seq, heap, pending, streams,
                     resources)).encode("utf-8")
        return sha1(blob).hex()


def _inbox_key(inbox: Any) -> str:
    """What a scheduled process resumes with: a grant of the named
    resource, a refusal, an expiry, or nothing."""
    if inbox is None:
        return "none"
    if inbox is REJECTED:
        return "rejected"
    if inbox is TIMED_OUT:
        return "timed-out"
    return "grant:%s" % inbox.name


class Resource:
    """A bounded pool of identical servers with a priority-FIFO queue.

    ``capacity`` units serve concurrently; further :class:`Acquire`
    requests queue ordered by ``(priority, arrival)`` — lower priority
    values first, strict FIFO inside a class, so the default priority 0
    reproduces the historical pure-FIFO discipline exactly. A
    ``queue_limit`` bounds the queue: requests beyond it resume
    immediately with :data:`REJECTED` instead of waiting — the
    deterministic analogue of a connection-refused front-end. An
    :class:`Acquire` ``timeout`` arms an in-queue expiry: if no server
    frees up in time the waiter resumes with :data:`TIMED_OUT`, having
    consumed zero service — the substrate deadline propagation needs.

    Occupancy and queue depth are tracked as exact integer areas
    (:class:`~repro.core.stats.TimeWeightedStats`), and per-grant queue
    waits as an exact distribution
    (:class:`~repro.core.stats.StreamingStats`), so Little's-law
    identities over a drained run hold bit-exactly.
    """

    def __init__(self, kernel: Kernel, name: str, capacity: int = 1,
                 queue_limit: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError("a resource needs at least one server")
        if queue_limit is not None and queue_limit < 0:
            raise ValueError("the queue limit must be non-negative")
        self.kernel = kernel
        self.name = name
        self.capacity = capacity
        self.queue_limit = queue_limit
        self._busy = 0
        self._queue: List[_Waiter] = []
        self._order = 0
        self.grants = 0
        self.rejections = 0
        self.timeouts = 0
        self.busy_servers = TimeWeightedStats()
        self.queue_depth = TimeWeightedStats()
        self.wait_ticks = StreamingStats()
        kernel._resources.append(self)

    # -- kernel-facing mechanics ------------------------------------------
    def _grant(self, process: Process, waited: int) -> None:
        kernel = self.kernel
        now = kernel.now
        self._busy += 1
        self.busy_servers.observe(self._busy, now)
        self.grants += 1
        self.wait_ticks.add(waited)
        kernel._schedule(process, now, self)

    def _request(self, process: Process, timeout: Optional[int] = None,
                 priority: int = 0) -> None:
        kernel = self.kernel
        now = kernel.now
        queue = self._queue
        if self._busy < self.capacity and not queue:
            self._grant(process, 0)
        elif (self.queue_limit is not None
              and len(queue) >= self.queue_limit):
            self.rejections += 1
            kernel._schedule(process, now, REJECTED)
        elif timeout == 0:
            # Zero patience and no free server: the request expires on
            # arrival, before ever occupying a queue slot.
            self.timeouts += 1
            kernel._schedule(process, now, TIMED_OUT)
        else:
            self._order += 1
            waiter = _Waiter(process, now, priority, self._order)
            # Queue order is (priority, order). The newcomer's order is
            # the largest yet, so it goes behind every waiter of equal
            # or better priority: scan back past strictly worse ones.
            index = len(queue)
            while index > 0 and queue[index - 1].priority > priority:
                index -= 1
            queue.insert(index, waiter)
            self.queue_depth.observe(len(queue), now)
            if timeout is not None:
                kernel._schedule_timer(_Expiry(self, waiter),
                                       now + timeout)

    def _release(self, process: Process) -> None:
        if self._busy < 1:
            raise ValueError(
                "process %r released %r, which has no unit out"
                % (process.name, self.name))
        kernel = self.kernel
        now = kernel.now
        self._busy -= 1
        self.busy_servers.observe(self._busy, now)
        # The releasing process resumes first (it was scheduled before
        # the waiter it unblocks), then the head-of-line waiter — both
        # at the current tick, ordered by seq: FIFO, never hash order.
        kernel._schedule(process, now, None)
        if self._queue:
            waiter = self._queue.pop(0)
            # Granting cancels any armed expiry timer for this waiter.
            waiter.alive = False
            self.queue_depth.observe(len(self._queue), now)
            self._grant(waiter.process, now - waiter.enqueued)

    def _expire(self, waiter: _Waiter) -> None:
        """Fire one armed expiry: the waiter leaves the queue unserved."""
        waiter.alive = False
        self._queue.remove(waiter)
        kernel = self.kernel
        now = kernel.now
        self.queue_depth.observe(len(self._queue), now)
        self.timeouts += 1
        kernel._schedule(waiter.process, now, TIMED_OUT)

    # -- statistics -------------------------------------------------------
    @property
    def busy(self) -> int:
        """Servers currently serving."""
        return self._busy

    @property
    def queued(self) -> int:
        """Requests currently waiting in the queue."""
        return len(self._queue)

    def utilization(self, span: Optional[int] = None) -> float:
        """Mean fraction of servers busy over ``[0, span]``."""
        span = self.kernel.now if span is None else span
        if not span:
            return 0.0
        return self.busy_servers.area_until(span) / (span * self.capacity)

    def mean_queue_depth(self, span: Optional[int] = None) -> float:
        """Time-average queue length over ``[0, span]``."""
        span = self.kernel.now if span is None else span
        return self.queue_depth.mean(span)

    def _state_key(self) -> Tuple[Any, ...]:
        return (self.name, self._busy, self.timeouts,
                tuple((waiter.process.name, waiter.enqueued,
                       waiter.priority, waiter.order)
                      for waiter in self._queue))
