"""A test-local event recorder for the kernel.

A kernel run keeps no log. The determinism and timeout tests watch its
schedule through :class:`EventRecorder`, which rebuilds the entries a
log would hold — ``(tick, kind, process, *detail)`` for spawn, wait,
grant, enqueue, reject, timeout, release and exit — from a
:class:`~repro.sim.kernel.Resource` subclass and a process body
wrapper. Entries land in schedule order, so two runs of the same
schedule record equal logs.
"""

from repro.sim.kernel import Resource, Wait


class RecordingResource(Resource):
    """A :class:`Resource` that logs each grant, enqueue, refusal,
    expiry and release into its recorder's log."""

    def __init__(self, recorder, name, **kwargs):
        super().__init__(recorder.kernel, name, **kwargs)
        self.log = recorder.log

    def _grant(self, process, waited):
        self.log.append((self.kernel.now, "grant", process.name,
                         self.name, waited))
        super()._grant(process, waited)

    def _request(self, process, timeout=None, priority=0):
        grants, rejections = self.grants, self.rejections
        timeouts, queued = self.timeouts, self.queued
        super()._request(process, timeout, priority)
        now = self.kernel.now
        if self.rejections > rejections:
            self.log.append((now, "reject", process.name, self.name))
        elif self.timeouts > timeouts:
            self.log.append((now, "timeout", process.name, self.name,
                             0))
        elif self.queued > queued:
            self.log.append((now, "enqueue", process.name, self.name))
        else:
            assert self.grants > grants

    def _release(self, process):
        self.log.append((self.kernel.now, "release", process.name,
                         self.name))
        super()._release(process)

    def _expire(self, waiter):
        now = self.kernel.now
        self.log.append((now, "timeout", waiter.process.name,
                         self.name, now - waiter.enqueued))
        super()._expire(waiter)


class EventRecorder:
    """Records one kernel's schedule: see the module docstring."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.log = []

    def resource(self, name, **kwargs):
        """A :class:`RecordingResource` on this recorder's kernel."""
        return RecordingResource(self, name, **kwargs)

    def spawn(self, name, body, at=0):
        """Spawn ``body`` as ``name``, logging its start, waits and
        exit."""
        return self.kernel.spawn(name, self._recorded(name, body), at=at)

    def event_log(self):
        """The recorded entries, as an immutable tuple."""
        return tuple(self.log)

    def _recorded(self, name, body):
        kernel, log = self.kernel, self.log
        log.append((kernel.now, "spawn", name))
        inbox = None
        while True:
            try:
                command = body.send(inbox)
            except StopIteration as stop:
                log.append((kernel.now, "exit", name))
                return stop.value
            if command.__class__ is Wait:
                log.append((kernel.now, "wait", name, command.ticks))
            inbox = yield command
