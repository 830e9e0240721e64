"""Scheduled service outages and graceful degradation.

The other half of the adversary engine: instead of a hostile wire, the
peer is simply *gone*. Outages live on the simulation clock as explicit
windows, so a scenario can say "the OCSP responder is down for the
second hour" and every actor observes exactly that.

Two degradation mechanisms are modeled:

* :class:`OutageRIChannel` raises
  :class:`~repro.drm.errors.ServiceUnavailableError` while the RI is
  inside a downtime window — the typed signal that lets the session
  layer's :class:`~repro.drm.session.CircuitBreaker` fast-fail instead
  of burning its retry budget against a dead front-end.
* :class:`CachingOCSPResponder` keeps the RI registering during *OCSP*
  downtime: the last good response is served from cache for as long as
  its own ``next_update`` window allows (the agent's freshness checks
  still bound the staleness), after which registration degrades to
  unavailable rather than presenting a stale assertion.
"""

import bisect
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..drm.errors import ServiceUnavailableError
from ..drm.ocsp import OCSPResponse
from ..drm.roap.wire import WireChannel
from ..obs.tracer import NULL_TRACER


@dataclass(frozen=True)
class OutageWindow:
    """One downtime interval ``[start, end)`` on the simulation clock."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("an outage window must have positive length")

    def contains(self, now: int) -> bool:
        """Whether ``now`` falls inside this window."""
        return self.start <= now < self.end


class OutageSchedule:
    """A set of non-overlapping downtime windows for one service."""

    def __init__(self, windows: Sequence[OutageWindow] = ()) -> None:
        ordered = sorted(windows, key=lambda w: w.start)
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start < earlier.end:
                raise ValueError("outage windows must not overlap")
        self.windows: Tuple[OutageWindow, ...] = tuple(ordered)
        self._starts = [w.start for w in self.windows]

    def _window_at(self, now: int) -> Optional[OutageWindow]:
        index = bisect.bisect_right(self._starts, now) - 1
        if index >= 0 and self.windows[index].contains(now):
            return self.windows[index]
        return None

    def is_down(self, now: int) -> bool:
        """Whether the service is inside a downtime window at ``now``."""
        return self._window_at(now) is not None

    def seconds_until_restore(self, now: int) -> int:
        """Seconds until the current window ends (0 when the service
        is up)."""
        window = self._window_at(now)
        return 0 if window is None else window.end - now


class OutageRIChannel(WireChannel):
    """A wire channel whose Rights Issuer observes scheduled downtime.

    Requests raised during a downtime window never reach the RI; they
    fail with :class:`ServiceUnavailableError` *before* any server-side
    processing — the terminal has already spent its request-side crypto
    (signing), exactly as against a real dead front-end.
    """

    def __init__(self, rights_issuer, schedule: OutageSchedule, clock,
                 tracer=NULL_TRACER) -> None:
        super().__init__(rights_issuer)
        self.schedule = schedule
        self.clock = clock
        self.tracer = tracer
        self.rejected_requests = 0

    def _deliver(self, handler, request, request_blob):
        if self.schedule.is_down(self.clock.now):
            self.rejected_requests += 1
            restore = self.schedule.seconds_until_restore(self.clock.now)
            self.tracer.event("outage.ri-down", track="roap",
                              message=type(request).__name__,
                              seconds_until_restore=restore)
            raise ServiceUnavailableError(
                "RI unavailable (outage window, restore in %d s)"
                % restore)
        return super()._deliver(handler, request, request_blob)


class CachingOCSPResponder:
    """An OCSP responder front-end with downtime and a response cache.

    Preserves the :class:`~repro.drm.ocsp.OCSPResponder` surface the
    Rights Issuer consumes (``respond(serial, now)``, ``certificate``,
    ``name``), so it drops into an existing deployment unchanged. While
    the backing responder is up, every response is fetched fresh and
    cached per serial. During a downtime window the cache serves the
    last good response *only inside its own validity window*
    (``next_update``) — degraded freshness the agent's checks still
    accept — and raises :class:`ServiceUnavailableError` beyond it:
    graceful degradation never turns into presenting a provably stale
    assertion.
    """

    def __init__(self, responder, schedule: OutageSchedule,
                 tracer=NULL_TRACER) -> None:
        self._responder = responder
        self.schedule = schedule
        self.tracer = tracer
        self._cache: Dict[int, OCSPResponse] = {}
        self.fresh_responses = 0
        self.cache_hits = 0
        self.unavailable = 0

    @property
    def name(self) -> str:
        """The backing responder's name."""
        return self._responder.name

    @property
    def certificate(self):
        """The backing responder's certificate."""
        return self._responder.certificate

    def respond(self, serial: int, now: int) -> OCSPResponse:
        """A status response for ``serial``: fresh if up, cached if not."""
        if not self.schedule.is_down(now):
            response = self._responder.respond(serial, now)
            self._cache[serial] = response
            self.fresh_responses += 1
            return response
        cached = self._cache.get(serial)
        if cached is not None and now <= cached.next_update:
            self.cache_hits += 1
            self.tracer.event("outage.ocsp-cache-hit", track="roap",
                              serial=serial,
                              age_seconds=now - cached.produced_at)
            return cached
        self.unavailable += 1
        restore = self.schedule.seconds_until_restore(now)
        self.tracer.event("outage.ocsp-down", track="roap", serial=serial,
                          seconds_until_restore=restore)
        raise ServiceUnavailableError(
            "OCSP responder unavailable and no valid cached response "
            "for serial %d (restore in %d s)" % (serial, restore))
