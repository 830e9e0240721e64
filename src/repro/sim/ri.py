"""A concurrent Rights Issuer service on the event kernel.

The paper prices the *terminal's* crypto and never the server's — but a
deployed OMA DRM 2 service saturates on the RI side first: every
RegistrationResponse and every RO Response carries an RSA signature, the
RI consults OCSP for its own certificate status, and the replay cache it
checks nonces against grows with every served request. :class:`RIServer`
models that capacity explicitly:

* a bounded **signing queue** (:class:`~repro.sim.kernel.Resource`) with
  ``capacity`` concurrent signing units and an optional queue limit
  (requests beyond it are refused, the deterministic analogue of a
  connection-refused front-end);
* **service times priced from Table 1**: each request kind expands to
  the RSA/SHA-1/HMAC operations the RI performs for it, priced by the
  same :class:`~repro.core.costs.CostTable` +
  :class:`~repro.core.architecture.ArchitectureProfile` machinery as the
  terminal-side model — one tick of kernel time is one RI clock cycle;
* **OCSP fetch latency**: the RI refreshes its cached OCSP assertion
  when it has aged past ``ocsp_validity_seconds``, spending
  ``ocsp_fetch_ms`` of pure latency on the signing unit it holds (the
  same degraded-freshness window :mod:`repro.adversary.outage` models
  from the availability side);
* **replay-cache pressure**: every served request grows the nonce
  cache; lookups cost one HMAC probe plus a per-probe SHA-1 tree walk
  that deepens logarithmically with the cache population.

Each request is counted once in an outcome ledger, closed by
:meth:`RIServer.check_conservation` at end of run; sojourn latencies
land in exact :class:`~repro.core.stats.StreamingStats` (integer
ticks).
"""

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Generator, Mapping, Optional,
                    Tuple)

from ..core.architecture import ArchitectureProfile
from ..core.costs import PAPER_TABLE1, CostTable
from ..core.stats import StreamingStats, merge_all
from ..core.trace import Algorithm, OperationRecord, Phase
from ..obs.metrics import MetricsRegistry
from ..obs.slo import DEFAULT_OBJECTIVES, Objective, SLOMonitor
from .kernel import (REJECTED, TIMED_OUT, Acquire, Kernel, Release,
                     Resource, Wait)

#: Request kinds the RI serves, with the ROAP pass each one models.
REQUEST_KINDS = ("hello", "registration", "acquisition",
                 "domain-join")

#: Octets of ROAP message body the RI hashes per request kind (canonical
#: sizes of the seed worlds' wire messages, rounded to a stable figure —
#: hashing is a rounding error next to the RSA work either way).
_MESSAGE_OCTETS = {"hello": 256, "registration": 2048,
                   "acquisition": 1536, "domain-join": 1024}

#: Default request mix for open-load generation: the per-attempt request
#: pattern of the fleet engine (DeviceHello + RegistrationRequest per
#: registration attempt, one RORequest per acquisition) at the default
#: mix of flows. Domain joins are absent from the default mix — the
#: fleet scenarios are device-keyed — but the kind is priced and
#: servable for sweeps that include it.
DEFAULT_REQUEST_MIX: Mapping[str, float] = {
    "hello": 0.4, "registration": 0.4, "acquisition": 0.2}

#: Default OCSP responder round-trip, in milliseconds of pure latency.
DEFAULT_OCSP_FETCH_MS = 50.0

#: Default validity window of a cached OCSP assertion, in seconds.
DEFAULT_OCSP_VALIDITY_SECONDS = 300


def _blocks_128(octets: int) -> int:
    """128-bit units covering ``octets`` (Table 1 normalization)."""
    return -(-octets * 8 // 128)


def service_records(kind: str) -> Tuple[OperationRecord, ...]:
    """The crypto the RI performs to serve one ``kind`` request.

    * ``hello`` — parse and answer a DeviceHello: hashing only.
    * ``registration`` — verify the device's signed RegistrationRequest
      (RSA public), hash the exchange, and sign the
      RegistrationResponse (RSA private).
    * ``acquisition`` — verify the signed RO Request (RSA public), wrap
      the REK/MAC material (AES), MAC the protected RO (HMAC), and sign
      the RO Response (RSA private).
    * ``domain-join`` — verify the signed JoinDomainRequest (RSA
      public), wrap the domain key for the device (AES), MAC the
      domain-key payload (HMAC), and sign the JoinDomainResponse (RSA
      private). Priced under the registration phase: domain management
      is device-provisioning traffic, not per-content acquisition.

    Replay-cache and OCSP costs are *not* here — they depend on server
    state and are added by :meth:`RIServer.service_ticks`.
    """
    if kind not in _MESSAGE_OCTETS:
        raise ValueError("unknown request kind %r (expected one of %s)"
                         % (kind, ", ".join(REQUEST_KINDS)))
    octets = _MESSAGE_OCTETS[kind]
    hash_record = OperationRecord(
        algorithm=Algorithm.SHA1, phase=Phase.REGISTRATION,
        label="ri-%s-hash" % kind, invocations=1,
        blocks=_blocks_128(octets))
    if kind == "hello":
        return (hash_record,)
    if kind == "registration":
        return (
            hash_record,
            OperationRecord(algorithm=Algorithm.RSA_PUBLIC,
                            phase=Phase.REGISTRATION,
                            label="ri-verify-request", invocations=1,
                            blocks=1),
            OperationRecord(algorithm=Algorithm.RSA_PRIVATE,
                            phase=Phase.REGISTRATION,
                            label="ri-sign-response", invocations=1,
                            blocks=1),
        )
    if kind == "domain-join":
        return (
            hash_record,
            OperationRecord(algorithm=Algorithm.RSA_PUBLIC,
                            phase=Phase.REGISTRATION,
                            label="ri-verify-request", invocations=1,
                            blocks=1),
            OperationRecord(algorithm=Algorithm.AES_ENCRYPT,
                            phase=Phase.REGISTRATION,
                            label="ri-wrap-domain-key", invocations=1,
                            blocks=3),
            OperationRecord(algorithm=Algorithm.HMAC_SHA1,
                            phase=Phase.REGISTRATION,
                            label="ri-mac-domain-key", invocations=1,
                            blocks=_blocks_128(octets)),
            OperationRecord(algorithm=Algorithm.RSA_PRIVATE,
                            phase=Phase.REGISTRATION,
                            label="ri-sign-response", invocations=1,
                            blocks=1),
        )
    assert kind == "acquisition"
    return (
        OperationRecord(algorithm=Algorithm.SHA1,
                        phase=Phase.ACQUISITION,
                        label="ri-%s-hash" % kind, invocations=1,
                        blocks=_blocks_128(octets)),
        OperationRecord(algorithm=Algorithm.RSA_PUBLIC,
                        phase=Phase.ACQUISITION,
                        label="ri-verify-request", invocations=1,
                        blocks=1),
        OperationRecord(algorithm=Algorithm.AES_ENCRYPT,
                        phase=Phase.ACQUISITION,
                        label="ri-wrap-rek", invocations=1,
                        blocks=3),
        OperationRecord(algorithm=Algorithm.HMAC_SHA1,
                        phase=Phase.ACQUISITION,
                        label="ri-mac-ro", invocations=1,
                        blocks=_blocks_128(octets)),
        OperationRecord(algorithm=Algorithm.RSA_PRIVATE,
                        phase=Phase.ACQUISITION,
                        label="ri-sign-response", invocations=1,
                        blocks=1),
    )


def _kind_ticks(kind: str, profile: ArchitectureProfile,
                cost_table: CostTable = PAPER_TABLE1) -> int:
    """State-free service demand of one ``kind`` request on
    ``profile``: its :func:`service_records` priced by ``cost_table``."""
    implementation = profile.implementation
    return sum(cost_table.cycles(record,
                                 implementation(record.algorithm))
               for record in service_records(kind))


def _mix_mean(mix: Mapping[str, float],
              ticks: Callable[[str], int]) -> float:
    """The ``mix``-weighted mean of ``ticks(kind)``."""
    total = sum(mix.values())
    if total <= 0:
        raise ValueError("the request mix must have positive weight")
    return sum(weight * ticks(kind)
               for kind, weight in mix.items()) / total


@dataclass(frozen=True)
class RICapacity:
    """Sizing of one RI deployment: signing units and queue bound."""

    signing_units: int = 1
    queue_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.signing_units < 1:
            raise ValueError("the RI needs at least one signing unit")
        if self.queue_limit is not None and self.queue_limit < 0:
            raise ValueError("the queue limit must be non-negative")


#: Terminal statuses of one served request, in conservation order:
#: every arrival ends in exactly one of them.
SERVE_STATUSES = ("served", "refused", "shed", "timed-out")


def _ledger_total(row: str) -> property:
    return property(lambda self: sum(self.ledger[row].values()),
                    doc="Requests in the ledger's %r row." % row)


class ServeOutcome:
    """What happened to one request driven through ``serve_request``.

    ``status`` is one of :data:`SERVE_STATUSES`:

    * ``served`` — granted and fully serviced; ``finished - arrived``
      is the sojourn latency.
    * ``refused`` — the bounded signing queue was full
      (:data:`~repro.sim.kernel.REJECTED`): the hard backstop.
    * ``shed`` — admission control declined it before it occupied a
      queue slot; ``shed_reason`` names the policy's rationale.
    * ``timed-out`` — its deadline/timeout expired while still queued
      (:data:`~repro.sim.kernel.TIMED_OUT`): it consumed queue space
      but zero service.

    A slotted record: one is built per resolved request.
    """

    __slots__ = ("kind", "status", "arrived", "finished", "waited",
                 "service_ticks", "shed_reason")

    def __init__(self, kind: str, status: str, arrived: int,
                 finished: int, waited: int = 0, service_ticks: int = 0,
                 shed_reason: str = "") -> None:
        self.kind = kind
        self.status = status
        self.arrived = arrived
        self.finished = finished
        self.waited = waited
        self.service_ticks = service_ticks
        self.shed_reason = shed_reason

    @property
    def served(self) -> bool:
        """Whether the request was fully serviced."""
        return self.status == "served"

    @property
    def latency(self) -> int:
        """Sojourn ticks from arrival to resolution (any status)."""
        return self.finished - self.arrived


class RIServer:
    """One Rights Issuer instance serving requests on the kernel.

    Device processes drive it with ``yield from ri.serve_request(kind,
    deadline=..., timeout=...)``, which engages admission control and
    in-queue expiry and returns a :class:`ServeOutcome`.
    """

    def __init__(self, kernel: Kernel, profile: ArchitectureProfile,
                 cost_table: CostTable = PAPER_TABLE1,
                 capacity: RICapacity = RICapacity(),
                 ocsp_fetch_ms: float = DEFAULT_OCSP_FETCH_MS,
                 ocsp_validity_seconds: int =
                 DEFAULT_OCSP_VALIDITY_SECONDS,
                 admission=None,
                 slo=None) -> None:
        self.kernel = kernel
        self.profile = profile
        self.cost_table = cost_table
        self.capacity = capacity
        self.signing = Resource(kernel, "ri.signing",
                                capacity=capacity.signing_units,
                                queue_limit=capacity.queue_limit)
        self.ticks_per_second = profile.clock_hz
        self.ocsp_fetch_ticks = int(round(
            ocsp_fetch_ms / 1000.0 * self.ticks_per_second))
        self.ocsp_validity_ticks = (ocsp_validity_seconds
                                    * self.ticks_per_second)
        self._ocsp_fetched_at: Optional[int] = None
        self._base_ticks = {kind: _kind_ticks(kind, profile, cost_table)
                            for kind in REQUEST_KINDS}
        self.replay_entries = 0
        #: Replay-probe cycles per cache depth, priced on first use.
        self._probe_ticks: Dict[int, int] = {}
        self.ocsp_fetches = 0
        #: The outcome ledger, one integer per (row, kind): ``offered``
        #: counts arrivals, each :data:`SERVE_STATUSES` row resolutions.
        self.ledger: Dict[str, Dict[str, int]] = {
            row: dict.fromkeys(REQUEST_KINDS, 0)
            for row in ("offered",) + SERVE_STATUSES}
        #: Signing-unit ticks spent serving requests (useful against
        #: the wasted-work share a retry storm produces).
        self.service_ticks_total = 0
        self.latency_by_kind: Dict[str, StreamingStats] = {
            kind: StreamingStats() for kind in REQUEST_KINDS}
        #: Admission policy consulted on every ``serve_request``
        #: arrival; ``None`` admits everything (the historical path).
        self.admission = admission
        if admission is not None:
            admission.bind(self)
        #: Optional :class:`~repro.obs.slo.SLOMonitor`; every resolved
        #: :class:`ServeOutcome` is scored against it, so burn-rate
        #: alerts and exemplars ride the same virtual timeline as the
        #: latency statistics.
        self.slo = slo

    # -- pricing ----------------------------------------------------------
    def base_ticks(self, kind: str) -> int:
        """State-free service demand of ``kind``: pure Table 1 pricing,
        no OCSP refresh, no replay-cache probe."""
        return self._base_ticks[kind]

    def replay_probe_ticks(self) -> int:
        """Cycles to check a nonce against the current replay cache.

        One keyed HMAC over the nonce plus a hash per level of a
        balanced lookup structure: ``ceil(log2(entries + 1))`` SHA-1
        invocations (``entries.bit_length()``, its exact integer form;
        the float spelling agrees below 2**49 entries) — the
        cache-pressure term that makes long-lived RI instances
        measurably slower per request. Priced once per depth.
        """
        depth = self.replay_entries.bit_length()
        ticks = self._probe_ticks.get(depth)
        if ticks is None:
            table = self.cost_table
            impl = self.profile.implementation
            hmac = table.cost(Algorithm.HMAC_SHA1,
                              impl(Algorithm.HMAC_SHA1)).cycles(1, 2)
            probe = table.cost(Algorithm.SHA1, impl(Algorithm.SHA1)
                               ).cycles(depth, depth * 2)
            ticks = self._probe_ticks[depth] = hmac + probe
        return ticks

    def service_ticks(self, kind: str) -> int:
        """Total signing-unit occupancy to serve ``kind`` right now.

        Stateful: includes an OCSP refresh when the cached assertion
        has aged out, and the replay-cache probe at the current cache
        population. Pure Table 1 pricing otherwise.
        """
        ticks = self._base_ticks[kind]
        if kind != "hello":
            ticks += self.replay_probe_ticks()
        if kind == "registration":
            now = self.kernel.now
            if (self._ocsp_fetched_at is None
                    or now - self._ocsp_fetched_at
                    > self.ocsp_validity_ticks):
                ticks += self.ocsp_fetch_ticks
                self._ocsp_fetched_at = now
                self.ocsp_fetches += 1
        return ticks

    def nominal_service_ticks(self, mix: Mapping[str, float] =
                              DEFAULT_REQUEST_MIX) -> float:
        """Mix-weighted mean service demand, in ticks, at an empty RI.

        The denominator of offered load: an RI with ``u`` signing
        units saturates near ``u * clock_hz / nominal_service_ticks``
        requests per second. Excludes the state-dependent terms (OCSP
        refresh, replay-cache growth), which is why measured
        utilization runs slightly above the nominal offered load at
        high rates. Admission policies size their budgets from this
        figure, which keeps one policy configuration meaningful on
        every architecture.
        """
        return _mix_mean(mix, self.base_ticks)

    def attach_slo(self, objectives: Tuple[Objective, ...] =
                   DEFAULT_OBJECTIVES) -> SLOMonitor:
        """Bind a fresh SLO monitor sized to this server's service time.

        The monitor's service unit is the rounded mix-weighted nominal
        service demand, so the same objective set means the same thing
        on SW, SW/HW and HW profiles.
        """
        slot = max(1, int(round(self.nominal_service_ticks())))
        self.slo = SLOMonitor(slot_ticks=slot, objectives=objectives)
        return self.slo

    def _resolved(self, outcome: ServeOutcome) -> ServeOutcome:
        """Book a terminal outcome in the ledger and score it against
        the bound SLO monitor."""
        self.ledger[outcome.status][outcome.kind] += 1
        if self.slo is not None:
            self.slo.observe_outcome(outcome)
        return outcome

    # -- the serving protocol ---------------------------------------------
    def serve_request(self, kind: str, deadline: Optional[int] = None,
                      timeout: Optional[int] = None
                      ) -> Generator[Any, Any, ServeOutcome]:
        """Serve one request under admission control and deadlines.

        ``deadline`` is an absolute kernel tick past which the answer
        is worthless to the caller; ``timeout`` a relative patience
        bound. Either (the tighter wins) arms an in-queue expiry, so a
        hopeless request stops occupying queue space instead of
        consuming service it cannot use — and a request arriving
        already past its deadline resolves ``timed-out`` on the spot.
        The bound admission policy is consulted first and may shed the
        arrival before it touches the queue at all.
        """
        if kind not in self._base_ticks:
            raise ValueError("unknown request kind %r (expected one of "
                             "%s)" % (kind, ", ".join(REQUEST_KINDS)))
        arrived = self.kernel.now
        self.ledger["offered"][kind] += 1
        priority = 0
        if self.admission is not None:
            priority = self.admission.priority(kind)
            reason = self.admission.admit(self, kind, arrived)
            if reason is not None:
                return self._resolved(ServeOutcome(
                    kind=kind, status="shed", arrived=arrived,
                    finished=arrived, shed_reason=reason))
        wait_budget = timeout
        if deadline is not None:
            remaining = deadline - arrived
            if remaining <= 0:
                return self._resolved(ServeOutcome(
                    kind=kind, status="timed-out", arrived=arrived,
                    finished=arrived))
            if wait_budget is None or remaining < wait_budget:
                wait_budget = remaining
        if self.admission is not None:
            self.admission.on_admitted(self, kind, arrived)
        grant = yield Acquire(self.signing, timeout=wait_budget,
                              priority=priority)
        if grant is REJECTED:
            if self.admission is not None:
                self.admission.on_departed(self, kind, self.kernel.now,
                                           "refused")
            return self._resolved(ServeOutcome(
                kind=kind, status="refused", arrived=arrived,
                finished=self.kernel.now))
        if grant is TIMED_OUT:
            if self.admission is not None:
                self.admission.on_departed(self, kind, self.kernel.now,
                                           "timed-out")
            return self._resolved(ServeOutcome(
                kind=kind, status="timed-out", arrived=arrived,
                finished=self.kernel.now,
                waited=self.kernel.now - arrived))
        if self.admission is not None:
            self.admission.on_departed(self, kind, self.kernel.now,
                                       "granted")
        waited = self.kernel.now - arrived
        try:
            ticks = self.service_ticks(kind)
            yield Wait(ticks)
        finally:
            # The kernel delivers this Release during generator unwind
            # too, so an exception inside the critical section returns
            # the signing grant instead of deadlocking the queue.
            yield Release(self.signing)
        latency = self.kernel.now - arrived
        if kind != "hello":
            self.replay_entries += 1
        self.service_ticks_total += ticks
        self.latency_by_kind[kind].add(latency)
        return self._resolved(ServeOutcome(
            kind=kind, status="served", arrived=arrived,
            finished=self.kernel.now, waited=waited,
            service_ticks=ticks))

    # -- the outcome ledger -----------------------------------------------
    offered = _ledger_total("offered")
    served = _ledger_total("served")
    refused = _ledger_total("refused")
    shed = _ledger_total("shed")
    timed_out = _ledger_total("timed-out")

    def check_conservation(self) -> None:
        """Raise unless ``offered == served + refused + shed +
        timed-out + in flight``, with *in flight* read from the signing
        :class:`~repro.sim.kernel.Resource`'s own count (busy + queued)
        — state the ledger does not keep itself."""
        in_flight = self.signing.busy + self.signing.queued
        resolved = (self.served + self.refused + self.shed
                    + self.timed_out)
        if self.offered == resolved + in_flight:
            return
        rows = "; ".join("%s: %s" % (kind, ", ".join(
            "%s %d" % (row, counts[kind])
            for row, counts in self.ledger.items()))
            for kind in REQUEST_KINDS)
        raise AssertionError(
            "RI outcome ledger does not close at tick %d: %d offered, "
            "%d resolved, %d in flight — %s"
            % (self.kernel.now, self.offered, resolved, in_flight, rows))

    @property
    def latency(self) -> StreamingStats:
        """Served sojourn latencies of every kind, merged on read."""
        return merge_all(self.latency_by_kind.values())

    @property
    def metrics(self) -> MetricsRegistry:
        """The books as a registry, built on read: counters
        ``ri.<status>[.<kind>]`` from the ledger (zero counts omitted,
        ``timed_out`` for ``timed-out``); histograms
        ``ri.latency_ticks.<kind>`` (served sojourns) and
        ``ri.wait_ticks`` (grant waits, so a run stopped at a horizon
        includes requests still in service); gauge ``ri.queue_peak``,
        the signing queue's all-run high-water mark."""
        registry = MetricsRegistry(gauges={
            "ri.queue_peak": self.signing.queue_depth.maximum})
        for status in SERVE_STATUSES:
            name = "ri." + status.replace("-", "_")
            for kind, count in self.ledger[status].items():
                if count:
                    registry.counter(name, count)
                    registry.counter("%s.%s" % (name, kind), count)
        histograms = {"ri.latency_ticks." + kind: stats
                      for kind, stats in self.latency_by_kind.items()}
        histograms["ri.wait_ticks"] = self.signing.wait_ticks
        for name, stats in histograms.items():
            if stats.count:
                registry.histograms[name] = StreamingStats().merge(stats)
        return registry

    # -- aggregate views --------------------------------------------------
    def utilization(self) -> float:
        """Mean fraction of signing units busy so far."""
        return self.signing.utilization()

    def mean_queue_depth(self) -> float:
        """Time-average signing-queue length so far."""
        return self.signing.mean_queue_depth()


def nominal_service_ticks(profile: ArchitectureProfile,
                          mix: Mapping[str, float] = DEFAULT_REQUEST_MIX
                          ) -> float:
    """Mix-weighted mean service demand of ``profile``, in ticks.

    Equals :meth:`RIServer.nominal_service_ticks` at the paper's
    Table 1, for callers sizing a sweep before any server exists.
    """
    return _mix_mean(mix, lambda kind: _kind_ticks(kind, profile))
