"""Admission control for the Rights Issuer: shed early, shed cheap.

Without a policy (``admission=None``, the ``"none"`` spelling) the RI
has two answers to overload: queue the request or — past the queue
bound — refuse it (:data:`~repro.sim.kernel.REJECTED`, the
connection-refused analogue). Neither protects goodput: a queue admits
work it can no longer serve in time, and a hard refusal tells the
client nothing a retry storm will respect. A policy adds the third
answer production systems use, an explicit **SHED**: the RI
declines the request *before* it occupies a queue slot, spending zero
service and signalling deliberate overload (distinct from ``REJECTED``
in every counter, metric and
:class:`~repro.sim.ri.ServeOutcome.status`).

Three policies, all deterministic and integer-exact:

* :class:`TokenBucket` — classic rate limiting: requests drain a
  bucket refilled at a fixed fraction of the RI's nominal capacity
  (mix-weighted Table 1 service demand), with a bounded burst. Sheds
  exactly when the offered rate exceeds the configured fraction.
* :class:`CoDelShedder` — queue-delay shedding in the spirit of CoDel:
  the policy tracks the *work backlog* (admitted-but-unstarted service
  ticks) and sheds once the implied queue delay has stayed above
  ``target`` for at least ``interval``. Transient bursts ride through;
  standing queues are cut.
* :class:`PriorityAdmission` — priority classes with per-class bounded
  queues: registration outranks domain-join outranks acquisition (a
  device that cannot register can do nothing else, so registrations
  are the last traffic to shed), and each class has its own pending
  bound so a flood of one kind cannot starve the queue for the others.
  Classes come from :data:`PRIORITY_CLASSES`; the class index doubles
  as the :class:`~repro.sim.kernel.Acquire` priority, so admitted
  registrations also overtake queued acquisitions.

Policies are bound to one :class:`~repro.sim.ri.RIServer` via
their ``bind`` (deriving tick budgets from the server's
own Table 1 pricing) and consulted by
:meth:`~repro.sim.ri.RIServer.serve_request` on every arrival. All
policy parameters are expressed in *service units* — multiples of the
mix-weighted mean service demand — so one configuration means the same
thing on the SW, SW/HW and HW architectures.
"""

from typing import Dict, Mapping, Optional

#: Priority class per request kind: lower is served first. Registration
#: (and its DeviceHello) outranks domain management outranks RO
#: acquisition — the ordering of how much future traffic each request
#: unlocks.
PRIORITY_CLASSES: Mapping[str, int] = {
    "hello": 0, "registration": 0, "domain-join": 1, "acquisition": 2}


class AdmissionPolicy:
    """Base of the shedding policies.

    Each subclass defines ``bind(ri)``, which derives its tick budgets
    from the server it guards, and ``admit(ri, kind, now)``, which
    returns ``None`` to admit or a shed reason (a short string) to
    refuse early. The "none" policy is no policy at all
    (:func:`make_admission` returns ``None``, and the RI admits
    everything). The bookkeeping hooks (:meth:`on_admitted`,
    :meth:`on_departed`) bracket a request's time between admission and
    its grant/refusal/expiry, which is exactly the backlog a delay-based
    shedder needs.
    """

    def priority(self, kind: str) -> int:
        """The :class:`~repro.sim.kernel.Acquire` priority to queue at."""
        return 0

    def on_admitted(self, ri, kind: str, now: int) -> None:
        """An admitted request entered the signing queue."""

    def on_departed(self, ri, kind: str, now: int,
                    status: str) -> None:
        """An admitted request left the queue (granted or not)."""


class TokenBucket(AdmissionPolicy):
    """Rate-limit admissions to a fraction of nominal capacity.

    ``rate_fraction`` of the RI's nominal request rate (signing units
    divided by mix-weighted mean service demand) refills the bucket;
    ``burst`` bounds how many admissions can happen back-to-back. The
    refill is integer-exact: one token every ``ticks_per_token`` kernel
    ticks, no float accumulation.
    """

    name = "token-bucket"

    def __init__(self, rate_fraction: float = 0.9,
                 burst: int = 8) -> None:
        if rate_fraction <= 0:
            raise ValueError("the admitted rate must be positive")
        if burst < 1:
            raise ValueError("the burst must allow at least one token")
        self.rate_fraction = rate_fraction
        self.burst = burst
        self.ticks_per_token = 1
        self._tokens = burst
        self._refill_at = 0

    def bind(self, ri) -> None:
        service = ri.nominal_service_ticks()
        rate = self.rate_fraction * ri.capacity.signing_units
        self.ticks_per_token = max(1, int(round(service / rate)))
        self._tokens = self.burst
        self._refill_at = ri.kernel.now

    def admit(self, ri, kind: str, now: int) -> Optional[str]:
        periods = (now - self._refill_at) // self.ticks_per_token
        if periods > 0:
            self._tokens = min(self.burst, self._tokens + periods)
            self._refill_at += periods * self.ticks_per_token
        if self._tokens > 0:
            self._tokens -= 1
            return None
        return "token-bucket: admitted rate above %.0f%% of nominal" \
            % (100.0 * self.rate_fraction)


class CoDelShedder(AdmissionPolicy):
    """Shed when the implied queue delay stays above target too long.

    The policy tracks the signing queue's *work backlog* — service
    ticks admitted but not yet started — via the admission hooks. The
    implied delay is backlog divided by signing units; once it has
    exceeded ``target`` continuously for ``interval``, new arrivals are
    shed until the backlog drains back under target. Both thresholds
    are in service units, so the same configuration scales across
    architectures.
    """

    name = "codel"

    def __init__(self, target_services: float = 4.0,
                 interval_services: float = 8.0) -> None:
        if target_services <= 0 or interval_services <= 0:
            raise ValueError("CoDel thresholds must be positive")
        self.target_services = target_services
        self.interval_services = interval_services
        self.target_ticks = 1
        self.interval_ticks = 1
        self._backlog_ticks = 0
        self._above_since: Optional[int] = None

    def bind(self, ri) -> None:
        service = ri.nominal_service_ticks()
        self.target_ticks = max(1, int(round(self.target_services
                                             * service)))
        self.interval_ticks = max(1, int(round(self.interval_services
                                               * service)))
        self._backlog_ticks = 0
        self._above_since = None

    def _implied_delay_ticks(self, ri) -> int:
        return self._backlog_ticks // ri.capacity.signing_units

    def admit(self, ri, kind: str, now: int) -> Optional[str]:
        if self._implied_delay_ticks(ri) <= self.target_ticks:
            self._above_since = None
            return None
        if self._above_since is None:
            self._above_since = now
        if now - self._above_since < self.interval_ticks:
            return None
        return "codel: implied queue delay above target for a full " \
               "interval"

    def on_admitted(self, ri, kind: str, now: int) -> None:
        self._backlog_ticks += ri.base_ticks(kind)

    def on_departed(self, ri, kind: str, now: int,
                    status: str) -> None:
        self._backlog_ticks = max(0, self._backlog_ticks
                                  - ri.base_ticks(kind))


class PriorityAdmission(AdmissionPolicy):
    """Priority classes with per-class bounded pending queues.

    ``class_limits`` maps priority class (0, 1, 2 — see
    :data:`PRIORITY_CLASSES`) to the maximum number of requests of that
    class allowed to be pending (admitted, not yet granted) at once;
    arrivals beyond it are shed. Admitted requests queue at their class
    priority, so registrations overtake queued acquisitions.
    """

    name = "priority"

    def __init__(self, class_limits: Optional[Mapping[int, int]] = None
                 ) -> None:
        limits = dict(class_limits if class_limits is not None
                      else {0: 16, 1: 8, 2: 8})
        if any(limit < 1 for limit in limits.values()):
            raise ValueError("every class bound must admit at least "
                             "one request")
        self.class_limits = limits
        self._pending: Dict[int, int] = {cls: 0
                                         for cls in sorted(limits)}

    def bind(self, ri) -> None:
        self._pending = {cls: 0 for cls in sorted(self.class_limits)}

    def priority(self, kind: str) -> int:
        return PRIORITY_CLASSES.get(kind, max(PRIORITY_CLASSES.values()) + 1)

    def admit(self, ri, kind: str, now: int) -> Optional[str]:
        cls = self.priority(kind)
        limit = self.class_limits.get(cls)
        if limit is not None and self._pending.get(cls, 0) >= limit:
            return "priority: class %d pending bound %d reached" \
                % (cls, limit)
        return None

    def on_admitted(self, ri, kind: str, now: int) -> None:
        cls = self.priority(kind)
        self._pending[cls] = self._pending.get(cls, 0) + 1

    def on_departed(self, ri, kind: str, now: int,
                    status: str) -> None:
        cls = self.priority(kind)
        self._pending[cls] = max(0, self._pending.get(cls, 0) - 1)


#: CLI/sweep spellings of the admission policies, in table order.
ADMISSION_POLICIES = ("none", "token-bucket", "codel", "priority")


def make_admission(name: str) -> Optional[AdmissionPolicy]:
    """Instantiate a policy from its sweep/CLI spelling."""
    if name == "none":
        return None
    if name == "token-bucket":
        return TokenBucket()
    if name == "codel":
        return CoDelShedder()
    if name == "priority":
        return PriorityAdmission()
    raise ValueError("unknown admission policy %r (expected one of %s)"
                     % (name, ", ".join(ADMISSION_POLICIES)))
