"""The retry-storm engine: metastable overload, deterministically.

The saturation sweep (:mod:`repro.analysis.saturation`) measures the
Rights Issuer under *well-behaved* open load. Real fleets are not well
behaved: a refused or timed-out device retries, retries add load, load
causes more refusals — and past a threshold the system enters a
*metastable* regime in which goodput stays collapsed long after the
triggering spike has ended, because the server spends its whole
capacity on requests whose clients have already given up while those
same clients re-inject fresh attempts. Bronson et al. named the
pattern; this module reproduces it bit-deterministically and measures
which (admission policy × retry policy) combinations escape it.

One :func:`run_storm` drives an open-loop client population against a
Table 1-priced :class:`~repro.sim.ri.RIServer`:

* **Arrivals** are Poisson at ``baseline_rho`` of nominal capacity,
  stepped to ``spike_rho`` inside the spike window — all times are in
  *service units* (multiples of the mix-weighted mean service demand),
  so one storm specification means the same offered-load story on
  every architecture.
* **Clients** have bounded patience: an attempt whose answer has not
  arrived within ``patience`` is abandoned. Without deadline
  propagation the abandoned request *stays in the signing queue* and
  is eventually served late — pure waste, and the amplification
  mechanism that makes the regime metastable. With
  ``deadlines=True`` the request carries its deadline into
  :meth:`~repro.sim.ri.RIServer.serve_request`, expires in-queue
  (:data:`~repro.sim.kernel.TIMED_OUT`) and wastes nothing.
* **Retries** re-enter through the PR 1 backoff machinery
  (:class:`~repro.drm.session.RetryPolicy`, policy seconds read as
  service units): ``naive`` fixed-delay retries, capped
  exponential-``backoff-jitter`` (deterministic SHA-1 jitter via the
  shared :mod:`repro.core.jitter` helper), or ``retry-budget`` —
  backoff-jitter gated by a token bucket refilled only by *fresh*
  arrivals, the client-side analogue of the RI's admission control.
* **Goodput** is a served response that arrived within its client's
  patience, binned by completion time. The result quantifies the
  collapse (consecutive post-spike bins under half the pre-spike
  goodput) and the recovery (first post-spike bin back at 90%).

Everything is a pure function of the :class:`StormSpec`: named kernel
streams for arrivals and kinds, SHA-1 jitter for backoff, integer
ticks throughout — the same spec produces the same
:meth:`StormResult.digest` on every run, worker count and platform.
"""

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Generator, Mapping, Optional, Tuple

from ..core.architecture import PAPER_PROFILES, ArchitectureProfile
# repro: allow[REP201] -- the storm digest fingerprints simulation results for determinism tests; it is bookkeeping, not protocol crypto
from ..crypto.sha1 import sha1
from ..drm.session import RetryPolicy
from ..obs.metrics import MetricsRegistry
from ..obs.slo import Objective, SLOReport
from .kernel import Kernel, Wait
from .queueing import exponential_ticks, kind_draw
from .ri import DEFAULT_REQUEST_MIX, RICapacity, RIServer
from .admission import ADMISSION_POLICIES, make_admission

#: Architecture profiles by paper name, for spec resolution.
PROFILES_BY_NAME: Mapping[str, ArchitectureProfile] = {
    profile.name: profile for profile in PAPER_PROFILES}

#: Client retry disciplines, in sweep/table order.
RETRY_DISCIPLINES = ("naive", "backoff-jitter", "retry-budget")

#: The PR 1 retry policies behind each discipline. Policy "seconds"
#: are read as service units (multiples of the mix-weighted mean
#: service demand), which keeps one discipline meaningful on every
#: architecture. ``naive`` is the anti-pattern: a short fixed delay
#: and a deep attempt budget, the configuration that turns a spike
#: into a storm. ``retry-budget`` backs off identically to
#: ``backoff-jitter`` but is additionally gated by a
#: :class:`RetryBudget`.
RETRY_POLICIES: Mapping[str, RetryPolicy] = {
    "naive": RetryPolicy(max_attempts=16, base_backoff_seconds=5,
                         backoff_multiplier=1.0,
                         max_backoff_seconds=5, jitter_seconds=0),
    "backoff-jitter": RetryPolicy(max_attempts=8,
                                  base_backoff_seconds=2,
                                  backoff_multiplier=2.0,
                                  max_backoff_seconds=64,
                                  jitter_seconds=3),
    "retry-budget": RetryPolicy(max_attempts=8,
                                base_backoff_seconds=2,
                                backoff_multiplier=2.0,
                                max_backoff_seconds=64,
                                jitter_seconds=3),
}


class RetryBudget:
    """A client-side retry token bucket refilled by fresh arrivals.

    Every ``fresh_per_token`` first attempts add one retry token (up
    to ``burst``); each retry spends one. When the bucket is dry the
    client gives up instead of retrying — bounding the whole fleet's
    retry amplification to ``1/fresh_per_token`` of the fresh rate no
    matter how badly the server is doing.
    """

    def __init__(self, fresh_per_token: int = 5,
                 burst: int = 20) -> None:
        if fresh_per_token < 1 or burst < 1:
            raise ValueError("the retry budget must refill and hold "
                             "at least one token")
        self.fresh_per_token = fresh_per_token
        self.burst = burst
        self._tokens = burst
        self._fresh = 0
        self.granted = 0
        self.denied = 0

    def on_fresh(self) -> None:
        self._fresh += 1
        if self._fresh >= self.fresh_per_token:
            self._fresh = 0
            self._tokens = min(self.burst, self._tokens + 1)

    def take(self) -> bool:
        if self._tokens > 0:
            self._tokens -= 1
            self.granted += 1
            return True
        self.denied += 1
        return False


@dataclass(frozen=True)
class StormSpec:
    """Everything that determines one retry-storm run.

    All durations are in *service units*: multiples of the
    architecture's mix-weighted mean service demand (one unit is the
    time the RI needs to serve one average request at an empty queue).
    """

    seed: str = "repro-storm"
    architecture: str = "SW"
    #: Admission policy spelling (see :data:`~repro.sim.admission
    #: .ADMISSION_POLICIES`).
    admission: str = "none"
    #: Client retry discipline (see :data:`RETRY_DISCIPLINES`).
    retry: str = "naive"
    #: Propagate client patience as an in-queue deadline: abandoned
    #: requests expire instead of being served late.
    deadlines: bool = False
    baseline_rho: float = 0.6
    spike_rho: float = 4.0
    spike_start: int = 180
    spike_end: int = 300
    horizon: int = 960
    bin_size: int = 30
    patience: int = 12
    signing_units: int = 1
    queue_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.architecture not in PROFILES_BY_NAME:
            raise ValueError("unknown architecture %r (expected one "
                             "of %s)" % (self.architecture,
                                         ", ".join(PROFILES_BY_NAME)))
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError("unknown admission policy %r"
                             % (self.admission,))
        if self.retry not in RETRY_DISCIPLINES:
            raise ValueError("unknown retry discipline %r"
                             % (self.retry,))
        if not (0 < self.spike_start < self.spike_end
                <= self.horizon):
            raise ValueError("the spike window must sit inside the "
                             "horizon")
        if self.baseline_rho <= 0 or self.spike_rho <= 0:
            raise ValueError("offered loads must be positive")
        if self.bin_size < 1 or self.patience < 1:
            raise ValueError("bins and patience must be at least one "
                             "service unit")
        if self.horizon % self.bin_size:
            raise ValueError("the horizon must be a whole number of "
                             "bins")

    @property
    def spike_duration(self) -> int:
        """Spike length in service units."""
        return self.spike_end - self.spike_start

    def objectives(self) -> Tuple[Objective, ...]:
        """The SLOs a storm run is scored against.

        One latency objective — answered within the clients' patience,
        the storm's own definition of a good response — and one pure
        goodput objective. Windows are sized in bins so burn-rate
        alerts resolve at the same granularity as the goodput series.
        """
        return (
            Objective(name="answered-in-patience", kind="*",
                      threshold_units=float(self.patience),
                      target=0.95, fast_window_units=self.bin_size,
                      slow_window_units=4 * self.bin_size),
            Objective(name="storm-goodput", kind="*",
                      threshold_units=None, target=0.99,
                      fast_window_units=self.bin_size,
                      slow_window_units=4 * self.bin_size),
        )

    @property
    def label(self) -> str:
        """The (admission × retry) combination as a table key."""
        suffix = "+deadline" if self.deadlines else ""
        return "%s/%s%s" % (self.admission, self.retry, suffix)


@dataclass(frozen=True)
class BinStat:
    """One goodput bin: what arrived and what resolved inside it."""

    index: int
    offered: int = 0
    good: int = 0
    served: int = 0
    late: int = 0
    shed: int = 0
    refused: int = 0
    timed_out: int = 0


class _StormState:
    """Mutable accumulators shared by the storm's processes."""

    def __init__(self, spec: StormSpec, bins: int) -> None:
        self.spec = spec
        self.clients = 0
        self.attempts = 0
        self.successes = 0
        self.gave_up = 0
        self.abandoned = 0
        self.late_served = 0
        self.wasted_service_ticks = 0
        self.offered_by_bin = [0] * bins
        self.good_by_bin = [0] * bins
        self.served_by_bin = [0] * bins
        self.late_by_bin = [0] * bins
        self.shed_by_bin = [0] * bins
        self.refused_by_bin = [0] * bins
        self.timed_out_by_bin = [0] * bins


@dataclass
class StormResult:
    """What one storm run measured; see the module docstring."""

    spec: StormSpec
    slot_ticks: int
    clients: int
    attempts: int
    successes: int
    gave_up: int
    abandoned: int
    served: int
    refused: int
    shed: int
    timed_out: int
    late_served: int
    pending: int
    retries_denied: int
    service_ticks_total: int
    wasted_service_ticks: int
    utilization: float
    events: int
    pre_goodput_per_bin: float
    collapse_bins: int
    recovery_bin: Optional[int]
    bins: Tuple[BinStat, ...] = field(default_factory=tuple)
    #: SLO evaluation of the run (burn-rate alerts + exemplars); same
    #: seed, same alert ticks — the determinism tests pin this.
    slo: Optional[SLOReport] = None

    @property
    def collapse_duration(self) -> int:
        """Post-spike service units goodput stayed below half pre."""
        return self.collapse_bins * self.spec.bin_size

    @property
    def recovery_time(self) -> Optional[int]:
        """Service units from spike end until a ≥90%-of-pre bin."""
        if self.recovery_bin is None:
            return None
        return (self.recovery_bin * self.spec.bin_size
                - self.spec.spike_end)

    def recovered_within(self, window: int) -> bool:
        """Whether goodput was back at ≥90% inside ``window`` units."""
        return (self.recovery_time is not None
                and self.recovery_time <= window)

    @property
    def goodput_ratio(self) -> float:
        """Good responses per fresh client (1.0 = every client fed)."""
        if not self.clients:
            return 0.0
        return self.successes / self.clients

    @property
    def shed_rate(self) -> float:
        """Shed share of all resolved requests."""
        resolved = (self.served + self.refused + self.shed
                    + self.timed_out)
        if not resolved:
            return 0.0
        return self.shed / resolved

    @property
    def wasted_share(self) -> float:
        """Service ticks spent on already-abandoned requests."""
        if not self.service_ticks_total:
            return 0.0
        return self.wasted_service_ticks / self.service_ticks_total

    def metrics(self) -> MetricsRegistry:
        """The clients' counters as a registry (zero counts omitted)."""
        counters = {"storm.clients": self.clients,
                    "storm.success": self.successes,
                    "storm.abandoned": self.abandoned,
                    "storm.gave_up": self.gave_up,
                    "storm.retry_denied": self.retries_denied}
        return MetricsRegistry(counters={
            name: value for name, value in counters.items() if value})

    def digest(self) -> str:
        """A stable fingerprint of every counter and bin.

        Two runs of the same spec must produce the same digest on any
        platform, worker count or run order — the determinism contract
        the overload tests and the ``--jobs`` invariance gate hold.
        """
        blob = repr((self.spec, self.slot_ticks, self.clients,
                     self.attempts, self.successes, self.gave_up,
                     self.abandoned, self.served, self.refused,
                     self.shed, self.timed_out, self.late_served,
                     self.pending, self.retries_denied,
                     self.service_ticks_total,
                     self.wasted_service_ticks, self.events,
                     self.collapse_bins, self.recovery_bin,
                     self.bins)).encode("utf-8")
        return sha1(blob).hex()


class _Request:
    """One in-flight attempt: the cell its processes share."""

    __slots__ = ("kind", "deadline", "outcome")

    def __init__(self, kind: str, deadline: int) -> None:
        self.kind = kind
        self.deadline = deadline
        self.outcome = None


def run_storm(spec: StormSpec) -> StormResult:
    """Run one retry storm to its horizon and measure it.

    A pure function of ``spec``: see the module docstring for the
    determinism contract. The kernel runs ``until`` the horizon and is
    *not* drained — a collapsed queue never drains, which is the
    point — and the RI's ledger is closed at the horizon.
    """
    profile = PROFILES_BY_NAME[spec.architecture]
    capacity = RICapacity(signing_units=spec.signing_units,
                          queue_limit=spec.queue_limit)
    kernel = Kernel(seed="%s/storm" % spec.seed)
    ri = RIServer(kernel, profile, capacity=capacity,
                  admission=make_admission(spec.admission))
    slot_ticks = max(1, int(round(ri.nominal_service_ticks())))
    slo = ri.attach_slo(spec.objectives())
    policy = RETRY_POLICIES[spec.retry]
    budget = RetryBudget() if spec.retry == "retry-budget" else None

    horizon_ticks = spec.horizon * slot_ticks
    spike_start_ticks = spec.spike_start * slot_ticks
    spike_end_ticks = spec.spike_end * slot_ticks
    patience_ticks = spec.patience * slot_ticks
    bins = spec.horizon // spec.bin_size
    bin_ticks = spec.bin_size * slot_ticks
    state = _StormState(spec, bins)

    def bin_of(tick: int) -> int:
        return min(bins - 1, tick // bin_ticks)

    def record(request: _Request, outcome) -> None:
        index = bin_of(outcome.finished)
        if outcome.status == "served":
            state.served_by_bin[index] += 1
            if outcome.finished <= request.deadline:
                state.good_by_bin[index] += 1
            else:
                state.late_by_bin[index] += 1
                state.late_served += 1
                state.wasted_service_ticks += outcome.service_ticks
        elif outcome.status == "shed":
            state.shed_by_bin[index] += 1
        elif outcome.status == "refused":
            state.refused_by_bin[index] += 1
        else:
            state.timed_out_by_bin[index] += 1

    def request_process(request: _Request
                        ) -> Generator[Any, Any, None]:
        if spec.deadlines:
            outcome = yield from ri.serve_request(
                request.kind, deadline=request.deadline)
        else:
            outcome = yield from ri.serve_request(request.kind)
        request.outcome = outcome
        record(request, outcome)
        return None

    def client_process(index: int,
                       kind: str) -> Generator[Any, Any, None]:
        name = "client/%d" % index
        attempts = 0
        while True:
            attempts += 1
            state.attempts += 1
            attempt_start = kernel.now
            request = _Request(kind, attempt_start + patience_ticks)
            kernel.spawn("request/%d/%d" % (index, attempts),
                         request_process(request))
            # One tick to observe a synchronous refusal (shed/refused
            # resolve at the arrival tick); slow answers get the rest
            # of the client's patience.
            yield Wait(1)
            if request.outcome is None:
                yield Wait(patience_ticks - 1)
            outcome = request.outcome
            if outcome is not None and outcome.status == "served" \
                    and outcome.finished <= request.deadline:
                state.successes += 1
                return None
            if outcome is None:
                # Patience ran out with the request still queued (or
                # in service): the client walks away, the request
                # stays — the waste that feeds the metastable regime.
                state.abandoned += 1
            if attempts >= policy.max_attempts or (
                    budget is not None and not budget.take()):
                state.gave_up += 1
                return None
            delay_units = policy.backoff_seconds(attempts, salt=name)
            yield Wait(delay_units * slot_ticks)

    names = tuple(DEFAULT_REQUEST_MIX)
    gaps = kernel.stream("arrivals")
    next_kind = kind_draw(kernel.stream("kinds"), names,
                          tuple(accumulate(DEFAULT_REQUEST_MIX[name]
                                           for name in names)))

    def source() -> Generator[Any, Any, None]:
        index = 0
        while True:
            now = kernel.now
            rho = spec.spike_rho \
                if spike_start_ticks <= now < spike_end_ticks \
                else spec.baseline_rho
            mean_gap = slot_ticks / (rho * spec.signing_units)
            yield Wait(exponential_ticks(gaps, mean_gap))
            if kernel.now >= horizon_ticks:
                return None
            kind = next_kind()
            state.clients += 1
            state.offered_by_bin[bin_of(kernel.now)] += 1
            if budget is not None:
                budget.on_fresh()
            kernel.spawn("client/%d" % index,
                         client_process(index, kind))
            index += 1

    kernel.spawn("source", source())
    kernel.run(until=horizon_ticks)
    ri.check_conservation()
    kernel.close()

    bin_stats = tuple(
        BinStat(index=index,
                offered=state.offered_by_bin[index],
                good=state.good_by_bin[index],
                served=state.served_by_bin[index],
                late=state.late_by_bin[index],
                shed=state.shed_by_bin[index],
                refused=state.refused_by_bin[index],
                timed_out=state.timed_out_by_bin[index])
        for index in range(bins))

    # Pre-spike goodput baseline: full bins strictly before the spike,
    # skipping the first (cold-start) bin.
    pre_end = spec.spike_start // spec.bin_size
    pre_bins = [stat.good for stat in bin_stats[1:pre_end]]
    pre_goodput = (sum(pre_bins) / len(pre_bins)) if pre_bins else 0.0

    # Collapse: consecutive post-spike bins under half the pre-spike
    # goodput; recovery: the first post-spike bin back at 90%.
    post_start = spec.spike_end // spec.bin_size
    collapse_bins = 0
    for stat in bin_stats[post_start:]:
        if stat.good < 0.5 * pre_goodput:
            collapse_bins += 1
        else:
            break
    recovery_bin: Optional[int] = None
    if pre_goodput > 0:
        # A zero pre-spike baseline means the system never had healthy
        # goodput to recover to (on HW the OCSP round-trip alone can
        # outlive client patience); recovery is undefined, not instant.
        for stat in bin_stats[post_start:]:
            if stat.good >= 0.9 * pre_goodput:
                recovery_bin = stat.index
                break

    return StormResult(
        spec=spec, slot_ticks=slot_ticks,
        clients=state.clients, attempts=state.attempts,
        successes=state.successes, gave_up=state.gave_up,
        abandoned=state.abandoned,
        served=ri.served, refused=ri.refused, shed=ri.shed,
        timed_out=ri.timed_out, late_served=state.late_served,
        pending=state.attempts - sum(
            stat.served + stat.refused + stat.shed + stat.timed_out
            for stat in bin_stats),
        retries_denied=budget.denied if budget is not None else 0,
        service_ticks_total=ri.service_ticks_total,
        wasted_service_ticks=state.wasted_service_ticks,
        utilization=ri.utilization(),
        events=kernel.events_executed,
        pre_goodput_per_bin=pre_goodput,
        collapse_bins=collapse_bins,
        recovery_bin=recovery_bin,
        bins=bin_stats,
        slo=slo.report())
