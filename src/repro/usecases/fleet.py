"""Fleet-scale workload engine: many devices, one Rights Issuer.

The paper prices *one* terminal's consumption process. This module asks
the operator-side question: what does a Rights Issuer serving 10^4-10^6
devices cost — per SoC architecture, per phase, on the wire — when every
device runs its own deterministically-drawn scenario mix?

Executing a million functional protocol runs is out of the question
(each world costs seconds of RSA key generation), and is also
unnecessary: the cost model is a pure function of a handful of drawn
parameters. The engine therefore splits the work in two:

* **Templates** (:func:`build_cost_templates`) — ONE metered functional
  run per fleet seed prices the protocol phases under every architecture
  profile, and one wire-logged run measures per-flow octets and RI
  request counts. Per-access costs are pre-priced for every content-size
  bucket in the scenario grid via exact trace rescaling
  (:mod:`repro.usecases.workload`).
* **Population** — each device ``i`` derives an independent RNG from
  ``(fleet seed, i)`` and draws its scenario: a family from the mix
  (ringtone-like, album-track-like, ...), a content-size bucket, an
  access count, an arrival slot, and — on lossy bearers — a bounded
  geometric retry count per ROAP flow. Device cost is then integer
  arithmetic over the templates.

**Sharding determinism contract.** The population is cut into fixed-size
shards (``shard_size``, independent of worker count); each shard folds
its devices into a :class:`FleetAccumulator` (O(1) memory per shard, see
:mod:`repro.core.stats`), and shard accumulators merge exactly. Device
draws depend only on ``(seed, device index)``, shard decomposition
depends only on ``(devices, shard_size)``, and every accumulator is
integer-valued — so results are bit-identical for ANY ``workers`` value,
including 1. Worker processes receive their entire state (config,
templates, shard bounds) explicitly through the pool call; they consult
no module-level mutable state, so fork- and spawn-started pools behave
identically.
"""

import multiprocessing
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..core.architecture import PAPER_PROFILES
from ..core.energy import DEFAULT_CPU_POWER_WATTS
from ..core.model import PerformanceModel
from ..core.stats import StatsSummary, StreamingStats
from ..core.trace import Phase
from ..drm.roap.wire import WireChannel
from ..drm.rel import play_count
from ..obs.metrics import MetricsRegistry, merge_registries
from .catalog import ringtone
from .durability import DurabilityTemplates, build_durability_templates
from .runner import run_functional
from .scenario import KIB, MIB
from .workload import (DEFAULT_CALIBRATION_OCTETS, dcf_octets_for_content,
                       padded_payload_octets, scale_trace)
from .world import RSA_BITS, DRMWorld

#: Transmissions per 4-pass registration attempt (paper Figure 2): two
#: round trips, each an uplink and a downlink — four independent loss
#: opportunities.
REGISTRATION_TRANSMISSIONS = 4

#: Transmissions per 2-pass RO acquisition attempt.
ACQUISITION_TRANSMISSIONS = 2

#: Device->RI requests per registration attempt (DeviceHello, RegRequest).
REGISTRATION_REQUESTS = 2

#: Device->RI requests per acquisition attempt (RORequest).
ACQUISITION_REQUESTS = 1


@dataclass(frozen=True)
class ScenarioFamily:
    """One strand of the fleet's scenario mix.

    Devices of this family draw uniformly from the discrete
    ``content_octets_choices`` and ``accesses_choices`` grids. Keeping
    the grids discrete bounds the number of distinct per-device costs,
    which is what keeps the exact percentile accumulators small.
    """

    name: str
    weight: float
    content_octets_choices: Tuple[int, ...]
    accesses_choices: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("family weight must be positive")
        if not self.content_octets_choices or not self.accesses_choices:
            raise ValueError("family grids must be non-empty")


#: Default mix: mostly ringtone-class flows, a tail of bulk audio.
DEFAULT_FAMILIES = (
    ScenarioFamily("ringtone", 0.55,
                   (15 * KIB, 30 * KIB, 60 * KIB), (5, 10, 25)),
    ScenarioFamily("track", 0.35,
                   (1 * MIB, int(3.5 * MIB), 5 * MIB), (1, 3, 5)),
    ScenarioFamily("audiobook", 0.10,
                   (16 * MIB, 32 * MIB), (1, 2)),
)

#: Supported arrival distributions over the observation window.
ARRIVAL_MODELS = ("uniform", "peaked")


@dataclass(frozen=True)
class FleetConfig:
    """Everything that determines a fleet run, and nothing else.

    A :class:`FleetConfig` plus a device index fully determines that
    device's draws; a config alone fully determines the aggregate result.
    """

    devices: int = 10_000
    seed: str = "repro-fleet"
    families: Tuple[ScenarioFamily, ...] = DEFAULT_FAMILIES
    arrival_model: str = "uniform"
    window_seconds: int = 3600
    arrival_bins: int = 60
    lossy_fraction: float = 0.2
    loss_rate: float = 0.1
    max_attempts: int = 5
    shard_size: int = 25_000
    rsa_bits: int = RSA_BITS
    calibration_octets: int = DEFAULT_CALIBRATION_OCTETS
    journaled: bool = False
    crash_rate: float = 0.0
    #: Fraction of devices behind a persistent active man-in-the-middle
    #: (see :mod:`repro.adversary`): their ROAP flows never complete,
    #: and the session's forgery cut-off bounds the crypto each one
    #: wastes at ``breaker_cutoff`` attempts instead of the full retry
    #: budget.
    adversary_fraction: float = 0.0
    breaker_cutoff: int = 2

    def __post_init__(self) -> None:
        if self.devices < 1:
            raise ValueError("a fleet needs at least one device")
        if self.arrival_model not in ARRIVAL_MODELS:
            raise ValueError("unknown arrival model %r (expected one of "
                             "%s)" % (self.arrival_model,
                                      ", ".join(ARRIVAL_MODELS)))
        if not 0.0 <= self.lossy_fraction <= 1.0:
            raise ValueError("lossy fraction must be within [0, 1]")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss rate must be within [0, 1)")
        if self.max_attempts < 1:
            raise ValueError("at least one attempt is required")
        if self.shard_size < 1:
            raise ValueError("shard size must be positive")
        if self.window_seconds < 1 or self.arrival_bins < 1:
            raise ValueError("window and bins must be positive")
        if not 0.0 <= self.crash_rate <= 1.0:
            raise ValueError("crash rate must be within [0, 1]")
        if self.crash_rate > 0.0 and not self.journaled:
            raise ValueError("crash modeling requires journaled "
                             "storage (set journaled=True)")
        if not 0.0 <= self.adversary_fraction <= 1.0:
            raise ValueError("adversary fraction must be within [0, 1]")
        if self.breaker_cutoff < 2:
            raise ValueError("the forgery cut-off needs at least two "
                             "observations")

    def size_buckets(self) -> Tuple[int, ...]:
        """All distinct content sizes any device can draw, sorted."""
        sizes = set()
        for family in self.families:
            sizes.update(family.content_octets_choices)
        return tuple(sorted(sizes))

    def shards(self) -> List[Tuple[int, int]]:
        """Fixed (start, count) decomposition — worker-count independent."""
        return [(start, min(self.shard_size, self.devices - start))
                for start in range(0, self.devices, self.shard_size)]


@dataclass(frozen=True)
class CostTemplates:
    """Pre-priced protocol costs every simulated device is built from.

    Plain dicts of ints keyed by architecture name / size bucket: the
    whole object pickles cheaply across the pool boundary, and workers
    never need a world, an RNG, or any other stateful object.
    """

    registration_cycles: Dict[str, int]
    acquisition_cycles: Dict[str, int]
    installation_cycles: Dict[str, int]
    access_cycles: Dict[int, Dict[str, int]]
    registration_octets: int
    acquisition_octets: int
    #: Journal/recovery pricing; None unless the fleet is journaled.
    durability: Optional[DurabilityTemplates] = None


def build_cost_templates(config: FleetConfig) -> CostTemplates:
    """Price the per-flow templates with one calibration run per seed.

    A metered functional ringtone-class run at calibration scale yields
    the phase traces; exact rescaling prices a single access at every
    size bucket in the mix. A second, wire-logged world measures the
    octets each ROAP flow moves. Memoized on exactly the parameters the
    templates depend on, so population-size sweeps pay for the RSA key
    generation once.
    """
    return _cached_templates(config.seed, config.rsa_bits,
                             config.calibration_octets,
                             config.size_buckets(), config.journaled)


@lru_cache(maxsize=8)
def _cached_templates(seed: str, rsa_bits: int, calibration_octets: int,
                      size_buckets: Tuple[int, ...],
                      journaled: bool = False) -> CostTemplates:
    world = DRMWorld.create(seed=seed + "/templates", metered=True,
                            rsa_bits=rsa_bits)
    calibration = ringtone().scaled(calibration_octets, accesses=1)
    run = run_functional(calibration, consume_times=1, world=world)

    model = PerformanceModel()
    phase_cycles: Dict[Phase, Dict[str, int]] = {}
    for phase in (Phase.REGISTRATION, Phase.ACQUISITION,
                  Phase.INSTALLATION):
        sub = run.trace.filter(phase=phase)
        phase_cycles[phase] = {
            profile.name: model.evaluate(sub, profile).total_cycles
            for profile in PAPER_PROFILES
        }

    access_cycles: Dict[int, Dict[str, int]] = {}
    for size in size_buckets:
        scaled = scale_trace(
            run.trace,
            target_dcf_octets=dcf_octets_for_content(run.dcf, size),
            target_payload_octets=padded_payload_octets(size),
            accesses=1,
        ).filter(phase=Phase.CONSUMPTION)
        access_cycles[size] = {
            profile.name: model.evaluate(scaled, profile).total_cycles
            for profile in PAPER_PROFILES
        }

    wire_world = DRMWorld.create(seed=seed + "/wire", metered=False,
                                 rsa_bits=rsa_bits)
    channel = WireChannel(wire_world.ri)
    wire_world.ci.publish("cid:fleet", "audio/mpeg", b"\x00" * 1024,
                          "http://ri.example/shop")
    wire_world.ri.add_offer(
        "ro:fleet", wire_world.ci.negotiate_license("cid:fleet"),
        play_count(1))
    wire_world.agent.register(channel)
    registration_octets = channel.log.total_octets()
    wire_world.agent.acquire(channel, "ro:fleet")
    acquisition_octets = (channel.log.total_octets()
                          - registration_octets)

    durability = None
    if journaled:
        durability = build_durability_templates(
            seed, rsa_bits=rsa_bits,
            calibration_octets=calibration_octets)

    return CostTemplates(
        registration_cycles=phase_cycles[Phase.REGISTRATION],
        acquisition_cycles=phase_cycles[Phase.ACQUISITION],
        installation_cycles=phase_cycles[Phase.INSTALLATION],
        access_cycles=access_cycles,
        registration_octets=registration_octets,
        acquisition_octets=acquisition_octets,
        durability=durability,
    )


@dataclass(frozen=True)
class DeviceDraw:
    """The scenario one device drew — exposed for tests and debugging."""

    index: int
    family: str
    content_octets: int
    accesses: int
    arrival_bin: int
    lossy: bool
    registration_attempts: int
    registered: bool
    acquisition_attempts: int
    acquired: bool
    #: Whether the device lost power once during its access sequence,
    #: and after how many completed accesses (journal depth at reboot).
    crashed: bool = False
    crash_point: int = 0
    #: Whether this device sits behind a persistent active attacker (its
    #: flows then abort at the forgery cut-off, never completing).
    attacked: bool = False


def attempt_success_probability(loss_rate: float,
                                transmissions: int =
                                REGISTRATION_TRANSMISSIONS) -> float:
    """Probability one whole attempt survives every transmission."""
    if not 0.0 <= loss_rate <= 1.0:
        raise ValueError("loss rate must be within [0, 1]")
    return (1.0 - loss_rate) ** transmissions


def _draw_attempts(rng: random.Random, success_probability: float,
                   max_attempts: int) -> Tuple[int, bool]:
    """Bounded-geometric attempt count and whether the flow completed."""
    for attempt in range(1, max_attempts + 1):
        if rng.random() < success_probability:
            return attempt, True
    return max_attempts, False


def draw_device(config: FleetConfig, index: int) -> DeviceDraw:
    """Deterministically draw device ``index``'s scenario.

    The draw order below is a compatibility contract: re-ordering it
    changes every seeded fleet result. Each device's RNG derives from
    ``(seed, index)`` alone, so draws are independent of sharding,
    worker count and start method.
    """
    rng = random.Random("%s/device/%d" % (config.seed, index))

    pick = rng.random() * sum(f.weight for f in config.families)
    family = config.families[-1]
    for candidate in config.families:
        pick -= candidate.weight
        if pick < 0.0:
            family = candidate
            break
    content_octets = rng.choice(family.content_octets_choices)
    accesses = rng.choice(family.accesses_choices)

    if config.arrival_model == "uniform":
        arrival_bin = rng.randrange(config.arrival_bins)
    else:  # "peaked": triangular ramp with the mode mid-window
        arrival_bin = min(config.arrival_bins - 1,
                          int(rng.triangular(0, config.arrival_bins,
                                             config.arrival_bins / 2)))

    lossy = rng.random() < config.lossy_fraction
    if lossy:
        reg_attempts, registered = _draw_attempts(
            rng, attempt_success_probability(config.loss_rate),
            config.max_attempts)
        if registered:
            acq_attempts, acquired = _draw_attempts(
                rng, attempt_success_probability(
                    config.loss_rate, ACQUISITION_TRANSMISSIONS),
                config.max_attempts)
        else:
            acq_attempts, acquired = 0, False
    else:
        reg_attempts, registered = 1, True
        acq_attempts, acquired = 1, True

    # Crash draws come last, gated on crash_rate: a crash-free config
    # consumes the identical random stream as before this draw existed,
    # so historical seeded results stay bit-identical.
    crashed, crash_point = False, 0
    if config.crash_rate > 0.0 and acquired:
        crashed = rng.random() < config.crash_rate
        if crashed:
            crash_point = rng.randrange(accesses + 1)

    # Adversary draws are likewise gated on their enabling parameter:
    # attack-free configs consume the identical random stream as before
    # this draw existed. An attacked device faces a persistent forging
    # man-in-the-middle: its registration aborts at the session layer's
    # forgery cut-off (identical trust failures), so it spends exactly
    # ``breaker_cutoff`` priced attempts instead of the full retry
    # budget, and nothing downstream of registration ever happens.
    attacked = False
    if config.adversary_fraction > 0.0:
        attacked = rng.random() < config.adversary_fraction
        if attacked:
            reg_attempts = min(config.breaker_cutoff,
                               config.max_attempts)
            registered = False
            acq_attempts, acquired = 0, False
            crashed, crash_point = False, 0

    return DeviceDraw(
        index=index, family=family.name, content_octets=content_octets,
        accesses=accesses, arrival_bin=arrival_bin, lossy=lossy,
        registration_attempts=reg_attempts, registered=registered,
        acquisition_attempts=acq_attempts, acquired=acquired,
        crashed=crashed, crash_point=crash_point, attacked=attacked,
    )


@dataclass
class FleetAccumulator:
    """Mergeable aggregate of any subset of the fleet.

    Strictly integer-valued, so merges are exact and order-independent;
    see the sharding determinism contract in the module docstring.
    """

    cycles: Dict[str, StreamingStats] = field(default_factory=dict)
    octets: StreamingStats = field(default_factory=StreamingStats)
    arrival_requests: Dict[int, int] = field(default_factory=dict)
    family_devices: Dict[str, int] = field(default_factory=dict)
    devices: int = 0
    requests: int = 0
    retries: int = 0
    failed_registrations: int = 0
    failed_acquisitions: int = 0
    accesses: int = 0
    recoveries: int = 0
    recovery_records: int = 0
    attacked_devices: int = 0

    def observe(self, draw: DeviceDraw, config: FleetConfig,
                templates: CostTemplates) -> None:
        """Fold one device into the aggregate."""
        requests = draw.registration_attempts * REGISTRATION_REQUESTS
        octets = (draw.registration_attempts
                  * templates.registration_octets)
        retries = draw.registration_attempts - 1
        if draw.registered:
            requests += draw.acquisition_attempts * ACQUISITION_REQUESTS
            octets += (draw.acquisition_attempts
                       * templates.acquisition_octets)
            retries += draw.acquisition_attempts - 1

        durability = templates.durability
        replayed = 0
        if draw.crashed and durability is not None:
            # Journal depth when power died: everything written up to
            # the crash point (registration, install, completed
            # accesses) is what the reboot replay has to scan.
            replayed = (durability.registration_records
                        + durability.install_records
                        + draw.crash_point * durability.access_records)

        per_access = templates.access_cycles[draw.content_octets]
        for profile in PAPER_PROFILES:
            name = profile.name
            total = (draw.registration_attempts
                     * templates.registration_cycles[name])
            if draw.registered:
                total += (draw.acquisition_attempts
                          * templates.acquisition_cycles[name])
            if draw.acquired:
                total += templates.installation_cycles[name]
                total += draw.accesses * per_access[name]
            if durability is not None:
                total += (draw.registration_attempts
                          * durability.registration_overhead_cycles[name])
                if draw.acquired:
                    total += durability.installation_overhead_cycles[name]
                    total += (draw.accesses
                              * durability.access_overhead_cycles[name])
                total += durability.recovery_cycles_for(name, replayed)
            if name not in self.cycles:
                self.cycles[name] = StreamingStats()
            self.cycles[name].add(total)

        self.octets.add(octets)
        self.arrival_requests[draw.arrival_bin] = (
            self.arrival_requests.get(draw.arrival_bin, 0) + requests)
        self.family_devices[draw.family] = (
            self.family_devices.get(draw.family, 0) + 1)
        self.devices += 1
        self.requests += requests
        self.retries += retries
        self.failed_registrations += int(not draw.registered)
        self.failed_acquisitions += int(draw.registered
                                        and not draw.acquired)
        self.accesses += draw.accesses if draw.acquired else 0
        self.recoveries += int(draw.crashed)
        self.recovery_records += replayed
        self.attacked_devices += int(draw.attacked)

    def merge(self, other: "FleetAccumulator") -> "FleetAccumulator":
        """Exact union (associative and commutative)."""
        cycles = {name: stats.merge(StreamingStats())
                  for name, stats in self.cycles.items()}
        for name, stats in other.cycles.items():
            cycles[name] = cycles.get(name, StreamingStats()).merge(stats)
        arrivals = dict(self.arrival_requests)
        for bin_index, count in other.arrival_requests.items():
            arrivals[bin_index] = arrivals.get(bin_index, 0) + count
        families = dict(self.family_devices)
        for name, count in other.family_devices.items():
            families[name] = families.get(name, 0) + count
        return FleetAccumulator(
            cycles=cycles,
            octets=self.octets.merge(other.octets),
            arrival_requests=arrivals,
            family_devices=families,
            devices=self.devices + other.devices,
            requests=self.requests + other.requests,
            retries=self.retries + other.retries,
            failed_registrations=(self.failed_registrations
                                  + other.failed_registrations),
            failed_acquisitions=(self.failed_acquisitions
                                 + other.failed_acquisitions),
            accesses=self.accesses + other.accesses,
            recoveries=self.recoveries + other.recoveries,
            recovery_records=(self.recovery_records
                              + other.recovery_records),
            attacked_devices=(self.attacked_devices
                              + other.attacked_devices),
        )

    def metrics(self) -> MetricsRegistry:
        """This aggregate as a :class:`~repro.obs.metrics.MetricsRegistry`.

        The mapping is linear in the accumulator (counters sum,
        histograms union), so registries built per shard and merged
        equal the registry of the merged accumulator — the fleet's
        bit-identical-for-any-worker-count contract carries over to the
        metrics export unchanged.
        """
        registry = MetricsRegistry()
        registry.counter("fleet.devices", self.devices)
        registry.counter("fleet.requests", self.requests)
        registry.counter("fleet.retries", self.retries)
        registry.counter("fleet.failed_registrations",
                         self.failed_registrations)
        registry.counter("fleet.failed_acquisitions",
                         self.failed_acquisitions)
        registry.counter("fleet.accesses", self.accesses)
        registry.counter("fleet.recoveries", self.recoveries)
        registry.counter("fleet.recovery_records", self.recovery_records)
        registry.counter("fleet.attacked_devices", self.attacked_devices)
        for family in sorted(self.family_devices):
            registry.counter("fleet.family.%s" % family,
                             self.family_devices[family])
        for bin_index in sorted(self.arrival_requests):
            registry.counter("fleet.arrivals.bin.%03d" % bin_index,
                             self.arrival_requests[bin_index])
        registry.histograms["fleet.octets"] = StreamingStats(
            counts=Counter(self.octets.counts))
        for name in sorted(self.cycles):
            registry.histograms["fleet.cycles.%s" % name] = \
                StreamingStats(counts=Counter(self.cycles[name].counts))
        return registry

    def peak_request_bin(self) -> Tuple[Optional[int], int]:
        """(bin index, requests) of the busiest arrival slot."""
        if not self.arrival_requests:
            return None, 0
        bin_index = max(sorted(self.arrival_requests),
                        key=lambda b: self.arrival_requests[b])
        return bin_index, self.arrival_requests[bin_index]


def _run_shard(spec: Tuple[FleetConfig, CostTemplates,
                           int, int]) -> FleetAccumulator:
    """Simulate one shard. Pure function of its argument tuple.

    This is the pool worker: everything it reads arrives in ``spec``,
    everything it produces leaves in the returned accumulator. It runs
    identically inline, under fork, and under spawn.
    """
    config, templates, start, count = spec
    accumulator = FleetAccumulator()
    for index in range(start, start + count):
        accumulator.observe(draw_device(config, index), config,
                            templates)
    return accumulator


@dataclass
class ArchitectureFleetSummary:
    """Per-architecture fleet cost statistics, cycles plus conversions."""

    architecture: str
    cycles: StatsSummary
    ms_per_cycle: float
    millijoules_per_cycle: float

    @property
    def total_ms(self) -> float:
        """Fleet-wide processing time in milliseconds."""
        return self.cycles.total * self.ms_per_cycle

    @property
    def mean_ms(self) -> float:
        """Mean per-device processing time in milliseconds."""
        return self.cycles.mean * self.ms_per_cycle

    @property
    def total_millijoules(self) -> float:
        """Fleet-wide terminal energy in millijoules."""
        return self.cycles.total * self.millijoules_per_cycle

    def percentile_ms(self, which: str) -> float:
        """One of 'p50'/'p95'/'p99' converted to milliseconds."""
        return (getattr(self.cycles, which) or 0) * self.ms_per_cycle


@dataclass
class FleetResult:
    """One completed fleet simulation."""

    config: FleetConfig
    templates: CostTemplates
    accumulator: FleetAccumulator
    workers: int
    #: Per-shard registries merged in shard order; equals the merged
    #: accumulator's own :meth:`FleetAccumulator.metrics` exactly.
    metrics: Optional[MetricsRegistry] = None

    def architecture_summaries(self) -> List[ArchitectureFleetSummary]:
        """Cycle statistics per paper architecture, in plot order."""
        summaries = []
        for profile in PAPER_PROFILES:
            stats = self.accumulator.cycles.get(profile.name,
                                                StreamingStats())
            ms_per_cycle = profile.cycles_to_ms(1)
            mj_per_cycle = (1000.0 * DEFAULT_CPU_POWER_WATTS
                            / profile.clock_hz)
            summaries.append(ArchitectureFleetSummary(
                architecture=profile.name, cycles=stats.summary(),
                ms_per_cycle=ms_per_cycle,
                millijoules_per_cycle=mj_per_cycle,
            ))
        return summaries

    def mean_request_rate(self) -> float:
        """RI requests per second, averaged over the arrival window."""
        return self.accumulator.requests / self.config.window_seconds

    def peak_request_rate(self) -> float:
        """RI requests per second in the busiest arrival bin."""
        _, peak = self.accumulator.peak_request_bin()
        bin_seconds = (self.config.window_seconds
                       / self.config.arrival_bins)
        return peak / bin_seconds

    def retry_request_fraction(self) -> float:
        """Share of RI load that exists only because of retries."""
        if not self.accumulator.requests:
            return 0.0
        retry_requests = (self.accumulator.requests
                          - self.accumulator.devices
                          * REGISTRATION_REQUESTS
                          - (self.accumulator.devices
                             - self.accumulator.failed_registrations)
                          * ACQUISITION_REQUESTS)
        return retry_requests / self.accumulator.requests


def run_fleet(config: FleetConfig, workers: int = 1,
              templates: Optional[CostTemplates] = None) -> FleetResult:
    """Simulate the whole fleet and return its aggregate statistics.

    ``workers > 1`` distributes the fixed shard list over a process
    pool; any worker count yields bit-identical results. ``templates``
    may be passed in to amortize the calibration run across sweeps.
    """
    if workers < 1:
        raise ValueError("at least one worker is required")
    if templates is None:
        templates = build_cost_templates(config)
    specs = [(config, templates, start, count)
             for start, count in config.shards()]

    if workers == 1 or len(specs) == 1:
        shard_results = [_run_shard(spec) for spec in specs]
    else:
        with multiprocessing.Pool(processes=min(workers,
                                                len(specs))) as pool:
            shard_results = pool.map(_run_shard, specs)

    accumulator = FleetAccumulator()
    for shard in shard_results:
        accumulator = accumulator.merge(shard)
    metrics = merge_registries(shard.metrics()
                               for shard in shard_results)
    return FleetResult(config=config, templates=templates,
                       accumulator=accumulator, workers=workers,
                       metrics=metrics)
