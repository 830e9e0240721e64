"""Fleet scenarios on the kernel: shared-RI contention, open load.

:mod:`repro.usecases.fleet` prices devices as if each had the Rights
Issuer to itself; this module drives the *same* deterministic population
through one :class:`~repro.sim.ri.RIServer` per architecture, so queue
waits, saturation and refused requests become measurable. Two entry
points:

* :func:`run_fleet_kernel` — the fleet CLI's ``--kernel`` mode. The
  sequential engine runs first (sharded, bit-identical for any worker
  count) and its accumulator is carried unchanged; the kernel pass then
  replays each device's drawn request schedule (arrival bin, retry
  counts) against a shared RI per architecture. Device draws come from
  :func:`~repro.usecases.fleet.draw_device` verbatim, so the kernel
  pass *conserves requests*: served + refused equals the accumulator's
  request count exactly (``tests/sim/test_equivalence.py``).
* :func:`run_open_load` — an open Poisson request source at a chosen
  arrival rate, the generator behind the saturation analysis
  (:mod:`repro.analysis.saturation`): utilization, queue depth and
  latency as functions of offered load.

Determinism: both entry points are pure functions of their arguments.
Every draw comes from a named kernel stream in a schedule-independent
order (arrival offsets in device-index order, open-load draws at
arrival), and all statistics are integer-exact, so results are
bit-identical per seed — for any worker count, since the kernel pass is
worker-independent and the sequential engine already holds that
contract.
"""

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..core.architecture import PAPER_PROFILES, ArchitectureProfile
from ..core.stats import StatsSummary
from ..obs.slo import SLOReport
from ..obs.tracer import NULL_TRACER
from ..usecases.fleet import (CostTemplates, DeviceDraw, FleetConfig,
                              FleetResult, build_cost_templates,
                              draw_device, run_fleet)
from .kernel import Kernel, Wait
from .queueing import exponential_ticks
from .ri import DEFAULT_REQUEST_MIX, RICapacity, RIServer

__all__ = [
    "ArchitectureLoadResult", "KernelFleetResult", "OpenLoadResult",
    "run_fleet_kernel", "run_open_load",
]


def _device_requests(draw: DeviceDraw) -> Tuple[str, ...]:
    """The RI requests one drawn device issues, in protocol order.

    Mirrors the sequential engine's accounting exactly: every
    registration attempt is a DeviceHello plus a RegistrationRequest
    (``REGISTRATION_REQUESTS == 2``), every acquisition attempt one
    RORequest (``ACQUISITION_REQUESTS == 1``), acquisitions only after
    a completed registration.
    """
    requests = ("hello", "registration") * draw.registration_attempts
    if draw.registered:
        requests += ("acquisition",) * draw.acquisition_attempts
    return requests


@dataclass
class ArchitectureLoadResult:
    """What one shared RI observed serving one architecture's fleet."""

    architecture: str
    ticks_per_second: int
    served: int
    refused: int
    span_ticks: int
    events: int
    utilization: float
    mean_queue_depth: float
    peak_queue_depth: int
    ocsp_fetches: int
    latency: StatsSummary
    wait: StatsSummary
    latency_by_kind: Dict[str, StatsSummary] = field(default_factory=dict)
    #: SLO evaluation of the run (deterministic alerts + exemplars);
    #: ``None`` when the server ran without a monitor.
    slo: Optional[SLOReport] = None

    def latency_ms(self, which: str = "mean") -> float:
        """A latency summary statistic in milliseconds."""
        value = getattr(self.latency, which) or 0
        return value * 1000.0 / self.ticks_per_second

    def arrival_rate_per_second(self) -> float:
        """Realized request arrivals per second of RI time."""
        if not self.span_ticks:
            return 0.0
        return ((self.served + self.refused) * self.ticks_per_second
                / self.span_ticks)


def _load_result(ri: RIServer, kernel: Kernel,
                 name: str) -> ArchitectureLoadResult:
    return ArchitectureLoadResult(
        architecture=name,
        ticks_per_second=ri.ticks_per_second,
        served=ri.served, refused=ri.refused,
        span_ticks=kernel.now, events=kernel.events_executed,
        utilization=ri.utilization(),
        mean_queue_depth=ri.mean_queue_depth(),
        peak_queue_depth=ri.signing.queue_depth.maximum,
        ocsp_fetches=ri.ocsp_fetches,
        latency=ri.latency.summary(),
        wait=ri.signing.wait_ticks.summary(),
        latency_by_kind={kind: stats.summary()
                         for kind, stats in ri.latency_by_kind.items()
                         if stats.count},
        slo=ri.slo.report() if ri.slo is not None else None,
    )


@dataclass
class KernelFleetResult:
    """A fleet run with the kernel's contention view attached.

    ``base`` is the unchanged sequential result — same accumulator,
    templates and metrics as a plain :func:`~repro.usecases.fleet
    .run_fleet` of the same config and worker count. ``architectures``
    adds what the per-architecture shared RI observed.
    """

    base: FleetResult
    capacity: RICapacity
    architectures: Dict[str, ArchitectureLoadResult]

    @property
    def config(self) -> FleetConfig:
        """The fleet configuration both passes ran from."""
        return self.base.config


def run_fleet_kernel(config: FleetConfig, workers: int = 1,
                     templates: Optional[CostTemplates] = None,
                     capacity: RICapacity = RICapacity(),
                     profiles: Tuple[ArchitectureProfile, ...] =
                     PAPER_PROFILES,
                     tracer=NULL_TRACER) -> KernelFleetResult:
    """Run the fleet sequentially, then replay it on shared RIs.

    The kernel pass schedules each device at its drawn arrival bin (a
    uniform within-bin offset comes from the kernel's ``arrivals``
    stream, drawn in device-index order) and replays its request
    schedule against one shared :class:`RIServer` per architecture
    profile. Request conservation against the sequential accumulator is
    exact; see the module docstring.
    """
    if templates is None:
        # repro: allow[REP202] -- world construction seeds per-device DRBG streams; provisioning entropy is outside Table 1's priced protocol trace
        templates = build_cost_templates(config)
    # repro: allow[REP202] -- same provisioning path: the sequential fleet pass builds its world through the PR 2 engine
    base = run_fleet(config, workers=workers, templates=templates)
    draws = [draw_device(config, index)
             for index in range(config.devices)]

    architectures: Dict[str, ArchitectureLoadResult] = {}
    for profile in profiles:
        kernel = Kernel(seed="%s/kernel/%s" % (config.seed,
                                               profile.name),
                        record_log=False)
        ri = RIServer(kernel, profile, capacity=capacity,
                      tracer=tracer)
        ri.attach_slo()
        bin_ticks = max(1, config.window_seconds * profile.clock_hz
                        // config.arrival_bins)
        offsets = kernel.stream("arrivals")

        def device(draw: DeviceDraw):
            for kind in _device_requests(draw):
                yield from ri.serve(kind)
            return None

        for draw in draws:
            arrival = (draw.arrival_bin * bin_ticks
                       + offsets.randrange(bin_ticks))
            kernel.spawn("device/%d" % draw.index, device(draw),
                         at=arrival)
        kernel.run()
        architectures[profile.name] = _load_result(ri, kernel,
                                                   profile.name)
    return KernelFleetResult(base=base, capacity=capacity,
                             architectures=architectures)


# -- open load -------------------------------------------------------------

@dataclass
class OpenLoadResult:
    """One open-load measurement point for one architecture."""

    architecture: str
    offered_per_second: float
    requests: int
    load: ArchitectureLoadResult


def run_open_load(seed: str, profile: ArchitectureProfile,
                  arrivals_per_second: float, requests: int,
                  mix: Mapping[str, float] = DEFAULT_REQUEST_MIX,
                  capacity: RICapacity = RICapacity(),
                  tracer=NULL_TRACER) -> OpenLoadResult:
    """Drive one RI with Poisson request arrivals at a fixed rate.

    Inter-arrival gaps are exponential with mean ``clock_hz / rate``
    ticks; each arrival's kind is drawn from ``mix`` at arrival time
    (schedule-independent draws from the ``kinds`` stream). The run is
    measured to drain.
    """
    if arrivals_per_second <= 0:
        raise ValueError("the arrival rate must be positive")
    if requests < 1:
        raise ValueError("at least one request is required")
    kernel = Kernel(seed=seed, record_log=False)
    ri = RIServer(kernel, profile, capacity=capacity, tracer=tracer)
    ri.attach_slo()
    mean_gap = profile.clock_hz / arrivals_per_second
    gaps = kernel.stream("arrivals")
    kinds_rng = kernel.stream("kinds")
    names = tuple(mix)
    weights = tuple(mix[name] for name in names)

    def request(kind: str):
        yield from ri.serve(kind)
        return None

    def source():
        for index in range(requests):
            yield Wait(exponential_ticks(gaps, mean_gap))
            kind = kinds_rng.choices(names, weights=weights)[0]
            kernel.spawn("request/%d" % index, request(kind))
        return None

    kernel.spawn("source", source())
    kernel.run()
    return OpenLoadResult(
        architecture=profile.name,
        offered_per_second=arrivals_per_second, requests=requests,
        load=_load_result(ri, kernel, profile.name))
