"""Experiment ``saturation``: Rights Issuer capacity per architecture.

The paper's Figures 6 and 7 price one terminal's latency; this
experiment asks the question an operator sizing an RI deployment asks:
at what request rate does each architecture's signing capacity
saturate, and what do queue depth and request latency look like on the
way there?

The kernel's open-load generator (:func:`repro.sim.fleet.run_open_load`)
drives one :class:`~repro.sim.ri.RIServer` per architecture with Poisson
request arrivals at a ladder of offered loads (fractions of the
architecture's nominal capacity ``clock_hz / mix-weighted service
demand``). Every point of the sweep shares one seed, so the arrival
draws are common random numbers across loads: the realized
utilization-vs-arrival-rate curve is monotone point-by-point, which is
what the CI smoke gate asserts.

The architecture story is stark and quantitative: a software RI
saturates below ten requests per second (one 37.74 Mcycle RSA signature
per response), the mixed profile is no better (RSA is still software),
while the hardware profile serves three orders of magnitude more —
until the OCSP refresh round-trip, not crypto, sets its latency floor.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..core.architecture import PAPER_PROFILES
from ..sim.fleet import OpenLoadResult, run_open_load
from ..sim.ri import (DEFAULT_REQUEST_MIX, RICapacity,
                      nominal_service_ticks)
from .common import DEFAULT_SEED
from .formatting import format_table

#: Offered-load ladder: fractions of each architecture's nominal
#: capacity the sweep measures.
DEFAULT_RHOS = (0.2, 0.4, 0.6, 0.8)

#: Requests per measurement point in the report; the CI smoke gate runs
#: far fewer.
REPORT_REQUESTS = 2_000


@dataclass
class SaturationPoint:
    """One (architecture, offered load) measurement."""

    architecture: str
    rho_nominal: float
    arrivals_per_second: float
    result: OpenLoadResult

    @property
    def utilization(self) -> float:
        """Realized signing-unit occupancy."""
        return self.result.load.utilization

    @property
    def mean_queue_depth(self) -> float:
        """Time-average signing-queue length."""
        return self.result.load.mean_queue_depth

    def latency_ms(self, which: str = "mean") -> float:
        """A sojourn-latency summary statistic in milliseconds."""
        return self.result.load.latency_ms(which)

    @property
    def slo_breached(self) -> Tuple[str, ...]:
        """Objectives whose lifetime compliance missed target here."""
        return self.result.load.slo.breached

    @property
    def slo_alerts(self) -> int:
        """Burn-rate alerts fired at this measurement point."""
        return self.result.load.slo.alert_count


@dataclass
class SaturationSweep:
    """The full ladder: per-architecture load curves, one shared seed."""

    seed: str
    requests: int
    capacity: RICapacity
    rhos: Tuple[float, ...]
    nominal_rate: Dict[str, float] = field(default_factory=dict)
    points: Dict[str, List[SaturationPoint]] = field(default_factory=dict)

    def assert_monotone_utilization(self) -> None:
        """Raise unless every curve's utilization rises with load.

        The sweep's common-random-numbers design makes this exact, not
        statistical: all points of one architecture replay the same
        arrival draws at scaled gaps, so higher offered load strictly
        means higher realized occupancy. CI runs this as the saturation
        smoke gate.
        """
        for architecture, curve in self.points.items():
            utilizations = [point.utilization for point in curve]
            for lower, higher in zip(utilizations, utilizations[1:]):
                if higher <= lower:
                    raise AssertionError(
                        "utilization not monotone for %s: %r"
                        % (architecture, utilizations))

    def assert_slo_contract(self) -> None:
        """Raise unless the ladder's SLO story holds.

        Two halves, both deterministic at a pinned seed:

        * the software-RSA architectures (SW, SW/HW) meet every default
          objective at the bottom of the ladder — an unloaded RI that
          breaches its own SLOs is misconfigured;
        * the HW architecture *breaches* at least one latency objective
          (with a burn-rate alert to show for it) at the top of the
          ladder: its service times are so short that the 50 ms OCSP
          refresh round-trip dominates sojourn latency — the paper's
          "crypto stops being the bottleneck" story, now stated as an
          operator-visible SLO breach.
        """
        for architecture in ("SW", "SW/HW"):
            curve = self.points.get(architecture)
            if not curve:
                continue
            bottom = curve[0]
            if bottom.slo_breached:
                raise AssertionError(
                    "%s breached %r at the bottom of the ladder"
                    % (architecture, bottom.slo_breached))
        curve = self.points.get("HW")
        if curve:
            top = curve[-1]
            if not top.slo_breached:
                raise AssertionError(
                    "expected the HW ladder top to breach a latency "
                    "objective (OCSP round-trip floor), but all "
                    "objectives held")
            if not top.slo_alerts:
                raise AssertionError(
                    "HW breached %r at the ladder top but no "
                    "burn-rate alert fired" % (top.slo_breached,))


def sweep(seed: str = DEFAULT_SEED,
          requests: int = REPORT_REQUESTS,
          rhos: Tuple[float, ...] = DEFAULT_RHOS,
          capacity: RICapacity = RICapacity()) -> SaturationSweep:
    """Measure the offered-load ladder for every architecture."""
    if not rhos or any(rho <= 0 for rho in rhos):
        raise ValueError("offered loads must be positive")
    result = SaturationSweep(seed=seed, requests=requests,
                             capacity=capacity, rhos=tuple(rhos))
    for profile in PAPER_PROFILES:
        service = nominal_service_ticks(profile, DEFAULT_REQUEST_MIX)
        nominal = (capacity.signing_units * profile.clock_hz / service)
        result.nominal_rate[profile.name] = nominal
        curve = []
        for rho in rhos:
            rate = rho * nominal
            point = run_open_load("%s/saturation" % seed, profile,
                                  arrivals_per_second=rate,
                                  requests=requests,
                                  capacity=capacity)
            curve.append(SaturationPoint(
                architecture=profile.name, rho_nominal=rho,
                arrivals_per_second=rate, result=point))
        result.points[profile.name] = curve
    return result


@dataclass
class SaturationAnalysis:
    """The rendered saturation experiment."""

    sweep: SaturationSweep

    def render(self) -> str:
        """One latency/utilization table per architecture."""
        tables = []
        for architecture, curve in self.sweep.points.items():
            rows = []
            for point in curve:
                load = point.result.load
                rows.append((
                    "%.0f%%" % (100.0 * point.rho_nominal),
                    "%.2f" % point.arrivals_per_second,
                    "%.3f" % point.utilization,
                    "%.3f" % point.mean_queue_depth,
                    "%.2f" % point.latency_ms("p50"),
                    "%.2f" % point.latency_ms("p95"),
                    "%d" % load.served,
                    "%d" % load.refused,
                    ",".join(point.slo_breached) or "-",
                    "%d" % point.slo_alerts,
                ))
            tables.append(format_table(
                ("offered", "req/s", "utilization", "mean queue",
                 "p50 [ms]", "p95 [ms]", "served", "refused",
                 "slo breached", "alerts"),
                rows,
                title="%s RI: nominal capacity %.2f req/s "
                      "(%d signing unit%s)"
                      % (architecture,
                         self.sweep.nominal_rate[architecture],
                         self.sweep.capacity.signing_units,
                         "" if self.sweep.capacity.signing_units == 1
                         else "s")))
        return "\n\n".join(tables)


def generate(seed: str = DEFAULT_SEED,
             requests: int = REPORT_REQUESTS,
             rhos: Tuple[float, ...] = DEFAULT_RHOS,
             capacity: RICapacity = RICapacity()) -> SaturationAnalysis:
    """Run the saturation experiment at report scale."""
    analysis = SaturationAnalysis(
        sweep=sweep(seed + "/saturation", requests=requests, rhos=rhos,
                    capacity=capacity))
    analysis.sweep.assert_monotone_utilization()
    analysis.sweep.assert_slo_contract()
    return analysis
