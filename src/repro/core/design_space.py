"""Hardware/software design-space exploration.

The paper frames the architect's problem explicitly (§3): "find the
optimal tradeoff between [price, processing time and energy consumption]
when deciding on whether to support functionality in hardware or in
software", and closes §4 by questioning whether a PKI macro's transistor
cost is justified by the DRM workload. This module turns that framing
into a tool: enumerate every macro subset, attach a gate-cost estimate,
price a workload under each, and extract the Pareto frontier over
(gates, time) or (gates, energy).

Gate-cost estimates are kept as data (:class:`MacroCosts`) with defaults
drawn from the literature of the period — an AES core around 25 kgates
(Satoh-style composite-field designs), a compact SHA-1 core around
20 kgates, a 1024-bit Montgomery RSA datapath in the 100 kgate class
(the paper's reference [7]) — and are meant to be overridden with the
architect's own numbers.
"""

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .architecture import ArchitectureProfile, DEFAULT_CLOCK_HZ, \
    custom_profile
from .energy import WeightedEnergyModel
from .model import PerformanceModel
from .trace import Algorithm, OperationTrace

#: The three independently sizeable macro blocks.
MACRO_AES = "AES"
MACRO_SHA1 = "SHA1"
MACRO_RSA = "RSA"

MACRO_BLOCKS: Mapping[str, Tuple[Algorithm, ...]] = {
    MACRO_AES: (Algorithm.AES_ENCRYPT, Algorithm.AES_DECRYPT),
    MACRO_SHA1: (Algorithm.SHA1, Algorithm.HMAC_SHA1),
    MACRO_RSA: (Algorithm.RSA_PUBLIC, Algorithm.RSA_PRIVATE),
}


@dataclass(frozen=True)
class MacroCosts:
    """Kilogate estimates per macro block (override with your own)."""

    aes_kgates: float = 25.0
    sha1_kgates: float = 20.0
    rsa_kgates: float = 100.0

    def kgates(self, macros: Sequence[str]) -> float:
        """Total kilogates for a set of macro blocks."""
        table = {MACRO_AES: self.aes_kgates,
                 MACRO_SHA1: self.sha1_kgates,
                 MACRO_RSA: self.rsa_kgates}
        return sum(table[m] for m in macros)


@dataclass(frozen=True)
class DesignPoint:
    """One macro subset priced against one workload."""

    macros: Tuple[str, ...]
    kgates: float
    time_ms: float
    energy_mj: float
    profile: ArchitectureProfile = field(compare=False, repr=False,
                                         default=None)

    @property
    def name(self) -> str:
        """Human-readable macro-set name."""
        return "+".join(self.macros) if self.macros else "SW-only"


def profile_for_macros(macros: Sequence[str],
                       clock_hz: int = DEFAULT_CLOCK_HZ
                       ) -> ArchitectureProfile:
    """Build an architecture profile with the given macro blocks."""
    hardware = {}
    for macro in macros:
        for algorithm in MACRO_BLOCKS[macro]:
            hardware[algorithm] = True
    name = "+".join(macros) if macros else "SW-only"
    return custom_profile(name, hardware, clock_hz=clock_hz)


def enumerate_design_points(trace: OperationTrace,
                            costs: MacroCosts = MacroCosts(),
                            model: Optional[PerformanceModel] = None,
                            energy_model: Optional[WeightedEnergyModel]
                            = None,
                            clock_hz: int = DEFAULT_CLOCK_HZ
                            ) -> List[DesignPoint]:
    """Price ``trace`` under all 8 macro subsets.

    Returns points sorted by gate cost, then time.
    """
    if model is None:
        model = PerformanceModel()
    if energy_model is None:
        energy_model = WeightedEnergyModel()
    points = []
    blocks = sorted(MACRO_BLOCKS)
    for r in range(len(blocks) + 1):
        for macros in itertools.combinations(blocks, r):
            profile = profile_for_macros(macros, clock_hz)
            breakdown = model.evaluate(trace, profile)
            points.append(DesignPoint(
                macros=macros,
                kgates=costs.kgates(macros),
                time_ms=breakdown.total_ms,
                energy_mj=energy_model.joules(breakdown) * 1000.0,
                profile=profile,
            ))
    return sorted(points, key=lambda p: (p.kgates, p.time_ms))


def pareto_frontier(points: Sequence[DesignPoint],
                    objective: str = "time") -> List[DesignPoint]:
    """The Pareto-optimal subset over (kgates, time or energy).

    A point survives if no other point is at least as cheap in gates AND
    strictly better on the objective.
    """
    if objective == "time":
        def value(p):
            return p.time_ms
    elif objective == "energy":
        def value(p):
            return p.energy_mj
    else:
        raise ValueError("objective must be 'time' or 'energy'")

    ordered = sorted(points, key=lambda p: (p.kgates, value(p)))
    frontier: List[DesignPoint] = []
    best = float("inf")
    for point in ordered:
        if value(point) < best:
            # Skip gate-cost ties: the first (cheapest-objective) wins.
            if frontier and frontier[-1].kgates == point.kgates:
                continue
            frontier.append(point)
            best = value(point)
    return frontier


def marginal_value(points: Sequence[DesignPoint]
                   ) -> Dict[str, Dict[str, float]]:
    """Per-macro speedup when added to the software-only baseline.

    Quantifies the paper's §4 discussion: how much does each individual
    macro buy, per kilogate, for this workload?
    """
    by_macros = {p.macros: p for p in points}
    baseline = by_macros[()]
    result = {}
    for macro in sorted(MACRO_BLOCKS):
        point = by_macros[(macro,)]
        saved_ms = baseline.time_ms - point.time_ms
        result[macro] = {
            "speedup": baseline.time_ms / point.time_ms,
            "saved_ms": saved_ms,
            "saved_ms_per_kgate": saved_ms / point.kgates,
        }
    return result
