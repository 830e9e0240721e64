"""Energy models for the DRM workload.

The paper's first-order assumption (§3): "we assumed energy consumption to
be directly related to processing performance", i.e. energy is proportional
to processing time — :class:`ProportionalEnergyModel`.

Its future-work remark — "first results seem to indicate that the gap
between software and hardware realizations in this case is even wider than
for processing time" — motivates :class:`WeightedEnergyModel`, which gives
each execution unit its own active-power figure, so a hardware macro that
is both faster *and* lower-power widens the SW/HW gap beyond the time
ratio. The default power numbers are illustrative engineering values for a
130 nm-class SoC of the period (an ARM9 core around 0.4 mW/MHz; dedicated
macros an order of magnitude below), chosen only to demonstrate the
qualitative effect the authors describe; the ``abl-energy`` ablation uses them.
"""

from dataclasses import dataclass, field
from typing import Mapping

from .costs import Implementation
from .model import CostBreakdown

#: Illustrative ARM9-class core active power at 200 MHz (0.4 mW/MHz).
DEFAULT_CPU_POWER_WATTS = 0.080

#: Illustrative dedicated-macro active power (an order of magnitude lower).
DEFAULT_MACRO_POWER_WATTS = 0.008


@dataclass(frozen=True)
class ProportionalEnergyModel:
    """Paper baseline: energy = total processing time x constant power."""

    power_watts: float = DEFAULT_CPU_POWER_WATTS

    def joules(self, breakdown: CostBreakdown) -> float:
        """Energy in joules for one priced breakdown."""
        return breakdown.total_seconds * self.power_watts


@dataclass(frozen=True)
class WeightedEnergyModel:
    """Per-execution-unit energy: cycles on each unit x that unit's power.

    ``unit_power_watts`` maps :class:`~repro.core.costs.Implementation`
    values to active power. Cycles spent on a hardware macro are priced at
    the macro's power, not the CPU's.
    """

    unit_power_watts: Mapping[str, float] = field(default_factory=lambda: {
        Implementation.SOFTWARE: DEFAULT_CPU_POWER_WATTS,
        Implementation.HARDWARE: DEFAULT_MACRO_POWER_WATTS,
    })

    def joules(self, breakdown: CostBreakdown) -> float:
        """Energy in joules, pricing each unit's cycles at its own power."""
        clock_hz = breakdown.profile.clock_hz
        total = 0.0
        for op in breakdown.operations:
            power = self.unit_power_watts[op.implementation]
            total += op.cycles / clock_hz * power
        return total
