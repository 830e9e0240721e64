"""Battery-life impact of the DRM workload.

The paper motivates the whole study with "processing time and energy
consumption (ie, battery lifetime)" as the user-visible performance
dimensions. This module converts priced breakdowns into battery terms:
charge drawn per protected access, and how much of a battery the DRM
layer alone consumes over a usage pattern — the number a product manager
actually asks for.

Battery parameters default to a period-typical phone cell (an 850 mAh
Li-ion at a 3.7 V nominal voltage); energy comes from any model in
:mod:`repro.core.energy`.
"""

from dataclasses import dataclass
from typing import Optional, Union

from .energy import ProportionalEnergyModel, WeightedEnergyModel
from .model import CostBreakdown

#: Energy models this module accepts.
EnergyModel = Union[ProportionalEnergyModel, WeightedEnergyModel]


@dataclass(frozen=True)
class Battery:
    """A battery described by capacity and nominal voltage."""

    capacity_mah: float = 850.0
    nominal_volts: float = 3.7

    @property
    def capacity_joules(self) -> float:
        """Total stored energy in joules."""
        return self.capacity_mah / 1000.0 * 3600.0 * self.nominal_volts


@dataclass(frozen=True)
class BatteryImpact:
    """DRM energy cost of one workload, in battery terms."""

    joules: float
    battery: Battery

    @property
    def millijoules(self) -> float:
        """Energy in millijoules."""
        return self.joules * 1000.0

    @property
    def microamp_hours(self) -> float:
        """Charge drawn, in microampere-hours at nominal voltage."""
        return (self.joules / self.battery.nominal_volts) / 3600.0 * 1e6

    def runs_per_charge(self) -> float:
        """How many times this workload fits in one full charge,
        if the battery powered nothing else."""
        if self.joules == 0:
            return float("inf")
        return self.battery.capacity_joules / self.joules


def battery_impact(breakdown: CostBreakdown,
                   energy_model: Optional[EnergyModel] = None,
                   battery: Battery = Battery()) -> BatteryImpact:
    """Battery impact of one priced breakdown."""
    if energy_model is None:
        energy_model = WeightedEnergyModel()
    return BatteryImpact(joules=energy_model.joules(breakdown),
                         battery=battery)


def drm_tax_percent(breakdown: CostBreakdown, playback_watts: float,
                    playback_seconds: float,
                    energy_model: Optional[EnergyModel] = None) -> float:
    """DRM energy as a percentage of the content playback energy itself.

    ``playback_watts`` is the rest-of-system power while rendering the
    content (codec, DAC/amplifier, backlight as applicable) and
    ``playback_seconds`` the total rendering time of the workload. The
    result is the "DRM tax": how much the protection adds on top of
    merely playing the media.
    """
    if playback_watts <= 0 or playback_seconds <= 0:
        raise ValueError("playback power and duration must be positive")
    if energy_model is None:
        energy_model = WeightedEnergyModel()
    drm_joules = energy_model.joules(breakdown)
    playback_joules = playback_watts * playback_seconds
    return 100.0 * drm_joules / playback_joules
