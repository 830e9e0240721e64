"""Battery-life impact calculations."""

import pytest

from repro.core.architecture import HW_PROFILE, SW_PROFILE
from repro.core.battery import (Battery, battery_impact, drm_tax_percent)
from repro.core.energy import ProportionalEnergyModel
from repro.core.model import PerformanceModel
from repro.core.trace import (Algorithm, OperationRecord, OperationTrace,
                              Phase)


@pytest.fixture()
def breakdown():
    trace = OperationTrace([
        OperationRecord(Algorithm.RSA_PRIVATE, Phase.REGISTRATION, 3, 3),
        OperationRecord(Algorithm.AES_DECRYPT, Phase.CONSUMPTION, 5,
                        1_000_000),
    ])
    return PerformanceModel().evaluate(trace, SW_PROFILE)


def test_battery_capacity_joules():
    battery = Battery(capacity_mah=1000, nominal_volts=3.6)
    assert battery.capacity_joules == pytest.approx(1.0 * 3600 * 3.6)


def test_impact_consistency(breakdown):
    impact = battery_impact(breakdown,
                            ProportionalEnergyModel(power_watts=0.1))
    assert impact.joules == pytest.approx(
        breakdown.total_seconds * 0.1)
    assert impact.millijoules == pytest.approx(impact.joules * 1000)
    assert impact.runs_per_charge() \
        == pytest.approx(impact.battery.capacity_joules
                         / impact.joules)


def test_microamp_hours(breakdown):
    impact = battery_impact(breakdown)
    # Cross-check: uAh * V * 3600 / 1e6 == joules.
    reconstructed = (impact.microamp_hours / 1e6 * 3600
                     * impact.battery.nominal_volts)
    assert reconstructed == pytest.approx(impact.joules)


def test_hardware_extends_battery(breakdown):
    trace = OperationTrace([op.record for op in breakdown.operations])
    model = PerformanceModel()
    sw_impact = battery_impact(model.evaluate(trace, SW_PROFILE))
    hw_impact = battery_impact(model.evaluate(trace, HW_PROFILE))
    assert hw_impact.runs_per_charge() > 100 * sw_impact.runs_per_charge()


def test_drm_tax(breakdown):
    # A 3.5 MB track is ~3.5 minutes of audio at 128 kbit/s; assume
    # 100 mW of playback power.
    tax = drm_tax_percent(breakdown, playback_watts=0.1,
                          playback_seconds=210.0,
                          energy_model=ProportionalEnergyModel(0.1))
    expected = 100.0 * breakdown.total_seconds / 210.0
    assert tax == pytest.approx(expected)
    with pytest.raises(ValueError):
        drm_tax_percent(breakdown, playback_watts=0.0,
                        playback_seconds=10.0)


def test_zero_energy_runs_forever():
    from repro.core.model import CostBreakdown
    empty = PerformanceModel().evaluate(OperationTrace(), SW_PROFILE)
    assert isinstance(empty, CostBreakdown)
    impact = battery_impact(empty)
    assert impact.runs_per_charge() == float("inf")
