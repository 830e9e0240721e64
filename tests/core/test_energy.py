"""Energy models: the proportional baseline and per-unit weighting."""

import pytest

from repro.core.architecture import HW_PROFILE, SW_PROFILE
from repro.core.costs import Implementation
from repro.core.energy import (DEFAULT_CPU_POWER_WATTS,
                               DEFAULT_MACRO_POWER_WATTS,
                               ProportionalEnergyModel,
                               WeightedEnergyModel)
from repro.core.model import PerformanceModel
from repro.core.trace import (Algorithm, OperationRecord, OperationTrace,
                              Phase)


@pytest.fixture()
def trace():
    return OperationTrace([
        OperationRecord(Algorithm.RSA_PRIVATE, Phase.REGISTRATION, 1, 1),
        OperationRecord(Algorithm.AES_DECRYPT, Phase.CONSUMPTION, 1,
                        10_000),
    ])


def test_proportional_is_time_times_power(trace):
    breakdown = PerformanceModel().evaluate(trace, SW_PROFILE)
    model = ProportionalEnergyModel(power_watts=0.5)
    assert model.joules(breakdown) \
        == pytest.approx(breakdown.total_seconds * 0.5)


def test_proportional_preserves_time_ratio(trace):
    """Under the paper's assumption, energy ratios equal time ratios."""
    pm = PerformanceModel()
    sw = pm.evaluate(trace, SW_PROFILE)
    hw = pm.evaluate(trace, HW_PROFILE)
    model = ProportionalEnergyModel()
    assert model.joules(sw) / model.joules(hw) \
        == pytest.approx(sw.total_ms / hw.total_ms)


def test_weighted_widens_the_gap(trace):
    """The paper's future-work claim: HW saves more energy than time."""
    pm = PerformanceModel()
    sw = pm.evaluate(trace, SW_PROFILE)
    hw = pm.evaluate(trace, HW_PROFILE)
    model = WeightedEnergyModel()
    time_ratio = sw.total_ms / hw.total_ms
    energy_ratio = model.joules(sw) / model.joules(hw)
    assert energy_ratio > time_ratio


def test_weighted_equals_proportional_for_pure_software(trace):
    breakdown = PerformanceModel().evaluate(trace, SW_PROFILE)
    weighted = WeightedEnergyModel()
    proportional = ProportionalEnergyModel(DEFAULT_CPU_POWER_WATTS)
    assert weighted.joules(breakdown) \
        == pytest.approx(proportional.joules(breakdown))


def test_default_powers_are_ordered():
    assert DEFAULT_MACRO_POWER_WATTS < DEFAULT_CPU_POWER_WATTS


def test_custom_unit_powers():
    trace = OperationTrace([
        OperationRecord(Algorithm.SHA1, Phase.CONSUMPTION, 1, 2000),
    ])
    breakdown = PerformanceModel().evaluate(trace, HW_PROFILE)
    model = WeightedEnergyModel(unit_power_watts={
        Implementation.SOFTWARE: 1.0, Implementation.HARDWARE: 2.0,
    })
    expected = breakdown.total_seconds * 2.0
    assert model.joules(breakdown) == pytest.approx(expected)
