"""Durability pricing: measurement, templates, rendering."""

import pytest

from repro.analysis import durability
from repro.core.architecture import PAPER_PROFILES
from repro.usecases.durability import (CALIBRATION_ACCESSES,
                                       _cached_measurement,
                                       build_durability_templates,
                                       measure_durability)

SEED = "test-durability"
BITS = 512

ARCHES = tuple(profile.name for profile in PAPER_PROFILES)


@pytest.fixture(scope="module")
def measurement():
    return measure_durability(SEED, rsa_bits=BITS)


def test_journal_overhead_is_positive_everywhere(measurement):
    templates = measurement.templates
    for costs in (templates.registration_overhead_cycles,
                  templates.installation_overhead_cycles,
                  templates.access_overhead_cycles,
                  templates.recovery_cycles):
        assert set(costs) == set(ARCHES)
        assert all(cycles > 0 for cycles in costs.values())


def test_journal_growth_matches_the_transaction_shapes(measurement):
    templates = measurement.templates
    # store_ri_context + commit / store_ro + store_dcf + remember +
    # commit / set_ro_state + commit.
    assert templates.registration_records == 2
    assert templates.install_records == 4
    assert templates.access_records == 2
    assert templates.registration_octets > 0
    assert templates.install_octets > templates.access_octets
    assert templates.recovery_records == (
        templates.registration_records + templates.install_records
        + CALIBRATION_ACCESSES * templates.access_records)


def test_recovery_replay_applied_every_transaction(measurement):
    # registration + installation + the calibration accesses.
    assert measurement.recovery_transactions_applied == \
        2 + CALIBRATION_ACCESSES


def test_recovery_cost_scales_linearly_and_exactly(measurement):
    templates = measurement.templates
    for arch in ARCHES:
        per_journal = templates.recovery_cycles[arch]
        assert templates.recovery_cycles_for(arch, 0) == 0
        doubled = templates.recovery_cycles_for(
            arch, 2 * templates.recovery_records)
        assert doubled == 2 * per_journal
        assert isinstance(
            templates.recovery_cycles_for(arch, 37), int)
    with pytest.raises(ValueError):
        templates.recovery_cycles_for("SW", -1)


def test_measurement_is_deterministic():
    first = measure_durability(SEED, rsa_bits=BITS)
    _cached_measurement.cache_clear()
    second = measure_durability(SEED, rsa_bits=BITS)
    assert first == second


def test_templates_helper_matches_measurement(measurement):
    assert build_durability_templates(SEED, rsa_bits=BITS) \
        == measurement.templates


def test_generate_covers_every_phase_and_length():
    result = durability.generate(SEED, rsa_bits=BITS)
    assert len(result.overheads) == 3 * len(ARCHES)
    assert len(result.projections) == \
        len(durability.DEFAULT_JOURNAL_LENGTHS) * len(ARCHES)
    for arch in ARCHES:
        phases = [o.phase for o in result.overheads
                  if o.architecture == arch]
        assert phases == ["registration", "installation", "access"]
    for overhead in result.overheads:
        assert overhead.baseline_cycles > 0
        assert 0.0 < overhead.overhead_fraction < 1.0


def test_recovery_projection_monotone_in_journal_length():
    result = durability.generate(SEED, rsa_bits=BITS)
    for arch in ARCHES:
        pairs = sorted((p.records, p.cycles) for p in result.projections
                       if p.architecture == arch)
        cycles = [c for _, c in pairs]
        assert all(b >= a for a, b in zip(cycles, cycles[1:])), \
            "%s replay cost not monotone: %r" % (arch, cycles)


def test_render_includes_both_tables():
    rendered = durability.generate(SEED, rsa_bits=BITS).render()
    assert "Write-ahead journal overhead per phase" in rendered
    assert "Power-loss recovery replay cost vs journal length" in rendered
    for arch in ARCHES:
        assert arch in rendered
