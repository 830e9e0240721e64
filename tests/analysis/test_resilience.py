"""The priced retry-overhead analysis."""

import pytest

from repro.analysis import resilience

BITS = 512
SEED = "test-resilience"
RATES = (0.0, 0.1, 0.2, 0.5, 0.9)


@pytest.fixture(scope="module")
def result():
    return resilience.generate(seed=SEED, loss_rates=RATES,
                               rsa_bits=BITS)


# -- the analytic model ---------------------------------------------------
def test_clean_channel_needs_one_attempt():
    assert resilience.expected_attempts(0.0) == 1.0
    assert resilience.completion_probability(0.0) == 1.0


def test_total_loss_spends_the_whole_budget():
    assert resilience.expected_attempts(1.0, max_attempts=5) == 5.0
    assert resilience.completion_probability(1.0) == 0.0


def test_expected_attempts_monotone_in_loss():
    values = [resilience.expected_attempts(rate / 20.0)
              for rate in range(21)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_completion_probability_monotone_decreasing():
    values = [resilience.completion_probability(rate / 20.0)
              for rate in range(21)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_attempt_success_probability():
    assert resilience.attempt_success_probability(0.0) == 1.0
    assert resilience.attempt_success_probability(
        0.5, transmissions=2) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        resilience.attempt_success_probability(1.5)


def test_invalid_budget_rejected():
    with pytest.raises(ValueError):
        resilience.expected_attempts(0.1, max_attempts=0)


# -- the priced sweep -----------------------------------------------------
def test_sweep_covers_all_architectures(result):
    assert result.architectures() == ["SW", "SW/HW", "HW"]
    for architecture in result.architectures():
        assert sum(row.architecture == architecture
                   for row in result.overheads) == len(RATES)


def test_overhead_monotone_per_architecture(result):
    for architecture in result.architectures():
        rows = [row for row in result.overheads
                if row.architecture == architecture]
        for metric in ("overhead_cycles", "overhead_ms",
                       "overhead_millijoules", "overhead_octets"):
            values = [getattr(row, metric) for row in rows]
            assert all(b >= a for a, b in zip(values, values[1:])), \
                "%s %s not monotone" % (architecture, metric)


def test_zero_loss_has_zero_overhead(result):
    for architecture in result.architectures():
        clean = next(row for row in result.overheads
                     if row.architecture == architecture)
        assert clean.loss_rate == 0.0
        assert clean.overhead_cycles == 0.0
        assert clean.overhead_octets == 0.0


def test_hardware_overhead_is_cheapest(result):
    """Retries on the HW profile re-spend far fewer CPU cycles."""
    lossy_sw, lossy_hw = (
        [row for row in result.overheads if row.architecture == name][-1]
        for name in ("SW", "HW"))
    assert lossy_hw.overhead_cycles < lossy_sw.overhead_cycles / 10
    # Octets do not depend on the architecture.
    assert lossy_hw.overhead_octets == lossy_sw.overhead_octets


def test_attempt_costs_are_positive(result):
    assert result.attempt_octets > 0
    for architecture in result.architectures():
        assert result.attempt_cycles[architecture] > 0
        assert result.attempt_millijoules[architecture] > 0


def test_render_mentions_every_architecture(result):
    rendered = result.render()
    for architecture in result.architectures():
        assert architecture in rendered
    assert "E[attempts]" in rendered
    assert "overhead [mJ]" in rendered
