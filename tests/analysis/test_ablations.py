"""Ablation studies: directions and magnitudes."""

import pytest

from repro.analysis import ablations

SEED = "ablation-tests"


def test_filesize_crossover_direction():
    result = ablations.filesize_crossover(
        sizes_octets=[4 * 1024, 3584 * 1024], seed=SEED)
    winners = [row[-1] for row in result.rows]
    assert winners[0] == "PKI"        # small file: PKI macro wins
    assert winners[-1] == "AES/SHA-1"  # big file: bulk macros win
    assert "DCF size" in result.render()


def test_playback_sensitivity_monotone():
    result = ablations.playback_sensitivity(accesses=(1, 10, 100),
                                            seed=SEED)
    music_ms = [float(row[1]) for row in result.rows]
    ring_ms = [float(row[2]) for row in result.rows]
    assert music_ms == sorted(music_ms)
    assert ring_ms == sorted(ring_ms)
    # Music scales much more steeply than ringtone.
    assert (music_ms[-1] - music_ms[0]) > 50 * (ring_ms[-1] - ring_ms[0])


def test_kdev_ablation_hurts_without_optimization():
    result = ablations.kdev_ablation(seed=SEED)
    slowdowns = {(row[0], row[1]): float(row[4].rstrip("x"))
                 for row in result.rows}
    # Ringtone SW: 25 extra RSADP ops dominate -> big slowdown.
    assert slowdowns[("Ringtone", "SW")] > 1.5
    # Every configuration gets worse without K_DEV.
    assert all(value > 1.0 for value in slowdowns.values())


def test_domain_overhead_is_small():
    result = ablations.domain_overhead(seed=SEED)
    for row in result.rows:
        overhead_pct = float(row[3].rstrip("%"))
        assert overhead_pct >= 0.0
        assert overhead_pct < 50.0  # a few signatures, not a new regime


def test_energy_models_agree_on_sw_only():
    result = ablations.energy_comparison(seed=SEED)
    for row in result.rows:
        if row[1] == "SW":
            assert float(row[3]) == pytest.approx(float(row[4]),
                                                  rel=0.01)


def test_energy_gap_wider_than_time_gap():
    """The paper's future-work observation, quantified."""
    ratios = ablations.energy_gap_ratios(seed=SEED)
    assert ratios["energy_ratio"] > ratios["time_ratio"]


def test_mgf1_effect_is_negligible():
    """The paper's EMSA-PSS approximation is justified: < 0.1 % effect."""
    result = ablations.mgf1_sensitivity(seed=SEED)
    for row in result.rows:
        difference_pct = abs(float(row[4].rstrip("%")))
        assert difference_pct < 0.1


def test_rsa_macro_sweep_saturates():
    """Even an 8x faster RSA macro cuts the Ringtone HW total by less
    than a third: the fixed AES/SHA-1 access work dominates."""
    result = ablations.rsa_macro_sweep(seed=SEED)
    totals = {float(row[0].rstrip("x")): float(row[1])
              for row in result.rows}
    ordered = [totals[factor] for factor in sorted(totals)]
    assert ordered == sorted(ordered)  # slower macro -> longer total
    assert totals[0.125] > 0.65 * totals[1.0]
