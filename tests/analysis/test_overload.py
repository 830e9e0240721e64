"""The overload experiment: contracts, invariance, rendering.

The expensive end-to-end half runs the real sweep once and holds the
experiment's metastable headline at the report seed (request
conservation is checked inside every ``run_storm``), plus the
``--jobs`` bit-invariance the engine promises (digests equal for any
worker count). The cheap half drives ``assert_metastable_contract``
over fabricated results to prove it actually rejects a broken story,
which a passing end-to-end run alone cannot show.
"""

import pytest

from repro.analysis.common import DEFAULT_SEED
from repro.analysis.overload import (BASELINE_COMBO, DEFAULT_COMBOS,
                                     MITIGATED_COMBO, OverloadSweep,
                                     generate, sweep)
from repro.obs.slo import SLOReport
from repro.sim.overload import StormResult, StormSpec

SMALL_COMBOS = (BASELINE_COMBO, MITIGATED_COMBO)


def _fake(combo, collapse_bins=0, recovery_bin=None, attempts=100,
          pending=0, pre_goodput=10.0):
    admission, retry, deadlines = combo
    spec = StormSpec(admission=admission, retry=retry,
                     deadlines=deadlines)
    served = attempts - pending - 6
    return StormResult(
        spec=spec, slot_ticks=1000, clients=80, attempts=attempts,
        successes=served, gave_up=0, abandoned=0, served=served,
        refused=2, shed=2, timed_out=2, late_served=0,
        pending=pending, retries_denied=0, service_ticks_total=1,
        wasted_service_ticks=0, utilization=0.5, events=1,
        pre_goodput_per_bin=pre_goodput, collapse_bins=collapse_bins,
        recovery_bin=recovery_bin,
        slo=SLOReport(slot_ticks=1000, objectives=()))


def _fake_sweep(baseline_collapse_bins, mitigated_recovery_bin):
    out = OverloadSweep(seed="fake", architecture="SW")
    baseline = _fake(BASELINE_COMBO,
                     collapse_bins=baseline_collapse_bins)
    mitigated = _fake(MITIGATED_COMBO,
                      recovery_bin=mitigated_recovery_bin)
    out.grid[baseline.spec.label] = baseline
    out.grid[mitigated.spec.label] = mitigated
    return out


# -- contract checkers on fabricated books ----------------------------------

def test_metastable_contract_requires_a_lasting_collapse():
    # Baseline recovers after two bins: no metastability, no story.
    out = _fake_sweep(2, 10)
    with pytest.raises(AssertionError, match="no metastable collapse"):
        out.assert_metastable_contract()


def test_metastable_contract_requires_an_escape():
    # 20 bins x 30 units = 600 = the five-spike-duration window, but
    # nothing mitigated ever recovers: the experiment proved overload,
    # not overload *control*.
    out = _fake_sweep(20, None)
    with pytest.raises(AssertionError, match="no mitigation"):
        out.assert_metastable_contract()


def test_metastable_contract_accepts_the_intended_shape():
    # Recovery bin 10 is the first post-spike bin (spike_end 300 /
    # bin_size 30): recovery_time 0, well inside the window.
    out = _fake_sweep(20, 10)
    assert out.recovery_window == 600
    assert [r.spec.label for r in out.recovered()] \
        == ["token-bucket/backoff-jitter+deadline"]
    out.assert_metastable_contract()


# -- the real sweep ---------------------------------------------------------

def test_sweep_rejects_zero_workers():
    with pytest.raises(ValueError):
        sweep(jobs=0)


def test_sweep_is_bit_identical_across_worker_counts():
    serial = sweep(seed="jobs-invariance", combos=SMALL_COMBOS,
                   spike_rhos=(), architectures=(), jobs=1)
    parallel = sweep(seed="jobs-invariance", combos=SMALL_COMBOS,
                     spike_rhos=(), architectures=(), jobs=2)
    assert sorted(serial.grid) == sorted(parallel.grid)
    for label, result in serial.grid.items():
        assert parallel.grid[label].digest() == result.digest()


def test_generate_holds_the_contracts_at_the_report_seed():
    analysis = generate(seed=DEFAULT_SEED, jobs=2)
    swept = analysis.sweep
    # generate() already ran both asserts; pin the shape they proved.
    assert len(swept.grid) == len(DEFAULT_COMBOS) == 24
    assert swept.baseline.spec.label == "none/naive"
    assert swept.baseline.collapse_duration >= swept.recovery_window
    assert swept.recovered()

    rendered = analysis.render()
    assert "admission/retry" in rendered
    assert "none/naive" in rendered
    assert "token-bucket/backoff-jitter+deadline" in rendered
    assert "Spike severity ladder" in rendered
    assert "Architecture cross-check" in rendered
    # The HW RI's OCSP round-trip outlives client patience: no healthy
    # baseline exists there, so collapse/recovery render as n/a.
    assert "n/a" in rendered
