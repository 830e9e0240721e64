"""The modeled path: exact equivalence with functional execution.

This is the load-bearing validation of the whole reproduction methodology:
a trace produced by rescaling a calibration run must be canonically
identical to the trace of a full functional run at the target size.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import Algorithm, Phase
from repro.usecases.catalog import music_player, ringtone
from repro.usecases.runner import run_functional
from repro.usecases.scenario import UseCase
from repro.usecases.workload import (WorkloadScaler,
                                     dcf_octets_for_content,
                                     padded_payload_octets, run_modeled)


def test_padded_payload_octets():
    assert padded_payload_octets(0) == 16
    assert padded_payload_octets(15) == 16
    assert padded_payload_octets(16) == 32
    assert padded_payload_octets(30720) == 30736


def test_dcf_octets_exactness(ringtone_run_small):
    """The size model must reproduce the calibration DCF's own size."""
    run = ringtone_run_small
    predicted = dcf_octets_for_content(run.dcf,
                                       run.clear_content_octets)
    assert predicted == run.sizes["dcf"] == len(run.dcf.to_bytes())


@pytest.mark.parametrize("octets,accesses", [
    (100, 1), (1024, 3), (5000, 2), (16384, 5),
])
def test_modeled_equals_functional(octets, accesses):
    use_case = UseCase(name="equiv", content_octets=octets,
                       accesses=accesses)
    functional = run_functional(use_case, seed="eq")
    modeled = run_modeled(use_case, seed="eq", calibration_octets=512)
    assert functional.trace.canonical() == modeled.trace.canonical()
    assert functional.sizes["dcf"] == modeled.sizes["dcf"]
    assert functional.sizes["encrypted_payload"] \
        == modeled.sizes["encrypted_payload"]


@given(octets=st.integers(min_value=1, max_value=8192),
       accesses=st.integers(min_value=1, max_value=4))
@settings(max_examples=8, deadline=None)
def test_modeled_equals_functional_property(octets, accesses):
    use_case = UseCase(name="equiv", content_octets=octets,
                       accesses=accesses)
    functional = run_functional(use_case, seed="eq-prop")
    modeled = run_modeled(use_case, seed="eq-prop",
                          calibration_octets=256)
    assert functional.trace.canonical() == modeled.trace.canonical()


def test_modeled_with_install_verification():
    """The scaler also rewrites the installation-phase DCF hash."""
    use_case = UseCase(name="vdcf", content_octets=4096, accesses=2)
    functional = run_functional(use_case, seed="v",
                                verify_dcf_on_install=True)
    modeled = run_modeled(use_case, seed="v",
                          verify_dcf_on_install=True,
                          calibration_octets=512)
    assert functional.trace.canonical() == modeled.trace.canonical()


def test_modeled_no_kdev():
    use_case = UseCase(name="nokdev", content_octets=2048, accesses=3)
    functional = run_functional(use_case, seed="nk",
                                kdev_optimization=False)
    modeled = run_modeled(use_case, seed="nk", kdev_optimization=False,
                          calibration_octets=512)
    assert functional.trace.canonical() == modeled.trace.canonical()


def test_scaler_reuses_one_calibration():
    scaler = WorkloadScaler(ringtone(), seed="scaler")
    t1 = scaler.trace(content_octets=1024, accesses=1)
    t2 = scaler.trace(content_octets=2048, accesses=2)
    consumption1 = t1.filter(phase=Phase.CONSUMPTION)
    consumption2 = t2.filter(phase=Phase.CONSUMPTION)
    dec1 = [r for r in consumption1 if r.label == "content-decrypt"][0]
    dec2 = [r for r in consumption2 if r.label == "content-decrypt"][0]
    assert dec1.blocks == padded_payload_octets(1024) // 16
    assert dec2.blocks == padded_payload_octets(2048) // 16 * 2


def test_scaler_defaults_to_template():
    scaler = WorkloadScaler(ringtone(), seed="scaler")
    trace = scaler.trace()
    decrypts = [r for r in trace if r.label == "content-decrypt"]
    assert decrypts[0].invocations == 25


def test_paper_scale_traces_have_expected_magnitudes():
    music = run_modeled(music_player(), seed="mag").trace
    totals = music.totals_by_algorithm()
    # 5 playbacks x ~229k blocks of AES decryption.
    aes_blocks = totals[Algorithm.AES_DECRYPT][1]
    assert 5 * 229_376 <= aes_blocks <= 5 * 229_376 + 10_000
    assert totals[Algorithm.RSA_PRIVATE] == (3, 3)
