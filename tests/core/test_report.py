"""Report helpers: Figure 5 grouping and architecture comparisons."""

import pytest

from repro.core.architecture import PAPER_PROFILES, SW_PROFILE
from repro.core.model import PerformanceModel
from repro.core.report import (FIGURE5_CATEGORIES, FIGURE5_GROUPING,
                               category_cycles, category_shares,
                               compare_architectures)
from repro.core.trace import (Algorithm, OperationRecord, OperationTrace,
                              Phase)


@pytest.fixture()
def trace():
    return OperationTrace([
        OperationRecord(Algorithm.RSA_PUBLIC, Phase.REGISTRATION, 4, 4),
        OperationRecord(Algorithm.RSA_PRIVATE, Phase.REGISTRATION, 3, 3),
        OperationRecord(Algorithm.AES_DECRYPT, Phase.CONSUMPTION, 1,
                        1000),
        OperationRecord(Algorithm.AES_ENCRYPT, Phase.INSTALLATION, 12,
                        12),
        OperationRecord(Algorithm.SHA1, Phase.CONSUMPTION, 1, 1000),
        OperationRecord(Algorithm.HMAC_SHA1, Phase.CONSUMPTION, 1, 20),
    ])


def test_grouping_covers_all_algorithms():
    assert set(FIGURE5_GROUPING) == set(Algorithm)
    assert set(FIGURE5_GROUPING.values()) == set(FIGURE5_CATEGORIES)


def test_hmac_folds_into_sha1(trace):
    breakdown = PerformanceModel().evaluate(trace, SW_PROFILE)
    cycles = category_cycles(breakdown)
    sha_direct = breakdown.cycles_by_algorithm()[Algorithm.SHA1]
    hmac = breakdown.cycles_by_algorithm()[Algorithm.HMAC_SHA1]
    assert cycles["SHA-1"] == sha_direct + hmac


def test_aes_encrypt_folds_into_decryption(trace):
    breakdown = PerformanceModel().evaluate(trace, SW_PROFILE)
    cycles = category_cycles(breakdown)
    by_algorithm = breakdown.cycles_by_algorithm()
    assert cycles["AES Decryption"] \
        == by_algorithm[Algorithm.AES_DECRYPT] \
        + by_algorithm[Algorithm.AES_ENCRYPT]


def test_shares_sum_to_one(trace):
    breakdown = PerformanceModel().evaluate(trace, SW_PROFILE)
    shares = category_shares(breakdown)
    assert sum(shares.values()) == pytest.approx(1.0)
    assert set(shares) == set(FIGURE5_CATEGORIES)


def test_empty_breakdown_shares():
    breakdown = PerformanceModel().evaluate(OperationTrace(), SW_PROFILE)
    shares = category_shares(breakdown)
    assert all(v == 0.0 for v in shares.values())


def test_compare_architectures(trace):
    comparison = compare_architectures(trace, PAPER_PROFILES,
                                       use_case="test")
    assert comparison.labels() == ["SW", "SW/HW", "HW"]
    series = comparison.series_ms()
    assert series[0] > series[1] > series[2]
