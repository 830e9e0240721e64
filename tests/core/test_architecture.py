"""Architecture profiles: the paper's three variants and custom ones."""

import pytest

from repro.core.architecture import (ArchitectureProfile, DEFAULT_CLOCK_HZ,
                                     HW_PROFILE, PAPER_PROFILES,
                                     SW_HW_PROFILE, SW_PROFILE,
                                     custom_profile)
from repro.core.costs import Implementation
from repro.core.trace import Algorithm


def test_paper_profiles_order_and_names():
    assert [p.name for p in PAPER_PROFILES] == ["SW", "SW/HW", "HW"]


def test_sw_profile_all_software():
    assert all(SW_PROFILE.implementation(a) == Implementation.SOFTWARE
               for a in Algorithm)


def test_hw_profile_all_hardware():
    assert all(HW_PROFILE.implementation(a) == Implementation.HARDWARE
               for a in Algorithm)


def test_sw_hw_profile_partitioning():
    """AES and SHA-1 (and HMAC) in hardware; RSA in software (paper §3)."""
    hw = {Algorithm.AES_ENCRYPT, Algorithm.AES_DECRYPT, Algorithm.SHA1,
          Algorithm.HMAC_SHA1}
    for algorithm in Algorithm:
        expected = (Implementation.HARDWARE if algorithm in hw
                    else Implementation.SOFTWARE)
        assert SW_HW_PROFILE.implementation(algorithm) == expected


def test_default_clock_is_200mhz():
    assert DEFAULT_CLOCK_HZ == 200_000_000
    for profile in PAPER_PROFILES:
        assert profile.clock_hz == DEFAULT_CLOCK_HZ


def test_cycles_to_ms():
    assert SW_PROFILE.cycles_to_ms(200_000_000) == 1000.0
    assert SW_PROFILE.cycles_to_ms(200_000) == 1.0


def test_profile_requires_full_assignment():
    with pytest.raises(ValueError):
        ArchitectureProfile(
            name="partial",
            assignment={Algorithm.SHA1: Implementation.HARDWARE},
        )


def test_profile_rejects_invalid_implementation():
    assignment = {a: Implementation.SOFTWARE for a in Algorithm}
    assignment[Algorithm.SHA1] = "quantum"
    with pytest.raises(ValueError):
        ArchitectureProfile(name="bad", assignment=assignment)


def test_profile_rejects_bad_clock():
    assignment = {a: Implementation.SOFTWARE for a in Algorithm}
    with pytest.raises(ValueError):
        ArchitectureProfile(name="x", assignment=assignment, clock_hz=0)


def test_custom_profile_defaults_to_software():
    profile = custom_profile("aes-only",
                             {Algorithm.AES_DECRYPT: True})
    assert profile.implementation(Algorithm.AES_DECRYPT) \
        == Implementation.HARDWARE
    assert profile.implementation(Algorithm.SHA1) \
        == Implementation.SOFTWARE


def test_custom_profile_clock_override():
    profile = custom_profile("slow", {}, clock_hz=100_000_000)
    assert profile.cycles_to_ms(100_000_000) == 1000.0
