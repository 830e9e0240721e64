"""HMAC-DRBG: determinism, state and range helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rng import HmacDrbg


def test_same_seed_same_stream():
    a = HmacDrbg(b"seed")
    b = HmacDrbg(b"seed")
    assert a.random_bytes(64) == b.random_bytes(64)


def test_different_seeds_differ():
    assert HmacDrbg(b"s1").random_bytes(32) \
        != HmacDrbg(b"s2").random_bytes(32)


def test_personalization_differs():
    assert HmacDrbg(b"s", b"p1").random_bytes(32) \
        != HmacDrbg(b"s", b"p2").random_bytes(32)


def test_chunked_draws_differ_from_restart():
    """The generator advances: two draws never repeat."""
    rng = HmacDrbg(b"seed")
    assert rng.random_bytes(16) != rng.random_bytes(16)


def test_empty_seed_rejected():
    with pytest.raises(ValueError):
        HmacDrbg(b"")


def test_zero_length_draw():
    assert HmacDrbg(b"s").random_bytes(0) == b""


def test_negative_length_rejected():
    with pytest.raises(ValueError):
        HmacDrbg(b"s").random_bytes(-1)


def test_random_int_bit_bound():
    rng = HmacDrbg(b"s")
    for bits in (1, 7, 8, 9, 128, 1024):
        value = rng.random_int(bits)
        assert 0 <= value < (1 << bits)


def test_random_odd_int_properties():
    rng = HmacDrbg(b"s")
    for _ in range(20):
        value = rng.random_odd_int(64)
        assert value % 2 == 1
        assert value.bit_length() == 64


def test_random_range_bounds():
    rng = HmacDrbg(b"s")
    for _ in range(50):
        value = rng.random_range(10, 20)
        assert 10 <= value < 20


def test_random_range_rejects_empty():
    with pytest.raises(ValueError):
        HmacDrbg(b"s").random_range(5, 5)


@given(st.integers(min_value=1, max_value=2048))
@settings(max_examples=50, deadline=None)
def test_draw_length_property(length):
    assert len(HmacDrbg(b"s").random_bytes(length)) == length


@given(lower=st.integers(min_value=0, max_value=1000),
       span=st.integers(min_value=1, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_range_property(lower, span):
    value = HmacDrbg(b"s").random_range(lower, lower + span)
    assert lower <= value < lower + span
