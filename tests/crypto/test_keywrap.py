"""AES Key Wrap: RFC 3394 section 4 vectors and integrity behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.errors import InvalidKeyError, UnwrapError
from repro.crypto.keywrap import (DEFAULT_IV, unwrap, wrap,
                                  wrap_invocation_count)

# RFC 3394 section 4 test vectors: (kek, key data, expected ciphertext).
RFC3394_VECTORS = [
    # 4.1: 128 bits of key data with a 128-bit KEK.
    ("000102030405060708090A0B0C0D0E0F",
     "00112233445566778899AABBCCDDEEFF",
     "1FA68B0A8112B447AEF34BD8FB5A7B829D3E862371D2CFE5"),
    # 4.2: 128 bits of key data with a 192-bit KEK.
    ("000102030405060708090A0B0C0D0E0F1011121314151617",
     "00112233445566778899AABBCCDDEEFF",
     "96778B25AE6CA435F92B5B97C050AED2468AB8A17AD84E5D"),
    # 4.3: 128 bits of key data with a 256-bit KEK.
    ("000102030405060708090A0B0C0D0E0F"
     "101112131415161718191A1B1C1D1E1F",
     "00112233445566778899AABBCCDDEEFF",
     "64E8C3F9CE0F5BA263E9777905818A2A93C8191E7D6E8AE7"),
    # 4.4: 192 bits of key data with a 192-bit KEK.
    ("000102030405060708090A0B0C0D0E0F1011121314151617",
     "00112233445566778899AABBCCDDEEFF0001020304050607",
     "031D33264E15D33268F24EC260743EDCE1C6C7DDEE725A93"
     "6BA814915C6762D2"),
    # 4.6: 256 bits of key data with a 256-bit KEK.
    ("000102030405060708090A0B0C0D0E0F"
     "101112131415161718191A1B1C1D1E1F",
     "00112233445566778899AABBCCDDEEFF"
     "000102030405060708090A0B0C0D0E0F",
     "28C9F404C4B810F4CBCCB35CFB87F8263F5786E2D80ED326"
     "CBC7F0E71A99F43BFB988B9B7A02DD21"),
]


@pytest.mark.parametrize("kek_hex,key_hex,wrapped_hex", RFC3394_VECTORS,
                         ids=["4.1", "4.2", "4.3", "4.4", "4.6"])
def test_rfc3394_wrap(kek_hex, key_hex, wrapped_hex):
    out = wrap(bytes.fromhex(kek_hex), bytes.fromhex(key_hex))
    assert out.hex().upper() == wrapped_hex


@pytest.mark.parametrize("kek_hex,key_hex,wrapped_hex", RFC3394_VECTORS,
                         ids=["4.1", "4.2", "4.3", "4.4", "4.6"])
def test_rfc3394_unwrap(kek_hex, key_hex, wrapped_hex):
    out = unwrap(bytes.fromhex(kek_hex), bytes.fromhex(wrapped_hex))
    assert out.hex().upper() == key_hex


def test_wrap_extends_by_8_octets():
    assert len(wrap(b"k" * 16, b"d" * 32)) == 40


def test_unwrap_detects_single_bit_tamper():
    wrapped = bytearray(wrap(b"k" * 16, b"d" * 16))
    wrapped[3] ^= 0x40
    with pytest.raises(UnwrapError):
        unwrap(b"k" * 16, bytes(wrapped))


@pytest.mark.parametrize("semiblocks", [2, 4])
def test_unwrap_rejects_every_single_bit_flip(semiblocks):
    """K_CEK (2 semiblocks) and K_MAC‖K_REK (4): no flip goes unnoticed."""
    kek = bytes(range(16))
    wrapped = wrap(kek, bytes(range(100, 100 + 8 * semiblocks)))
    for bit in range(8 * len(wrapped)):
        tampered = bytearray(wrapped)
        tampered[bit // 8] ^= 0x80 >> (bit % 8)
        with pytest.raises(UnwrapError):
            unwrap(kek, bytes(tampered))


def test_unwrap_detects_wrong_kek():
    wrapped = wrap(b"k" * 16, b"d" * 16)
    with pytest.raises(UnwrapError):
        unwrap(b"K" * 16, wrapped)


def test_unwrap_detects_truncation():
    wrapped = wrap(b"k" * 16, b"d" * 24)
    with pytest.raises((UnwrapError, InvalidKeyError)):
        unwrap(b"k" * 16, wrapped[:-8])


@pytest.mark.parametrize("bad_len", [0, 8, 9, 17])
def test_wrap_rejects_bad_key_lengths(bad_len):
    with pytest.raises(InvalidKeyError):
        wrap(b"k" * 16, b"d" * bad_len)


def test_wrap_rejects_bad_iv():
    with pytest.raises(InvalidKeyError):
        wrap(b"k" * 16, b"d" * 16, iv=b"short")


def test_custom_iv_roundtrip():
    iv = b"\x13\x37" * 4
    wrapped = wrap(b"k" * 16, b"d" * 16, iv=iv)
    assert unwrap(b"k" * 16, wrapped, iv=iv) == b"d" * 16
    with pytest.raises(UnwrapError):
        unwrap(b"k" * 16, wrapped)  # default IV no longer matches


def test_default_iv_value():
    assert DEFAULT_IV == b"\xA6" * 8


@pytest.mark.parametrize("octets,expected", [(16, 12), (32, 24), (40, 30)])
def test_invocation_count(octets, expected):
    """6n block operations for n 64-bit registers — the cost-model hook."""
    assert wrap_invocation_count(octets) == expected


def test_invocation_count_rejects_unaligned():
    with pytest.raises(ValueError):
        wrap_invocation_count(17)


@given(kek=st.binary(min_size=16, max_size=16),
       key=st.binary(min_size=16, max_size=64).filter(
           lambda b: len(b) % 8 == 0))
@settings(max_examples=75, deadline=None)
def test_roundtrip_property(kek, key):
    assert unwrap(kek, wrap(kek, key)) == key
