"""RSASSA-PSS: sign/verify laws, tamper detection, encoding edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.errors import MessageTooLongError, SignatureError
from repro.crypto.pss import (DEFAULT_SALT_LENGTH, emsa_pss_encode,
                              emsa_pss_verify, mgf1, pss_sign, pss_verify)
from repro.crypto.rng import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.crypto.sha1 import DIGEST_SIZE, sha1


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(768, HmacDrbg(b"pss-tests"))


@pytest.fixture()
def rng():
    return HmacDrbg(b"pss-salt")


def test_sign_verify_roundtrip(keypair, rng):
    signature = pss_sign(keypair, b"the message", rng)
    assert len(signature) == keypair.modulus_octets
    pss_verify(keypair.public_key, b"the message", signature)


def test_verify_rejects_modified_message(keypair, rng):
    signature = pss_sign(keypair, b"the message", rng)
    with pytest.raises(SignatureError):
        pss_verify(keypair.public_key, b"the massage", signature)


def test_verify_rejects_bitflipped_signature(keypair, rng):
    signature = bytearray(pss_sign(keypair, b"m", rng))
    signature[10] ^= 0x01
    with pytest.raises(SignatureError):
        pss_verify(keypair.public_key, b"m", bytes(signature))


def test_verify_rejects_wrong_key(keypair, rng):
    other = generate_keypair(768, HmacDrbg(b"other-key"))
    signature = pss_sign(keypair, b"m", rng)
    with pytest.raises(SignatureError):
        pss_verify(other.public_key, b"m", signature)


def test_verify_rejects_wrong_length(keypair, rng):
    signature = pss_sign(keypair, b"m", rng)
    with pytest.raises(SignatureError):
        pss_verify(keypair.public_key, b"m", signature[:-1])


def test_signatures_are_randomized(keypair, rng):
    """PSS salting: two signatures of one message differ, both verify."""
    s1 = pss_sign(keypair, b"m", rng)
    s2 = pss_sign(keypair, b"m", rng)
    assert s1 != s2
    pss_verify(keypair.public_key, b"m", s1)
    pss_verify(keypair.public_key, b"m", s2)


def test_zero_salt_is_deterministic(keypair, rng):
    s1 = pss_sign(keypair, b"m", rng, salt_length=0)
    s2 = pss_sign(keypair, b"m", rng, salt_length=0)
    assert s1 == s2
    pss_verify(keypair.public_key, b"m", s1, salt_length=0)


def test_salt_length_must_match_on_verify(keypair, rng):
    signature = pss_sign(keypair, b"m", rng, salt_length=8)
    pss_verify(keypair.public_key, b"m", signature, salt_length=8)
    with pytest.raises(SignatureError):
        pss_verify(keypair.public_key, b"m", signature,
                   salt_length=DEFAULT_SALT_LENGTH)


def test_empty_message(keypair, rng):
    signature = pss_sign(keypair, b"", rng)
    pss_verify(keypair.public_key, b"", signature)


def test_large_message(keypair, rng):
    message = b"x" * 100_000
    signature = pss_sign(keypair, message, rng)
    pss_verify(keypair.public_key, message, signature)


# -- encoding internals ---------------------------------------------------

def test_encode_trailer_byte():
    encoded = emsa_pss_encode(b"m", 511, b"s" * 20)
    assert encoded[-1] == 0xBC


def test_encode_rejects_small_modulus():
    with pytest.raises(MessageTooLongError):
        emsa_pss_encode(b"m", 100, b"s" * 20)


def test_encode_verify_consistency():
    encoded = emsa_pss_encode(b"msg", 511, b"s" * 20)
    assert emsa_pss_verify(b"msg", encoded, 511, 20)
    assert not emsa_pss_verify(b"other", encoded, 511, 20)


def test_verify_rejects_bad_trailer():
    encoded = bytearray(emsa_pss_encode(b"m", 511, b"s" * 20))
    encoded[-1] = 0xCC
    assert not emsa_pss_verify(b"m", bytes(encoded), 511, 20)


def test_mgf1_known_structure():
    """MGF1 is counter-mode SHA-1 with a 4-octet big-endian counter."""
    seed = b"seed"
    assert mgf1(seed, 20) == sha1(seed + b"\x00\x00\x00\x00")
    assert mgf1(seed, 40) == (sha1(seed + b"\x00\x00\x00\x00")
                              + sha1(seed + b"\x00\x00\x00\x01"))
    assert mgf1(seed, 25) == mgf1(seed, 40)[:25]


def test_mgf1_zero_length():
    assert mgf1(b"seed", 0) == b""


@given(message=st.binary(min_size=0, max_size=512))
@settings(max_examples=30, deadline=None)
def test_roundtrip_property(keypair, message):
    rng = HmacDrbg(b"prop" + message[:8] + bytes([len(message) % 251]))
    signature = pss_sign(keypair, message, rng)
    pss_verify(keypair.public_key, message, signature)
    if message:
        with pytest.raises(SignatureError):
            pss_verify(keypair.public_key, message + b"!", signature)


def test_digest_size_constant():
    assert DIGEST_SIZE == 20
