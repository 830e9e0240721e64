"""RSA key generation and the four PKCS#1 primitives."""

import dataclasses
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.errors import (DecryptionError, KeyGenerationError,
                                 MessageTooLongError)
from repro.crypto import rsa
from repro.crypto.rng import HmacDrbg
from repro.crypto.rsa import (DEFAULT_PUBLIC_EXPONENT, check_keypair,
                              generate_keypair, rsadp, rsaep, rsasp1, rsavp1)

KEY_BITS = 512  # primitive laws are modulus-size independent


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(KEY_BITS, HmacDrbg(b"rsa-tests"))


def test_modulus_size(keypair):
    assert keypair.modulus_bits == KEY_BITS
    assert keypair.modulus_octets == KEY_BITS // 8


def test_key_structure(keypair):
    assert keypair.n == keypair.p * keypair.q
    assert keypair.p != keypair.q
    assert keypair.p > keypair.q
    assert keypair.e == DEFAULT_PUBLIC_EXPONENT
    phi = (keypair.p - 1) * (keypair.q - 1)
    assert (keypair.e * keypair.d) % phi == 1
    assert keypair.d_p == keypair.d % (keypair.p - 1)
    assert keypair.d_q == keypair.d % (keypair.q - 1)
    assert (keypair.q_inv * keypair.q) % keypair.p == 1


def test_encrypt_decrypt_roundtrip(keypair):
    message = 0x1234567890ABCDEF
    assert rsadp(keypair, rsaep(keypair.public_key, message)) == message


def test_sign_verify_roundtrip(keypair):
    message = 0xCAFEBABE
    assert rsavp1(keypair.public_key, rsasp1(keypair, message)) == message


def test_crt_matches_plain_exponentiation(keypair):
    """The CRT shortcut must equal the textbook c^d mod n."""
    ciphertext = 0x1337 ** 3
    assert rsadp(keypair, ciphertext) \
        == pow(ciphertext, keypair.d, keypair.n)


def test_rsaep_rejects_out_of_range(keypair):
    with pytest.raises(MessageTooLongError):
        rsaep(keypair.public_key, keypair.n)
    with pytest.raises(MessageTooLongError):
        rsaep(keypair.public_key, -1)


def test_private_primitives_reject_out_of_range(keypair):
    with pytest.raises(DecryptionError):
        rsadp(keypair, keypair.n)
    with pytest.raises(DecryptionError):
        rsasp1(keypair, -1)
    with pytest.raises(DecryptionError):
        rsavp1(keypair.public_key, keypair.n + 5)


def test_deterministic_generation():
    a = generate_keypair(KEY_BITS, HmacDrbg(b"same-seed"))
    b = generate_keypair(KEY_BITS, HmacDrbg(b"same-seed"))
    assert a.n == b.n and a.d == b.d


def test_different_seeds_different_keys():
    a = generate_keypair(KEY_BITS, HmacDrbg(b"seed-a"))
    b = generate_keypair(KEY_BITS, HmacDrbg(b"seed-b"))
    assert a.n != b.n


def test_rejects_tiny_modulus():
    with pytest.raises(KeyGenerationError):
        generate_keypair(32, HmacDrbg(b"x"))


def test_rejects_even_exponent():
    with pytest.raises(KeyGenerationError):
        generate_keypair(KEY_BITS, HmacDrbg(b"x"), public_exponent=4)


def test_alternate_exponent():
    keypair = generate_keypair(KEY_BITS, HmacDrbg(b"e3"),
                               public_exponent=3)
    assert keypair.e == 3
    message = 42
    assert rsadp(keypair, rsaep(keypair.public_key, message)) == message


def test_1024_bit_generation():
    """The DRM-mandated size works and has the full bit length."""
    keypair = generate_keypair(1024, HmacDrbg(b"kilokey"))
    assert keypair.modulus_bits == 1024
    message = 2 ** 1000 + 7
    assert rsadp(keypair, rsaep(keypair.public_key, message)) == message


@given(message=st.integers(min_value=0))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(keypair, message):
    message %= keypair.n
    assert rsadp(keypair, rsaep(keypair.public_key, message)) == message
    assert rsavp1(keypair.public_key, rsasp1(keypair, message)) == message


@pytest.mark.parametrize("field, delta", [("d", 2), ("d_p", 2), ("q_inv", 1)])
def test_pairwise_consistency_rejects_a_tampered_key(keypair, field, delta):
    check_keypair(keypair)
    tampered = dataclasses.replace(
        keypair, **{field: getattr(keypair, field) + delta})
    with pytest.raises(KeyGenerationError):
        check_keypair(tampered)


def test_generation_runs_the_pairwise_consistency_test(monkeypatch):
    monkeypatch.setattr(rsa, "_KEYPAIRS", OrderedDict())
    monkeypatch.setattr(rsa, "_crt_exponentiate",
                        lambda key, value: value)
    with pytest.raises(KeyGenerationError):
        generate_keypair(KEY_BITS, HmacDrbg(b"faulty-crt"))


def test_memo_hit_leaves_the_drbg_where_generation_does(monkeypatch):
    monkeypatch.setattr(rsa, "_KEYPAIRS", OrderedDict())
    fresh_rng = HmacDrbg(b"memo")
    fresh = generate_keypair(KEY_BITS, fresh_rng)
    hit_rng = HmacDrbg(b"memo")
    hit = generate_keypair(KEY_BITS, hit_rng)
    assert hit is fresh
    assert hit_rng.state() == fresh_rng.state()
    assert hit_rng.random_bytes(40) == fresh_rng.random_bytes(40)
    # The exponent is part of the memo key.
    other = generate_keypair(KEY_BITS, HmacDrbg(b"memo"), public_exponent=3)
    assert other.e == 3 and other.n != fresh.n


def test_memo_stays_within_its_bound(monkeypatch):
    monkeypatch.setattr(rsa, "_KEYPAIRS", OrderedDict())
    monkeypatch.setattr(rsa, "KEYPAIR_CACHE_SIZE", 3)
    first = generate_keypair(64, HmacDrbg(b"bound-0"))
    for i in range(1, 6):
        generate_keypair(64, HmacDrbg(b"bound-%d" % i))
        assert len(rsa._KEYPAIRS) <= 3
    assert len(rsa._KEYPAIRS) == 3
    again = generate_keypair(64, HmacDrbg(b"bound-0"))
    assert again == first and again is not first  # evicted, regenerated
