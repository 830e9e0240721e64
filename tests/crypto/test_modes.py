"""AES-CBC: NIST SP 800-38A vectors, padding integration, tamper effects."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.errors import (InvalidBlockError, InvalidKeyError,
                                 PaddingError)
from repro.crypto.modes import (cbc_decrypt, cbc_decrypt_raw, cbc_encrypt,
                                cbc_encrypt_raw)

# NIST SP 800-38A F.2.1: AES-128-CBC encryption.
NIST_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
NIST_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
NIST_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")
NIST_CIPHER = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7")


def test_nist_cbc_encrypt_vector():
    assert cbc_encrypt_raw(NIST_KEY, NIST_IV, NIST_PLAIN) == NIST_CIPHER


def test_nist_cbc_decrypt_vector():
    assert cbc_decrypt_raw(NIST_KEY, NIST_IV, NIST_CIPHER) == NIST_PLAIN


def test_padded_roundtrip_short_message():
    ct = cbc_encrypt(b"k" * 16, b"i" * 16, b"hi")
    assert len(ct) == 16
    assert cbc_decrypt(b"k" * 16, b"i" * 16, ct) == b"hi"


def test_padded_roundtrip_exact_block():
    """A block-aligned message still gains one full padding block."""
    message = b"x" * 32
    ct = cbc_encrypt(b"k" * 16, b"i" * 16, message)
    assert len(ct) == 48
    assert cbc_decrypt(b"k" * 16, b"i" * 16, ct) == message


def test_empty_message_roundtrip():
    ct = cbc_encrypt(b"k" * 16, b"i" * 16, b"")
    assert len(ct) == 16
    assert cbc_decrypt(b"k" * 16, b"i" * 16, ct) == b""


def test_raw_rejects_unaligned_input():
    with pytest.raises(InvalidBlockError):
        cbc_encrypt_raw(b"k" * 16, b"i" * 16, b"short")
    with pytest.raises(InvalidBlockError):
        cbc_decrypt_raw(b"k" * 16, b"i" * 16, b"x" * 17)


def test_raw_decrypt_of_nothing_still_checks_the_key():
    assert cbc_decrypt_raw(b"k" * 16, b"i" * 16, b"") == b""
    with pytest.raises(InvalidKeyError):
        cbc_decrypt_raw(b"k" * 15, b"i" * 16, b"")


@pytest.mark.parametrize("iv_len", [0, 8, 15, 17, 32])
def test_rejects_bad_iv(iv_len):
    with pytest.raises(InvalidBlockError):
        cbc_encrypt(b"k" * 16, b"i" * iv_len, b"data")


def test_wrong_key_fails_or_garbles():
    ct = cbc_encrypt(b"k" * 16, b"i" * 16, b"secret content here!")
    try:
        out = cbc_decrypt(b"K" * 16, b"i" * 16, ct)
    except PaddingError:
        return  # padding check caught it
    assert out != b"secret content here!"


def test_iv_affects_first_block_only_raw():
    pt = b"A" * 32
    c1 = cbc_encrypt_raw(b"k" * 16, b"\x00" * 16, pt)
    c2 = cbc_encrypt_raw(b"k" * 16, b"\x01" + b"\x00" * 15, pt)
    assert c1 != c2
    assert c1[:16] != c2[:16]


def test_identical_blocks_encrypt_differently():
    """CBC chaining: equal plaintext blocks give distinct ciphertext."""
    ct = cbc_encrypt_raw(b"k" * 16, b"i" * 16, b"B" * 48)
    blocks = [ct[i:i + 16] for i in range(0, 48, 16)]
    assert len(set(blocks)) == 3


@given(key=st.binary(min_size=16, max_size=16),
       iv=st.binary(min_size=16, max_size=16),
       plaintext=st.binary(min_size=0, max_size=1024))
@settings(max_examples=75, deadline=None)
def test_roundtrip_property(key, iv, plaintext):
    ct = cbc_encrypt(key, iv, plaintext)
    assert len(ct) % 16 == 0
    assert len(ct) == (len(plaintext) // 16 + 1) * 16
    assert cbc_decrypt(key, iv, ct) == plaintext


def _reference_cbc_decrypt(key, iv, ciphertext):
    """CBC decryption chained block by block on the per-block cipher."""
    cipher = AES(key)
    previous, plaintext = iv, []
    for offset in range(0, len(ciphertext), 16):
        block = ciphertext[offset:offset + 16]
        plaintext.append(bytes(
            x ^ y for x, y in zip(cipher.decrypt_block(block), previous)))
        previous = block
    return b"".join(plaintext)


def _assert_matches_reference(key, iv, ciphertext):
    expected = _reference_cbc_decrypt(key, iv, ciphertext)
    assert AES(key).decrypt_blocks(ciphertext, iv) == expected
    assert cbc_decrypt_raw(key, iv, ciphertext) == expected


@given(key_size=st.sampled_from([16, 24, 32]),
       blocks=st.integers(min_value=0, max_value=64),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_decrypt_matches_per_block_reference(key_size, blocks, data):
    key = data.draw(st.binary(min_size=key_size, max_size=key_size))
    iv = data.draw(st.binary(min_size=16, max_size=16))
    ciphertext = data.draw(st.binary(min_size=16 * blocks,
                                     max_size=16 * blocks))
    _assert_matches_reference(key, iv, ciphertext)


@pytest.mark.parametrize("key_size", [16, 24, 32])
def test_decrypt_matches_per_block_reference_at_dcf_size(key_size):
    """1921 blocks: a 30 KiB DCF payload plus its PKCS#7 block."""
    key = bytes(range(key_size))
    iv = bytes(range(100, 116))
    ciphertext = bytes((7 * i + (i >> 8)) & 0xFF for i in range(1921 * 16))
    _assert_matches_reference(key, iv, ciphertext)


def test_decrypt_of_a_large_buffer_peaks_below_6_5_times_its_size():
    """The whole-buffer decrypt holds a few buffer-sized copies at once.

    A kernel that trades memory for speed fails here: one that rotated
    columns with buffer-sized mask integers peaked at 17× the buffer.
    """
    size = 1 << 20
    ciphertext = bytes(range(256)) * (size // 256)
    tracemalloc.start()
    try:
        cbc_decrypt_raw(bytes(16), bytes(16), ciphertext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / size <= 6.5
