"""AES: FIPS-197 appendix C known-answer vectors and block-cipher laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import aes as aes_module
from repro.crypto.aes import AES, BLOCK_SIZE
from repro.crypto.errors import InvalidBlockError, InvalidKeyError
from repro.crypto.keywrap import wrap
from repro.crypto.modes import cbc_encrypt_raw

PLAIN = bytes.fromhex("00112233445566778899aabbccddeeff")

# FIPS-197 appendix C example vectors for the three key sizes.
FIPS_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f"
     "101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]


@pytest.mark.parametrize("key_hex,cipher_hex", FIPS_VECTORS,
                         ids=["aes128", "aes192", "aes256"])
def test_fips197_encrypt(key_hex, cipher_hex):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(PLAIN).hex() == cipher_hex


@pytest.mark.parametrize("key_hex,cipher_hex", FIPS_VECTORS,
                         ids=["aes128", "aes192", "aes256"])
def test_fips197_decrypt(key_hex, cipher_hex):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.decrypt_block(bytes.fromhex(cipher_hex)) == PLAIN
    assert cipher.decrypt_blocks(bytes.fromhex(cipher_hex), bytes(16)) \
        == PLAIN


def test_fips197_appendix_b_vector():
    """The worked example of FIPS-197 appendix B (different key)."""
    cipher = AES(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
    out = cipher.encrypt_block(
        bytes.fromhex("3243f6a8885a308d313198a2e0370734"))
    assert out.hex() == "3925841d02dc09fbdc118597196a0b32"


@pytest.mark.parametrize("key_size,rounds", [(16, 10), (24, 12), (32, 14)])
def test_round_counts(key_size, rounds):
    assert AES(b"\x00" * key_size).rounds == rounds


@pytest.mark.parametrize("bad_size", [0, 1, 15, 17, 23, 25, 31, 33, 64])
def test_rejects_bad_key_sizes(bad_size):
    with pytest.raises(InvalidKeyError):
        AES(b"\x00" * bad_size)


def test_rejects_non_bytes_key():
    with pytest.raises(InvalidKeyError):
        AES("0123456789abcdef")


@pytest.mark.parametrize("bad_size", [0, 15, 17, 32])
def test_rejects_bad_block_sizes(bad_size):
    cipher = AES(b"k" * 16)
    with pytest.raises(InvalidBlockError):
        cipher.encrypt_block(b"\x00" * bad_size)
    with pytest.raises(InvalidBlockError):
        cipher.decrypt_block(b"\x00" * bad_size)


@pytest.mark.parametrize("bad_size", [1, 15, 17, 33])
def test_decrypt_blocks_rejects_partial_blocks(bad_size):
    cipher = AES(b"k" * 16)
    with pytest.raises(InvalidBlockError):
        cipher.decrypt_blocks(b"\x00" * bad_size, bytes(16))
    with pytest.raises(InvalidBlockError):
        cipher.decrypt_blocks(bytes(32), b"\x00" * bad_size)
    assert cipher.decrypt_blocks(b"", bytes(16)) == b""


def test_encryption_is_not_identity():
    cipher = AES(b"k" * 16)
    assert cipher.encrypt_block(PLAIN) != PLAIN


def test_different_keys_give_different_ciphertexts():
    assert AES(b"a" * 16).encrypt_block(PLAIN) \
        != AES(b"b" * 16).encrypt_block(PLAIN)


def test_block_size_constant():
    assert BLOCK_SIZE == 16


@given(key=st.binary(min_size=16, max_size=16),
       block=st.binary(min_size=16, max_size=16))
@settings(max_examples=100, deadline=None)
def test_decrypt_inverts_encrypt_128(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(key=st.binary(min_size=32, max_size=32),
       block=st.binary(min_size=16, max_size=16))
@settings(max_examples=50, deadline=None)
def test_decrypt_inverts_encrypt_256(key, block):
    cipher = AES(key)
    assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


@given(block=st.binary(min_size=16, max_size=16))
@settings(max_examples=50, deadline=None)
def test_instance_is_reusable(block):
    """One key schedule serves many block operations (Table 1's offset)."""
    cipher = AES(b"reuse-key-123456")
    first = cipher.encrypt_block(block)
    second = cipher.encrypt_block(block)
    assert first == second


def test_decryption_round_keys_are_derived_on_first_decryption(
        monkeypatch):
    calls = []
    inv_mix_word = aes_module._inv_mix_word
    monkeypatch.setattr(aes_module, "_inv_mix_word",
                        lambda word: calls.append(word)
                        or inv_mix_word(word))
    key = bytes(range(16))
    cbc_encrypt_raw(key, bytes(16), bytes(64))
    wrap(key, bytes(16))
    cipher = AES(key)
    ciphertext = cipher.encrypt_block(PLAIN)
    assert calls == []
    assert cipher.decrypt_block(ciphertext) == PLAIN
    # InvMixColumns on the four words of each inner round key, once.
    assert len(calls) == 4 * (cipher.rounds - 1)
    assert cipher.decrypt_blocks(ciphertext, bytes(16)) == PLAIN
    assert len(calls) == 4 * (cipher.rounds - 1)
