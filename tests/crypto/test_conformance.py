"""Differential conformance: repro.crypto vs independent oracles.

The whole cost model stands on :mod:`repro.crypto`; this suite verifies
the substrate systematically rather than by spot checks:

* **Stdlib differential** — the FIPS 180 / RFC 2104 reference classes
  ``SHA1`` and ``HMACSHA1`` against ``hashlib`` / ``hmac`` over
  structured edge cases (block boundaries, chunked streaming) and
  Hypothesis-generated inputs. The one-shot ``sha1`` / ``hmac_sha1``
  the system calls *are* ``hashlib`` / ``hmac``, so they are checked
  by the known-answer vectors instead, beside the reference classes.
* **Official known-answer vectors** — FIPS 197 Appendix B/C (AES
  cipher, all three key sizes), NIST SP 800-38A (AES-128-CBC), RFC
  3394 section 4 (AES Key Wrap), FIPS 198 / RFC 2104 (HMAC-SHA1), and
  FIPS 180 (SHA-1 "abc" family).
* **Third-party differential** — AES-CBC against the ``cryptography``
  package when it happens to be installed (skipped otherwise; the
  stdlib ships no AES oracle).
"""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.hmac import HMACSHA1, hmac_sha1
from repro.crypto.keywrap import unwrap, wrap
from repro.crypto.modes import (cbc_decrypt, cbc_decrypt_raw,
                                cbc_encrypt, cbc_encrypt_raw)
from repro.crypto.sha1 import SHA1, sha1

# ---------------------------------------------------------------------------
# SHA-1 vs hashlib
# ---------------------------------------------------------------------------

#: Structured edge cases: empty, sub-block, exact block, padding
#: boundaries (55/56/63/64 octets decide where the length field lands),
#: and multi-block messages.
SHA1_EDGE_LENGTHS = (0, 1, 20, 55, 56, 57, 63, 64, 65, 127, 128, 1000)


@pytest.mark.parametrize("length", SHA1_EDGE_LENGTHS)
def test_sha1_matches_hashlib_at_boundaries(length):
    message = bytes(i % 251 for i in range(length))
    assert SHA1(message).digest() == hashlib.sha1(message).digest()


def test_sha1_streaming_matches_hashlib():
    message = b"embedded OMA DRM 2 " * 97
    ours, theirs = SHA1(), hashlib.sha1()
    for cut in (0, 1, 7, 64, 100, len(message)):
        ours.update(message[:cut])
        theirs.update(message[:cut])
    assert ours.digest() == theirs.digest()
    assert ours.hexdigest() == theirs.hexdigest()


@given(data=st.binary(max_size=512))
@settings(max_examples=300, deadline=None)
def test_sha1_differential(data):
    assert SHA1(data).digest() == hashlib.sha1(data).digest()


@given(chunks=st.lists(st.binary(max_size=100), max_size=8))
@settings(max_examples=150, deadline=None)
def test_sha1_chunked_differential(chunks):
    ours, theirs = SHA1(), hashlib.sha1()
    for chunk in chunks:
        ours.update(chunk)
        theirs.update(chunk)
    assert ours.digest() == theirs.digest()


#: FIPS 180 reference digests.
SHA1_KAT = [
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "84983e441c3bd26ebaae4aa1f95129e5e54670f1"),
    (b"a" * 1_000_000, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
]


@pytest.mark.parametrize("message,digest_hex", SHA1_KAT,
                         ids=["abc", "two-block", "million-a"])
def test_sha1_fips180_vectors(message, digest_hex):
    assert sha1(message).hex() == digest_hex
    assert SHA1(message).hexdigest() == digest_hex


# ---------------------------------------------------------------------------
# HMAC-SHA1 vs stdlib hmac and FIPS 198 / RFC 2104
# ---------------------------------------------------------------------------

@given(key=st.binary(min_size=1, max_size=128),
       message=st.binary(max_size=512))
@settings(max_examples=300, deadline=None)
def test_hmac_differential(key, message):
    expected = stdlib_hmac.new(key, message, hashlib.sha1).digest()
    assert HMACSHA1(key, message).digest() == expected


@pytest.mark.parametrize("key_length", (0, 1, 63, 64, 65, 100, 200),
                         ids=lambda n: "key%d" % n)
def test_hmac_key_length_boundaries(key_length):
    """Keys shorter/equal/longer than the SHA-1 block size (64)."""
    key = bytes(range(256))[:key_length] * 1
    message = b"key-length boundary"
    expected = stdlib_hmac.new(key, message, hashlib.sha1).digest()
    assert HMACSHA1(key, message).digest() == expected


def test_hmac_streaming_matches_stdlib():
    key = b"\x0b" * 20
    ours = HMACSHA1(key)
    theirs = stdlib_hmac.new(key, None, hashlib.sha1)
    for chunk in (b"Hi", b" ", b"There", b"!" * 200):
        ours.update(chunk)
        theirs.update(chunk)
    assert ours.digest() == theirs.digest()


#: RFC 2104 section "Test Vectors" (the original HMAC paper's cases,
#: FIPS 198-style keyed-hash checks).
RFC2104_KAT = [
    (b"\x0b" * 16, b"Hi There",
     "675b0b3a1b4ddf4e124872da6c2f632bfed957e9"),
    (b"Jefe", b"what do ya want for nothing?",
     "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 16, b"\xdd" * 50,
     "d730594d167e35d5956fd8003d0db3d3f46dc7bb"),
]


@pytest.mark.parametrize("key,message,tag_hex", RFC2104_KAT,
                         ids=["hi-there", "jefe", "dd-block"])
def test_hmac_rfc2104_vectors(key, message, tag_hex):
    assert hmac_sha1(key, message).hex() == tag_hex
    assert HMACSHA1(key, message).hexdigest() == tag_hex


# ---------------------------------------------------------------------------
# AES block cipher: FIPS 197 known answers
# ---------------------------------------------------------------------------

#: FIPS 197 Appendix C example vectors: same plaintext, the three key
#: sizes; Appendix B is the worked 128-bit example.
FIPS197_KAT = [
    ("000102030405060708090a0b0c0d0e0f",
     "00112233445566778899aabbccddeeff",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff",
     "8ea2b7ca516745bfeafc49904b496089"),
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "3243f6a8885a308d313198a2e0370734",
     "3925841d02dc09fbdc118597196a0b32"),
]


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", FIPS197_KAT,
                         ids=["appC-128", "appC-192", "appC-256",
                              "appB-128"])
def test_aes_fips197_vectors(key_hex, plain_hex, cipher_hex):
    cipher = AES(bytes.fromhex(key_hex))
    plain = bytes.fromhex(plain_hex)
    encrypted = cipher.encrypt_block(plain)
    assert encrypted.hex() == cipher_hex
    assert cipher.decrypt_block(encrypted) == plain


# ---------------------------------------------------------------------------
# AES-CBC: NIST SP 800-38A vectors and optional third-party oracle
# ---------------------------------------------------------------------------

#: SP 800-38A section F.2.1/F.2.2 — CBC-AES128, four chained blocks.
SP800_38A_KEY = "2b7e151628aed2a6abf7158809cf4f3c"
SP800_38A_IV = "000102030405060708090a0b0c0d0e0f"
SP800_38A_PLAIN = (
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710")
SP800_38A_CIPHER = (
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7")


def test_cbc_sp800_38a_encrypt():
    out = cbc_encrypt_raw(bytes.fromhex(SP800_38A_KEY),
                          bytes.fromhex(SP800_38A_IV),
                          bytes.fromhex(SP800_38A_PLAIN))
    assert out.hex() == SP800_38A_CIPHER


def test_cbc_sp800_38a_decrypt():
    out = cbc_decrypt_raw(bytes.fromhex(SP800_38A_KEY),
                          bytes.fromhex(SP800_38A_IV),
                          bytes.fromhex(SP800_38A_CIPHER))
    assert out.hex() == SP800_38A_PLAIN


@given(key=st.binary(min_size=16, max_size=16),
       iv=st.binary(min_size=16, max_size=16),
       plaintext=st.binary(max_size=256))
@settings(max_examples=150, deadline=None)
def test_cbc_roundtrip_with_padding(key, iv, plaintext):
    assert cbc_decrypt(key, iv, cbc_encrypt(key, iv, plaintext)) \
        == plaintext


def _cryptography_oracle():
    try:
        from cryptography.hazmat.primitives.ciphers import (
            Cipher, algorithms, modes as crypto_modes)
    except ImportError:  # pragma: no cover - optional oracle
        return None

    def oracle(key, iv, plaintext):
        encryptor = Cipher(algorithms.AES(key),
                           crypto_modes.CBC(iv)).encryptor()
        return encryptor.update(plaintext) + encryptor.finalize()
    return oracle


@pytest.mark.skipif(_cryptography_oracle() is None,
                    reason="the 'cryptography' package is not installed"
                           " (stdlib has no AES oracle)")
@given(key=st.binary(min_size=16, max_size=16),
       iv=st.binary(min_size=16, max_size=16),
       blocks=st.integers(min_value=0, max_value=8),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_cbc_differential_vs_cryptography(key, iv, blocks, data):
    oracle = _cryptography_oracle()
    plaintext = data.draw(st.binary(min_size=16 * blocks,
                                    max_size=16 * blocks))
    assert cbc_encrypt_raw(key, iv, plaintext) \
        == oracle(key, iv, plaintext)


# ---------------------------------------------------------------------------
# AES Key Wrap: RFC 3394 section 4 official vectors
# ---------------------------------------------------------------------------

#: RFC 3394 sections 4.1-4.6: every KEK/key-data size combination.
RFC3394_KAT = [
    ("000102030405060708090a0b0c0d0e0f",
     "00112233445566778899aabbccddeeff",
     "1fa68b0a8112b447aef34bd8fb5a7b829d3e862371d2cfe5"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff",
     "96778b25ae6ca435f92b5b97c050aed2468ab8a17ad84e5d"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff",
     "64e8c3f9ce0f5ba263e9777905818a2a93c8191e7d6e8ae7"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "00112233445566778899aabbccddeeff0001020304050607",
     "031d33264e15d33268f24ec260743edce1c6c7ddee725a936ba814915c6762d2"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff0001020304050607",
     "a8f9bc1612c68b3ff6e6f4fbe30e71e4769c8b80a32cb8958cd5d17d6b254da1"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "00112233445566778899aabbccddeeff000102030405060708090a0b0c0d0e0f",
     "28c9f404c4b810f4cbccb35cfb87f8263f5786e2d80ed326"
     "cbc7f0e71a99f43bfb988b9b7a02dd21"),
]

_RFC3394_IDS = ["4.1-128kek", "4.2-192kek", "4.3-256kek",
                "4.4-192key", "4.5-192key-256kek", "4.6-256key"]


@pytest.mark.parametrize("kek_hex,key_hex,wrapped_hex", RFC3394_KAT,
                         ids=_RFC3394_IDS)
def test_keywrap_rfc3394_conformance(kek_hex, key_hex, wrapped_hex):
    kek = bytes.fromhex(kek_hex)
    key_data = bytes.fromhex(key_hex)
    wrapped = wrap(kek, key_data)
    assert wrapped.hex() == wrapped_hex
    assert unwrap(kek, wrapped) == key_data


@given(kek=st.binary(min_size=16, max_size=16),
       semiblocks=st.integers(min_value=2, max_value=8),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_keywrap_roundtrip(kek, semiblocks, data):
    key_data = data.draw(st.binary(min_size=8 * semiblocks,
                                   max_size=8 * semiblocks))
    assert unwrap(kek, wrap(kek, key_data)) == key_data
