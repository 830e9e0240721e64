"""HMAC-SHA1: RFC 2202 known-answer vectors and interface behaviour.

The one-shot :func:`hmac_sha1` runs on the stdlib ``hmac`` module; the
differential tests therefore check the reference class :class:`HMACSHA1`
against it, and the known-answer vectors run against both.
"""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac import HMACSHA1, hmac_sha1, verify_hmac_sha1

# RFC 2202 section 3 — all seven HMAC-SHA1 test cases.
RFC2202_VECTORS = [
    (b"\x0b" * 20, b"Hi There",
     "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?",
     "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "4c9007f4026250c6bc8414f9bf50c86c2d7235da"),
    (b"\x0c" * 20, b"Test With Truncation",
     "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"),
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key "
     b"First", "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key and Larger "
     b"Than One Block-Size Data",
     "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"),
]


@pytest.mark.parametrize("key,message,expected", RFC2202_VECTORS,
                         ids=["tc%d" % i for i in range(1, 8)])
def test_rfc2202_vectors(key, message, expected):
    assert hmac_sha1(key, message).hex() == expected
    assert HMACSHA1(key, message).hexdigest() == expected


def test_verify_accepts_valid_tag():
    tag = hmac_sha1(b"key", b"message")
    assert verify_hmac_sha1(b"key", b"message", tag)


def test_verify_rejects_wrong_tag():
    tag = hmac_sha1(b"key", b"message")
    bad = bytes([tag[0] ^ 1]) + tag[1:]
    assert not verify_hmac_sha1(b"key", b"message", bad)


def test_verify_rejects_wrong_length_tag():
    tag = hmac_sha1(b"key", b"message")
    assert not verify_hmac_sha1(b"key", b"message", tag[:-1])


def test_streaming_equals_one_shot():
    h = HMACSHA1(b"key")
    h.update(b"mes")
    h.update(b"sage")
    assert h.digest() == hmac_sha1(b"key", b"message")


def test_hexdigest():
    assert HMACSHA1(b"k", b"m").hexdigest() == hmac_sha1(b"k", b"m").hex()


def test_rejects_non_bytes_key():
    with pytest.raises(TypeError):
        HMACSHA1("string-key")
    with pytest.raises(TypeError):
        hmac_sha1("string-key", b"message")


def test_exact_block_size_key_is_used_verbatim():
    """A 64-octet key must not be hashed (RFC 2104 hashes only longer)."""
    key = b"K" * 64
    assert HMACSHA1(key, b"msg").digest() == stdlib_hmac.new(
        key, b"msg", hashlib.sha1).digest()


@given(st.binary(min_size=0, max_size=128),
       st.binary(min_size=0, max_size=1024))
@settings(max_examples=150, deadline=None)
def test_matches_stdlib(key, message):
    assert HMACSHA1(key, message).digest() == stdlib_hmac.new(
        key, message, hashlib.sha1).digest()
