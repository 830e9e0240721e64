"""SHA-1: FIPS 180 known-answer vectors, streaming behaviour, properties.

The one-shot :func:`sha1` runs on ``hashlib``; the differential tests
therefore check the FIPS 180 reference class :class:`SHA1` against
``hashlib``, and the known-answer vectors run against both.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.sha1 import BLOCK_SIZE, DIGEST_SIZE, SHA1, sha1

# FIPS 180 / RFC 3174 test vectors.
KNOWN_VECTORS = [
    (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
    (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "84983e441c3bd26ebaae4aa1f95129e5e54670f1"),
    (b"The quick brown fox jumps over the lazy dog",
     "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"),
    (b"a" * 1_000_000, "34aa973cd4c4daa4f61eeb2bdbad27316534016f"),
]


@pytest.mark.parametrize("message,expected", KNOWN_VECTORS,
                         ids=["empty", "abc", "two-blocks", "fox",
                              "million-a"])
def test_known_vectors(message, expected):
    assert sha1(message).hex() == expected
    assert SHA1(message).hexdigest() == expected


def test_hexdigest_matches_digest():
    digest = SHA1(b"abc")
    assert digest.hexdigest() == digest.digest().hex()


def test_digest_size_constant():
    assert len(sha1(b"anything")) == DIGEST_SIZE == 20
    assert SHA1.block_size == BLOCK_SIZE == 64


def test_streaming_equals_one_shot():
    h = SHA1()
    h.update(b"ab")
    h.update(b"c")
    assert h.digest() == sha1(b"abc")


def test_digest_is_idempotent():
    h = SHA1(b"data")
    first = h.digest()
    assert h.digest() == first
    h.update(b"more")
    assert h.digest() != first


def test_copy_is_independent():
    h = SHA1(b"prefix")
    clone = h.copy()
    h.update(b"-a")
    clone.update(b"-b")
    assert h.digest() == sha1(b"prefix-a")
    assert clone.digest() == sha1(b"prefix-b")


def test_update_rejects_text():
    h = SHA1()
    with pytest.raises(TypeError):
        h.update("not bytes")
    with pytest.raises(TypeError):
        sha1("not bytes")


def test_update_accepts_bytearray_and_memoryview():
    assert sha1(b"xyz") == SHA1(bytearray(b"xyz")).digest()
    h = SHA1()
    h.update(memoryview(b"xyz"))
    assert h.digest() == sha1(b"xyz")


@pytest.mark.parametrize("length", [0, 1, 55, 56, 57, 63, 64, 65, 119,
                                    120, 121, 127, 128, 129])
def test_padding_boundaries_match_hashlib(length):
    """Lengths around the Merkle-Damgard padding boundaries."""
    message = bytes(range(256))[:1] * length
    assert SHA1(message).digest() == hashlib.sha1(message).digest()


@given(st.binary(min_size=0, max_size=2048))
@settings(max_examples=200, deadline=None)
def test_matches_hashlib(data):
    assert SHA1(data).digest() == hashlib.sha1(data).digest()


@given(st.lists(st.binary(min_size=0, max_size=200), min_size=0,
                max_size=10))
@settings(max_examples=100, deadline=None)
def test_chunked_updates_equal_concatenation(chunks):
    h = SHA1()
    for chunk in chunks:
        h.update(chunk)
    assert h.digest() == sha1(b"".join(chunks))
