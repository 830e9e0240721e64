"""SHA-1: the stdlib runtime path and the FIPS 180 reference.

OMA DRM 2 mandates SHA-1 as its hash function (DCF integrity hashes, the
HMAC-SHA1 Rights-Object MAC, KDF2 and the EMSA-PSS signature encoding all
build on it).

The one-shot :func:`sha1` every caller uses runs on
``hashlib``. The paper prices hashing by octet count, and the meter
counts octets, not which implementation produced the digest, so the C
path changes no modeled number.

:class:`SHA1` is a straightforward word-oriented transcription of the
standard (512-bit blocks, 80 rounds, five 32-bit chaining words). It is
the conformance reference: the test suite proves it byte-equal to
``hashlib``, and ``python -m repro selftest`` checks both against a
FIPS 180 vector. It mirrors the ``hashlib`` streaming interface
(``update`` / ``digest`` / ``hexdigest``).
"""

import hashlib
import struct

_MASK32 = 0xFFFFFFFF

#: Digest size in octets (160 bits).
DIGEST_SIZE = 20

#: Internal block size in octets (512 bits) — needed by HMAC.
BLOCK_SIZE = 64

_INITIAL_STATE = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)


def _compress(state: tuple, block: bytes) -> tuple:
    """Apply the SHA-1 compression function to one 64-octet block.

    The four 20-round stages are written out with the rotations inlined,
    which keeps the reference fast enough to check against ``hashlib``
    over large inputs in the conformance suite.
    """
    w = list(struct.unpack(">16L", block))
    append = w.append
    for t in range(16, 80):
        x = w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16]
        append(((x << 1) | (x >> 31)) & _MASK32)

    a, b, c, d, e = state
    for t in range(0, 20):
        temp = ((((a << 5) | (a >> 27)) & _MASK32)
                + ((b & c) | (~b & d)) + e + 0x5A827999 + w[t]) & _MASK32
        a, b, c, d, e = temp, a, ((b << 30) | (b >> 2)) & _MASK32, c, d
    for t in range(20, 40):
        temp = ((((a << 5) | (a >> 27)) & _MASK32)
                + (b ^ c ^ d) + e + 0x6ED9EBA1 + w[t]) & _MASK32
        a, b, c, d, e = temp, a, ((b << 30) | (b >> 2)) & _MASK32, c, d
    for t in range(40, 60):
        temp = ((((a << 5) | (a >> 27)) & _MASK32)
                + ((b & c) | (b & d) | (c & d))
                + e + 0x8F1BBCDC + w[t]) & _MASK32
        a, b, c, d, e = temp, a, ((b << 30) | (b >> 2)) & _MASK32, c, d
    for t in range(60, 80):
        temp = ((((a << 5) | (a >> 27)) & _MASK32)
                + (b ^ c ^ d) + e + 0xCA62C1D6 + w[t]) & _MASK32
        a, b, c, d, e = temp, a, ((b << 30) | (b >> 2)) & _MASK32, c, d

    return (
        (state[0] + a) & _MASK32,
        (state[1] + b) & _MASK32,
        (state[2] + c) & _MASK32,
        (state[3] + d) & _MASK32,
        (state[4] + e) & _MASK32,
    )


class SHA1:
    """Streaming SHA-1 hash object (FIPS 180)."""

    digest_size = DIGEST_SIZE
    block_size = BLOCK_SIZE
    name = "sha1"

    def __init__(self, data: bytes = b"") -> None:
        self._state = _INITIAL_STATE
        self._buffer = b""
        self._length = 0
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb ``data`` into the hash state."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("SHA1.update expects bytes-like input")
        data = bytes(data)
        self._length += len(data)
        buffer = self._buffer + data
        offset = 0
        state = self._state
        while offset + BLOCK_SIZE <= len(buffer):
            state = _compress(state, buffer[offset:offset + BLOCK_SIZE])
            offset += BLOCK_SIZE
        self._state = state
        self._buffer = buffer[offset:]

    def digest(self) -> bytes:
        """Return the 20-octet digest of the data absorbed so far."""
        state = self._state
        # Merkle–Damgård strengthening: 0x80, zero pad, 64-bit bit length.
        bit_length = self._length * 8
        padding = b"\x80" + b"\x00" * (
            (55 - self._length) % BLOCK_SIZE
        ) + struct.pack(">Q", bit_length)
        buffer = self._buffer + padding
        for offset in range(0, len(buffer), BLOCK_SIZE):
            state = _compress(state, buffer[offset:offset + BLOCK_SIZE])
        return struct.pack(">5L", *state)

    def hexdigest(self) -> str:
        """Return the digest as a lowercase hex string."""
        return self.digest().hex()


def sha1(data: bytes) -> bytes:
    """One-shot SHA-1 of ``data`` (``hashlib``)."""
    return hashlib.sha1(data).digest()
