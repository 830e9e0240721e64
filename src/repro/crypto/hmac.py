"""HMAC-SHA1 (RFC 2104 / FIPS 198).

OMA DRM 2 uses HMAC-SHA1 as the MAC algorithm that protects Rights-Object
integrity and authenticity (the ``<mac>`` element of a protected RO).

The one-shot :func:`hmac_sha1` every caller uses runs on the stdlib
``hmac`` module over ``hashlib.sha1``. :class:`HMACSHA1`, built on the
FIPS 180 :class:`~repro.crypto.sha1.SHA1`, is the conformance reference:
the test suite proves it byte-equal to the stdlib, and ``python -m repro
selftest`` checks both against an RFC 2202 vector.
"""

import hashlib
import hmac

from .encoding import constant_time_equal
from .sha1 import BLOCK_SIZE, SHA1

_IPAD = 0x36
_OPAD = 0x5C


class HMACSHA1:
    """Streaming HMAC-SHA1 object with the ``hashlib``-style interface."""

    digest_size = SHA1.digest_size
    name = "hmac-sha1"

    def __init__(self, key: bytes, data: bytes = b"") -> None:
        if not isinstance(key, (bytes, bytearray)):
            raise TypeError("HMAC key must be bytes")
        key = bytes(key)
        # Keys longer than the block size are hashed first (RFC 2104 §2).
        if len(key) > BLOCK_SIZE:
            key = SHA1(key).digest()
        key = key.ljust(BLOCK_SIZE, b"\x00")
        self._outer_key = bytes(b ^ _OPAD for b in key)
        self._inner = SHA1(bytes(b ^ _IPAD for b in key))
        if data:
            self.update(data)

    def update(self, data: bytes) -> None:
        """Absorb ``data`` into the MAC state."""
        self._inner.update(data)

    def digest(self) -> bytes:
        """Return the 20-octet MAC of the data absorbed so far."""
        return SHA1(self._outer_key + self._inner.digest()).digest()

    def hexdigest(self) -> str:
        """Return the MAC as a lowercase hex string."""
        return self.digest().hex()


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """One-shot HMAC-SHA1 of ``message`` under ``key`` (stdlib ``hmac``)."""
    return hmac.new(key, message, hashlib.sha1).digest()


def verify_hmac_sha1(key: bytes, message: bytes, tag: bytes) -> bool:
    """Verify an HMAC-SHA1 tag in constant time."""
    return constant_time_equal(hmac_sha1(key, message), tag)
