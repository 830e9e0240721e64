"""Byte/integer conversion primitives from PKCS#1 v2.1 (RFC 3447).

``i2osp`` and ``os2ip`` are the Integer-to-Octet-String and
Octet-String-to-Integer primitives used throughout the RSA code. They are
kept in their own module because the DRM layer also uses them for canonical
length fields.
"""

from .errors import MessageTooLongError


def i2osp(x: int, length: int) -> bytes:
    """Convert a non-negative integer to a big-endian octet string.

    Raises :class:`MessageTooLongError` if ``x`` does not fit in ``length``
    octets, mirroring the "integer too large" error of RFC 3447 §4.1.
    """
    if x < 0:
        raise ValueError("i2osp requires a non-negative integer")
    if length < 0:
        raise ValueError("i2osp requires a non-negative length")
    if x >= 256 ** length:
        raise MessageTooLongError(
            "integer too large for %d-octet encoding" % length
        )
    return x.to_bytes(length, "big")


def os2ip(octets: bytes) -> int:
    """Convert a big-endian octet string to a non-negative integer."""
    return int.from_bytes(octets, "big")


def byte_length(x: int) -> int:
    """Number of octets needed to represent the non-negative integer ``x``."""
    if x < 0:
        raise ValueError("byte_length requires a non-negative integer")
    return max(1, (x.bit_length() + 7) // 8)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (as one integer XOR)."""
    if len(a) != len(b):
        raise ValueError("xor_bytes requires equal-length inputs")
    return (int.from_bytes(a, "big")
            ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit.

    A real embedded implementation must compare MACs in constant time to
    avoid timing oracles; we model the same discipline here.
    """
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0
