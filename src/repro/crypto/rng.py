"""Deterministic random bit generator (HMAC-DRBG, SP 800-90A shape).

The DRM model needs randomness for RSA key generation, nonces, symmetric
keys and CBC IVs. Real terminals use a hardware TRNG; for a reproducible
simulation we use an HMAC-SHA1 DRBG seeded explicitly, so every protocol
run — and therefore every byte on the wire and every recorded operation
trace — is repeatable.

Every draw runs :func:`~repro.crypto.hmac.hmac_sha1`, which is stdlib
``hmac`` over ``hashlib.sha1``; RSA key generation (one draw per
Miller–Rabin witness) is the hot caller. The DRBG is not priced.
"""

from typing import Tuple

from .hmac import hmac_sha1
from .sha1 import DIGEST_SIZE


class HmacDrbg:
    """HMAC-SHA1 deterministic random bit generator.

    A trimmed-down SP 800-90A HMAC_DRBG: ``K``/``V`` update on instantiate
    and reseed, generate by iterating ``V = HMAC(K, V)``. No reseed counter
    enforcement — the simulation never approaches the 2^48 limit.
    """

    def __init__(self, seed: bytes, personalization: bytes = b"") -> None:
        if not seed:
            raise ValueError("HmacDrbg requires a non-empty seed")
        self._key = b"\x00" * DIGEST_SIZE
        self._value = b"\x01" * DIGEST_SIZE
        self._update(seed + personalization)

    def _update(self, provided_data: bytes = b"") -> None:
        self._key = hmac_sha1(self._key, self._value + b"\x00" + provided_data)
        self._value = hmac_sha1(self._key, self._value)
        if provided_data:
            self._key = hmac_sha1(
                self._key, self._value + b"\x01" + provided_data
            )
            self._value = hmac_sha1(self._key, self._value)

    def state(self) -> Tuple[bytes, bytes]:
        """The whole generator state ``(K, V)``, for :meth:`restore`."""
        return self._key, self._value

    def restore(self, state: Tuple[bytes, bytes]) -> None:
        """Rewind (or advance) the generator to a :meth:`state`."""
        self._key, self._value = state

    def reseed(self, seed: bytes) -> None:
        """Mix fresh entropy into the generator state."""
        self._update(seed)

    def random_bytes(self, length: int) -> bytes:
        """Return ``length`` pseudo-random octets."""
        if length < 0:
            raise ValueError("length must be non-negative")
        output = b""
        while len(output) < length:
            self._value = hmac_sha1(self._key, self._value)
            output += self._value
        self._update()
        return output[:length]

    def random_int(self, bits: int) -> int:
        """Return a uniform integer in ``[0, 2**bits)``."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        octets = (bits + 7) // 8
        value = int.from_bytes(self.random_bytes(octets), "big")
        return value >> (8 * octets - bits)

    def random_odd_int(self, bits: int) -> int:
        """Return an odd integer with exactly ``bits`` bits (top bit set)."""
        value = self.random_int(bits)
        value |= (1 << (bits - 1)) | 1
        return value

    def random_range(self, lower: int, upper: int) -> int:
        """Return a uniform integer in ``[lower, upper)`` by rejection."""
        if upper <= lower:
            raise ValueError("empty range")
        span = upper - lower
        bits = span.bit_length()
        while True:
            candidate = self.random_int(bits)
            if candidate < span:
                return lower + candidate


def default_rng(label: str = "repro-oma-drm") -> HmacDrbg:
    """A DRBG with a fixed, documented seed for reproducible simulations."""
    return HmacDrbg(label.encode("utf-8"))
