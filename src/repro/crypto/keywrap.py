"""AES Key Wrap (RFC 3394) — the standard's ``AES WRAP``.

OMA DRM 2 protects every symmetric key with AES Key Wrap:

* ``K_MAC‖K_REK`` are wrapped under the KDF2-derived KEK inside ``C2``
  (Figure 3 of the paper),
* ``K_CEK`` is wrapped under ``K_REK`` inside the Rights Object, and
* the installed blob ``C2dev`` re-wraps ``K_MAC‖K_REK`` under the device
  key ``K_DEV``.

The wrap of ``n`` 64-bit plaintext halves costs ``6 n`` single-block AES
invocations (6 rounds over the ``n`` registers); unwrap is symmetric with
AES decryptions. The performance meter relies on this structure, so the
implementation follows RFC 3394 §2.2 exactly rather than using the
alternative indexing formulation. Unwrap keeps the registers as 32-bit
words (A and each R[i] are two words each) and runs each step on
:meth:`~repro.crypto.aes.AES.decrypt_words`, the word core of the
per-block decryption, so no step converts between octets and integers.
The T-table lookups are indexed by key- and data-dependent words: the
unwrap is not constant-time, only its final integrity comparison is.
"""

import struct

from .aes import AES
from .encoding import constant_time_equal
from .errors import InvalidKeyError, UnwrapError

#: RFC 3394 default initial value (integrity check register).
DEFAULT_IV = b"\xA6" * 8

#: Width of one wrap register in octets.
SEMIBLOCK = 8

_MASK32 = 0xFFFFFFFF


def _split_semiblocks(data: bytes) -> list:
    return [data[i:i + SEMIBLOCK] for i in range(0, len(data), SEMIBLOCK)]


def wrap(kek: bytes, plaintext_key: bytes, iv: bytes = DEFAULT_IV) -> bytes:
    """Wrap ``plaintext_key`` (a multiple of 8 octets, at least 16) under ``kek``.

    Returns a ciphertext 8 octets longer than the input.
    """
    if len(plaintext_key) % SEMIBLOCK != 0 or len(plaintext_key) < 16:
        raise InvalidKeyError(
            "key wrap input must be a multiple of 8 octets and >= 16"
        )
    if len(iv) != SEMIBLOCK:
        raise InvalidKeyError("key wrap IV must be 8 octets")
    cipher = AES(kek)
    r = _split_semiblocks(plaintext_key)
    n = len(r)
    a = iv
    for j in range(6):
        for i in range(n):
            block = cipher.encrypt_block(a + r[i])
            t = n * j + i + 1
            a = (int.from_bytes(block[:8], "big") ^ t).to_bytes(8, "big")
            r[i] = block[8:]
    return a + b"".join(r)


def unwrap(kek: bytes, wrapped_key: bytes, iv: bytes = DEFAULT_IV) -> bytes:
    """Unwrap ``wrapped_key`` under ``kek`` and verify the integrity register.

    Raises :class:`UnwrapError` when the recovered IV does not match —
    the RFC 3394 tamper/wrong-key indicator.
    """
    if len(wrapped_key) % SEMIBLOCK != 0 or len(wrapped_key) < 24:
        raise InvalidKeyError(
            "wrapped key must be a multiple of 8 octets and >= 24"
        )
    if len(iv) != SEMIBLOCK:
        raise InvalidKeyError("key wrap IV must be 8 octets")
    decrypt = AES(kek).decrypt_words
    # A is the words (a0, a1), register R[i] the words r[2i], r[2i + 1].
    a0, a1, *r = struct.unpack(">%dL" % (len(wrapped_key) // 4), wrapped_key)
    n = len(r) // 2
    for j in range(5, -1, -1):
        for i in range(n - 1, -1, -1):
            t = n * j + i + 1
            a0, a1, r[2 * i], r[2 * i + 1] = decrypt(
                a0 ^ (t >> 32), a1 ^ (t & _MASK32), r[2 * i], r[2 * i + 1])
    if not constant_time_equal(struct.pack(">2L", a0, a1), iv):
        raise UnwrapError("key unwrap integrity check failed")
    return struct.pack(">%dL" % len(r), *r)


def wrap_invocation_count(key_octets: int) -> int:
    """Number of single-block AES calls a wrap/unwrap of ``key_octets`` costs.

    Used by the performance meter: RFC 3394 runs 6 rounds over
    ``key_octets / 8`` registers, one AES block operation each.
    """
    if key_octets % SEMIBLOCK != 0:
        raise ValueError("key material must be a multiple of 8 octets")
    return 6 * (key_octets // SEMIBLOCK)
