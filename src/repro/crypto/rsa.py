"""RSA key generation and the PKCS#1 v2.1 primitives (RFC 3447).

OMA DRM 2 mandates 1024-bit RSA as its PKI function, using exactly the four
primitives the paper names:

* ``RSAEP`` / ``RSADP`` — encryption/decryption primitives (key transport
  of the ``K_MAC‖K_REK`` wrapping secret),
* ``RSASP1`` / ``RSAVP1`` — signature/verification primitives (under
  RSASSA-PSS for ROAP message and Rights-Object signatures).

Private-key operations use the Chinese Remainder Theorem, the same
optimization the Montgomery-multiplier hardware of the paper's reference
[7] exploits; the ~14x public/private cost ratio in Table 1 reflects the
short public exponent versus the full-length private exponent.

Key generation pays only for primes that can reach a returned key. About
39% of attempts discard both primes because ``p * q`` is one bit short
(probability 2 ln 2 - 1), so each prime comes from
:func:`~repro.crypto.primes.generate_prime_deferred` and its 40
DRBG-witness rounds run only once the modulus has full length. A failed
deferred round rewinds the DRBG to the attempt's start and replays the
attempt through :func:`~repro.crypto.primes.generate_prime`, the eager
reference, so every key and DRBG draw is the eager search's unless a
discarded candidate above 3.3·10^24 is a base-2 strong pseudoprime (see
:mod:`repro.crypto.primes`). Each new key passes a pairwise consistency
test (:func:`check_keypair`), and the last keys are memoized on the DRBG
state they were generated from.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from .encoding import byte_length
from .errors import DecryptionError, KeyGenerationError, MessageTooLongError
from .primes import generate_prime, generate_prime_deferred, witnesses_pass
from .rng import HmacDrbg

#: The conventional public exponent F4.
DEFAULT_PUBLIC_EXPONENT = 65537

#: Bound on the key-generation memo (least recently used entries go).
KEYPAIR_CACHE_SIZE = 128

#: (bits, e, DRBG key, DRBG value) -> (key, DRBG state after generation).
_KEYPAIRS: OrderedDict = OrderedDict()


@dataclass(frozen=True)
class RSAPublicKey:
    """RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def modulus_bits(self) -> int:
        """Size of the modulus in bits (1024 for the DRM default)."""
        return self.n.bit_length()

    @property
    def modulus_octets(self) -> int:
        """Size of the modulus in octets (``k`` in RFC 3447)."""
        return byte_length(self.n)


@dataclass(frozen=True)
class RSAPrivateKey:
    """RSA private key with CRT components (RFC 3447 second form)."""

    n: int
    e: int
    d: int
    p: int
    q: int
    d_p: int
    d_q: int
    q_inv: int

    @property
    def public_key(self) -> RSAPublicKey:
        """The matching public key."""
        return RSAPublicKey(self.n, self.e)

    @property
    def modulus_bits(self) -> int:
        """Size of the modulus in bits."""
        return self.n.bit_length()

    @property
    def modulus_octets(self) -> int:
        """Size of the modulus in octets."""
        return byte_length(self.n)


def generate_keypair(bits: int, rng: HmacDrbg,
                     public_exponent: int = DEFAULT_PUBLIC_EXPONENT
                     ) -> RSAPrivateKey:
    """Generate an RSA key pair with a modulus of exactly ``bits`` bits.

    A key is a function of ``(bits, public_exponent)`` and the DRBG state,
    so the last :data:`KEYPAIR_CACHE_SIZE` keys are memoized on exactly
    that: a hit returns the same key and leaves the DRBG in the state a
    fresh generation leaves it in.
    """
    if bits < 64:
        raise KeyGenerationError("modulus below 64 bits is not supported")
    if public_exponent < 3 or public_exponent % 2 == 0:
        raise KeyGenerationError("public exponent must be odd and >= 3")
    memo = (bits, public_exponent) + rng.state()
    if memo in _KEYPAIRS:
        _KEYPAIRS.move_to_end(memo)
        key, post_state = _KEYPAIRS[memo]
        rng.restore(post_state)
        return key
    key = _generate_keypair(bits, rng, public_exponent)
    _KEYPAIRS[memo] = key, rng.state()
    if len(_KEYPAIRS) > KEYPAIR_CACHE_SIZE:
        _KEYPAIRS.popitem(last=False)
    return key


def _generate_keypair(bits: int, rng: HmacDrbg,
                      public_exponent: int) -> RSAPrivateKey:
    for _ in range(1000):
        pair = _prime_pair(bits, rng)
        if pair is None:
            continue
        p, q = pair
        phi = (p - 1) * (q - 1)
        try:
            d = pow(public_exponent, -1, phi)
        except ValueError:
            continue  # e not invertible mod phi; draw fresh primes
        if p < q:
            p, q = q, p
        key = RSAPrivateKey(
            n=p * q,
            e=public_exponent,
            d=d,
            p=p,
            q=q,
            d_p=d % (p - 1),
            d_q=d % (q - 1),
            q_inv=pow(q, -1, p),
        )
        check_keypair(key)
        return key
    raise KeyGenerationError("failed to generate an RSA key pair")


def _prime_pair(bits: int, rng: HmacDrbg) -> Optional[Tuple[int, int]]:
    """One attempt's primes ``(p, q)``, or None if the attempt is discarded.

    The DRBG-witness rounds of both primes run only once ``p * q`` has
    ``bits`` bits. If one fails, the DRBG is rewound to the attempt's
    start and the attempt replayed through :func:`generate_prime`.
    """
    half = bits // 2
    start = rng.state()
    p, p_witnesses = generate_prime_deferred(bits - half, rng)
    q, q_witnesses = generate_prime_deferred(half, rng)
    if _full_length(p, q, bits) and not (
            witnesses_pass(p, p_witnesses)
            and witnesses_pass(q, q_witnesses)):
        rng.restore(start)
        p = generate_prime(bits - half, rng)
        q = generate_prime(half, rng)
    return (p, q) if _full_length(p, q, bits) else None


def _full_length(p: int, q: int, bits: int) -> bool:
    return p != q and (p * q).bit_length() == bits


def check_keypair(key: RSAPrivateKey) -> None:
    """Pairwise consistency test: an RSAEP/RSADP round trip.

    A fixed representative is encrypted with the public key and decrypted
    with both private forms, ``(n, d)`` and the CRT quintuple; no DRBG
    draw is made. Raises :class:`KeyGenerationError` on a mismatch.
    """
    message = (1 << (key.n.bit_length() - 2)) | 0x5EED
    ciphertext = rsaep(key.public_key, message)
    if pow(ciphertext, key.d, key.n) != message \
            or rsadp(key, ciphertext) != message:
        raise KeyGenerationError("pairwise consistency test failed")


def _check_range(value: int, modulus: int, what: str) -> None:
    if not 0 <= value < modulus:
        raise DecryptionError("%s representative out of range" % what)


def rsaep(public_key: RSAPublicKey, message: int) -> int:
    """RSAEP encryption primitive: ``m^e mod n`` (RFC 3447 §5.1.1)."""
    if not 0 <= message < public_key.n:
        raise MessageTooLongError("message representative out of range")
    return pow(message, public_key.e, public_key.n)


def _crt_exponentiate(key: RSAPrivateKey, value: int) -> int:
    """Private exponentiation via the Chinese Remainder Theorem."""
    m1 = pow(value % key.p, key.d_p, key.p)
    m2 = pow(value % key.q, key.d_q, key.q)
    h = (key.q_inv * (m1 - m2)) % key.p
    return m2 + key.q * h


def rsadp(private_key: RSAPrivateKey, ciphertext: int) -> int:
    """RSADP decryption primitive: ``c^d mod n`` via CRT (RFC 3447 §5.1.2)."""
    _check_range(ciphertext, private_key.n, "ciphertext")
    return _crt_exponentiate(private_key, ciphertext)


def rsasp1(private_key: RSAPrivateKey, message: int) -> int:
    """RSASP1 signature primitive: ``m^d mod n`` via CRT (RFC 3447 §5.2.1)."""
    _check_range(message, private_key.n, "message")
    return _crt_exponentiate(private_key, message)


def rsavp1(public_key: RSAPublicKey, signature: int) -> int:
    """RSAVP1 verification primitive: ``s^e mod n`` (RFC 3447 §5.2.2)."""
    _check_range(signature, public_key.n, "signature")
    return pow(signature, public_key.e, public_key.n)
