"""RSASSA-PSS signatures (RFC 3447 §8.1 / §9.1) over SHA-1.

OMA DRM 2 mandates RSA-PSSA as its signature scheme; ROAP messages
(RegistrationRequest, RegistrationResponse, RORequest, ROResponse),
certificates, OCSP responses and Domain-RO signatures all use it.

The paper approximates the EMSA-PSS encoding with "just one hash function
over the message code" in its cost model; the functional implementation
here is the complete scheme (salted hash, MGF1 mask, trailer 0xBC), and the
performance layer decides which hashes to count (see
``repro.core.costs.CostOptions.count_mgf1``).
"""

from .encoding import constant_time_equal, i2osp, os2ip, xor_bytes
from .errors import MessageTooLongError, SignatureError
from .rng import HmacDrbg
from .rsa import RSAPrivateKey, RSAPublicKey, rsasp1, rsavp1
from .sha1 import DIGEST_SIZE, sha1

#: Default salt length: one hash length, the conventional PSS choice.
DEFAULT_SALT_LENGTH = DIGEST_SIZE

_TRAILER = 0xBC


def mgf1(seed: bytes, length: int) -> bytes:
    """MGF1 mask generation function over SHA-1 (RFC 3447 appendix B.2.1)."""
    if length < 0:
        raise ValueError("mask length must be non-negative")
    blocks = []
    counter = 0
    while DIGEST_SIZE * len(blocks) < length:
        blocks.append(sha1(seed + i2osp(counter, 4)))
        counter += 1
    return b"".join(blocks)[:length]


def emsa_pss_encode(message: bytes, em_bits: int, salt: bytes) -> bytes:
    """EMSA-PSS-ENCODE (RFC 3447 §9.1.1) with an explicit salt."""
    em_length = (em_bits + 7) // 8
    m_hash = sha1(message)
    if em_length < DIGEST_SIZE + len(salt) + 2:
        raise MessageTooLongError("encoding error: modulus too small for PSS")
    m_prime = b"\x00" * 8 + m_hash + salt
    h = sha1(m_prime)
    ps = b"\x00" * (em_length - len(salt) - DIGEST_SIZE - 2)
    db = ps + b"\x01" + salt
    mask = mgf1(h, em_length - DIGEST_SIZE - 1)
    masked_db = xor_bytes(db, mask)
    # Clear the leftmost 8*emLen - emBits bits of the leading octet.
    excess_bits = 8 * em_length - em_bits
    first = masked_db[0] & (0xFF >> excess_bits)
    return bytes([first]) + masked_db[1:] + h + bytes([_TRAILER])


def emsa_pss_verify(message: bytes, encoded: bytes, em_bits: int,
                    salt_length: int) -> bool:
    """EMSA-PSS-VERIFY (RFC 3447 §9.1.2); returns consistency."""
    em_length = (em_bits + 7) // 8
    if len(encoded) != em_length:
        return False
    if em_length < DIGEST_SIZE + salt_length + 2:
        return False
    if encoded[-1] != _TRAILER:
        return False
    masked_db = encoded[:em_length - DIGEST_SIZE - 1]
    h = encoded[em_length - DIGEST_SIZE - 1:-1]
    excess_bits = 8 * em_length - em_bits
    if excess_bits and masked_db[0] >> (8 - excess_bits):
        return False
    mask = mgf1(h, len(masked_db))
    db = bytearray(xor_bytes(masked_db, mask))
    db[0] &= 0xFF >> excess_bits
    separator = em_length - DIGEST_SIZE - salt_length - 2
    if any(db[:separator]):
        return False
    if db[separator] != 0x01:
        return False
    salt = bytes(db[separator + 1:])
    m_hash = sha1(message)
    m_prime = b"\x00" * 8 + m_hash + salt
    return constant_time_equal(sha1(m_prime), h)


def pss_sign(private_key: RSAPrivateKey, message: bytes,
             rng: HmacDrbg, salt_length: int = DEFAULT_SALT_LENGTH) -> bytes:
    """RSASSA-PSS-SIGN: return a modulus-length signature over ``message``."""
    em_bits = private_key.modulus_bits - 1
    salt = rng.random_bytes(salt_length)
    encoded = emsa_pss_encode(message, em_bits, salt)
    signature = rsasp1(private_key, os2ip(encoded))
    return i2osp(signature, private_key.modulus_octets)


def pss_verify(public_key: RSAPublicKey, message: bytes, signature: bytes,
               salt_length: int = DEFAULT_SALT_LENGTH) -> None:
    """RSASSA-PSS-VERIFY: raise :class:`SignatureError` on any inconsistency."""
    if len(signature) != public_key.modulus_octets:
        raise SignatureError("signature has the wrong length")
    try:
        em = rsavp1(public_key, os2ip(signature))
    except Exception as exc:
        raise SignatureError("signature representative invalid") from exc
    em_bits = public_key.modulus_bits - 1
    encoded = i2osp(em, (em_bits + 7) // 8)
    if not emsa_pss_verify(message, encoded, em_bits, salt_length):
        raise SignatureError("PSS consistency check failed")
