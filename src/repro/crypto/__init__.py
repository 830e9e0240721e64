"""From-scratch cryptographic substrate for the OMA DRM 2 reproduction.

Everything OMA DRM 2 mandates (paper §2.4.5) is implemented here with no
external dependencies:

* :mod:`~repro.crypto.sha1` — SHA-1 hash (FIPS 180; the one-shot
  :func:`sha1` runs on ``hashlib``, the :class:`SHA1` class is the
  tested reference)
* :mod:`~repro.crypto.hmac` — HMAC-SHA1 MAC (RFC 2104; the one-shot
  :func:`hmac_sha1` runs on the stdlib ``hmac``, :class:`HMACSHA1` is
  the tested reference)
* :mod:`~repro.crypto.aes` — AES block cipher (FIPS 197)
* :mod:`~repro.crypto.modes` — AES-CBC content encryption
* :mod:`~repro.crypto.keywrap` — 128-bit AES key wrap (RFC 3394)
* :mod:`~repro.crypto.kdf` — KDF2 key derivation
* :mod:`~repro.crypto.rsa` — 1024-bit RSA, RSAEP/RSADP/RSASP1/RSAVP1
* :mod:`~repro.crypto.pss` — RSASSA-PSS signature scheme
* :mod:`~repro.crypto.kem` — the RSAES-KEM + AES-WRAP chain of Figure 3
* :mod:`~repro.crypto.rng` — deterministic HMAC-DRBG for reproducible runs
"""

from .aes import AES, BLOCK_SIZE
from .encoding import (byte_length, constant_time_equal, i2osp, os2ip,
                       xor_bytes)
from .errors import (CryptoError, DecryptionError, InvalidBlockError,
                     InvalidKeyError, KeyGenerationError,
                     MessageTooLongError, PaddingError, SignatureError,
                     UnwrapError)
from .hmac import HMACSHA1, hmac_sha1, verify_hmac_sha1
from .kdf import kdf2, kdf2_hash_invocations
from .kem import KemCiphertext, kem_decrypt, kem_encrypt
from .keywrap import unwrap, wrap, wrap_invocation_count
from .modes import cbc_decrypt, cbc_decrypt_raw, cbc_encrypt, cbc_encrypt_raw
from .padding import pad, unpad
from .primes import generate_prime, is_probable_prime
from .pss import (DEFAULT_SALT_LENGTH, PssAccounting, emsa_pss_encode,
                  emsa_pss_verify, mgf1, pss_sign, pss_verify,
                  sign_accounting)
from .rng import HmacDrbg, default_rng
from .rsa import (DEFAULT_PUBLIC_EXPONENT, RSAPrivateKey, RSAPublicKey,
                  generate_keypair, rsadp, rsaep, rsasp1, rsavp1)
from .sha1 import SHA1, sha1, sha1_hex

__all__ = [
    "AES", "BLOCK_SIZE", "byte_length", "constant_time_equal", "i2osp",
    "os2ip", "xor_bytes", "CryptoError", "DecryptionError",
    "InvalidBlockError", "InvalidKeyError", "KeyGenerationError",
    "MessageTooLongError", "PaddingError", "SignatureError", "UnwrapError",
    "HMACSHA1", "hmac_sha1", "verify_hmac_sha1", "kdf2",
    "kdf2_hash_invocations", "KemCiphertext", "kem_decrypt", "kem_encrypt",
    "unwrap", "wrap", "wrap_invocation_count", "cbc_decrypt",
    "cbc_decrypt_raw", "cbc_encrypt", "cbc_encrypt_raw", "pad", "unpad",
    "generate_prime", "is_probable_prime", "DEFAULT_SALT_LENGTH",
    "PssAccounting", "emsa_pss_encode", "emsa_pss_verify", "mgf1",
    "pss_sign", "pss_verify", "sign_accounting", "HmacDrbg", "default_rng",
    "DEFAULT_PUBLIC_EXPONENT", "RSAPrivateKey", "RSAPublicKey",
    "generate_keypair", "rsadp", "rsaep", "rsasp1", "rsavp1", "SHA1",
    "sha1", "sha1_hex",
]
