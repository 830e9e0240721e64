"""Crypto providers: the functional execution layer with optional metering.

The DRM actors (:mod:`repro.drm`) never call primitives directly — they go
through a *crypto provider*. Two providers exist:

* :class:`PlainCrypto` executes the real primitives from
  :mod:`repro.crypto` on real bytes.
* :class:`MeteredCrypto` does the same **and** appends an
  :class:`~repro.core.trace.OperationRecord` for every primitive batch, so
  a complete protocol run yields both its functional result and the
  operation list the paper's cost model prices.

Block accounting conventions (must match
:mod:`repro.usecases.workload`, which builds the same trace analytically):

* AES-CBC — one invocation (one key schedule), ``padded_octets / 16``
  blocks.
* AES Key Wrap (RFC 3394) — ``6 n`` single-block operations for ``n``
  64-bit registers; each counts as one invocation and one block, since
  wrap hardware issues them as individual block commands.
* SHA-1 — one invocation, ``ceil(octets / 16)`` 128-bit units over the
  message octets (Merkle–Damgård padding is ignored, exactly as the
  paper's per-128-bit normalization does).
* HMAC-SHA1 — one invocation (the Table 1 constant covers the fixed
  key-pad hashing), ``ceil(octets / 16)`` units over the message.
* RSA — one invocation and one 1024-bit block per modular exponentiation.
* RSASSA-PSS — one message hash plus one RSA operation (the paper's
  stated EMSA-PSS approximation); :class:`~repro.core.costs.CostOptions`
  ``count_mgf1`` additionally counts the fixed ``Hash(M')`` and the MGF1
  mask hashes.
* KEM (Figure 3) — one RSA operation, the KDF2 hash, and the AES wrap of
  the key payload.

The DRBG itself is not priced: random generation is not among the paper's
Table 1 algorithms.
"""

from contextlib import contextmanager
from typing import Iterator

from ..crypto import kdf, kem, keywrap, modes, pss, rsa
from ..crypto import rng as rng_mod
from ..crypto.hmac import hmac_sha1, verify_hmac_sha1
from ..crypto.sha1 import DIGEST_SIZE as _SHA1_DIGEST_SIZE
from ..crypto.sha1 import sha1 as _sha1
from ..obs.tracer import NULL_TRACER
from .costs import CostOptions
from .trace import Algorithm, OperationRecord, OperationTrace, Phase

#: 128-bit units per RFC 3447 MGF1 seed hash (seed 20 + counter 4 octets).
_MGF1_BLOCKS_PER_HASH = 2

#: 128-bit units of the fixed EMSA-PSS hash H = Hash(M'), |M'| = 48 octets.
_PSS_MPRIME_BLOCKS = 3


def units_128(octets: int) -> int:
    """Number of 128-bit units covering ``octets`` (Table 1 normalization)."""
    if octets < 0:
        raise ValueError("octet count must be non-negative")
    return (octets + 15) // 16


class PlainCrypto:
    """Un-metered crypto provider: real primitives, no bookkeeping.

    All randomness flows through the deterministic DRBG handed in at
    construction, so complete protocol runs are reproducible.
    """

    def __init__(self, rng: rng_mod.HmacDrbg, tracer=None) -> None:
        self.rng = rng
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # -- randomness ------------------------------------------------------
    def random_bytes(self, length: int) -> bytes:
        """Fresh pseudo-random octets (keys, nonces, IVs, salts)."""
        return self.rng.random_bytes(length)

    # -- metering interface (no-op here) -----------------------------------
    @contextmanager
    def in_phase(self, phase: Phase) -> Iterator["PlainCrypto"]:
        """No-op phase context so callers can treat providers uniformly."""
        yield self

    # -- hashing and MACs ------------------------------------------------
    def sha1(self, data: bytes, label: str = "sha1") -> bytes:
        """SHA-1 digest of ``data``."""
        return _sha1(data)

    def hmac_sha1(self, key: bytes, data: bytes,
                  label: str = "hmac") -> bytes:
        """HMAC-SHA1 tag over ``data``."""
        return hmac_sha1(key, data)

    def hmac_verify(self, key: bytes, data: bytes, tag: bytes,
                    label: str = "hmac-verify") -> bool:
        """Constant-time HMAC-SHA1 verification."""
        return verify_hmac_sha1(key, data, tag)

    # -- symmetric encryption --------------------------------------------
    def aes_cbc_encrypt(self, key: bytes, iv: bytes, plaintext: bytes,
                        label: str = "cbc-encrypt") -> bytes:
        """AES-128-CBC with PKCS#7 padding (DCF content transform)."""
        return modes.cbc_encrypt(key, iv, plaintext)

    def aes_cbc_decrypt(self, key: bytes, iv: bytes, ciphertext: bytes,
                        label: str = "cbc-decrypt") -> bytes:
        """AES-128-CBC decryption with PKCS#7 unpadding."""
        return modes.cbc_decrypt(key, iv, ciphertext)

    def aes_cbc_decrypt_raw(self, key: bytes, iv: bytes,
                            ciphertext: bytes,
                            label: str = "cbc-decrypt-raw") -> bytes:
        """Unpadded AES-128-CBC decryption (streaming chunk path)."""
        return modes.cbc_decrypt_raw(key, iv, ciphertext)

    def aes_wrap(self, kek: bytes, key_material: bytes,
                 label: str = "key-wrap") -> bytes:
        """AES Key Wrap (RFC 3394)."""
        return keywrap.wrap(kek, key_material)

    def aes_unwrap(self, kek: bytes, wrapped: bytes,
                   label: str = "key-unwrap") -> bytes:
        """AES Key Unwrap with integrity check."""
        return keywrap.unwrap(kek, wrapped)

    # -- signatures -------------------------------------------------------
    def pss_sign(self, private_key: rsa.RSAPrivateKey, message: bytes,
                 label: str = "pss-sign") -> bytes:
        """RSASSA-PSS signature over ``message``."""
        return pss.pss_sign(private_key, message, self.rng)

    def pss_verify(self, public_key: rsa.RSAPublicKey, message: bytes,
                   signature: bytes, label: str = "pss-verify") -> None:
        """RSASSA-PSS verification; raises ``SignatureError`` on failure."""
        pss.pss_verify(public_key, message, signature)

    # -- key transport (Figure 3) ------------------------------------------
    def kem_encrypt(self, public_key: rsa.RSAPublicKey, key_material: bytes,
                    label: str = "kem-encrypt") -> kem.KemCiphertext:
        """RSAES-KEM + AES-WRAP encapsulation of ``key_material``."""
        return kem.kem_encrypt(public_key, key_material, self.rng)

    def kem_decrypt(self, private_key: rsa.RSAPrivateKey,
                    ciphertext: kem.KemCiphertext,
                    label: str = "kem-decrypt") -> bytes:
        """Recover KEM-encapsulated key material (Installation chain)."""
        return kem.kem_decrypt(private_key, ciphertext)


class MeteredCrypto(PlainCrypto):
    """Crypto provider that records every primitive batch into a trace.

    The current :class:`~repro.core.trace.Phase` is set with the
    :meth:`in_phase` context manager; operations executed outside any
    phase are recorded under ``Phase.REGISTRATION``, the first phase of
    the consumption process.
    """

    def __init__(self, rng: rng_mod.HmacDrbg,
                 options: CostOptions = CostOptions(),
                 tracer=None) -> None:
        super().__init__(rng, tracer=tracer)
        self.options = options
        self.trace = OperationTrace()
        self._phase = Phase.REGISTRATION

    @contextmanager
    def in_phase(self, phase: Phase) -> Iterator["MeteredCrypto"]:
        """Tag all operations inside the ``with`` block with ``phase``."""
        previous = self._phase
        self._phase = phase
        try:
            yield self
        finally:
            self._phase = previous

    def reset_trace(self) -> OperationTrace:
        """Detach and return the accumulated trace, starting a fresh one."""
        trace = self.trace
        self.trace = OperationTrace()
        return trace

    def _record(self, algorithm: Algorithm, invocations: int, blocks: int,
                label: str) -> None:
        record = OperationRecord(
            algorithm=algorithm, phase=self._phase,
            invocations=invocations, blocks=blocks, label=label,
        )
        self.trace.append(record)
        self.tracer.on_record(record)

    # -- hashing and MACs ------------------------------------------------
    def sha1(self, data: bytes, label: str = "sha1") -> bytes:
        self._record(Algorithm.SHA1, 1, units_128(len(data)), label)
        return super().sha1(data)

    def hmac_sha1(self, key: bytes, data: bytes,
                  label: str = "hmac") -> bytes:
        self._record(Algorithm.HMAC_SHA1, 1, units_128(len(data)), label)
        return super().hmac_sha1(key, data)

    def hmac_verify(self, key: bytes, data: bytes, tag: bytes,
                    label: str = "hmac-verify") -> bool:
        self._record(Algorithm.HMAC_SHA1, 1, units_128(len(data)), label)
        return super().hmac_verify(key, data, tag)

    # -- symmetric encryption --------------------------------------------
    def aes_cbc_encrypt(self, key: bytes, iv: bytes, plaintext: bytes,
                        label: str = "cbc-encrypt") -> bytes:
        ciphertext = super().aes_cbc_encrypt(key, iv, plaintext)
        self._record(Algorithm.AES_ENCRYPT, 1,
                     len(ciphertext) // 16, label)
        return ciphertext

    def aes_cbc_decrypt(self, key: bytes, iv: bytes, ciphertext: bytes,
                        label: str = "cbc-decrypt") -> bytes:
        self._record(Algorithm.AES_DECRYPT, 1,
                     len(ciphertext) // 16, label)
        return super().aes_cbc_decrypt(key, iv, ciphertext)

    def aes_cbc_decrypt_raw(self, key: bytes, iv: bytes,
                            ciphertext: bytes,
                            label: str = "cbc-decrypt-raw") -> bytes:
        self._record(Algorithm.AES_DECRYPT, 1,
                     len(ciphertext) // 16, label)
        return super().aes_cbc_decrypt_raw(key, iv, ciphertext)

    def aes_wrap(self, kek: bytes, key_material: bytes,
                 label: str = "key-wrap") -> bytes:
        ops = keywrap.wrap_invocation_count(len(key_material))
        self._record(Algorithm.AES_ENCRYPT, ops, ops, label)
        return super().aes_wrap(kek, key_material)

    def aes_unwrap(self, kek: bytes, wrapped: bytes,
                   label: str = "key-unwrap") -> bytes:
        ops = keywrap.wrap_invocation_count(len(wrapped) - 8)
        self._record(Algorithm.AES_DECRYPT, ops, ops, label)
        return super().aes_unwrap(kek, wrapped)

    # -- signatures -------------------------------------------------------
    def _record_pss_encoding(self, modulus_octets: int, label: str) -> None:
        """Optionally count the EMSA-PSS fixed and MGF1 hashes."""
        if not self.options.count_mgf1:
            return
        mask_octets = modulus_octets - _SHA1_DIGEST_SIZE - 1
        mgf1_hashes = ((mask_octets + _SHA1_DIGEST_SIZE - 1)
                       // _SHA1_DIGEST_SIZE)
        self._record(Algorithm.SHA1, 1, _PSS_MPRIME_BLOCKS,
                     label + "/pss-mprime")
        self._record(Algorithm.SHA1, mgf1_hashes,
                     mgf1_hashes * _MGF1_BLOCKS_PER_HASH, label + "/mgf1")

    def pss_sign(self, private_key: rsa.RSAPrivateKey, message: bytes,
                 label: str = "pss-sign") -> bytes:
        self._record(Algorithm.SHA1, 1, units_128(len(message)),
                     label + "/message-hash")
        self._record_pss_encoding(private_key.modulus_octets, label)
        self._record(Algorithm.RSA_PRIVATE, 1, 1, label)
        return super().pss_sign(private_key, message)

    def pss_verify(self, public_key: rsa.RSAPublicKey, message: bytes,
                   signature: bytes, label: str = "pss-verify") -> None:
        self._record(Algorithm.SHA1, 1, units_128(len(message)),
                     label + "/message-hash")
        self._record_pss_encoding(public_key.modulus_octets, label)
        self._record(Algorithm.RSA_PUBLIC, 1, 1, label)
        super().pss_verify(public_key, message, signature)

    # -- key transport (Figure 3) ------------------------------------------
    def _record_kdf2(self, modulus_octets: int, label: str) -> None:
        """KDF2 over the modulus-length secret Z (one 16-octet KEK round)."""
        rounds = kdf.kdf2_hash_invocations(kem.KEK_LENGTH)
        blocks_per_round = units_128(modulus_octets + 4)
        self._record(Algorithm.SHA1, rounds, rounds * blocks_per_round,
                     label + "/kdf2")

    def kem_encrypt(self, public_key: rsa.RSAPublicKey, key_material: bytes,
                    label: str = "kem-encrypt") -> kem.KemCiphertext:
        self._record(Algorithm.RSA_PUBLIC, 1, 1, label + "/rsaep")
        self._record_kdf2(public_key.modulus_octets, label)
        ops = keywrap.wrap_invocation_count(len(key_material))
        self._record(Algorithm.AES_ENCRYPT, ops, ops, label + "/wrap")
        return super().kem_encrypt(public_key, key_material)

    def kem_decrypt(self, private_key: rsa.RSAPrivateKey,
                    ciphertext: kem.KemCiphertext,
                    label: str = "kem-decrypt") -> bytes:
        self._record(Algorithm.RSA_PRIVATE, 1, 1, label + "/rsadp")
        self._record_kdf2(private_key.modulus_octets, label)
        ops = keywrap.wrap_invocation_count(len(ciphertext.c2) - 8)
        self._record(Algorithm.AES_DECRYPT, ops, ops, label + "/unwrap")
        return super().kem_decrypt(private_key, ciphertext)
