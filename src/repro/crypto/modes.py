"""Block cipher modes of operation.

OMA DRM 2 mandates 128-bit AES in CBC mode for content encryption
(``AES_128_CBC`` in the DCF's encryption-method box). We implement CBC with
PKCS#7 padding plus a raw (unpadded) variant used by tests and by callers
that manage padding themselves.

Encryption is a chain (each block's input depends on the previous
ciphertext block), so it runs block by block on the T-table core.
Decryption is not: every ciphertext block is known up front, so
``cbc_decrypt_raw`` decrypts the whole buffer at once with
:meth:`~repro.crypto.aes.AES.decrypt_blocks` on a byte-sliced state,
whose last step XORs in the chaining. Each DCF access (the paper's
per-access AES-CBC decryption of the content) takes that path. Its
lookup tables are folded with round-key octets and indexed by state
octets, like the T-table core's: neither is constant-time.
"""

from .aes import AES, BLOCK_SIZE
from .encoding import xor_bytes
from .errors import InvalidBlockError
from .padding import pad, unpad


def _check_iv(iv: bytes) -> None:
    if len(iv) != BLOCK_SIZE:
        raise InvalidBlockError("CBC IV must be 16 octets, got %d" % len(iv))


def cbc_encrypt_raw(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-CBC encrypt without padding; input must be block-aligned."""
    _check_iv(iv)
    if len(plaintext) % BLOCK_SIZE != 0:
        raise InvalidBlockError("raw CBC input must be a block multiple")
    cipher = AES(key)
    blocks = []
    previous = iv
    for offset in range(0, len(plaintext), BLOCK_SIZE):
        block = xor_bytes(plaintext[offset:offset + BLOCK_SIZE], previous)
        previous = cipher.encrypt_block(block)
        blocks.append(previous)
    return b"".join(blocks)


def cbc_decrypt_raw(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """AES-CBC decrypt without padding; input must be block-aligned.

    Plaintext block i is D(C_i) XOR C_(i-1), with C_(-1) the IV, so every
    block is decrypted at once and the chaining is one XOR of the whole
    buffer with ``IV ‖ C[:-16]``, the last step of
    :meth:`~repro.crypto.aes.AES.decrypt_blocks`, which also rejects a
    bad IV or a partial block with :class:`InvalidBlockError`.
    """
    return AES(key).decrypt_blocks(ciphertext, iv)


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes) -> bytes:
    """AES-CBC encrypt with PKCS#7 padding (the DCF content transform)."""
    return cbc_encrypt_raw(key, iv, pad(plaintext, BLOCK_SIZE))


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes) -> bytes:
    """AES-CBC decrypt and strip PKCS#7 padding."""
    return unpad(cbc_decrypt_raw(key, iv, ciphertext), BLOCK_SIZE)
