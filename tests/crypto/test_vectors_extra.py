"""Additional published test vectors across the substrate.

Beyond each module's own KATs: NIST CAVP-style SHA-1 short messages,
the remaining SP 800-38A CBC vectors (192/256-bit keys, both
directions), and SP 800-38A
ECB single blocks exercised through the raw block interface.
"""

import pytest

from repro.crypto.aes import AES
from repro.crypto.modes import cbc_decrypt_raw, cbc_encrypt_raw
from repro.crypto.sha1 import sha1

# NIST CAVP SHA1ShortMsg.rsp selections (length in octets, msg, digest).
SHA1_SHORT_VECTORS = [
    ("36", "c1dfd96eea8cc2b62785275bca38ac261256e278"),
    ("195a", "0a1c2d555bbe431ad6288af5a54f93e0449c9232"),
    ("df4bd2", "bf36ed5d74727dfd5d7854ec6b1d49468d8ee8aa"),
    ("549e959e", "b78bae6d14338ffccfd5d5b5674a275f6ef9c717"),
    ("f7fb1be205", "60b7d5bb560a1acf6fa45721bd0abb419a841a89"),
    ("c0e5abeaea63", "a6d338459780c08363090fd8fc7d28dc80e8e01f"),
    ("63bfc1ed7f78ab", "860328d80509500c1783169ebf0ba0c4b94da5e5"),
    ("7e3d7b3eada98866", "24a2c34b976305277ce58c2f42d5092031572520"),
    ("9e61e55d9ed37b1c20", "411ccee1f6e3677df12698411eb09d3ff580af97"),
    ("9777cf90dd7c7e863506", "05c915b5ed4e4c4afffc202961f3174371e90b5c"),
]

# SP 800-38A F.2.3-F.2.6: CBC with 192- and 256-bit keys. The decrypt
# vectors (F.2.4/F.2.6) are the encrypt vectors (F.2.3/F.2.5) reversed.
CBC_192_KEY = "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b"
CBC_256_KEY = ("603deb1015ca71be2b73aef0857d7781"
               "1f352c073b6108d72d9810a30914dff4")
CBC_IV = "000102030405060708090a0b0c0d0e0f"
CBC_PLAIN = ("6bc1bee22e409f96e93d7e117393172a"
             "ae2d8a571e03ac9c9eb76fac45af8e51"
             "30c81c46a35ce411e5fbc1191a0a52ef"
             "f69f2445df4f9b17ad2b417be66c3710")
CBC_192_CIPHER = ("4f021db243bc633d7178183a9fa071e8"
                  "b4d9ada9ad7dedf4e5e738763f69145a"
                  "571b242012fb7ae07fa9baac3df102e0"
                  "08b0e27988598881d920a9e64f5615cd")
CBC_256_CIPHER = ("f58c4c04d6e5f1ba779eabfb5f7bfbd6"
                  "9cfc4e967edb808d679f777bc6702c7d"
                  "39f23369a9d9bacfa530e26304231461"
                  "b2eb05e2c39be9fcda6c19078c6a9d1b")

# SP 800-38A ECB single-block vectors (first block of F.1.1/F.1.3/F.1.5).
ECB_VECTORS = [
    ("2b7e151628aed2a6abf7158809cf4f3c",
     "6bc1bee22e409f96e93d7e117393172a",
     "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
     "6bc1bee22e409f96e93d7e117393172a",
     "bd334f1d6e45f25ff712a214571fa5cc"),
    ("603deb1015ca71be2b73aef0857d7781"
     "1f352c073b6108d72d9810a30914dff4",
     "6bc1bee22e409f96e93d7e117393172a",
     "f3eed1bdb5d2a03c064b5a7e3db181f8"),
]


@pytest.mark.parametrize("message_hex,digest_hex", SHA1_SHORT_VECTORS,
                         ids=["len%d" % (len(m) // 2)
                              for m, _ in SHA1_SHORT_VECTORS])
def test_sha1_cavp_short_messages(message_hex, digest_hex):
    assert sha1(bytes.fromhex(message_hex)).hex() == digest_hex


def _check_cbc_vector(key_hex, cipher_hex):
    key, iv = bytes.fromhex(key_hex), bytes.fromhex(CBC_IV)
    assert cbc_encrypt_raw(key, iv, bytes.fromhex(CBC_PLAIN)).hex() \
        == cipher_hex
    assert cbc_decrypt_raw(key, iv, bytes.fromhex(cipher_hex)).hex() \
        == CBC_PLAIN


def test_cbc_192_vector():
    _check_cbc_vector(CBC_192_KEY, CBC_192_CIPHER)


def test_cbc_256_vector():
    _check_cbc_vector(CBC_256_KEY, CBC_256_CIPHER)


@pytest.mark.parametrize("key_hex,plain_hex,cipher_hex", ECB_VECTORS,
                         ids=["ecb128", "ecb192", "ecb256"])
def test_ecb_single_blocks(key_hex, plain_hex, cipher_hex):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(bytes.fromhex(plain_hex)).hex() \
        == cipher_hex
    assert cipher.decrypt_block(bytes.fromhex(cipher_hex)).hex() \
        == plain_hex


def test_sha1_iterated_contraction():
    """A Monte-Carlo-style chain: digest feeding the next message."""
    seed = bytes(20)
    digest = seed
    for _ in range(1000):
        digest = sha1(digest)
    # Value independently computed with hashlib.
    import hashlib
    expected = bytes(20)
    for _ in range(1000):
        expected = hashlib.sha1(expected).digest()
    assert digest == expected
