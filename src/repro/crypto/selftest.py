"""Power-on known-answer self-tests (FIPS 140-style).

Embedded cryptographic modules run known-answer tests at boot to detect
silent corruption of code or lookup tables before any key touches the
implementation. This module provides that routine for the whole substrate:
one fixed vector per primitive, executed in milliseconds.

The DRM robustness rules a Certification Authority imposes (paper §2.4.3)
are exactly the kind of requirement that mandates such self-checks on a
real terminal.

SHA-1 and HMAC-SHA1 are checked twice: the one-shot functions every
caller uses (stdlib ``hashlib``/``hmac``) and the FIPS 180 / RFC 2104
reference classes, both against the same published vector.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from .aes import AES
from .hmac import HMACSHA1, hmac_sha1
from .kdf import kdf2
from .keywrap import unwrap, wrap
from .modes import cbc_decrypt_raw, cbc_encrypt_raw
from .sha1 import SHA1, sha1

_SHA1_ABC = "a9993e364706816aba3e25717850c26c9cd0d89d"
_HMAC_KEY = b"\x0b" * 20
_HMAC_HI_THERE = "b617318655057264e28bc0b6fb378c8ef146be00"


def _check_sha1() -> bool:
    return sha1(b"abc").hex() == _SHA1_ABC


def _check_sha1_reference() -> bool:
    return SHA1(b"abc").hexdigest() == _SHA1_ABC


def _check_hmac() -> bool:
    return hmac_sha1(_HMAC_KEY, b"Hi There").hex() == _HMAC_HI_THERE


def _check_hmac_reference() -> bool:
    return HMACSHA1(_HMAC_KEY, b"Hi There").hexdigest() == _HMAC_HI_THERE


def _check_aes_encrypt() -> bool:
    cipher = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    out = cipher.encrypt_block(
        bytes.fromhex("00112233445566778899aabbccddeeff"))
    return out.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"


def _check_aes_decrypt() -> bool:
    cipher = AES(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
    out = cipher.decrypt_block(
        bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"))
    return out.hex() == "00112233445566778899aabbccddeeff"


# SP 800-38A F.2.1/F.2.2: AES-128-CBC, four blocks.
_CBC_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
_CBC_IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
_CBC_PLAIN = ("6bc1bee22e409f96e93d7e117393172a"
              "ae2d8a571e03ac9c9eb76fac45af8e51"
              "30c81c46a35ce411e5fbc1191a0a52ef"
              "f69f2445df4f9b17ad2b417be66c3710")
_CBC_CIPHER = ("7649abac8119b246cee98e9b12e9197d"
               "5086cb9b507219ee95db113a917678b2"
               "73bed6b8e3c1743b7116e69e22229516"
               "3ff1caa1681fac09120eca307586e1a7")


def _check_cbc() -> bool:
    plain = bytes.fromhex(_CBC_PLAIN)
    return cbc_encrypt_raw(_CBC_KEY, _CBC_IV, plain).hex() == _CBC_CIPHER


def _check_cbc_decrypt() -> bool:
    # All four blocks, so the whole-buffer inverse cipher's tables and
    # the chaining XOR run, not one block alone.
    cipher = bytes.fromhex(_CBC_CIPHER)
    return cbc_decrypt_raw(_CBC_KEY, _CBC_IV, cipher).hex() == _CBC_PLAIN


def _check_keywrap() -> bool:
    kek = bytes.fromhex("000102030405060708090A0B0C0D0E0F")
    key = bytes.fromhex("00112233445566778899AABBCCDDEEFF")
    wrapped = wrap(kek, key)
    return wrapped.hex().upper() \
        == "1FA68B0A8112B447AEF34BD8FB5A7B829D3E862371D2CFE5" \
        and unwrap(kek, wrapped) == key  # repro: allow[REP302] -- KAT equality against a public RFC 3394 vector, not an adversarial comparison


def _check_kdf2() -> bool:
    # KDF2's structural identity: first block is Hash(Z || 00000001).
    # repro: allow[REP302] -- structural self-check on public constants; no secret-dependent timing
    return kdf2(b"Z" * 16, 20) == sha1(b"Z" * 16 + b"\x00\x00\x00\x01")


#: Test name -> check callable. RSA is deliberately absent: the
#: key-dependent pairwise consistency test
#: (:func:`repro.crypto.rsa.check_keypair`) runs on every generated key
#: instead, the conventional split for public-key primitives.
SELF_TESTS: Dict[str, Callable[[], bool]] = {
    "sha1": _check_sha1,
    "sha1-reference": _check_sha1_reference,
    "hmac-sha1": _check_hmac,
    "hmac-sha1-reference": _check_hmac_reference,
    "aes-encrypt": _check_aes_encrypt,
    "aes-decrypt": _check_aes_decrypt,
    "aes-cbc": _check_cbc,
    "aes-cbc-decrypt": _check_cbc_decrypt,
    "aes-keywrap": _check_keywrap,
    "kdf2": _check_kdf2,
}


@dataclass
class SelfTestReport:
    """Outcome of one power-on self-test run."""

    results: List[Tuple[str, bool]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Whether every known-answer test succeeded."""
        return all(ok for _, ok in self.results)


def run_self_tests() -> SelfTestReport:
    """Run every known-answer test; never raises — inspect the report."""
    report = SelfTestReport()
    for name, check in SELF_TESTS.items():
        try:
            ok = bool(check())
        except Exception:
            ok = False
        report.results.append((name, ok))
    return report
