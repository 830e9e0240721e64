"""Certificates and the Certification Authority."""

import pytest

from repro.core.meter import PlainCrypto
from repro.crypto.rng import HmacDrbg
from repro.crypto.rsa import generate_keypair
from repro.drm.certificates import (Certificate, CertificationAuthority,
                                    verify_certificate)
from repro.drm.clock import YEAR
from repro.drm.errors import CertificateExpiredError, TrustError

NOW = 1_100_000_000
BITS = 512


@pytest.fixture(scope="module")
def crypto():
    return PlainCrypto(HmacDrbg(b"cert-tests"))


@pytest.fixture(scope="module")
def ca(crypto):
    keys = generate_keypair(BITS, crypto.rng)
    return CertificationAuthority("test-ca", keys, crypto, now=NOW)


@pytest.fixture(scope="module")
def subject_keys(crypto):
    return generate_keypair(BITS, crypto.rng)


def test_root_certificate_is_self_signed(ca, crypto):
    root = ca.root_certificate
    assert root.subject == root.issuer == "test-ca"
    assert root.is_ca
    verify_certificate(root, [root], NOW, crypto)


def test_issue_and_verify(ca, subject_keys, crypto):
    cert = ca.issue("device:x", subject_keys.public_key, NOW)
    assert cert.subject == "device:x"
    assert cert.issuer == "test-ca"
    assert not cert.is_ca
    verify_certificate(cert, [ca.root_certificate], NOW, crypto)


def test_serials_are_unique(ca, subject_keys):
    a = ca.issue("device:a", subject_keys.public_key, NOW)
    b = ca.issue("device:b", subject_keys.public_key, NOW)
    assert a.serial != b.serial


def test_expired_certificate_rejected(ca, subject_keys, crypto):
    cert = ca.issue("device:x", subject_keys.public_key, NOW,
                    validity_seconds=100)
    with pytest.raises(CertificateExpiredError):
        verify_certificate(cert, [ca.root_certificate], NOW + 101, crypto)


def test_not_yet_valid_certificate_rejected(ca, subject_keys, crypto):
    cert = ca.issue("device:x", subject_keys.public_key, NOW)
    with pytest.raises(CertificateExpiredError):
        verify_certificate(cert, [ca.root_certificate], NOW - 1, crypto)


def test_unknown_issuer_rejected(ca, subject_keys, crypto):
    cert = ca.issue("device:x", subject_keys.public_key, NOW)
    with pytest.raises(TrustError):
        verify_certificate(cert, [], NOW, crypto)


def test_tampered_subject_rejected(ca, subject_keys, crypto):
    cert = ca.issue("device:x", subject_keys.public_key, NOW)
    forged = Certificate(
        serial=cert.serial, subject="device:evil", issuer=cert.issuer,
        public_key=cert.public_key, not_before=cert.not_before,
        not_after=cert.not_after, is_ca=cert.is_ca,
        signature=cert.signature,
    )
    with pytest.raises(TrustError):
        verify_certificate(forged, [ca.root_certificate], NOW, crypto)


def test_swapped_public_key_rejected(ca, subject_keys, crypto):
    cert = ca.issue("device:x", subject_keys.public_key, NOW)
    attacker = generate_keypair(BITS, crypto.rng)
    forged = Certificate(
        serial=cert.serial, subject=cert.subject, issuer=cert.issuer,
        public_key=attacker.public_key, not_before=cert.not_before,
        not_after=cert.not_after, is_ca=cert.is_ca,
        signature=cert.signature,
    )
    with pytest.raises(TrustError):
        verify_certificate(forged, [ca.root_certificate], NOW, crypto)


def test_revocation_bookkeeping(ca, subject_keys):
    cert = ca.issue("device:x", subject_keys.public_key, NOW)
    assert not ca.is_revoked(cert.serial)
    ca.revoke(cert.serial, NOW + 5)
    assert ca.is_revoked(cert.serial)
    assert not ca.is_revoked(99999)


def test_default_validity_window(ca, subject_keys):
    cert = ca.issue("device:x", subject_keys.public_key, NOW)
    assert cert.not_after - cert.not_before == 5 * YEAR


def test_certificate_bytes_are_deterministic(ca, subject_keys):
    cert = ca.issue("device:x", subject_keys.public_key, NOW)
    assert cert.to_bytes() == cert.to_bytes()
    assert cert.tbs_bytes() in cert.to_bytes()
