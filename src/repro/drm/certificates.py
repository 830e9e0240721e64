"""PKI certificates and the Certification Authority.

Trust in OMA DRM 2 is rooted in PKI certificates issued by a Certification
Authority (the paper names CMLA, the first CA for OMA DRM, founded in
February 2004). A valid certificate asserts that its subject — DRM Agent or
Rights Issuer — adheres to the CA's compliance and robustness rules.

Certificates here are canonical-encoded structures signed with RSASSA-PSS
(the standard's mandated signature scheme) instead of ASN.1/X.509 — see
``DESIGN.md`` for why this substitution preserves the measured behaviour.
"""

from dataclasses import dataclass
from typing import Dict, Iterable

from ..crypto.errors import SignatureError
from ..crypto.rsa import RSAPrivateKey, RSAPublicKey
from . import serialize
from .clock import YEAR
from .errors import (CertificateExpiredError, CertificateRevokedError,
                     TrustError)


@dataclass(frozen=True)
class Certificate(serialize.Signed):
    """A signed binding of a subject name to an RSA public key."""

    serial: int
    subject: str
    issuer: str
    public_key: RSAPublicKey
    not_before: int
    not_after: int
    is_ca: bool
    signature: bytes

    def tbs_bytes(self) -> bytes:
        """The to-be-signed portion, canonically encoded."""
        return serialize.encode({
            "serial": self.serial,
            "subject": self.subject,
            "issuer": self.issuer,
            "public_key_n": self.public_key.n,
            "public_key_e": self.public_key.e,
            "not_before": self.not_before,
            "not_after": self.not_after,
            "is_ca": self.is_ca,
        })

    def check_window(self, now: int) -> None:
        """Raise if ``now`` is outside the validity window."""
        if now < self.not_before or now > self.not_after:
            raise CertificateExpiredError(
                "certificate %d for %r valid [%d, %d], checked at %d"
                % (self.serial, self.subject, self.not_before,
                   self.not_after, now)
            )


class CertificationAuthority:
    """Issues and revokes certificates; owns the trust-anchor key.

    The CA signs with its own (self-signed) root certificate. Revocation
    state lives here and is consulted by the OCSP responder — the standard
    leaves the CA's compliance/robustness rules to the business community,
    so the model only tracks the mechanics: issue, revoke, status.
    """

    def __init__(self, name: str, keypair: RSAPrivateKey, crypto,
                 now: int = 0) -> None:
        self.name = name
        self._keypair = keypair
        self._crypto = crypto
        self._next_serial = 1
        self._revoked: Dict[int, int] = {}
        self.root_certificate = self._issue_root(now)

    def _issue_root(self, now: int) -> Certificate:
        serial = self._next_serial
        self._next_serial += 1
        return Certificate(
            serial=serial, subject=self.name, issuer=self.name,
            public_key=self._keypair.public_key,
            not_before=now, not_after=now + 20 * YEAR,
            is_ca=True, signature=b"",
        ).signed(self._crypto, self._keypair)

    def issue(self, subject: str, public_key: RSAPublicKey, now: int,
              validity_seconds: int = 5 * YEAR,
              is_ca: bool = False) -> Certificate:
        """Issue a certificate for ``subject`` binding ``public_key``."""
        serial = self._next_serial
        self._next_serial += 1
        return Certificate(
            serial=serial, subject=subject, issuer=self.name,
            public_key=public_key, not_before=now,
            not_after=now + validity_seconds, is_ca=is_ca, signature=b"",
        ).signed(self._crypto, self._keypair)

    def revoke(self, serial: int, now: int) -> None:
        """Revoke the certificate with ``serial`` effective at ``now``."""
        self._revoked[serial] = now

    def is_revoked(self, serial: int) -> bool:
        """Whether ``serial`` has been revoked."""
        return serial in self._revoked


def certificate_from_bytes(blob: bytes) -> Certificate:
    """Inverse of :meth:`Certificate.to_bytes` (wire decoding)."""
    outer = serialize.decode(blob)
    tbs = serialize.decode(outer["tbs"])
    return Certificate(
        serial=int(tbs["serial"]),
        subject=tbs["subject"],
        issuer=tbs["issuer"],
        public_key=RSAPublicKey(n=int(tbs["public_key_n"]),
                                e=int(tbs["public_key_e"])),
        not_before=int(tbs["not_before"]),
        not_after=int(tbs["not_after"]),
        is_ca=bool(tbs["is_ca"]),
        signature=outer["signature"],
    )


def verify_certificate(certificate: Certificate,
                       trust_anchors: Iterable[Certificate],
                       now: int, crypto) -> None:
    """Validate ``certificate`` against a set of trust-anchor certificates.

    Checks the validity window and the issuer signature (one RSA public-key
    operation — the PKI verification the paper's registration phase
    counts). Raises a :class:`TrustError` subclass on failure. Revocation
    is checked separately via OCSP (:mod:`repro.drm.ocsp`).
    """
    certificate.check_window(now)
    anchors = {a.subject: a for a in trust_anchors}
    anchor = anchors.get(certificate.issuer)
    if anchor is None:
        raise TrustError(
            "no trust anchor for issuer %r" % certificate.issuer
        )
    anchor.check_window(now)
    try:
        certificate.verify(crypto, anchor.public_key)
    except SignatureError as exc:
        raise TrustError(
            "certificate %d signature invalid: %s"
            % (certificate.serial, exc)
        ) from exc


__all__ = [
    "Certificate", "CertificationAuthority", "verify_certificate",
    "CertificateExpiredError", "CertificateRevokedError",
]
