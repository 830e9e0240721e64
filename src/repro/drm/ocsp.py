"""Online Certificate Status Protocol responder and responses (RFC 2560).

During ROAP registration the Rights Issuer obtains an OCSP response for its
own certificate and forwards it inside the RegistrationResponse; the DRM
Agent verifies the response signature and checks the status (paper
§2.4.1). The responder's certificate is issued by the CA, so the agent can
verify the response with its existing trust anchors.
"""

import enum
from dataclasses import dataclass

from ..crypto.errors import SignatureError
from . import serialize
from .certificates import Certificate, CertificationAuthority
from .clock import DAY
from .errors import CertificateRevokedError, TrustError, WireDecodeError

#: How far into the future a response's ``produced_at`` may lie before
#: the agent rejects it. Responder and terminal clocks are never exactly
#: aligned, so a small allowance is needed; anything beyond it means a
#: pre-signed response is being presented by a party that controls the
#: terminal's notion of time (the rolled-back-clock attack).
DEFAULT_FRESHNESS_TOLERANCE = 5 * 60


class CertStatus(enum.Enum):
    """RFC 2560 certificate status values."""

    GOOD = "good"
    REVOKED = "revoked"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class OCSPResponse(serialize.Signed):
    """A signed status assertion for one certificate serial."""

    serial: int
    status: CertStatus
    produced_at: int
    next_update: int
    responder: str
    signature: bytes

    def tbs_bytes(self) -> bytes:
        """The to-be-signed response data."""
        return serialize.encode({
            "serial": self.serial,
            "status": self.status.value,
            "produced_at": self.produced_at,
            "next_update": self.next_update,
            "responder": self.responder,
        })



def ocsp_response_from_bytes(blob: bytes) -> OCSPResponse:
    """Inverse of :meth:`OCSPResponse.to_bytes` (wire decoding).

    Raises :class:`~repro.drm.errors.WireDecodeError` for any malformed
    input — missing fields, wrong types, unknown status strings — per
    the wire-layer contract (REP403): corrupted transport bytes surface
    as exactly one typed exception, never a raw ``KeyError``.
    """
    try:
        outer = serialize.decode(blob)
        tbs = serialize.decode(outer["tbs"])
        return OCSPResponse(
            serial=int(tbs["serial"]),
            status=CertStatus(tbs["status"]),
            produced_at=int(tbs["produced_at"]),
            next_update=int(tbs["next_update"]),
            responder=tbs["responder"],
            signature=outer["signature"],
        )
    except WireDecodeError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise WireDecodeError("malformed OCSP response") from exc


class OCSPResponder:
    """Signs certificate-status responses on behalf of a CA."""

    def __init__(self, name: str, ca: CertificationAuthority, keypair,
                 crypto, now: int = 0,
                 validity_seconds: int = 7 * DAY) -> None:
        self.name = name
        self._ca = ca
        self._keypair = keypair
        self._crypto = crypto
        self._validity = validity_seconds
        self.certificate = ca.issue(name, keypair.public_key, now)

    def respond(self, serial: int, now: int) -> OCSPResponse:
        """Produce a signed status response for ``serial`` at time ``now``."""
        status = (CertStatus.REVOKED if self._ca.is_revoked(serial)
                  else CertStatus.GOOD)
        return OCSPResponse(
            serial=serial, status=status, produced_at=now,
            next_update=now + self._validity, responder=self.name,
            signature=b"",
        ).signed(self._crypto, self._keypair)


def verify_ocsp_response(response: OCSPResponse, serial: int,
                         responder_certificate: Certificate,
                         now: int, crypto) -> None:
    """Verify an OCSP response: signature, serial, freshness, status.

    The signature check is one RSA public-key operation — the third PKI
    verification in the paper's registration-phase operation list. Raises
    :class:`TrustError` / :class:`CertificateRevokedError` on failure.

    Freshness is checked in both directions: a response past its
    ``next_update`` is stale, and one produced more than
    :data:`DEFAULT_FRESHNESS_TOLERANCE` in the *future* is rejected too —
    otherwise a pre-signed response combined with a rolled-back terminal
    clock would verify indefinitely.
    """
    if response.serial != serial:
        raise TrustError(
            "OCSP response covers serial %d, expected %d"
            % (response.serial, serial)
        )
    if response.responder != responder_certificate.subject:
        raise TrustError("OCSP responder name does not match certificate")
    if now > response.next_update:
        raise TrustError("OCSP response is stale")
    if response.produced_at > now + DEFAULT_FRESHNESS_TOLERANCE:
        raise TrustError(
            "OCSP response is future-dated (produced_at %d, now %d, "
            "tolerance %d s)"
            % (response.produced_at, now, DEFAULT_FRESHNESS_TOLERANCE)
        )
    try:
        response.verify(crypto, responder_certificate.public_key)
    except SignatureError as exc:
        raise TrustError("OCSP response signature invalid") from exc
    if response.status is CertStatus.REVOKED:
        raise CertificateRevokedError(
            "certificate serial %d is revoked" % serial
        )
    if response.status is CertStatus.UNKNOWN:
        raise TrustError("OCSP status unknown for serial %d" % serial)
