"""ROAP message types with canonical serialization.

Every message provides ``to_bytes()`` (the transport form). The signed
ones define ``tbs_bytes()`` (the to-be-signed body) and inherit the
envelope, ``signed`` and ``verify`` from
:class:`~repro.drm.serialize.Signed`. Messages are real byte strings, so
the "ROAP message file sizes" the paper extracted from its Java model
arise here as genuine serialized lengths — the hashes the PSS signatures
compute run over exactly these bytes.

Nonces bind responses to requests (replay protection); the standard uses
at least 14 octets of entropy, which :func:`new_nonce` follows.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

from .. import serialize
from ..certificates import Certificate
from ..ocsp import OCSPResponse
from ..ro import ProtectedRightsObject

#: Status string for successful ROAP responses.
ROAP_STATUS_OK = "Success"

#: Nonce length in octets (the standard mandates >= 14 octets).
NONCE_LENGTH = 14


def new_nonce(crypto) -> bytes:
    """Draw a fresh ROAP nonce from the provider's DRBG."""
    return crypto.random_bytes(NONCE_LENGTH)


@dataclass(frozen=True)
class DeviceHello:
    """ROAP-DeviceHello: the device advertises itself and its algorithms."""

    version: str
    device_id: str
    supported_algorithms: Tuple[str, ...]

    def to_bytes(self) -> bytes:
        """Transport bytes."""
        return serialize.encode({
            "message": "DeviceHello",
            "version": self.version,
            "device_id": self.device_id,
            "algorithms": list(self.supported_algorithms),
        })


@dataclass(frozen=True)
class RIHello:
    """ROAP-RIHello: the RI answers with its identity and a session."""

    version: str
    ri_id: str
    session_id: str
    ri_nonce: bytes
    selected_algorithms: Tuple[str, ...]

    def to_bytes(self) -> bytes:
        """Transport bytes."""
        return serialize.encode({
            "message": "RIHello",
            "version": self.version,
            "ri_id": self.ri_id,
            "session_id": self.session_id,
            "ri_nonce": self.ri_nonce,
            "algorithms": list(self.selected_algorithms),
        })


@dataclass(frozen=True)
class RegistrationRequest(serialize.Signed):
    """ROAP-RegistrationRequest: signed, carries the device certificate."""

    session_id: str
    device_nonce: bytes
    request_time: int
    certificate: Certificate
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The signed body (everything but the signature)."""
        return serialize.encode({
            "message": "RegistrationRequest",
            "session_id": self.session_id,
            "device_nonce": self.device_nonce,
            "request_time": self.request_time,
            "certificate": self.certificate.to_bytes(),
        })


@dataclass(frozen=True)
class RegistrationResponse(serialize.Signed):
    """ROAP-RegistrationResponse: signed, carries RI cert + OCSP response.

    ``ri_time`` is the RI's current DRM Time: devices resynchronize
    their (drift-prone) secure clock from it during registration, which
    is what keeps datetime constraints and certificate windows
    enforceable on terminals without a network time source.
    """

    status: str
    session_id: str
    device_nonce: bytes
    ri_certificate: Certificate
    ocsp_response: OCSPResponse
    ri_time: int = 0
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The signed body (everything but the signature)."""
        return serialize.encode({
            "message": "RegistrationResponse",
            "status": self.status,
            "session_id": self.session_id,
            "device_nonce": self.device_nonce,
            "ri_certificate": self.ri_certificate.to_bytes(),
            "ocsp_response": self.ocsp_response.to_bytes(),
            "ri_time": self.ri_time,
        })


@dataclass(frozen=True)
class RORequest(serialize.Signed):
    """ROAP-RORequest: signed request for one Rights Object."""

    device_id: str
    ri_id: str
    ro_id: str
    device_nonce: bytes
    request_time: int
    domain_id: Optional[str] = None
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The signed body (everything but the signature)."""
        return serialize.encode({
            "message": "RORequest",
            "device_id": self.device_id,
            "ri_id": self.ri_id,
            "ro_id": self.ro_id,
            "device_nonce": self.device_nonce,
            "request_time": self.request_time,
            "domain_id": self.domain_id,
        })


@dataclass(frozen=True)
class ROResponse(serialize.Signed):
    """ROAP-ROResponse: signed, carries the protected Rights Object."""

    status: str
    device_nonce: bytes
    protected_ro: ProtectedRightsObject
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The signed body (everything but the signature)."""
        return serialize.encode({
            "message": "ROResponse",
            "status": self.status,
            "device_nonce": self.device_nonce,
            "protected_ro": self.protected_ro.to_bytes(),
        })


@dataclass(frozen=True)
class JoinDomainRequest(serialize.Signed):
    """ROAP-JoinDomainRequest: signed request to join a device domain."""

    device_id: str
    ri_id: str
    domain_id: str
    device_nonce: bytes
    request_time: int
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The signed body (everything but the signature)."""
        return serialize.encode({
            "message": "JoinDomainRequest",
            "device_id": self.device_id,
            "ri_id": self.ri_id,
            "domain_id": self.domain_id,
            "device_nonce": self.device_nonce,
            "request_time": self.request_time,
        })


@dataclass(frozen=True)
class LeaveDomainRequest(serialize.Signed):
    """ROAP-LeaveDomainRequest: signed request to leave a domain.

    The signature proves to the RI that the device itself asked to
    leave — required before the RI may stop counting it against the
    domain size limit.
    """

    device_id: str
    ri_id: str
    domain_id: str
    device_nonce: bytes
    request_time: int
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The signed body (everything but the signature)."""
        return serialize.encode({
            "message": "LeaveDomainRequest",
            "device_id": self.device_id,
            "ri_id": self.ri_id,
            "domain_id": self.domain_id,
            "device_nonce": self.device_nonce,
            "request_time": self.request_time,
        })


@dataclass(frozen=True)
class LeaveDomainResponse(serialize.Signed):
    """ROAP-LeaveDomainResponse: the RI acknowledges the departure."""

    status: str
    domain_id: str
    device_nonce: bytes
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The signed body (everything but the signature)."""
        return serialize.encode({
            "message": "LeaveDomainResponse",
            "status": self.status,
            "domain_id": self.domain_id,
            "device_nonce": self.device_nonce,
        })


@dataclass(frozen=True)
class JoinDomainResponse(serialize.Signed):
    """ROAP-JoinDomainResponse: carries the KEM-protected domain key.

    The RI delivers the symmetric domain key to each trusted member device
    through the same PKI mechanism that protects Device-RO keys
    (paper §2.3): the key rides in ``C1 ‖ C2`` encapsulated to the
    device's public key.
    """

    status: str
    domain_id: str
    device_nonce: bytes
    protected_domain_key: bytes  # C1 || C2 of the KEM encapsulation
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The signed body (everything but the signature)."""
        return serialize.encode({
            "message": "JoinDomainResponse",
            "status": self.status,
            "domain_id": self.domain_id,
            "device_nonce": self.device_nonce,
            "protected_domain_key": self.protected_domain_key,
        })
