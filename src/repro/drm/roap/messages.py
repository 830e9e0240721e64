"""ROAP message types with canonical serialization.

Each message is a frozen dataclass whose fields are its whole schema:
:class:`RoapMessage` derives the body from them, and so does the codec in
:mod:`~repro.drm.roap.wire`, so adding a field is one edit. Unsigned
messages send the body as is; signed ones list
:class:`~repro.drm.serialize.Signed` first and sign it. Messages are real
byte strings, so the "ROAP message file sizes" the paper extracted from
its Java model arise here as genuine serialized lengths — the hashes the
PSS signatures compute run over exactly these bytes.

Nonces bind responses to requests (replay protection); the standard uses
at least 14 octets of entropy, which :func:`new_nonce` follows.
"""

import enum
import functools
import operator
from dataclasses import dataclass, fields
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


def _body_form(field_type):
    """Nested objects enter a body as bytes, enums as their value."""
    if field_type in (Certificate, OCSPResponse, ProtectedRightsObject):
        return field_type.to_bytes
    if isinstance(field_type, enum.EnumMeta):
        return operator.attrgetter("value")
    return None  # as is


@functools.lru_cache(maxsize=None)
def _body_plan(cls) -> tuple:
    """``(name, form)`` for every field of ``cls`` but its signature."""
    return tuple((f.name, _body_form(f.type))
                 for f in fields(cls) if f.name != "signature")


class RoapMessage:
    """Mixin for a frozen dataclass whose body derives from its fields."""

    def tbs_bytes(self) -> bytes:
        """``{"message": <class name>}`` plus every field but the
        signature, each under its own name."""
        body = {"message": type(self).__name__}
        for name, form in _body_plan(type(self)):
            value = getattr(self, name)
            body[name] = value if form is None else form(value)
        return serialize.encode(body)

    def to_bytes(self) -> bytes:
        """Transport bytes of an unsigned message: its body."""
        return self.tbs_bytes()


@dataclass(frozen=True)
class DeviceHello(RoapMessage):
    """ROAP-DeviceHello: the device advertises itself and its algorithms."""

    version: str
    device_id: str
    algorithms: Tuple[str, ...]


@dataclass(frozen=True)
class RIHello(RoapMessage):
    """ROAP-RIHello: the RI answers with its identity and a session."""

    version: str
    ri_id: str
    session_id: str
    ri_nonce: bytes
    algorithms: Tuple[str, ...]


@dataclass(frozen=True)
class RegistrationRequest(serialize.Signed, RoapMessage):
    """ROAP-RegistrationRequest: signed, carries the device certificate."""

    session_id: str
    device_nonce: bytes
    request_time: int
    certificate: Certificate
    signature: bytes = b""


@dataclass(frozen=True)
class RegistrationResponse(serialize.Signed, RoapMessage):
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


@dataclass(frozen=True)
class RORequest(serialize.Signed, RoapMessage):
    """ROAP-RORequest: signed request for one Rights Object."""

    device_id: str
    ri_id: str
    ro_id: str
    device_nonce: bytes
    request_time: int
    domain_id: Optional[str] = None
    signature: bytes = b""


@dataclass(frozen=True)
class ROResponse(serialize.Signed, RoapMessage):
    """ROAP-ROResponse: signed, carries the protected Rights Object."""

    status: str
    device_nonce: bytes
    protected_ro: ProtectedRightsObject
    signature: bytes = b""


@dataclass(frozen=True)
class JoinDomainRequest(serialize.Signed, RoapMessage):
    """ROAP-JoinDomainRequest: signed request to join a device domain."""

    device_id: str
    ri_id: str
    domain_id: str
    device_nonce: bytes
    request_time: int
    signature: bytes = b""


@dataclass(frozen=True)
class LeaveDomainRequest(serialize.Signed, RoapMessage):
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


@dataclass(frozen=True)
class LeaveDomainResponse(serialize.Signed, RoapMessage):
    """ROAP-LeaveDomainResponse: the RI acknowledges the departure."""

    status: str
    domain_id: str
    device_nonce: bytes
    signature: bytes = b""


@dataclass(frozen=True)
class JoinDomainResponse(serialize.Signed, RoapMessage):
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
