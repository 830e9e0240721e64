"""Wire codecs: every ROAP message to bytes and back.

The rest of the protocol stack passes message *objects*; this module
provides the byte-level transport layer, derived from the message
dataclasses: :data:`MESSAGE_TYPES` lists every wire type once, each field
travels under its own name, and its type picks its ``(to_wire,
from_wire)`` pair. A decoded object's canonical bytes are identical to
the original's — so signatures made before transport verify after it.

:class:`WireChannel` wraps a Rights Issuer behind a byte pipe: every
request and response is round-tripped through ``encode``/``decode`` and
its size recorded in a :class:`MessageLog`. The paper's authors extracted
"information about eg the ROAP message file sizes" from their Java model;
running an agent against a ``WireChannel`` produces the same artifact
here.
"""

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from ...crypto.kem import KemCiphertext
from .. import serialize
from ..errors import WireDecodeError
from ..certificates import Certificate, certificate_from_bytes
from ..ocsp import OCSPResponse, ocsp_response_from_bytes
from ..rel import rights_from_bytes
from ..ro import Asset, ProtectedRightsObject, RightsObject
from . import messages
from .triggers import RoapTrigger, TriggerType


# -- Rights Object / protected RO codecs -------------------------------------

def rights_object_from_payload(blob: bytes) -> RightsObject:
    """Inverse of :meth:`RightsObject.payload_bytes`."""
    data = serialize.decode(blob)
    return RightsObject(
        ro_id=data["ro_id"],
        rights_issuer_id=data["rights_issuer_id"],
        rights=rights_from_bytes(data["rights"]),
        assets=tuple(
            Asset(content_id=a["content_id"], dcf_hash=a["dcf_hash"],
                  wrapped_kcek=a["wrapped_kcek"])
            for a in data["assets"]
        ),
        issued_at=int(data["issued_at"]),
        domain_id=data["domain_id"],
        ro_nonce=data["ro_nonce"],
    )


def protected_ro_to_wire(protected: ProtectedRightsObject) -> dict:
    """A fully invertible wire form (C1/C2 kept separate)."""
    return {
        "ro_payload": protected.ro.payload_bytes(),
        "mac": protected.mac,
        "kem_c1": (protected.kem_ciphertext.c1
                   if protected.kem_ciphertext else None),
        "kem_c2": (protected.kem_ciphertext.c2
                   if protected.kem_ciphertext else None),
        "domain_wrapped": protected.domain_wrapped_keys,
        "signature": protected.signature,
    }


def protected_ro_from_wire(data: dict) -> ProtectedRightsObject:
    """Inverse of :func:`protected_ro_to_wire`."""
    kem = None
    if data["kem_c1"] is not None:
        kem = KemCiphertext(c1=data["kem_c1"], c2=data["kem_c2"])
    return ProtectedRightsObject(
        ro=rights_object_from_payload(data["ro_payload"]),
        mac=data["mac"],
        kem_ciphertext=kem,
        domain_wrapped_keys=data["domain_wrapped"],
        signature=data["signature"],
    )


# -- message codecs ----------------------------------------------------------

#: Every type that crosses the wire, keyed by its tag (the class name).
MESSAGE_TYPES: Dict[str, type] = {cls.__name__: cls for cls in (
    messages.DeviceHello, messages.RIHello,
    messages.RegistrationRequest, messages.RegistrationResponse,
    messages.RORequest, messages.ROResponse,
    messages.JoinDomainRequest, messages.JoinDomainResponse,
    messages.LeaveDomainRequest, messages.LeaveDomainResponse,
    RoapTrigger,
)}

#: Field type -> ``(to_wire, from_wire)``; ``None`` carries the value as
#: is, and so does every field type not listed here.
_FIELD_CODECS: Dict[Any, Tuple[Optional[Callable], Optional[Callable]]] = {
    int: (None, int),
    Tuple[str, ...]: (None, tuple),
    Certificate: (Certificate.to_bytes, certificate_from_bytes),
    OCSPResponse: (OCSPResponse.to_bytes, ocsp_response_from_bytes),
    ProtectedRightsObject: (protected_ro_to_wire, protected_ro_from_wire),
    TriggerType: (attrgetter("value"), TriggerType),
}


def _field_plan(cls) -> tuple:
    """``(name, to_wire, from_wire)`` for every field of ``cls``."""
    return tuple((f.name,) + _FIELD_CODECS.get(f.type, (None, None))
                 for f in fields(cls))


#: Tag -> field plan, built once at import.
_PLANS = {name: _field_plan(cls) for name, cls in MESSAGE_TYPES.items()}


def encode_message(message: Any) -> bytes:
    """Serialize any ROAP message (or trigger) to transport bytes."""
    name = type(message).__name__
    if name not in _PLANS:
        raise TypeError("no wire encoding for %s" % name)
    body = {}
    for field_name, to_wire, _ in _PLANS[name]:
        value = getattr(message, field_name)
        body[field_name] = value if to_wire is None else to_wire(value)
    return serialize.encode({"roap": name, "body": body})


def decode_message(blob: bytes) -> Any:
    """Rebuild a ROAP message from transport bytes.

    Raises :class:`~repro.drm.errors.WireDecodeError` for unknown tags
    or malformed bodies — a corrupted transport fails loudly, with one
    typed exception, before any crypto runs. A truncated, bit-flipped or
    otherwise garbled blob can therefore always be handled by catching
    ``WireDecodeError`` alone.
    """
    data = serialize.decode(blob)
    if not isinstance(data, dict) or "roap" not in data:
        raise WireDecodeError("not a ROAP wire message")
    name = data["roap"]
    if not isinstance(name, str) or name not in _PLANS:
        raise WireDecodeError("unknown ROAP message %r" % (name,))
    try:
        body = data["body"]
        kwargs = {}
        for field_name, _, from_wire in _PLANS[name]:
            value = body[field_name]
            kwargs[field_name] = \
                value if from_wire is None else from_wire(value)
        return MESSAGE_TYPES[name](**kwargs)
    except WireDecodeError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError,
            OverflowError) as exc:
        raise WireDecodeError("malformed %s body" % name) from exc


# -- logged transport ---------------------------------------------------------

@dataclass(frozen=True)
class WireRecord:
    """One message that crossed the wire."""

    direction: str  # "device->ri" or "ri->device"
    message: str
    octets: int


@dataclass
class MessageLog:
    """Sizes of everything that crossed the wire, in order."""

    records: List[WireRecord] = field(default_factory=list)

    def add(self, direction: str, message: Any, blob: bytes) -> None:
        """Record one transmission."""
        self.records.append(WireRecord(
            direction=direction, message=type(message).__name__,
            octets=len(blob),
        ))

    def total_octets(self) -> int:
        """Total traffic volume."""
        return sum(r.octets for r in self.records)

    def by_message(self) -> Dict[str, Tuple[int, int]]:
        """Message name -> (count, total octets)."""
        totals: Dict[str, Tuple[int, int]] = {}
        for record in self.records:
            count, octets = totals.get(record.message, (0, 0))
            totals[record.message] = (count + 1, octets + record.octets)
        return totals


class WireChannel:
    """A Rights Issuer seen through a byte pipe.

    Exposes the same protocol surface as :class:`RightsIssuer`, but every
    request and response is serialized, logged and decoded — the agent on
    one side and the RI on the other only ever see reconstructed objects,
    exactly as over a real network.
    """

    def __init__(self, rights_issuer) -> None:
        self._ri = rights_issuer
        self.log = MessageLog()

    @property
    def ri_id(self) -> str:
        """The wrapped RI's identity."""
        return self._ri.ri_id

    def _roundtrip(self, handler, request):
        request_blob = encode_message(request)
        self.log.add("device->ri", request, request_blob)
        response_blob = self._deliver(handler, request, request_blob)
        return decode_message(response_blob)

    def _deliver(self, handler, request, request_blob):
        """Carry one request blob to the RI and its response blob back.

        The single transport hook: subclasses (the fault-injecting
        channel) override this to perturb, drop, duplicate or delay
        either direction while the protocol surface stays identical.
        """
        response = handler(decode_message(request_blob))
        response_blob = encode_message(response)
        self.log.add("ri->device", response, response_blob)
        return response_blob

    def hello(self, device_hello):
        """DeviceHello over the wire."""
        return self._roundtrip(self._ri.hello, device_hello)

    def register(self, request):
        """RegistrationRequest over the wire."""
        return self._roundtrip(self._ri.register, request)

    def request_ro(self, request):
        """RORequest over the wire."""
        return self._roundtrip(self._ri.request_ro, request)

    def join_domain(self, request):
        """JoinDomainRequest over the wire."""
        return self._roundtrip(self._ri.join_domain, request)

    def leave_domain(self, request):
        """LeaveDomainRequest over the wire."""
        return self._roundtrip(self._ri.leave_domain, request)
