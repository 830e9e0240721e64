"""Rights Objects: the license structure and its protected forms.

A Rights Object (RO) couples usage rights with the key chain of paper
Figure 2:

* each protected content item appears as an :class:`Asset`: its content
  ID, the DCF hash that binds rights to content, and ``K_CEK`` wrapped
  under ``K_REK`` — the paper's §2.4.2: the RO "contains a list of
  Content Object IDs and their respective usage permissions". The
  two-layer encryption decouples content from rights, so the RI can mint
  many licenses for one DCF without re-encrypting it;
* ``K_MAC ‖ K_REK`` travel inside ``C = C1 ‖ C2`` — for a Device RO
  encapsulated to the DRM Agent's public key via the Figure 3 KEM chain,
  for a Domain RO wrapped under the shared symmetric domain key;
* the RO's integrity and authenticity are protected by an HMAC-SHA1 MAC
  under ``K_MAC``.

After installation, the device re-wraps ``K_MAC ‖ K_REK`` under its own
``K_DEV`` into ``C2dev`` (paper §2.4.3): the PKI algorithm's purpose —
letting two strangers share a secret — is no longer needed once the RO is
bound to this device, so a cheap symmetric wrap replaces it.
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..crypto.kem import KemCiphertext
from . import serialize
from .errors import UnknownContentError
from .rel import Rights, RightsState

#: Lengths of the RO protection keys (128-bit AES / HMAC keys).
KEY_LENGTH = 16


@dataclass(frozen=True)
class Asset:
    """One protected content item inside a Rights Object."""

    content_id: str
    dcf_hash: bytes
    wrapped_kcek: bytes

    def describe(self) -> dict:
        """Canonical-encodable representation."""
        return {
            "content_id": self.content_id,
            "dcf_hash": self.dcf_hash,
            "wrapped_kcek": self.wrapped_kcek,
        }


@dataclass(frozen=True)
class RightsObject:
    """The MAC-protected license payload.

    ``wrapped_kcek`` stays under ``K_REK`` even after installation
    (paper §2.4.3: there may be several ROs per DCF, so the agent tracks
    the association anyway).
    """

    ro_id: str
    rights_issuer_id: str
    rights: Rights
    assets: Tuple[Asset, ...]
    issued_at: int
    domain_id: Optional[str] = None
    #: Fresh per mint; (ro_id, ro_nonce) is the replay-cache identity, so
    #: re-installing a stateful RO to reset its counts is detectable.
    ro_nonce: bytes = b""

    def __post_init__(self) -> None:
        if not self.assets:
            raise ValueError("a Rights Object covers at least one asset")

    @classmethod
    def single(cls, ro_id: str, content_id: str, rights_issuer_id: str,
               rights: Rights, dcf_hash: bytes, wrapped_kcek: bytes,
               issued_at: int, domain_id: Optional[str] = None,
               ro_nonce: bytes = b"") -> "RightsObject":
        """The common one-content license."""
        return cls(
            ro_id=ro_id, rights_issuer_id=rights_issuer_id,
            rights=rights,
            assets=(Asset(content_id, dcf_hash, wrapped_kcek),),
            issued_at=issued_at, domain_id=domain_id, ro_nonce=ro_nonce,
        )

    # -- multi-asset interface ------------------------------------------------
    def covers(self, content_id: str) -> bool:
        """Whether this license grants rights over ``content_id``."""
        return any(a.content_id == content_id for a in self.assets)

    def asset_for(self, content_id: str) -> Asset:
        """The asset entry for ``content_id``; raises if not covered."""
        for asset in self.assets:
            if asset.content_id == content_id:
                return asset
        raise UnknownContentError(
            "Rights Object %r does not cover %r"
            % (self.ro_id, content_id)
        )

    def payload_bytes(self) -> bytes:
        """Canonical bytes covered by the MAC (and the RO signature)."""
        return serialize.encode({
            "ro_id": self.ro_id,
            "rights_issuer_id": self.rights_issuer_id,
            "rights": self.rights.to_bytes(),
            "assets": [a.describe() for a in self.assets],
            "issued_at": self.issued_at,
            "domain_id": self.domain_id,
            "ro_nonce": self.ro_nonce,
        })

    @property
    def guid(self) -> tuple:
        """The replay-cache identity of this specific minted RO."""
        return (self.ro_id, self.ro_nonce)

    @property
    def is_domain_ro(self) -> bool:
        """Whether this license targets a domain rather than one device."""
        return self.domain_id is not None


@dataclass(frozen=True)
class ProtectedRightsObject:
    """A Rights Object as delivered inside the ROResponse.

    Exactly one of ``kem_ciphertext`` (Device RO — Figure 3's ``C``) and
    ``domain_wrapped_keys`` (Domain RO — ``K_MAC‖K_REK`` AES-wrapped under
    the domain key) is set. ``signature`` is the RI's signature over the
    RO payload: mandatory for Domain ROs, optional for Device ROs
    (paper §2.4.3).
    """

    ro: RightsObject
    mac: bytes
    kem_ciphertext: Optional[KemCiphertext] = None
    domain_wrapped_keys: Optional[bytes] = None
    signature: Optional[bytes] = None

    def __post_init__(self) -> None:
        has_kem = self.kem_ciphertext is not None
        has_domain = self.domain_wrapped_keys is not None
        if has_kem == has_domain:
            raise ValueError(
                "a protected RO carries either a KEM ciphertext (device) "
                "or domain-wrapped keys, never both or neither"
            )
        if self.ro.is_domain_ro and self.signature is None:
            raise ValueError("Domain ROs must be signed (OMA DRM 2)")

    def to_bytes(self) -> bytes:
        """Canonical transport bytes (what the ROResponse carries)."""
        kem_blob = (self.kem_ciphertext.concatenation()
                    if self.kem_ciphertext is not None else None)
        return serialize.encode({
            "ro": self.ro.payload_bytes(),
            "mac": self.mac,
            "kem": kem_blob,
            "domain_wrapped": self.domain_wrapped_keys,
            "signature": self.signature,
        })


@dataclass
class InstalledRightsObject:
    """A Rights Object at rest on the device after installation.

    ``c2dev`` holds ``K_MAC ‖ K_REK`` wrapped under the device key, so the
    whole record can live in ordinary (insecure) storage; ``state`` is the
    mutable constraint state (remaining counts, first-use times).

    When the agent's K_DEV optimization is disabled (the ablation
    counterfactual the paper argues against), ``c2dev`` is None and
    ``kem_ciphertext`` retains the original PKI-protected ``C`` instead —
    forcing an RSA private-key operation on every access.
    """

    ro: RightsObject
    c2dev: Optional[bytes]
    mac: bytes
    kem_ciphertext: Optional[KemCiphertext] = None
    state: RightsState = field(default_factory=RightsState)

    def __post_init__(self) -> None:
        if (self.c2dev is None) == (self.kem_ciphertext is None):
            raise ValueError(
                "an installed RO keeps either C2dev (K_DEV optimization) "
                "or the original KEM ciphertext, exactly one of the two"
            )

    @property
    def ro_id(self) -> str:
        """Convenience accessor for indexing by RO identifier."""
        return self.ro.ro_id

    def covers(self, content_id: str) -> bool:
        """Whether this installed license covers ``content_id``."""
        return self.ro.covers(content_id)
