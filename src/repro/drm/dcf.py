"""The DRM Content Format (DCF) — the protected-content container.

A DCF carries AES-128-CBC encrypted content alongside descriptive metadata
(author, title) and the RightsIssuerURL the user visits to obtain a
license (paper §2.2). Content confidentiality is guaranteed by never
storing the payload in clear — secure memory is scarce on a terminal, so
even small files like ringtones stay encrypted at rest, which is exactly
why every access pays the full decrypt + hash cost the paper models.

The Rights Object binds itself to the DCF by embedding a SHA-1 hash of the
whole DCF; :meth:`DCF.to_bytes` is the canonical form that hash covers.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from . import serialize

#: The encryption method every DCF in this model uses.
ENCRYPTION_METHOD = "AES_128_CBC"


@dataclass(frozen=True)
class DCF:
    """One protected content object."""

    content_id: str
    content_type: str
    encryption_method: str
    iv: bytes
    encrypted_data: bytes
    rights_issuer_url: str
    metadata: Dict[str, str] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        """Canonical byte form — what the RO's DCF hash covers."""
        return serialize.encode({
            "content_id": self.content_id,
            "content_type": self.content_type,
            "encryption_method": self.encryption_method,
            "iv": self.iv,
            "encrypted_data": self.encrypted_data,
            "rights_issuer_url": self.rights_issuer_url,
            "metadata": dict(self.metadata),
        })

    def with_tampered_payload(self) -> "DCF":
        """A copy with one payload bit flipped — for integrity tests."""
        corrupted = bytearray(self.encrypted_data)
        corrupted[len(corrupted) // 2] ^= 0x01
        return DCF(
            content_id=self.content_id,
            content_type=self.content_type,
            encryption_method=self.encryption_method,
            iv=self.iv,
            encrypted_data=bytes(corrupted),
            rights_issuer_url=self.rights_issuer_url,
            metadata=dict(self.metadata),
        )


@dataclass(frozen=True)
class PreviewContainer:
    """An unprotected preview inside a DCF.

    The DCF format lets the Content Issuer embed a rights-free preview
    (a low-quality clip or a few seconds of audio) alongside the
    protected payload, so the user can sample content before visiting
    the RightsIssuerURL. Previews are stored in clear — they cost the
    terminal no cryptographic work, which is why they never appear in
    the cost trace.
    """

    content_type: str
    data: bytes

    def describe(self) -> dict:
        """Canonical-encodable representation."""
        return {"content_type": self.content_type, "data": self.data}


@dataclass(frozen=True)
class MultipartDCF:
    """A DCF file carrying several content objects (paper §2.2:
    "one or more containers").

    Each container is a complete :class:`DCF`; an optional preview
    container is accessible without any Rights Object.
    """

    containers: Tuple[DCF, ...]
    preview: Optional[PreviewContainer] = None

    def __post_init__(self) -> None:
        if not self.containers:
            raise ValueError("a multipart DCF holds at least one container")
        ids = [c.content_id for c in self.containers]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate content ids in multipart DCF")

    def to_bytes(self) -> bytes:
        """Canonical byte form of the whole multipart file."""
        return serialize.encode({
            "containers": [c.to_bytes() for c in self.containers],
            "preview": (self.preview.describe()
                        if self.preview is not None else None),
        })

    def container(self, content_id: str) -> DCF:
        """The container holding ``content_id``; raises KeyError."""
        for candidate in self.containers:
            if candidate.content_id == content_id:
                return candidate
        raise KeyError("no container for %r" % content_id)

    @property
    def content_ids(self) -> Tuple[str, ...]:
        """IDs of all protected content objects, in file order."""
        return tuple(c.content_id for c in self.containers)


def package_content(content_id: str, content_type: str, clear_content: bytes,
                    kcek: bytes, rights_issuer_url: str, crypto,
                    metadata: Dict[str, str] = None) -> DCF:
    """Encrypt ``clear_content`` under ``kcek`` into a DCF.

    This is the Content Issuer's packaging step; the paper's cost model
    never charges it to the terminal, so callers on the CI side use an
    un-metered provider.
    """
    iv = crypto.random_bytes(16)
    encrypted = crypto.aes_cbc_encrypt(kcek, iv, clear_content)
    return DCF(
        content_id=content_id,
        content_type=content_type,
        encryption_method=ENCRYPTION_METHOD,
        iv=iv,
        encrypted_data=encrypted,
        rights_issuer_url=rights_issuer_url,
        metadata=dict(metadata or {}),
    )
