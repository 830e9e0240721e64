"""ROAP Triggers: RI-initiated protocol starts.

The DRM specification lets the Rights Issuer push a small signed *trigger*
to the device (typically over WAP push or in a browsing session); on
reception the DRM Agent initiates the indicated ROAP exchange. Triggers
are what make the "buy on the web, rights arrive on the phone" flow work.

Trigger types modeled: registrationRequest, roAcquisition, joinDomain,
leaveDomain. The agent-side dispatcher lives in
:meth:`repro.drm.agent.DRMAgent.handle_trigger`.
"""

import enum
from dataclasses import dataclass
from typing import Optional

from .. import serialize
from .messages import RoapMessage


class TriggerType(enum.Enum):
    """The ROAP exchanges a trigger can initiate."""

    REGISTRATION = "registrationRequest"
    RO_ACQUISITION = "roAcquisition"
    JOIN_DOMAIN = "joinDomain"
    LEAVE_DOMAIN = "leaveDomain"


@dataclass(frozen=True)
class RoapTrigger(serialize.Signed, RoapMessage):
    """A signed invitation from the RI to start a ROAP exchange."""

    type: TriggerType
    ri_id: str
    ro_id: Optional[str] = None
    domain_id: Optional[str] = None
    nonce: bytes = b""
    signature: bytes = b""

    def __post_init__(self) -> None:
        if self.type is TriggerType.RO_ACQUISITION and self.ro_id is None:
            raise ValueError("an roAcquisition trigger names an RO")
        if self.type in (TriggerType.JOIN_DOMAIN,
                         TriggerType.LEAVE_DOMAIN) \
                and self.domain_id is None:
            raise ValueError("domain triggers name a domain")


def make_trigger(trigger_type: TriggerType, ri_id: str, keypair, crypto,
                 ro_id: Optional[str] = None,
                 domain_id: Optional[str] = None) -> RoapTrigger:
    """Build and sign a trigger (RI side)."""
    return RoapTrigger(
        type=trigger_type, ri_id=ri_id, ro_id=ro_id,
        domain_id=domain_id, nonce=crypto.random_bytes(14),
    ).signed(crypto, keypair)
