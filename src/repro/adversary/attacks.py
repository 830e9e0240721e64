"""The attack corpus: an active man-in-the-middle on the ROAP bearer.

:class:`AdversaryChannel` wraps a Rights Issuer exactly like
:class:`~repro.drm.roap.wire.WireChannel`, but a seeded attacker sits on
the downlink: every response can be captured, tampered, substituted or
replayed before the terminal sees it. The attacker owns the wire — and
nothing else: no RI private key, no device key, no trust anchor. Each
:class:`AttackKind` is one catalogued strategy from that position.

The corpus is the *offensive* half of the zero-acceptance invariant
(:mod:`repro.adversary.sweep` is the harness): for every attack the
terminal must reject the flow — by signature, certificate chain, OCSP
freshness, nonce echo, MAC or DRM-time policy — and install nothing.

Determinism contract: the attacker's randomness (garbage signatures,
swapped nonces, its own PKI) derives from one seed string through
:class:`~repro.crypto.rng.HmacDrbg`, and attacks mount at fixed protocol
steps — the same seed therefore produces byte-identical attacked runs.
"""

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..crypto.kem import KemCiphertext
from ..crypto.rng import HmacDrbg
from ..crypto.rsa import generate_keypair
from ..core.meter import PlainCrypto
from ..drm.certificates import CertificationAuthority
from ..drm.clock import DAY
from ..drm.rel import play_count
from ..drm.roap.messages import NONCE_LENGTH
from ..drm.roap.wire import WireChannel, encode_message

#: Modulus size of the attacker's own PKI. Small on purpose: the
#: attacker's signatures must *fail* trust checks regardless of size,
#: and key generation cost is pure overhead for the harness.
ATTACKER_RSA_BITS = 512


class AttackKind(enum.Enum):
    """Every catalogued man-in-the-middle strategy."""

    #: Replace the response signature with attacker-chosen bytes.
    FORGE_SIGNATURE = "forge-signature"
    #: Amplify the rights inside a delivered RO (keep MAC/signature).
    TAMPER_RO_RIGHTS = "tamper-ro-rights"
    #: Corrupt the encapsulated key material (C2 of the KEM chain).
    TAMPER_CEK = "tamper-cek"
    #: Replay a previously captured response of the same type.
    REPLAY_RESPONSE = "replay-response"
    #: Replace the nonce echo with an attacker-chosen nonce.
    SWAP_NONCE = "swap-nonce"
    #: Substitute an OCSP response captured before a revocation.
    STALE_OCSP = "stale-ocsp"
    #: Substitute a future-dated OCSP response (pre-signed for later).
    FUTURE_OCSP = "future-ocsp"
    #: Downgrade the negotiated protocol version in RIHello.
    DOWNGRADE_VERSION = "downgrade-version"
    #: Deliver a response minted for a *different* device.
    WRONG_RECIPIENT = "wrong-recipient"
    #: Re-sign the response under the attacker's own CA and certificate.
    CERT_SUBSTITUTION = "cert-substitution"
    #: Rewrite ``ri_time`` to wind the terminal's DRM Time backwards.
    TIME_ROLLBACK = "time-rollback"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The full corpus, in enum declaration order (the sweep order).
ALL_ATTACKS = tuple(AttackKind)


@dataclass(frozen=True)
class MountedAttack:
    """One attack the adversary actually mounted on one response."""

    sequence: int
    message: str
    kind: AttackKind
    detail: str = ""


@dataclass
class AttackLog:
    """Everything the adversary did to this channel, in order."""

    events: List[MountedAttack] = field(default_factory=list)

    def add(self, message: str, kind: AttackKind,
            detail: str = "") -> MountedAttack:
        """Record one mounted attack."""
        event = MountedAttack(sequence=len(self.events), message=message,
                              kind=kind, detail=detail)
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

    def count(self, kind: Optional[AttackKind] = None) -> int:
        """Number of mounted attacks, optionally of one kind."""
        if kind is None:
            return len(self.events)
        return sum(1 for event in self.events if event.kind is kind)


class AdversaryChannel(WireChannel):
    """A Rights Issuer seen through a hostile wire.

    While ``armed`` is False the channel behaves like a plain
    :class:`WireChannel` that additionally *captures* every downlink
    response (the attacker's recorder). Once armed with an
    :class:`AttackKind`, every subsequent response of the attack's
    target type is perturbed accordingly. Capture-then-arm is how
    replay, wrong-recipient and stale-OCSP substitutions obtain their
    material, exactly as a real recording attacker would.
    """

    def __init__(self, rights_issuer, seed: str = "adversary") -> None:
        super().__init__(rights_issuer)
        self.seed = seed
        self.armed: Optional[AttackKind] = None
        self.attacks = AttackLog()
        #: Response objects by message type name, in capture order.
        self.captured: Dict[str, List[object]] = {}
        #: Cross-channel capture store for WRONG_RECIPIENT: responses
        #: recorded from a *different* device's channel.
        self.foreign_captures: Dict[str, List[object]] = {}
        self._drbg = HmacDrbg(("%s/mitm" % seed).encode())
        self._pki: Optional[tuple] = None

    # -- attacker identity -------------------------------------------------
    def _attacker_pki(self):
        """The attacker's own CA and RI keypair (lazily generated)."""
        if self._pki is None:
            crypto = PlainCrypto(
                HmacDrbg(("%s/pki" % self.seed).encode()))
            ca_keys = generate_keypair(ATTACKER_RSA_BITS, crypto.rng)
            ca = CertificationAuthority("evil-root", ca_keys, crypto)
            ri_keys = generate_keypair(ATTACKER_RSA_BITS, crypto.rng)
            self._pki = (crypto, ca, ri_keys)
        return self._pki

    def _garbage(self, length: int) -> bytes:
        """Deterministic attacker-chosen bytes of ``length`` octets."""
        return self._drbg.random_bytes(length)

    # -- capture management ------------------------------------------------
    def arm(self, attack: AttackKind) -> None:
        """Start mounting ``attack`` on every matching response."""
        self.armed = attack

    def disarm(self) -> None:
        """Stop attacking (captures continue)."""
        self.armed = None

    def record_foreign(self, channel: "AdversaryChannel") -> None:
        """Adopt another channel's captures (wrong-recipient material)."""
        for name, responses in channel.captured.items():
            self.foreign_captures.setdefault(name, []).extend(responses)

    def _capture(self, response) -> None:
        self.captured.setdefault(type(response).__name__,
                                 []).append(response)

    # -- transport ---------------------------------------------------------
    def _deliver(self, handler, request, request_blob):
        from ..drm.roap.wire import decode_message
        response = handler(decode_message(request_blob))
        self._capture(response)
        if self.armed is not None:
            response = self._mount(self.armed, response)
        response_blob = encode_message(response)
        self.log.add("ri->device", response, response_blob)
        return response_blob

    # -- the corpus --------------------------------------------------------
    def _mount(self, kind: AttackKind, response):
        """Apply one attack to one response object (or pass it through)."""
        name = type(response).__name__
        mutate = _MUTATIONS.get((kind, name))
        if mutate is None:
            return response
        mutated = mutate(self, response)
        if mutated is response:
            return response
        self.attacks.add(name, kind)
        return mutated

    # Individual strategies. Each takes (channel, response) and returns
    # the perturbed response object; returning the input unchanged means
    # the attack had nothing to work with at this step (e.g. no prior
    # capture to replay) and nothing is logged.

    def _forge_signature(self, response):
        return dataclasses.replace(
            response, signature=self._garbage(len(response.signature)))

    def _tamper_ro_rights(self, response):
        amplified = dataclasses.replace(
            response.protected_ro.ro, rights=play_count(10 ** 9))
        protected = dataclasses.replace(response.protected_ro,
                                        ro=amplified)
        return dataclasses.replace(response, protected_ro=protected)

    def _tamper_cek(self, response):
        protected = response.protected_ro
        if protected.kem_ciphertext is not None:
            c2 = bytearray(protected.kem_ciphertext.c2)
            c2[0] ^= 0x01
            tampered = dataclasses.replace(
                protected, kem_ciphertext=KemCiphertext(
                    c1=protected.kem_ciphertext.c1, c2=bytes(c2)))
        else:
            wrapped = bytearray(protected.domain_wrapped_keys)
            wrapped[0] ^= 0x01
            tampered = dataclasses.replace(
                protected, domain_wrapped_keys=bytes(wrapped))
        return dataclasses.replace(response, protected_ro=tampered)

    def _replay_response(self, response):
        history = self.captured.get(type(response).__name__, [])
        if len(history) < 2:  # only the fresh response itself
            return response
        return history[0]

    def _swap_nonce(self, response):
        return dataclasses.replace(
            response, device_nonce=self._garbage(NONCE_LENGTH))

    def _stale_ocsp(self, response):
        history = self.captured.get("RegistrationResponse", [])
        if len(history) < 2:
            return response
        return dataclasses.replace(
            response, ocsp_response=history[0].ocsp_response)

    def _future_ocsp(self, response):
        crypto, _, ri_keys = self._attacker_pki()
        genuine = response.ocsp_response
        forged = dataclasses.replace(
            genuine, produced_at=genuine.produced_at + 30 * DAY,
            next_update=genuine.next_update + 60 * DAY,
        ).signed(crypto, ri_keys)
        return dataclasses.replace(response, ocsp_response=forged)

    def _downgrade_version(self, response):
        return dataclasses.replace(response, version="1.0")

    def _wrong_recipient(self, response):
        foreign = self.foreign_captures.get(type(response).__name__, [])
        if not foreign:
            return response
        return foreign[0]

    def _cert_substitution(self, response):
        crypto, ca, ri_keys = self._attacker_pki()
        certificate = ca.issue(response.ri_certificate.subject,
                               ri_keys.public_key,
                               response.ri_certificate.not_before)
        return dataclasses.replace(
            response, ri_certificate=certificate).signed(crypto, ri_keys)

    def _time_rollback(self, response):
        return dataclasses.replace(
            response, ri_time=max(0, response.ri_time - 30 * DAY))


#: (attack kind, message type) -> mutation. An attack only fires on the
#: message type it targets; other responses pass through untouched, so
#: one armed channel perturbs exactly one protocol step per flow.
_MUTATIONS = {
    (AttackKind.FORGE_SIGNATURE, "RegistrationResponse"):
        AdversaryChannel._forge_signature,
    (AttackKind.FORGE_SIGNATURE, "ROResponse"):
        AdversaryChannel._forge_signature,
    (AttackKind.FORGE_SIGNATURE, "JoinDomainResponse"):
        AdversaryChannel._forge_signature,
    (AttackKind.TAMPER_RO_RIGHTS, "ROResponse"):
        AdversaryChannel._tamper_ro_rights,
    (AttackKind.TAMPER_CEK, "ROResponse"):
        AdversaryChannel._tamper_cek,
    (AttackKind.REPLAY_RESPONSE, "RegistrationResponse"):
        AdversaryChannel._replay_response,
    (AttackKind.REPLAY_RESPONSE, "ROResponse"):
        AdversaryChannel._replay_response,
    (AttackKind.SWAP_NONCE, "RegistrationResponse"):
        AdversaryChannel._swap_nonce,
    (AttackKind.SWAP_NONCE, "ROResponse"):
        AdversaryChannel._swap_nonce,
    (AttackKind.STALE_OCSP, "RegistrationResponse"):
        AdversaryChannel._stale_ocsp,
    (AttackKind.FUTURE_OCSP, "RegistrationResponse"):
        AdversaryChannel._future_ocsp,
    (AttackKind.DOWNGRADE_VERSION, "RIHello"):
        AdversaryChannel._downgrade_version,
    (AttackKind.WRONG_RECIPIENT, "RegistrationResponse"):
        AdversaryChannel._wrong_recipient,
    (AttackKind.WRONG_RECIPIENT, "ROResponse"):
        AdversaryChannel._wrong_recipient,
    (AttackKind.CERT_SUBSTITUTION, "RegistrationResponse"):
        AdversaryChannel._cert_substitution,
    (AttackKind.TIME_ROLLBACK, "RegistrationResponse"):
        AdversaryChannel._time_rollback,
}
