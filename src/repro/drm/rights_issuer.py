"""The Rights Issuer (RI): sells licenses to trusted DRM Agents.

Server side of ROAP. The RI:

* answers DeviceHello with RIHello (capability negotiation),
* validates RegistrationRequests (message signature + device certificate,
  consulting the CA's revocation state) and answers with a signed
  RegistrationResponse carrying its certificate and a fresh OCSP response,
* mints protected Rights Objects on RORequest — generating ``K_REK`` and
  ``K_MAC``, wrapping ``K_CEK`` under ``K_REK``, MACing the RO and
  encapsulating ``K_MAC‖K_REK`` to the device (Device RO) or wrapping it
  under the domain key (Domain RO),
* manages domains and delivers domain keys over the PKI channel.

The RI runs on server hardware outside the terminal, so it always uses an
un-metered crypto provider: its operations never enter the cost trace the
paper's model prices.
"""

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .certificates import Certificate, CertificationAuthority, \
    verify_certificate
from .clock import SimulationClock, YEAR
from .content_issuer import LicenseGrant
from .domain import DomainManager
from .errors import AcquisitionError, CertificateRevokedError, \
    DomainError, RegistrationError
from .identifiers import DEFAULT_ALGORITHMS, ROAP_VERSION
from .ocsp import OCSPResponder
from .rel import Rights
from .ro import Asset, KEY_LENGTH, ProtectedRightsObject, RightsObject
from .roap.messages import (DeviceHello, JoinDomainRequest,
                            JoinDomainResponse, LeaveDomainRequest,
                            LeaveDomainResponse, RegistrationRequest,
                            RegistrationResponse, RIHello, ROAP_STATUS_OK,
                            RORequest, ROResponse, new_nonce)
from .roap.triggers import RoapTrigger, TriggerType, make_trigger


@dataclass(frozen=True)
class LicenseOffer:
    """One purchasable license: a rights grant over one or more contents.

    A multi-grant offer mints a multi-asset Rights Object — e.g. a whole
    album under one license (the standard's RO "list of Content Object
    IDs").
    """

    ro_id: str
    grants: Tuple[LicenseGrant, ...]
    rights: Rights

    def __post_init__(self) -> None:
        if not self.grants:
            raise ValueError("an offer covers at least one content item")


@dataclass
class _Session:
    """Server-side ROAP session state between hello and registration."""

    session_id: str
    device_id: str
    ri_nonce: bytes


@dataclass(frozen=True)
class RIDeviceContext:
    """The RI's record of one registered device.

    The server-side counterpart of the agent's
    :class:`~repro.drm.storage.RIContext`. ``context_id`` is unique per
    creation, so tests (and operators) can verify that a replayed
    RegistrationRequest did not mint a second context.
    """

    context_id: int
    device_id: str
    certificate: Certificate
    session_id: str
    registered_at: int


#: Upper bound on remembered request nonces (oldest evicted first).
REPLAY_CACHE_LIMIT = 1024


class RightsIssuer:
    """One Rights Issuer with its PKI identity and license catalog."""

    def __init__(self, ri_id: str, keypair, ca: CertificationAuthority,
                 ocsp_responder: OCSPResponder, crypto,
                 clock: SimulationClock,
                 sign_device_ros: bool = False) -> None:
        self.ri_id = ri_id
        self._keypair = keypair
        self._ca = ca
        self._ocsp = ocsp_responder
        self._crypto = crypto
        self._clock = clock
        self.certificate = ca.issue(ri_id, keypair.public_key,
                                    clock.now, validity_seconds=5 * YEAR)
        self.sign_device_ros = sign_device_ros
        self.domains = DomainManager(crypto)
        self._offers: Dict[str, LicenseOffer] = {}
        self._sessions: Dict[str, _Session] = {}
        self._contexts: Dict[str, RIDeviceContext] = {}
        self.context_log: list = []
        self._session_counter = itertools.count(1)
        self._context_counter = itertools.count(1)
        # Idempotent request handling: device_nonce -> signed response.
        # A duplicated (replayed) request gets the cached response back
        # instead of re-running its side effects, so a bearer that
        # delivers a RegistrationRequest twice cannot mint two contexts
        # (nor two differently-keyed Rights Objects for one RORequest).
        self._replay_cache: Dict[bytes, object] = {}

    # -- catalog ----------------------------------------------------------
    def add_offer(self, ro_id: str, grant, rights: Rights) -> None:
        """List a license for sale (payment is out of scope, paper §2.4.2).

        ``grant`` is one :class:`LicenseGrant` or a sequence of them (a
        multi-content license, e.g. an album).
        """
        if isinstance(grant, LicenseGrant):
            grants: Tuple[LicenseGrant, ...] = (grant,)
        else:
            grants = tuple(grant)
        self._offers[ro_id] = LicenseOffer(ro_id, grants, rights)

    # -- registered-device records ------------------------------------------
    def registered_certificate(self,
                               device_id: str) -> Optional[Certificate]:
        """The certificate of a registered device, or None."""
        context = self._contexts.get(device_id)
        return context.certificate if context is not None else None

    # -- idempotency ---------------------------------------------------------
    def _replayed(self, device_nonce: bytes):
        """The cached response for a request nonce seen before, or None."""
        return self._replay_cache.get(device_nonce)

    def _answer(self, request, unsigned):
        """Sign ``unsigned`` and cache it as the answer to ``request``."""
        response = unsigned.signed(self._crypto, self._keypair)
        if len(self._replay_cache) >= REPLAY_CACHE_LIMIT:
            oldest = next(iter(self._replay_cache))
            del self._replay_cache[oldest]
        self._replay_cache[request.device_nonce] = response
        return response

    # -- ROAP: registration -------------------------------------------------
    def hello(self, device_hello: DeviceHello) -> RIHello:
        """Pass 2 of registration: negotiate algorithms, open a session."""
        if device_hello.version != ROAP_VERSION:
            raise RegistrationError(
                "unsupported ROAP version %r" % device_hello.version
            )
        # Intersect capabilities, preferring the mandated defaults.
        selected = tuple(
            a for a in DEFAULT_ALGORITHMS
            if a in device_hello.algorithms
        )
        if len(selected) != len(DEFAULT_ALGORITHMS):
            raise RegistrationError(
                "device does not support the mandated algorithm suite"
            )
        session_id = "session-%d" % next(self._session_counter)
        session = _Session(
            session_id=session_id,
            device_id=device_hello.device_id,
            ri_nonce=new_nonce(self._crypto),
        )
        self._sessions[session_id] = session
        return RIHello(
            version=ROAP_VERSION, ri_id=self.ri_id,
            session_id=session_id, ri_nonce=session.ri_nonce,
            algorithms=selected,
        )

    def register(self, request: RegistrationRequest) -> RegistrationResponse:
        """Pass 4 of registration: validate the device, emit the response.

        Verifies the request signature against the public key in the
        device certificate, validates that certificate against the CA and
        checks revocation (the RI-side equivalent of an OCSP query).

        Idempotent under replay: a request whose nonce was already
        answered returns the original signed response without creating
        another RI context, so a bearer that duplicates the message
        cannot double-register the device.
        """
        cached = self._replayed(request.device_nonce)
        if cached is not None:
            return cached
        session = self._sessions.get(request.session_id)
        if session is None:
            raise RegistrationError(
                "unknown session %r" % request.session_id
            )
        certificate = request.certificate
        request.verify(self._crypto, certificate.public_key)
        verify_certificate(certificate, [self._ca.root_certificate],
                           self._clock.now, self._crypto)
        if self._ca.is_revoked(certificate.serial):
            raise CertificateRevokedError(
                "device certificate %d is revoked" % certificate.serial
            )
        context = RIDeviceContext(
            context_id=next(self._context_counter),
            device_id=session.device_id,
            certificate=certificate,
            session_id=request.session_id,
            registered_at=self._clock.now,
        )
        self._contexts[session.device_id] = context
        self.context_log.append(context)
        ocsp_response = self._ocsp.respond(self.certificate.serial,
                                           self._clock.now)
        return self._answer(request, RegistrationResponse(
            status=ROAP_STATUS_OK,
            session_id=request.session_id,
            device_nonce=request.device_nonce,
            ri_certificate=self.certificate,
            ocsp_response=ocsp_response,
            ri_time=self._clock.now,
        ))

    # -- ROAP: RO acquisition -----------------------------------------------
    def request_ro(self, request: RORequest) -> ROResponse:
        """2-pass RO acquisition: validate the request, mint the RO.

        Idempotent under replay: a duplicated RORequest receives the
        original response (the same minted RO) rather than a second RO
        with fresh keys.
        """
        cached = self._replayed(request.device_nonce)
        if cached is not None:
            return cached
        certificate = self.registered_certificate(request.device_id)
        if certificate is None:
            raise AcquisitionError(
                "device %r holds no registration with %r"
                % (request.device_id, self.ri_id)
            )
        request.verify(self._crypto, certificate.public_key)
        offer = self._offers.get(request.ro_id)
        if offer is None:
            raise AcquisitionError("no license %r on offer" % request.ro_id)

        if request.domain_id is not None:
            protected = self._mint_domain_ro(offer, request.domain_id,
                                             request.device_id)
        else:
            protected = self._mint_device_ro(offer,
                                             certificate.public_key)

        return self._answer(request, ROResponse(
            status=ROAP_STATUS_OK, device_nonce=request.device_nonce,
            protected_ro=protected,
        ))

    def _build_ro(self, offer: LicenseOffer, krek: bytes,
                  domain_id: Optional[str]) -> RightsObject:
        assets = tuple(
            Asset(
                content_id=grant.content_id,
                dcf_hash=grant.dcf_hash,
                wrapped_kcek=self._crypto.aes_wrap(krek, grant.kcek),
            )
            for grant in offer.grants
        )
        return RightsObject(
            ro_id=offer.ro_id,
            rights_issuer_id=self.ri_id,
            rights=offer.rights,
            assets=assets,
            issued_at=self._clock.now,
            domain_id=domain_id,
            ro_nonce=self._crypto.random_bytes(8),
        )

    def _fresh_keys(self) -> Tuple[bytes, bytes]:
        kmac = self._crypto.random_bytes(KEY_LENGTH)
        krek = self._crypto.random_bytes(KEY_LENGTH)
        return kmac, krek

    def _mint_device_ro(self, offer: LicenseOffer,
                        device_public_key) -> ProtectedRightsObject:
        """Device RO: K_MAC‖K_REK encapsulated to the device key (Fig. 3)."""
        kmac, krek = self._fresh_keys()
        ro = self._build_ro(offer, krek, domain_id=None)
        mac = self._crypto.hmac_sha1(kmac, ro.payload_bytes())
        kem_ciphertext = self._crypto.kem_encrypt(device_public_key,
                                                  kmac + krek)
        signature = None
        if self.sign_device_ros:
            signature = self._crypto.pss_sign(self._keypair,
                                              ro.payload_bytes())
        return ProtectedRightsObject(
            ro=ro, mac=mac, kem_ciphertext=kem_ciphertext,
            signature=signature,
        )

    def _mint_domain_ro(self, offer: LicenseOffer, domain_id: str,
                        device_id: str) -> ProtectedRightsObject:
        """Domain RO: keys under the domain key, signature mandatory."""
        if not self.domains.is_member(domain_id, device_id):
            raise DomainError(
                "device %r is not a member of %r" % (device_id, domain_id)
            )
        domain = self.domains.get(domain_id)
        kmac, krek = self._fresh_keys()
        ro = self._build_ro(offer, krek, domain_id=domain_id)
        mac = self._crypto.hmac_sha1(kmac, ro.payload_bytes())
        wrapped = self._crypto.aes_wrap(domain.key, kmac + krek)
        signature = self._crypto.pss_sign(self._keypair,
                                          ro.payload_bytes())
        return ProtectedRightsObject(
            ro=ro, mac=mac, domain_wrapped_keys=wrapped,
            signature=signature,
        )

    # -- ROAP: domains -------------------------------------------------------
    def create_domain(self, domain_id: str, max_members: int = 10) -> None:
        """Provision a new domain with a fresh key."""
        self.domains.create(domain_id, max_members)

    def join_domain(self, request: JoinDomainRequest) -> JoinDomainResponse:
        """2-pass domain join: enroll the device, ship the domain key.

        Idempotent under replay: a duplicated JoinDomainRequest returns
        the original response instead of consuming a second roster slot.
        """
        cached = self._replayed(request.device_nonce)
        if cached is not None:
            return cached
        certificate = self.registered_certificate(request.device_id)
        if certificate is None:
            raise DomainError(
                "device %r must register before joining a domain"
                % request.device_id
            )
        request.verify(self._crypto, certificate.public_key)
        domain = self.domains.join(request.domain_id, request.device_id)
        kem_ciphertext = self._crypto.kem_encrypt(
            certificate.public_key, domain.key
        )
        return self._answer(request, JoinDomainResponse(
            status=ROAP_STATUS_OK, domain_id=domain.domain_id,
            device_nonce=request.device_nonce,
            protected_domain_key=kem_ciphertext.concatenation(),
        ))

    def leave_domain(self,
                     request: LeaveDomainRequest) -> LeaveDomainResponse:
        """2-pass domain leave: verify the request, update the roster.

        Idempotent under replay, so a duplicated LeaveDomainRequest is
        not rejected as a not-a-member error after the first delivery
        already removed the device.
        """
        cached = self._replayed(request.device_nonce)
        if cached is not None:
            return cached
        certificate = self.registered_certificate(request.device_id)
        if certificate is None:
            raise DomainError(
                "unknown device %r cannot leave a domain"
                % request.device_id
            )
        request.verify(self._crypto, certificate.public_key)
        if not self.domains.is_member(request.domain_id,
                                      request.device_id):
            raise DomainError(
                "device %r is not a member of %r"
                % (request.device_id, request.domain_id)
            )
        self.domains.leave(request.domain_id, request.device_id)
        return self._answer(request, LeaveDomainResponse(
            status=ROAP_STATUS_OK, domain_id=request.domain_id,
            device_nonce=request.device_nonce,
        ))

    # -- ROAP: triggers -------------------------------------------------------
    def trigger(self, trigger_type: TriggerType,
                ro_id: Optional[str] = None,
                domain_id: Optional[str] = None) -> RoapTrigger:
        """Emit a signed ROAP trigger (e.g. pushed after a web purchase)."""
        return make_trigger(trigger_type, self.ri_id, self._keypair,
                            self._crypto, ro_id=ro_id,
                            domain_id=domain_id)
