"""The DRM Agent — the trusted entity in the user's terminal.

This is the terminal side of the paper's four phases (§2.4), and the
component whose cryptographic work the cost model prices. When constructed
with a :class:`~repro.core.meter.MeteredCrypto` provider, every method tags
its operations with the proper :class:`~repro.core.trace.Phase`:

* :meth:`register` — 4-pass ROAP: sign the RegistrationRequest (1 RSA
  private op), verify the RegistrationResponse signature, the RI
  certificate and the OCSP response (3 RSA public ops).
* :meth:`acquire` — 2-pass RO acquisition: sign the RORequest (1 private),
  verify the ROResponse signature (1 public).
* :meth:`install` — unwrap the Figure 3 chain: RSADP on ``C1`` (1
  private), KDF2, AES-UNWRAP of ``C2``; verify the RO MAC; verify the RO
  signature if present; re-wrap ``K_MAC‖K_REK`` under ``K_DEV`` into
  ``C2dev``.
* :meth:`consume` — per access: unwrap ``C2dev``, verify the RO MAC,
  verify the DCF hash, unwrap ``K_CEK`` and decrypt the content.

The OCSP responder's certificate is provisioned as a trust anchor together
with the CA root (verified once at manufacture), so a registration costs
exactly the paper's three public-key verifications.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional

from ..core.trace import Phase
from ..crypto.errors import CryptoError
from ..obs.tracer import NULL_TRACER
from .certificates import Certificate, verify_certificate
from ..crypto.kem import KemCiphertext
from .clock import SimulationClock, YEAR
from .dcf import DCF, MultipartDCF
from .errors import (AcquisitionError, InstallationError, IntegrityError,
                     NonceMismatchError, PermissionDeniedError,
                     RegistrationError, TrustError)
from .identifiers import DEFAULT_ALGORITHMS, ROAP_VERSION
from .ocsp import verify_ocsp_response
from .rel import (ExportConstraint, ExportMode, PermissionType,
                  RightsEvaluator)
from .ro import InstalledRightsObject, ProtectedRightsObject
from .roap.messages import (DeviceHello, JoinDomainRequest,
                            LeaveDomainRequest, RegistrationRequest,
                            ROAP_STATUS_OK, RORequest, new_nonce)
from .roap.triggers import RoapTrigger, TriggerType
from .storage import (DeviceStorage, DomainContext, RIContext,
                      SecureStorage)
from ..store.crash import StoreError
from ..store.recovery import RecoveryReport
from ..store.transactional import TransactionalStorage

#: Device key length (128-bit AES key in secure storage).
KDEV_LENGTH = 16

#: How long an RI Context stays valid before re-registration.
RI_CONTEXT_LIFETIME = 1 * YEAR

#: Largest *backward* DRM-time correction a registration may apply.
#: Resync exists to cure drift (seconds to minutes of skew per year);
#: an RI time that would wind DRM Time back further than this is either
#: a broken RI or an attacker stretching datetime constraints, and the
#: agent refuses to adopt it. Forward corrections are unbounded — moving
#: time forward only ever *shrinks* what rights allow.
MAX_TIME_ROLLBACK_SECONDS = 1 * 86_400


@dataclass(frozen=True)
class ConsumptionResult:
    """One successful content access: the clear content plus bookkeeping."""

    content_id: str
    ro_id: str
    clear_content: bytes
    permission: PermissionType


@dataclass(frozen=True)
class ExportResult:
    """One successful export to another DRM system.

    ``clear_content`` is handed to the target system's re-protection
    step (outside this model's scope); ``mode`` records whether local
    rights were kept (copy) or surrendered (move).
    """

    content_id: str
    target_system: str
    mode: "ExportMode"
    clear_content: bytes


class DRMAgent:
    """A DRM Agent bound to one device identity.

    ``verify_dcf_on_install`` controls whether the agent checks the DCF
    hash already at installation (in addition to the per-access check the
    paper mandates); the paper's use-case totals are consistent with
    checking at consumption only, so the default is False.
    """

    def __init__(self, device_id: str, keypair, certificate: Certificate,
                 trust_anchors: Iterable[Certificate], crypto,
                 clock: SimulationClock,
                 verify_dcf_on_install: bool = False,
                 kdev_optimization: bool = True,
                 clock_skew_seconds: int = 0,
                 durable: bool = False,
                 storage_injector=None) -> None:
        self.device_id = device_id
        self.certificate = certificate
        self.trust_anchors = list(trust_anchors)
        self.crypto = crypto
        self.clock = clock
        self.tracer = getattr(crypto, "tracer", NULL_TRACER)
        self.verify_dcf_on_install = verify_dcf_on_install
        self.kdev_optimization = kdev_optimization
        self._time_offset = clock_skew_seconds
        self._time_synced = False
        self.secure = SecureStorage(
            device_private_key=keypair,
            kdev=crypto.random_bytes(KDEV_LENGTH),
        )
        if durable or storage_injector is not None:
            # Journaled flash-backed storage: every record HMAC runs
            # through this agent's (possibly metered) crypto provider.
            # Opt-in, so the paper-baseline cost traces stay untouched.
            self.storage = TransactionalStorage(
                crypto, self.secure.kdev, injector=storage_injector)
        else:
            self.storage = DeviceStorage()
        self.storage.tracer = self.tracer

    def recover_storage(self) -> RecoveryReport:
        """Rebuild durable storage from its flash region after power loss.

        Models the reboot after a crash: RAM state is discarded and the
        journal's committed transactions are replayed onto a fresh
        storage (the replay's HMAC checks are metered). Only meaningful
        for a ``durable`` agent.
        """
        if not isinstance(self.storage, TransactionalStorage):
            raise StoreError(
                "recover_storage() needs durable journaled storage"
            )
        self.storage, report = TransactionalStorage.recover(
            self.crypto, self.secure.kdev, self.storage.journal.flash)
        self.storage.tracer = self.tracer
        self.tracer.event(
            "storage.recovered", track="store",
            records_scanned=report.records_scanned,
            transactions_applied=report.transactions_applied,
            transactions_discarded=report.transactions_discarded,
            torn_octets_discarded=report.torn_octets_discarded)
        return report

    def drm_time(self) -> int:
        """The device's DRM Time: the secure clock plus its drift.

        Resynchronized from the RI's ``ri_time`` at every registration —
        the standard's defense against terminals whose clock has drifted
        (or been wound back to stretch datetime constraints).
        """
        return self.clock.now + self._time_offset

    def wind_clock(self, seconds: int) -> int:
        """Shift this device's clock by ``seconds`` (negative = back).

        Models the user adjusting the terminal's clock — the classic
        attempt to stretch datetime constraints or revive an expired RI
        Context. DRM Time follows the adjustment immediately; only a
        registration resync (bounded, rollback-refusing) corrects it.
        Returns the new DRM Time.
        """
        self._time_offset += seconds
        return self.drm_time()

    def _checked_ri_time(self, ri_time: int) -> int:
        """Validate a proposed DRM-time resync value, without adopting it.

        Once the device has synced DRM Time from a trusted RI, a
        correction that would move it *backward* by more than
        :data:`MAX_TIME_ROLLBACK_SECONDS` is refused — resync cures
        drift, it must never become a rollback channel for stretched datetime
        constraints (a forged RI time fails the signature check anyway;
        this bounds even a compromised-but-certified RI). Before the
        first sync there is nothing trustworthy to protect: the factory
        clock may be arbitrarily fast or slow, and resync exists to cure
        exactly that, so the first correction is unbounded in both
        directions. The caller commits the offset only after the whole
        trust chain verified, so a failed registration can never leave a
        poisoned clock behind.
        """
        correction = ri_time - self.drm_time()
        if self._time_synced \
                and correction < -MAX_TIME_ROLLBACK_SECONDS:
            raise TrustError(
                "refusing DRM time rollback of %d s (bound %d s)"
                % (-correction, MAX_TIME_ROLLBACK_SECONDS)
            )
        return ri_time

    @contextmanager
    def _phase(self, name: str, phase: Phase, **attrs):
        """Tag crypto with ``phase`` inside one ``agent.<name>`` span."""
        with self.crypto.in_phase(phase), \
                self.tracer.span("agent." + name, track=phase.value,
                                 **attrs):
            yield

    # ------------------------------------------------------------------
    # Phase 1: Registration — establishing trust (paper §2.4.1)
    # ------------------------------------------------------------------
    def register(self, rights_issuer) -> RIContext:
        """Run the 4-pass ROAP registration against ``rights_issuer``.

        Returns the RI Context that later phases require. All terminal
        crypto is tagged ``Phase.REGISTRATION``.
        """
        with self._phase("register", Phase.REGISTRATION):
            hello = DeviceHello(
                version=ROAP_VERSION, device_id=self.device_id,
                algorithms=DEFAULT_ALGORITHMS,
            )
            ri_hello = rights_issuer.hello(hello)
            if ri_hello.version != ROAP_VERSION:
                raise RegistrationError(
                    "RI speaks ROAP %r, expected %r"
                    % (ri_hello.version, ROAP_VERSION)
                )

            device_nonce = new_nonce(self.crypto)
            request = RegistrationRequest(
                session_id=ri_hello.session_id,
                device_nonce=device_nonce,
                request_time=self.drm_time(),
                certificate=self.certificate,
            ).signed(self.crypto, self.secure.device_private_key,
                     label="sign-registration-request")

            response = rights_issuer.register(request)
            if response.status != ROAP_STATUS_OK:
                raise RegistrationError(
                    "registration refused: %s" % response.status
                )
            if response.device_nonce != device_nonce:
                raise NonceMismatchError(
                    "RegistrationResponse does not echo our nonce"
                )
            # DRM Time resynchronization, hardened: the resync value is
            # validated (bounded correction, rollback refused) and then
            # only *used* for the time-sensitive checks below — it is
            # committed as the device's offset after the whole trust
            # chain verified. The signature check comes first, so an
            # attacker-supplied ri_time never influences any decision.
            verification_time = self.drm_time()
            if response.ri_time:
                verification_time = self._checked_ri_time(
                    response.ri_time)
            # The paper's three registration-phase public-key operations:
            # message signature, RI certificate, OCSP response.
            response.verify(self.crypto, response.ri_certificate.public_key,
                            label="verify-registration-response")
            verify_certificate(response.ri_certificate,
                               self.trust_anchors, verification_time,
                               self.crypto)
            responder_cert = self._find_anchor(
                response.ocsp_response.responder)
            verify_ocsp_response(
                response.ocsp_response,
                response.ri_certificate.serial,
                responder_cert, verification_time, self.crypto)
            if response.ri_time:
                self._time_offset = response.ri_time - self.clock.now
                self._time_synced = True

            context = RIContext(
                ri_id=ri_hello.ri_id,
                ri_certificate=response.ri_certificate,
                session_id=ri_hello.session_id,
                registered_at=self.drm_time(),
                expires_at=self.drm_time() + RI_CONTEXT_LIFETIME,
                selected_algorithms=ri_hello.algorithms,
            )
            self.storage.store_ri_context(context)
            return context

    def _find_anchor(self, subject: str) -> Certificate:
        for anchor in self.trust_anchors:
            if anchor.subject == subject:
                return anchor
        raise RegistrationError(
            "no provisioned trust anchor for %r" % subject
        )

    # ------------------------------------------------------------------
    # Phase 2: Acquisition — obtaining the Rights Object (paper §2.4.2)
    # ------------------------------------------------------------------
    def acquire(self, rights_issuer, ro_id: str,
                domain_id: Optional[str] = None) -> ProtectedRightsObject:
        """Run the 2-pass RO acquisition for ``ro_id``.

        Requires a valid RI Context: raises
        :class:`~repro.drm.errors.NotRegisteredError` when none exists
        and :class:`~repro.drm.errors.ContextExpiredError` when the
        context is past ``RI_CONTEXT_LIFETIME`` — the distinct type lets
        a session layer re-register and retry instead of failing
        opaquely. All terminal crypto is tagged ``Phase.ACQUISITION``.
        """
        with self._phase("acquire", Phase.ACQUISITION, ro_id=ro_id):
            context = self.storage.get_ri_context(rights_issuer.ri_id,
                                                  self.drm_time())
            device_nonce = new_nonce(self.crypto)
            request = RORequest(
                device_id=self.device_id, ri_id=context.ri_id,
                ro_id=ro_id, device_nonce=device_nonce,
                request_time=self.drm_time(), domain_id=domain_id,
            ).signed(self.crypto, self.secure.device_private_key,
                     label="sign-ro-request")
            response = rights_issuer.request_ro(request)
            if response.status != ROAP_STATUS_OK:
                raise AcquisitionError(
                    "RO acquisition refused: %s" % response.status
                )
            if response.device_nonce != device_nonce:
                raise NonceMismatchError(
                    "ROResponse does not echo our nonce"
                )
            response.verify(self.crypto, context.ri_certificate.public_key,
                            label="verify-ro-response")
            return response.protected_ro

    # ------------------------------------------------------------------
    # Phase 3: Installation — unwrapping the keys (paper §2.4.3, Figure 3)
    # ------------------------------------------------------------------
    def install(self, protected_ro: ProtectedRightsObject,
                dcf) -> InstalledRightsObject:
        """Verify and install a protected RO for its DCF(s).

        ``dcf`` is one :class:`DCF` or a sequence of them — a multi-asset
        RO (album license) installs against all its content objects at
        once. Runs the Figure 3 extraction (RSADP → KDF2 → AES-UNWRAP),
        checks integrity/authenticity, and re-wraps ``K_MAC‖K_REK`` under
        ``K_DEV``. All terminal crypto is tagged ``Phase.INSTALLATION``.
        """
        if isinstance(dcf, DCF):
            dcfs = [dcf]
        elif isinstance(dcf, MultipartDCF):
            dcfs = list(dcf.containers)
        else:
            dcfs = list(dcf)
        with self._phase("install", Phase.INSTALLATION,
                         ro_id=protected_ro.ro.ro_id):
            ro = protected_ro.ro
            by_content = {d.content_id: d for d in dcfs}
            missing = [a.content_id for a in ro.assets
                       if a.content_id not in by_content]
            if missing:
                raise InstallationError(
                    "no DCF supplied for %s" % ", ".join(missing)
                )
            # Replay protection: the same minted RO must not install
            # twice, or exhausted counts could be reset at will.
            if self.storage.seen_before(ro.guid):
                raise InstallationError(
                    "Rights Object %r was already installed (replay)"
                    % ro.ro_id
                )
            key_material = self._recover_key_material(protected_ro)
            kmac, krek = key_material[:16], key_material[16:32]

            # RO integrity and authenticity via the MAC under K_MAC.
            if not self.crypto.hmac_verify(kmac, ro.payload_bytes(),
                                           protected_ro.mac,
                                           label="ro-mac"):
                raise IntegrityError("Rights Object MAC check failed")

            # RO signature: mandatory for Domain ROs, optional otherwise.
            if protected_ro.signature is not None:
                context = self.storage.get_ri_context(
                    ro.rights_issuer_id, self.drm_time())
                self.crypto.pss_verify(
                    context.ri_certificate.public_key,
                    ro.payload_bytes(), protected_ro.signature,
                    label="verify-ro-signature")

            if self.verify_dcf_on_install:
                for asset in ro.assets:
                    self._verify_dcf_hash(
                        asset.dcf_hash, by_content[asset.content_id])

            if self.kdev_optimization:
                c2dev = self.crypto.aes_wrap(self.secure.kdev,
                                             kmac + krek,
                                             label="c2dev-wrap")
                installed = InstalledRightsObject(
                    ro=ro, c2dev=c2dev, mac=protected_ro.mac)
            else:
                # Ablation counterfactual: keep the PKI-protected C, so
                # every access pays the Figure 3 chain again.
                if protected_ro.kem_ciphertext is None:
                    raise InstallationError(
                        "the no-K_DEV ablation supports Device ROs only"
                    )
                installed = InstalledRightsObject(
                    ro=ro, c2dev=None, mac=protected_ro.mac,
                    kem_ciphertext=protected_ro.kem_ciphertext)
            evaluator = RightsEvaluator(ro.rights)
            installed.state = evaluator.initial_state()
            # One transaction: the installed RO, its DCFs and the
            # replay-cache entry land together or not at all. An
            # exception (or, on durable storage, a power loss) between
            # store_ro and remember can no longer leave an installed RO
            # whose re-install would still pass the replay check.
            with self.storage.transaction():
                self.storage.store_ro(installed)
                for item in dcfs:
                    self.storage.store_dcf(item)
                self.storage.remember(ro.guid)
            return installed

    def _recover_key_material(
            self, protected_ro: ProtectedRightsObject) -> bytes:
        """K_MAC ‖ K_REK from the KEM chain or the domain key."""
        if protected_ro.kem_ciphertext is not None:
            try:
                return self.crypto.kem_decrypt(
                    self.secure.device_private_key,
                    protected_ro.kem_ciphertext)
            except CryptoError as exc:
                raise InstallationError(
                    "cannot unwrap RO keys: %s" % exc) from exc
        domain_context = self.storage.get_domain_context(
            protected_ro.ro.domain_id)
        domain_key = self.crypto.aes_unwrap(
            self.secure.kdev, domain_context.wrapped_domain_key)
        try:
            return self.crypto.aes_unwrap(
                domain_key, protected_ro.domain_wrapped_keys)
        except CryptoError as exc:
            raise InstallationError(
                "cannot unwrap Domain RO keys: %s" % exc) from exc

    def _verify_dcf_hash(self, expected: bytes, dcf: DCF) -> None:
        digest = self.crypto.sha1(dcf.to_bytes(), label="dcf-hash")
        if digest != expected:
            raise IntegrityError("DCF hash mismatch — content tampered")

    # ------------------------------------------------------------------
    # Phase 4: Consumption — steps for every access (paper §2.4.4)
    # ------------------------------------------------------------------
    def _unlock(self, installed: InstalledRightsObject, dcf: DCF,
                content_id: str) -> bytes:
        """The per-access key chain; returns ``K_CEK`` for ``content_id``.

        Shared by :meth:`consume`, :meth:`consume_streaming` and
        :meth:`export`, which differ only in what they do with the key.
        """
        # Step 1: decrypt C2dev using K_DEV (or, in the no-K_DEV
        # ablation, redo the full PKI unwrap of Figure 3).
        if installed.c2dev is not None:
            key_material = self.crypto.aes_unwrap(
                self.secure.kdev, installed.c2dev, label="c2dev-unwrap")
        else:
            key_material = self.crypto.kem_decrypt(
                self.secure.device_private_key,
                installed.kem_ciphertext, label="c-unwrap-per-access")
        kmac, krek = key_material[:16], key_material[16:32]

        # Step 2: verify RO integrity via its MAC.
        if not self.crypto.hmac_verify(
                kmac, installed.ro.payload_bytes(), installed.mac,
                label="ro-mac"):
            raise IntegrityError("Rights Object MAC check failed")

        # Step 3: verify DCF integrity against the hash in the RO.
        asset = installed.ro.asset_for(content_id)
        self._verify_dcf_hash(asset.dcf_hash, dcf)

        # Step 4: K_CEK from K_REK; the caller decrypts the content.
        return self.crypto.aes_unwrap(krek, asset.wrapped_kcek,
                                      label="kcek-unwrap")

    def consume(self, content_id: str,
                permission: PermissionType = PermissionType.PLAY
                ) -> ConsumptionResult:
        """Access protected content once.

        The paper's per-access steps: (1) decrypt ``C2dev`` with
        ``K_DEV``, (2) verify the RO MAC, (3) verify the DCF hash — plus
        the content-path work: unwrap ``K_CEK`` with ``K_REK`` and
        AES-CBC-decrypt the payload. Rights constraints are evaluated and
        consumed (count decrement, first-use timestamps). All terminal
        crypto is tagged ``Phase.CONSUMPTION``.
        """
        with self._phase("consume", Phase.CONSUMPTION,
                         content_id=content_id,
                         permission=permission.value):
            installed = self.storage.find_ro_for_content(content_id)
            dcf = self.storage.get_dcf(content_id)
            evaluator = RightsEvaluator(installed.ro.rights)
            evaluator.check(permission, installed.state,
                            self.drm_time())
            kcek = self._unlock(installed, dcf, content_id)
            clear = self.crypto.aes_cbc_decrypt(kcek, dcf.iv,
                                                dcf.encrypted_data,
                                                label="content-decrypt")

            # Commit the use against a snapshot: the count decrement
            # and the first-use timestamp replace the stored state as
            # one object, so no half-applied decrement can persist.
            state = installed.state.snapshot()
            evaluator.consume(permission, state, self.drm_time())
            self.storage.set_ro_state(installed.ro_id, state)
            return ConsumptionResult(
                content_id=content_id, ro_id=installed.ro_id,
                clear_content=clear, permission=permission,
            )

    def consume_streaming(self, content_id: str,
                          permission: PermissionType = PermissionType.PLAY,
                          chunk_octets: int = 4096):
        """Progressive playback: yield clear content chunk by chunk.

        All integrity checks (C2dev unwrap, RO MAC, DCF hash) and the
        REL consumption happen up front — playback must not start on
        tampered content — then the AES-CBC payload decrypts chunkwise,
        each chunk chaining from the previous ciphertext block, so a
        player never holds the whole track in memory.
        """
        if chunk_octets <= 0 or chunk_octets % 16 != 0:
            raise ValueError("chunk size must be a positive multiple "
                             "of 16 octets")
        with self._phase("consume_streaming", Phase.CONSUMPTION,
                         content_id=content_id,
                         permission=permission.value):
            installed = self.storage.find_ro_for_content(content_id)
            dcf = self.storage.get_dcf(content_id)
            evaluator = RightsEvaluator(installed.ro.rights)
            evaluator.check(permission, installed.state,
                            self.drm_time())
            kcek = self._unlock(installed, dcf, content_id)
            state = installed.state.snapshot()
            evaluator.consume(permission, state, self.drm_time())
            self.storage.set_ro_state(installed.ro_id, state)

        def stream():
            # No phase or span stays open across a yield: the caller's
            # own work between chunks is not this agent's.
            ciphertext = dcf.encrypted_data
            previous_block = dcf.iv
            for offset in range(0, len(ciphertext), chunk_octets):
                chunk = ciphertext[offset:offset + chunk_octets]
                with self._phase("stream_chunk", Phase.CONSUMPTION,
                                 content_id=content_id, offset=offset):
                    if offset + chunk_octets >= len(ciphertext):
                        # Final chunk: the provider's padded decrypt
                        # strips PKCS#7 and meters the same AES blocks
                        # the raw variant would.
                        clear = self.crypto.aes_cbc_decrypt(
                            kcek, previous_block, chunk,
                            label="content-decrypt-chunk")
                    else:
                        clear = self.crypto.aes_cbc_decrypt_raw(
                            kcek, previous_block, chunk,
                            label="content-decrypt-chunk")
                        previous_block = chunk[-16:]
                yield clear

        return stream()

    def export(self, content_id: str, target_system: str
               ) -> "ExportResult":
        """Export content to another DRM system (REL ``<export>``).

        Performs the full per-access unlock (same cryptographic cost as
        a consumption), verifies the EXPORT permission and its target
        constraint, and — for *move* exports — deletes the local rights
        afterwards, per the REL semantics.
        """
        with self._phase("export", Phase.CONSUMPTION,
                         content_id=content_id,
                         target_system=target_system):
            installed = self.storage.find_ro_for_content(content_id)
            evaluator = RightsEvaluator(installed.ro.rights)
            permission = evaluator.check(PermissionType.EXPORT,
                                         installed.state,
                                         self.drm_time())
            constraint = next(
                (c for c in permission.constraints
                 if isinstance(c, ExportConstraint)), None)
            mode = ExportMode.COPY
            if constraint is not None:
                if not constraint.permits_target(target_system):
                    raise PermissionDeniedError(
                        "export to %r is not authorized" % target_system
                    )
                mode = constraint.mode

            dcf = self.storage.get_dcf(content_id)
            kcek = self._unlock(installed, dcf, content_id)
            clear = self.crypto.aes_cbc_decrypt(kcek, dcf.iv,
                                                dcf.encrypted_data,
                                                label="content-decrypt")
            state = installed.state.snapshot()
            evaluator.consume(PermissionType.EXPORT, state,
                              self.drm_time())
            if mode is ExportMode.MOVE:
                # Surrender local rights: the RO leaves this device and
                # its replay-cache entry keeps it from coming back.
                self.storage.remove_ro(installed.ro_id)
            else:
                self.storage.set_ro_state(installed.ro_id, state)
            return ExportResult(
                content_id=content_id, target_system=target_system,
                mode=mode, clear_content=clear,
            )

    # ------------------------------------------------------------------
    # Domains (paper §2.3)
    # ------------------------------------------------------------------
    def join_domain(self, rights_issuer, domain_id: str) -> DomainContext:
        """Join a domain: receive the domain key over the PKI channel.

        The domain key is immediately re-wrapped under ``K_DEV`` for
        storage, mirroring the C2dev optimization.
        """
        with self._phase("join_domain", Phase.REGISTRATION,
                         domain_id=domain_id):
            context = self.storage.get_ri_context(rights_issuer.ri_id,
                                                  self.drm_time())
            device_nonce = new_nonce(self.crypto)
            request = JoinDomainRequest(
                device_id=self.device_id, ri_id=context.ri_id,
                domain_id=domain_id, device_nonce=device_nonce,
                request_time=self.drm_time(),
            ).signed(self.crypto, self.secure.device_private_key)
            response = rights_issuer.join_domain(request)
            if response.status != ROAP_STATUS_OK:
                raise RegistrationError(
                    "domain join refused: %s" % response.status
                )
            if response.device_nonce != device_nonce:
                raise NonceMismatchError(
                    "JoinDomainResponse does not echo our nonce"
                )
            response.verify(self.crypto, context.ri_certificate.public_key)
            modulus_octets = \
                self.secure.device_private_key.modulus_octets
            kem_ciphertext = KemCiphertext.split(
                response.protected_domain_key, modulus_octets)
            domain_key = self.crypto.kem_decrypt(
                self.secure.device_private_key, kem_ciphertext)
            wrapped = self.crypto.aes_wrap(self.secure.kdev, domain_key)
            domain_context = DomainContext(
                domain_id=response.domain_id,
                ri_id=rights_issuer.ri_id,
                wrapped_domain_key=wrapped,
                joined_at=self.drm_time(),
            )
            self.storage.store_domain_context(domain_context)
            return domain_context

    def leave_domain(self, rights_issuer, domain_id: str) -> None:
        """Leave a domain: signed 2-pass exchange, then forget the key.

        After this the device can no longer install or consume Domain
        ROs of that domain (its wrapped domain key is erased).
        """
        with self._phase("leave_domain", Phase.REGISTRATION,
                         domain_id=domain_id):
            context = self.storage.get_ri_context(rights_issuer.ri_id,
                                                  self.drm_time())
            self.storage.get_domain_context(domain_id)  # must be member
            device_nonce = new_nonce(self.crypto)
            request = LeaveDomainRequest(
                device_id=self.device_id, ri_id=context.ri_id,
                domain_id=domain_id, device_nonce=device_nonce,
                request_time=self.drm_time(),
            ).signed(self.crypto, self.secure.device_private_key,
                     label="sign-leave-domain")
            response = rights_issuer.leave_domain(request)
            if response.status != ROAP_STATUS_OK:
                raise RegistrationError(
                    "domain leave refused: %s" % response.status
                )
            if response.device_nonce != device_nonce:
                raise NonceMismatchError(
                    "LeaveDomainResponse does not echo our nonce"
                )
            response.verify(self.crypto, context.ri_certificate.public_key,
                            label="verify-leave-domain")
            self.storage.remove_domain_context(domain_id)

    # ------------------------------------------------------------------
    # ROAP triggers (RI-initiated exchanges)
    # ------------------------------------------------------------------
    def handle_trigger(self, trigger: RoapTrigger, rights_issuer):
        """Act on a pushed ROAP trigger.

        The trigger signature is verified against the RI Context when one
        exists; a registration trigger may arrive before any context (it
        merely invites the device to establish trust, which the 4-pass
        registration then does properly).
        """
        context = self.storage.ri_contexts.get(trigger.ri_id)
        if context is not None:
            # A span but no phase: the verify keeps the provider's
            # current phase tag, so every metered record is unchanged.
            with self.tracer.span("agent.handle_trigger", track="roap",
                                  trigger=trigger.type.value):
                trigger.verify(self.crypto,
                               context.ri_certificate.public_key,
                               label="verify-trigger")
        elif trigger.type is not TriggerType.REGISTRATION:
            raise RegistrationError(
                "trigger %r requires an existing RI Context"
                % trigger.type.value
            )
        if trigger.type is TriggerType.REGISTRATION:
            return self.register(rights_issuer)
        if trigger.type is TriggerType.RO_ACQUISITION:
            return self.acquire(rights_issuer, trigger.ro_id,
                                domain_id=trigger.domain_id)
        if trigger.type is TriggerType.JOIN_DOMAIN:
            return self.join_domain(rights_issuer, trigger.domain_id)
        if trigger.type is TriggerType.LEAVE_DOMAIN:
            return self.leave_domain(rights_issuer, trigger.domain_id)
        raise RegistrationError(
            "unsupported trigger type %r" % (trigger.type,))
