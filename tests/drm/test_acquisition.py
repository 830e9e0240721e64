"""The 2-pass RO acquisition protocol."""

import pytest

from repro.core.trace import Algorithm, Phase
from repro.crypto.errors import SignatureError
from repro.drm.errors import AcquisitionError
from repro.drm.rel import play_count
from repro.drm.roap.messages import RORequest


def offer_license(world, content=b"tune" * 100, count=5):
    """Publish content and list a license; returns (content_id, ro_id)."""
    dcf = world.ci.publish("cid:test", "audio/mpeg", content,
                           "http://ri.example")
    world.ri.add_offer("ro:test", world.ci.negotiate_license("cid:test"),
                       play_count(count))
    return dcf, "cid:test", "ro:test"


def test_acquisition_returns_protected_ro(fast_world):
    dcf, cid, ro_id = offer_license(fast_world)
    fast_world.agent.register(fast_world.ri)
    protected = fast_world.agent.acquire(fast_world.ri, ro_id)
    assert protected.ro.ro_id == ro_id
    assert [a.content_id for a in protected.ro.assets] == [cid]
    assert protected.kem_ciphertext is not None
    assert protected.signature is None  # device RO unsigned by default


def test_acquisition_operation_counts(fast_world):
    """The paper's acquisition phase: 1 private + 1 public RSA op."""
    dcf, cid, ro_id = offer_license(fast_world)
    fast_world.agent.register(fast_world.ri)
    fast_world.agent.acquire(fast_world.ri, ro_id)
    trace = fast_world.agent_crypto.trace.filter(phase=Phase.ACQUISITION)
    totals = trace.totals_by_algorithm()
    assert totals[Algorithm.RSA_PRIVATE] == (1, 1)
    assert totals[Algorithm.RSA_PUBLIC] == (1, 1)


def test_unknown_license_refused(fast_world):
    fast_world.agent.register(fast_world.ri)
    with pytest.raises(AcquisitionError):
        fast_world.agent.acquire(fast_world.ri, "ro:nonexistent")


def test_unregistered_device_refused_by_ri(fast_world):
    dcf, cid, ro_id = offer_license(fast_world)
    request = RORequest(
        device_id="device:stranger", ri_id=fast_world.ri.ri_id,
        ro_id=ro_id, device_nonce=b"n" * 14,
        request_time=fast_world.clock.now, signature=b"x" * 64,
    )
    with pytest.raises(AcquisitionError):
        fast_world.ri.request_ro(request)


def test_forged_request_signature_refused(fast_world):
    dcf, cid, ro_id = offer_license(fast_world)
    fast_world.agent.register(fast_world.ri)
    request = RORequest(
        device_id=fast_world.agent.device_id, ri_id=fast_world.ri.ri_id,
        ro_id=ro_id, device_nonce=b"n" * 14,
        request_time=fast_world.clock.now,
        signature=b"\x01" * (512 // 8),
    )
    with pytest.raises(SignatureError):
        fast_world.ri.request_ro(request)


def test_sign_device_ros_option(fast_world_factory):
    world = fast_world_factory(sign_device_ros=True)
    dcf = world.ci.publish("cid:s", "audio/mpeg", b"x" * 64, "u")
    world.ri.add_offer("ro:s", world.ci.negotiate_license("cid:s"),
                       play_count(1))
    world.agent.register(world.ri)
    protected = world.agent.acquire(world.ri, "ro:s")
    assert protected.signature is not None
    # And it installs cleanly (the agent verifies the RO signature).
    world.agent.install(protected, dcf)


def test_each_acquisition_mints_fresh_keys(fast_world):
    dcf, cid, ro_id = offer_license(fast_world)
    fast_world.agent.register(fast_world.ri)
    first = fast_world.agent.acquire(fast_world.ri, ro_id)
    second = fast_world.agent.acquire(fast_world.ri, ro_id)
    assert first.mac != second.mac  # fresh K_MAC
    assert first.kem_ciphertext.c1 != second.kem_ciphertext.c1
    # Fresh K_REK: the same K_CEK wraps differently.
    assert first.ro.assets[0].wrapped_kcek \
        != second.ro.assets[0].wrapped_kcek
