"""ROAP messages: serialization, sizes and nonce discipline."""

import pytest

from repro.core.meter import PlainCrypto
from repro.crypto.rng import HmacDrbg
from repro.drm.roap.messages import (DeviceHello, NONCE_LENGTH, RIHello,
                                     new_nonce)


def test_nonce_length_and_freshness():
    crypto = PlainCrypto(HmacDrbg(b"nonce-tests"))
    first = new_nonce(crypto)
    second = new_nonce(crypto)
    assert len(first) == NONCE_LENGTH == 14
    assert first != second


def test_device_hello_bytes():
    hello = DeviceHello(version="2.0", device_id="device:x",
                        algorithms=("SHA-1", "AES-128-CBC"))
    blob = hello.to_bytes()
    assert blob == hello.to_bytes()
    assert b"DeviceHello" in blob
    assert b"device:x" in blob


def test_ri_hello_bytes_cover_nonce():
    a = RIHello(version="2.0", ri_id="ri:x", session_id="s1",
                ri_nonce=b"\x01" * 14, algorithms=("SHA-1",))
    b = RIHello(version="2.0", ri_id="ri:x", session_id="s1",
                ri_nonce=b"\x02" * 14, algorithms=("SHA-1",))
    assert a.to_bytes() != b.to_bytes()


def test_signed_message_separates_tbs(fast_world):
    """tbs_bytes excludes the signature; to_bytes includes it."""
    fast_world.agent.register(fast_world.ri)
    # Reconstruct a registration request the way the agent does.
    from repro.drm.roap.messages import RegistrationRequest
    request = RegistrationRequest(
        session_id="s", device_nonce=b"n" * 14, request_time=0,
        certificate=fast_world.agent.certificate, signature=b"SIG",
    )
    assert b"SIG" not in request.tbs_bytes()
    assert b"SIG" in request.to_bytes()
    unsigned = RegistrationRequest(
        session_id="s", device_nonce=b"n" * 14, request_time=0,
        certificate=fast_world.agent.certificate,
    )
    assert unsigned.tbs_bytes() == request.tbs_bytes()


def test_message_sizes_are_realistic(paper_world):
    """ROAP messages at 1024-bit keys land in the standard's size range.

    The paper derived message sizes from its Java model; our canonical
    encoding should be within the same order of magnitude: hundreds of
    octets for hellos, roughly a kilobyte when a certificate rides along.
    """
    hello = DeviceHello(
        version="2.0", device_id=paper_world.agent.device_id,
        algorithms=("SHA-1", "HMAC-SHA1", "AES-128-WRAP",
                              "AES-128-CBC", "RSA-PSS", "KDF2",
                              "RSA-1024"))
    assert 50 <= len(hello.to_bytes()) <= 400
    cert_octets = len(paper_world.agent.certificate.to_bytes())
    assert 400 <= cert_octets <= 1200  # ~1024-bit modulus + metadata


@pytest.mark.parametrize("field_change", ["ro_id", "device_nonce"])
def test_ro_request_tbs_covers_fields(field_change):
    from repro.drm.roap.messages import RORequest
    base = dict(device_id="d", ri_id="r", ro_id="ro:1",
                device_nonce=b"n" * 14, request_time=5)
    changed = dict(base)
    if field_change == "ro_id":
        changed["ro_id"] = "ro:2"
    else:
        changed["device_nonce"] = b"m" * 14
    assert RORequest(**base).tbs_bytes() \
        != RORequest(**changed).tbs_bytes()
