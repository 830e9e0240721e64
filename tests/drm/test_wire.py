"""Wire codecs: roundtrip fidelity, logged transport, fuzz robustness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import Algorithm
from repro.drm.identifiers import domain_id
from repro.drm.rel import play_count
from repro.drm.roap.messages import DeviceHello, RORequest
from repro.drm.roap.triggers import TriggerType
from repro.drm.roap.wire import (MessageLog, WireChannel, decode_message,
                                 encode_message,
                                 rights_object_from_payload)

DOMAIN = domain_id("family")


def offer(world, count=5):
    dcf = world.ci.publish("cid:w", "audio/mpeg", b"w" * 400, "u")
    world.ri.add_offer("ro:w", world.ci.negotiate_license("cid:w"),
                       play_count(count))
    return dcf


# -- codec fidelity ----------------------------------------------------------

def test_device_hello_roundtrip():
    hello = DeviceHello(version="2.0", device_id="device:x",
                        algorithms=("SHA-1", "RSA-1024"))
    assert decode_message(encode_message(hello)) == hello


def test_ro_request_roundtrip():
    request = RORequest(device_id="d", ri_id="r", ro_id="ro:1",
                        device_nonce=b"n" * 14, request_time=77,
                        domain_id=None, signature=b"s" * 64)
    decoded = decode_message(encode_message(request))
    assert decoded == request
    assert decoded.tbs_bytes() == request.tbs_bytes()


def test_registration_response_roundtrip_preserves_signature(fast_world):
    """The load-bearing property: decode(encode(m)) verifies."""
    offer(fast_world)
    channel = WireChannel(fast_world.ri)
    # register() verifies the decoded RegistrationResponse's signature
    # and the decoded certificate chain — if any byte moved, it raises.
    fast_world.agent.register(channel)


def test_protected_ro_roundtrip(fast_world):
    dcf = offer(fast_world)
    fast_world.agent.register(fast_world.ri)
    protected = fast_world.agent.acquire(fast_world.ri, "ro:w")
    from repro.drm.roap.wire import (protected_ro_from_wire,
                                     protected_ro_to_wire)
    rebuilt = protected_ro_from_wire(protected_ro_to_wire(protected))
    assert rebuilt.to_bytes() == protected.to_bytes()
    assert rebuilt.ro.payload_bytes() == protected.ro.payload_bytes()
    # The rebuilt RO still installs and plays.
    fast_world.agent.install(rebuilt, dcf)
    assert fast_world.agent.consume("cid:w").clear_content == b"w" * 400


def test_rights_object_payload_roundtrip(fast_world):
    offer(fast_world)
    fast_world.agent.register(fast_world.ri)
    protected = fast_world.agent.acquire(fast_world.ri, "ro:w")
    rebuilt = rights_object_from_payload(protected.ro.payload_bytes())
    assert rebuilt == protected.ro


def test_trigger_roundtrip(fast_world):
    trigger = fast_world.ri.trigger(TriggerType.RO_ACQUISITION,
                                    ro_id="ro:w")
    decoded = decode_message(encode_message(trigger))
    assert decoded == trigger


def test_unencodable_type_rejected():
    with pytest.raises(TypeError):
        encode_message(object())


# -- full protocol over the wire ----------------------------------------------

def test_full_lifecycle_over_wire_matches_direct(fast_world,
                                                 fast_world_factory):
    """Running through the byte pipe changes nothing observable."""
    dcf = offer(fast_world)
    channel = WireChannel(fast_world.ri)
    fast_world.agent.register(channel)
    protected = fast_world.agent.acquire(channel, "ro:w")
    fast_world.agent.install(protected, dcf)
    result = fast_world.agent.consume("cid:w")
    assert result.clear_content == b"w" * 400

    direct = fast_world_factory(seed="fixture-fast")
    dcf2 = offer(direct)
    direct.agent.register(direct.ri)
    direct.agent.install(direct.agent.acquire(direct.ri, "ro:w"), dcf2)
    direct.agent.consume("cid:w")
    assert fast_world.agent_crypto.trace.canonical() \
        == direct.agent_crypto.trace.canonical()


def test_domain_flows_over_wire(fast_world):
    offer(fast_world)
    fast_world.ri.create_domain(DOMAIN)
    channel = WireChannel(fast_world.ri)
    fast_world.agent.register(channel)
    fast_world.agent.join_domain(channel, DOMAIN)
    fast_world.agent.leave_domain(channel, DOMAIN)
    names = [r.message for r in channel.log.records]
    assert "JoinDomainRequest" in names
    assert "LeaveDomainResponse" in names


def test_message_log_accounting(fast_world):
    offer(fast_world)
    channel = WireChannel(fast_world.ri)
    fast_world.agent.register(channel)
    fast_world.agent.acquire(channel, "ro:w")
    log = channel.log
    assert len(log.records) == 6  # 4-pass registration + 2-pass RO
    assert log.total_octets() == sum(r.octets for r in log.records)
    by_message = log.by_message()
    assert by_message["DeviceHello"][0] == 1
    # Certificate-bearing messages dominate the traffic.
    assert by_message["RegistrationResponse"][1] \
        > by_message["DeviceHello"][1]


def test_directions_alternate(fast_world):
    offer(fast_world)
    channel = WireChannel(fast_world.ri)
    fast_world.agent.register(channel)
    directions = [r.direction for r in channel.log.records]
    assert directions == ["device->ri", "ri->device"] * 2


# -- robustness ----------------------------------------------------------------

def test_garbage_rejected():
    with pytest.raises(ValueError):
        decode_message(b"not a roap message")
    with pytest.raises(ValueError):
        decode_message(encode_message(
            DeviceHello("2.0", "d", ("SHA-1",)))[:-4])


def test_unknown_message_tag_rejected():
    from repro.drm import serialize
    blob = serialize.encode({"roap": "EvilMessage", "body": {}})
    with pytest.raises(ValueError):
        decode_message(blob)


@given(index=st.integers(min_value=0, max_value=10_000),
       flip=st.integers(min_value=1, max_value=255))
@settings(max_examples=60, deadline=None)
def test_bitflipped_wire_never_decodes_to_valid_other_message(index,
                                                              flip):
    """Corruption either fails to decode or decodes to a message whose
    content differs — it can never silently decode back to the original.
    """
    hello = DeviceHello(version="2.0", device_id="device:x",
                        algorithms=("SHA-1", "RSA-1024"))
    blob = encode_message(hello)
    mutated = bytearray(blob)
    mutated[index % len(blob)] ^= flip
    mutated = bytes(mutated)
    if mutated == blob:  # flip of 0 cannot happen; index collision can't
        return
    try:
        decoded = decode_message(mutated)
    except (ValueError, UnicodeDecodeError, OverflowError):
        return
    assert decoded != hello
