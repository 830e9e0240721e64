"""Bit-exact pins of the terminal's metered work and the ROAP traffic.

The report golden covers registration, acquisition, installation and
one-shot consumption of the paper's use cases. The flows below are
covered by no golden: trigger-initiated exchanges, streaming and export
unlocks, domain join/leave and the no-K_DEV ablation. For each one, in a
seeded 512-bit world, this pins

* the ordered ``(algorithm, phase, label, invocations, blocks)`` of every
  record the agent's metered provider emitted, and
* a SHA-256 over the ``to_bytes()`` of every trigger, request and
  response that crossed the Rights Issuer boundary, in order, and
* a SHA-256 over the ``encode_message()`` wire bytes of the same
  messages; each one must also decode and re-encode to the same bytes.

Signatures carry DRBG-drawn PSS salts and messages carry DRBG-drawn
nonces, so the wire digest also pins the order of every random draw on
both sides. Together the six flows carry all eleven wire types. A
refactor of the signing, unlock or codec paths must leave all of these
literals unchanged.
"""

import hashlib

import pytest

from repro.drm.rel import ExportMode, export_rights, play_count
from repro.drm.roap.triggers import TriggerType
from repro.drm.roap.wire import decode_message, encode_message

SEED = "protocol-pins"
CONTENT_ID = "cid:pin"
RO_ID = "ro:pin"
DOMAIN = "domain:pin"
TARGET = "removable-media-drm"
CONTENT = bytes(range(256)) * 19  # 4864 octets: four full 1 KiB chunks

#: The Rights Issuer entry points a terminal drives.
ROAP_CALLS = ("hello", "register", "request_ro", "join_domain",
              "leave_domain")


class RecordingRI:
    """Forwards ROAP calls to a Rights Issuer, hashing every message."""

    def __init__(self, ri):
        self._ri = ri
        self.ri_id = ri.ri_id
        self.wire = hashlib.sha256()
        self.encoded = hashlib.sha256()
        self.types = set()

    def _record(self, message):
        self.wire.update(message.to_bytes())
        blob = encode_message(message)
        assert encode_message(decode_message(blob)) == blob
        self.encoded.update(blob)
        self.types.add(type(message).__name__)

    def trigger(self, trigger_type, **kwargs):
        trigger = self._ri.trigger(trigger_type, **kwargs)
        self._record(trigger)
        return trigger

    def __getattr__(self, name):
        method = getattr(self._ri, name)
        if name not in ROAP_CALLS:
            return method

        def call(request):
            self._record(request)
            response = method(request)
            self._record(response)
            return response
        return call


def _world(factory, rights=None, **kwargs):
    world = factory(SEED, **kwargs)
    dcf = world.ci.publish(CONTENT_ID, "audio/mpeg", CONTENT,
                           "http://ri.example/shop")
    world.ri.add_offer(RO_ID, world.ci.negotiate_license(CONTENT_ID),
                       rights if rights is not None else play_count(10))
    return world, dcf, RecordingRI(world.ri)


def _device_ro(world, dcf, ri):
    world.agent.register(ri)
    world.agent.install(world.agent.acquire(ri, RO_ID), dcf)


def flow_triggers(factory):
    world, dcf, ri = _world(factory)
    world.agent.handle_trigger(ri.trigger(TriggerType.REGISTRATION), ri)
    protected = world.agent.handle_trigger(
        ri.trigger(TriggerType.RO_ACQUISITION, ro_id=RO_ID), ri)
    world.agent.install(protected, dcf)
    return world, ri


def flow_consume_and_stream(factory):
    world, dcf, ri = _world(factory)
    _device_ro(world, dcf, ri)
    assert world.agent.consume(CONTENT_ID).clear_content == CONTENT
    chunks = list(world.agent.consume_streaming(CONTENT_ID,
                                                chunk_octets=1024))
    assert b"".join(chunks) == CONTENT
    return world, ri


def flow_export_copy(factory):
    world, dcf, ri = _world(factory,
                            rights=export_rights((TARGET,),
                                                 ExportMode.COPY))
    _device_ro(world, dcf, ri)
    result = world.agent.export(CONTENT_ID, TARGET)
    assert result.clear_content == CONTENT
    return world, ri


def flow_domain_trigger(factory):
    world, dcf, ri = _world(factory)
    world.ri.create_domain(DOMAIN)
    world.agent.register(ri)
    world.agent.handle_trigger(
        ri.trigger(TriggerType.JOIN_DOMAIN, domain_id=DOMAIN), ri)
    protected = world.agent.acquire(ri, RO_ID, domain_id=DOMAIN)
    world.agent.install(protected, dcf)
    assert world.agent.consume(CONTENT_ID).clear_content == CONTENT
    return world, ri


def flow_leave_domain(factory):
    world, _, ri = _world(factory)
    world.ri.create_domain(DOMAIN)
    world.agent.register(ri)
    world.agent.join_domain(ri, DOMAIN)
    world.agent.leave_domain(ri, DOMAIN)
    return world, ri


def flow_no_kdev_consume(factory):
    world, dcf, ri = _world(factory, kdev_optimization=False)
    _device_ro(world, dcf, ri)
    assert world.agent.consume(CONTENT_ID).clear_content == CONTENT
    return world, ri


#: flow -> (record count, SHA-256 of the records, SHA-256 of the
#: ``to_bytes()`` stream, SHA-256 of the ``encode_message()`` stream).
PINS = {
    flow_triggers: (
        19,
        "62c1ef894d3be2dd60a44b1ee786abad5c0403d89ba19460ba0a1feb4d364143",
        "a8190c1708f823d81b983c654454f016a50f72f19e6cfa43efcb111c53b631fb",
        "d7c76d5d3a06e81e1082371ecdc085f6368ace0e036e53a7adba87a70beaac2d"),
    flow_consume_and_stream: (
        31,
        "f4810107cfefa0df181f934842546554b1a5d18fd05e05e3306938b2ed255e9c",
        "3f88d5ba178d14948f5c16672da2e850c578532b925cd4fce6a62785cee1c219",
        "b683bb0b377453d47ca0d2ff320f276f3df013d3b92e5dc8f86c1aaef45c0fca"),
    flow_export_copy: (
        22,
        "64116aa02ab9121c928527814b33a88fd5f3286260cb4e917411834726a244c5",
        "5da7bd573e522398465fe00b6c58e3298a725f3ac50b0fc51153299c3cb694d0",
        "33176f2133a3a0a9c5fa62a7061de2ebd374872ffc6e6c1584486e850c5b9a23"),
    flow_domain_trigger: (
        33,
        "27dfddb81c29ef514fae49b98d9f20d91b97e2240a86a20353333337ac07217e",
        "953d716153cdc72cee5fb2459cb91423795132b490164af769c192bfe3cef443",
        "7047b7e7caa7f2cfb3be74af80f4c0c090a6dd3565d7b0d11b9cc41c07353ecf"),
    flow_leave_domain: (
        20,
        "a48c6b0b219da2d528b8005c732ab4cae9a158aa642e442e6de3837e191f8880",
        "8cbd7b565e89f09747149542d9baacac68fb79d84f1f157b49ac6d59af2985f6",
        "9e2c8088ac975f11de0d1a39e0c8a991e8c441ba078c8d094d85df610899d8af"),
    # Same wire as the K_DEV flow: the ablation changes only the unlock.
    flow_no_kdev_consume: (
        23,
        "065a5d677ccdb4c45a55a2b5e0fb4ca38bd40f1a4da57acb9a260b2dcaa82074",
        "3f88d5ba178d14948f5c16672da2e850c578532b925cd4fce6a62785cee1c219",
        "b683bb0b377453d47ca0d2ff320f276f3df013d3b92e5dc8f86c1aaef45c0fca"),
}


def _record_lines(trace):
    return ["%s %s %s %d %d" % (record.algorithm.value, record.phase.value,
                                record.label, record.invocations,
                                record.blocks)
            for record in trace.records]


@pytest.mark.parametrize("flow", list(PINS), ids=lambda f: f.__name__[5:])
def test_flow_is_bit_identical(flow, fast_world_factory):
    world, ri = flow(fast_world_factory)
    lines = _record_lines(world.agent_crypto.trace)
    records = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    count, records_pin, wire_pin, encoded_pin = PINS[flow]
    assert (len(lines), records) == (count, records_pin), \
        "metered records drifted:\n" + "\n".join(lines)
    assert ri.wire.hexdigest() == wire_pin
    assert ri.encoded.hexdigest() == encoded_pin


def test_flows_carry_every_wire_type(fast_world_factory):
    seen = set()
    for flow in PINS:
        seen |= flow(fast_world_factory)[1].types
    assert seen == {
        "DeviceHello", "RIHello", "RegistrationRequest",
        "RegistrationResponse", "RORequest", "ROResponse",
        "JoinDomainRequest", "JoinDomainResponse", "LeaveDomainRequest",
        "LeaveDomainResponse", "RoapTrigger"}
