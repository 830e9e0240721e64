"""The fault-injection channel: policies, plans, logs, transport."""

import pytest

from repro.drm.clock import SimulationClock
from repro.drm.errors import ChannelTimeoutError, RoapStatusError
from repro.drm.roap.faults import (DEFAULT_TIMEOUT_SECONDS, FaultKind,
                                   FaultLog, FaultPlan, FaultPolicy,
                                   FaultyChannel, SERVER_BUSY)
from repro.drm.roap.messages import DeviceHello
from repro.drm.identifiers import DEFAULT_ALGORITHMS, ROAP_VERSION


def make_channel(world, policy=FaultPolicy(), per_message=None,
                 seed="test-faults", **kwargs):
    plan = FaultPlan(seed=seed, default=policy, per_message=per_message)
    return FaultyChannel(world.ri, plan, clock=world.clock, **kwargs)


# -- FaultPolicy ----------------------------------------------------------
def test_policy_rates_must_be_probabilities():
    with pytest.raises(ValueError):
        FaultPolicy(drop=-0.1)
    with pytest.raises(ValueError):
        FaultPolicy(drop=0.7, bit_flip=0.7)
    with pytest.raises(ValueError):
        FaultPolicy(delay=0.1, delay_seconds=-1)


def test_policy_constructors():
    assert FaultPolicy.loss(0.25).drop == 0.25
    assert FaultPolicy.loss(0.25).total_rate() == 0.25
    mixed = FaultPolicy.mixed(0.7)
    assert mixed.total_rate() == pytest.approx(0.7)
    assert mixed.drop == pytest.approx(0.1)


# -- FaultPlan ------------------------------------------------------------
def test_plan_is_deterministic_per_seed():
    def draws(seed):
        plan = FaultPlan(seed, FaultPolicy.mixed(0.9))
        return [plan.draw("M") for _ in range(50)]

    assert draws("s1") == draws("s1")
    assert draws("s1") != draws("s2")


def test_plan_zero_rate_never_faults():
    plan = FaultPlan("s", FaultPolicy())
    assert all(plan.draw("M") is None for _ in range(100))


def test_plan_full_drop_always_faults():
    plan = FaultPlan("s", FaultPolicy.loss(1.0))
    assert all(plan.draw("M") is FaultKind.DROP for _ in range(100))


def test_plan_per_message_override():
    plan = FaultPlan("s", FaultPolicy(),
                     per_message={"RegistrationRequest":
                                  FaultPolicy.loss(1.0)})
    assert plan.draw("DeviceHello") is None
    assert plan.draw("RegistrationRequest") is FaultKind.DROP
    assert plan.policy_for("RORequest") is plan.default


# -- FaultLog -------------------------------------------------------------
def test_fault_log_counters():
    log = FaultLog()
    log.add("device->ri", "DeviceHello", FaultKind.DROP)
    log.add("ri->device", "RIHello", FaultKind.BIT_FLIP, "bit 3")
    log.add("ri->device", "RIHello", FaultKind.DROP)
    assert len(log) == 3
    assert [(e.sequence, e.message, e.kind) for e in log.events] == [
        (0, "DeviceHello", FaultKind.DROP),
        (1, "RIHello", FaultKind.BIT_FLIP),
        (2, "RIHello", FaultKind.DROP)]
    assert log.events[1].detail == "bit 3"


# -- FaultyChannel transport ---------------------------------------------
def test_drop_times_out_and_advances_clock(fast_world):
    channel = make_channel(fast_world, FaultPolicy.loss(1.0))
    before = fast_world.clock.now
    with pytest.raises(ChannelTimeoutError):
        fast_world.agent.register(channel)
    assert fast_world.clock.now == before + DEFAULT_TIMEOUT_SECONDS
    assert [e.kind for e in channel.faults.events] == [FaultKind.DROP]


def test_error_status_surfaces_as_status_error(fast_world):
    channel = make_channel(fast_world, FaultPolicy(error_status=1.0))
    with pytest.raises(RoapStatusError) as info:
        fast_world.agent.register(channel)
    assert info.value.status == SERVER_BUSY


def test_uplink_corruption_times_out(fast_world):
    channel = make_channel(fast_world, FaultPolicy(truncate=1.0))
    with pytest.raises(ChannelTimeoutError):
        fast_world.agent.register(channel)
    assert [e.kind for e in channel.faults.events] == [FaultKind.TRUNCATE]


def test_delay_below_timeout_still_delivers(fast_world):
    channel = make_channel(
        fast_world, FaultPolicy(delay=1.0, delay_seconds=3))
    before = fast_world.clock.now
    context = fast_world.agent.register(channel)
    assert context.ri_id == fast_world.ri.ri_id
    # Every transmission of the 4-pass run arrived 3 s late.
    assert fast_world.clock.now == before + 3 * len(channel.log.records)


def test_delay_at_timeout_behaves_like_drop(fast_world):
    channel = make_channel(
        fast_world,
        FaultPolicy(delay=1.0, delay_seconds=DEFAULT_TIMEOUT_SECONDS))
    with pytest.raises(ChannelTimeoutError):
        fast_world.agent.register(channel)


def test_duplicate_registration_request_creates_one_context(fast_world):
    """A replayed RegistrationRequest must hit the RI's replay cache."""
    channel = make_channel(
        fast_world,
        per_message={"RegistrationRequest": FaultPolicy(duplicate=1.0)})
    context = fast_world.agent.register(channel)
    assert context.ri_id == fast_world.ri.ri_id
    assert [e.kind for e in channel.faults.events] == [FaultKind.DUPLICATE]
    assert [c.device_id for c in fast_world.ri.context_log] \
        == [fast_world.agent.device_id]


def test_duplicate_response_costs_only_octets(fast_world):
    channel = make_channel(
        fast_world,
        per_message={"RegistrationResponse": FaultPolicy(duplicate=1.0)})
    fast_world.agent.register(channel)
    count, _octets = channel.log.by_message()["RegistrationResponse"]
    assert count == 2
    assert [c.device_id for c in fast_world.ri.context_log] \
        == [fast_world.agent.device_id]


def test_fault_log_mirrors_message_log_directions(fast_world):
    channel = make_channel(fast_world, FaultPolicy.loss(1.0))
    with pytest.raises(ChannelTimeoutError):
        fast_world.agent.register(channel)
    event = channel.faults.events[0]
    assert event.direction == "device->ri"
    assert event.message == "DeviceHello"


def test_hello_unaffected_on_clean_channel(fast_world):
    channel = make_channel(fast_world)
    hello = DeviceHello(version=ROAP_VERSION,
                        device_id=fast_world.agent.device_id,
                        algorithms=DEFAULT_ALGORITHMS)
    ri_hello = channel.hello(hello)
    assert ri_hello.ri_id == fast_world.ri.ri_id
    assert len(channel.faults) == 0


def test_timeout_must_be_positive(fast_world):
    with pytest.raises(ValueError):
        make_channel(fast_world, timeout_seconds=0)
