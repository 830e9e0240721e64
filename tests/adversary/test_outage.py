"""Outage schedules, the outage RI channel, and the OCSP cache."""

import pytest

from repro.adversary.outage import (CachingOCSPResponder, OutageRIChannel,
                                    OutageSchedule, OutageWindow)
from repro.drm.clock import DAY
from repro.drm.errors import ServiceUnavailableError
from repro.usecases.world import DRMWorld

BITS = 512


# -- schedules ---------------------------------------------------------------

def test_window_validation_and_membership():
    with pytest.raises(ValueError):
        OutageWindow(100, 100)
    window = OutageWindow(100, 200)
    assert window.contains(100) and window.contains(199)
    assert not window.contains(99) and not window.contains(200)


def test_schedule_rejects_overlap_and_sorts():
    with pytest.raises(ValueError):
        OutageSchedule([OutageWindow(0, 100), OutageWindow(50, 150)])
    schedule = OutageSchedule([OutageWindow(300, 400),
                               OutageWindow(0, 100)])
    assert [w.start for w in schedule.windows] == [0, 300]
    assert schedule.is_down(50) and schedule.is_down(350)
    assert not schedule.is_down(200)
    assert schedule.seconds_until_restore(350) == 50
    assert schedule.seconds_until_restore(200) == 0


# -- the RI outage channel ---------------------------------------------------

def test_ri_channel_rejects_during_downtime_and_recovers():
    world = DRMWorld.create("test-outage-ri", rsa_bits=BITS)
    start = world.clock.now
    schedule = OutageSchedule([OutageWindow(start + 50, start + 150)])
    channel = OutageRIChannel(world.ri, schedule, world.clock)

    world.agent.register(channel)          # before the window: fine
    world.clock.advance(60)                # inside the window
    with pytest.raises(ServiceUnavailableError, match="restore in"):
        world.agent.register(channel)
    assert channel.rejected_requests == 1
    world.clock.advance(schedule.seconds_until_restore(world.clock.now))
    context = world.agent.register(channel)  # after restore: fine again
    assert context.ri_id


# -- the caching OCSP front-end ----------------------------------------------

@pytest.fixture()
def ocsp_world():
    return DRMWorld.create("test-outage-ocsp", rsa_bits=BITS)


def test_cache_serves_inside_validity_window(ocsp_world):
    world = ocsp_world
    start = world.clock.now
    schedule = OutageSchedule([OutageWindow(start + 10,
                                            start + 10 + 30 * DAY)])
    caching = CachingOCSPResponder(world.ocsp, schedule)
    assert caching.name == world.ocsp.name
    assert caching.certificate is world.ocsp.certificate
    world.ri._ocsp = caching

    world.agent.register(world.ri)         # responder up: fresh + cached
    assert caching.fresh_responses == 1
    world.clock.advance(DAY)               # down, cache still valid
    world.agent.register(world.ri)
    assert caching.cache_hits == 1
    assert caching.unavailable == 0


def test_cache_refuses_beyond_validity_window(ocsp_world):
    world = ocsp_world
    start = world.clock.now
    schedule = OutageSchedule([OutageWindow(start + 10,
                                            start + 10 + 30 * DAY)])
    caching = CachingOCSPResponder(world.ocsp, schedule)
    world.ri._ocsp = caching

    world.agent.register(world.ri)
    world.clock.advance(10 * DAY)          # past the 7-day next_update
    with pytest.raises(ServiceUnavailableError, match="OCSP"):
        world.agent.register(world.ri)
    assert caching.unavailable == 1
    # Degradation never serves a provably stale assertion: the cache
    # hit counter did not move.
    assert caching.cache_hits == 0


def test_cold_cache_during_downtime_is_unavailable(ocsp_world):
    world = ocsp_world
    start = world.clock.now
    schedule = OutageSchedule([OutageWindow(start, start + 100)])
    caching = CachingOCSPResponder(world.ocsp, schedule)
    world.ri._ocsp = caching
    with pytest.raises(ServiceUnavailableError):
        world.agent.register(world.ri)
    assert caching.unavailable == 1
