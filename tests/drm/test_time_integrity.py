"""DRM-time integrity: skewed clocks, bounded resync, rollback refusal.

Covers ``clock_skew_seconds`` in :meth:`DRMWorld.add_device` through the
registration resync and the RI-context expiry boundary, plus the
hardening contracts: a resync never rolls DRM Time back further than
the bound, and a *failed* registration never commits a poisoned offset.
"""

import pytest

from repro.drm.agent import (MAX_TIME_ROLLBACK_SECONDS,
                             RI_CONTEXT_LIFETIME)
from repro.drm.clock import DAY
from repro.drm.errors import TrustError
from repro.usecases.world import DRMWorld

BITS = 512


@pytest.fixture()
def world():
    return DRMWorld.create("test-time-integrity", rsa_bits=BITS)


def test_skewed_device_reports_skewed_drm_time(world):
    fast = world.add_device("fast", clock_skew_seconds=3600)
    slow = world.add_device("slow", clock_skew_seconds=-3600)
    assert fast.drm_time() == world.clock.now + 3600
    assert slow.drm_time() == world.clock.now - 3600


def test_registration_resyncs_a_slow_clock(world):
    """A device lagging arbitrarily far is pulled forward to RI time —
    forward corrections are unbounded."""
    slow = world.add_device("slow", clock_skew_seconds=-30 * DAY)
    slow.register(world.ri)
    assert slow.drm_time() == world.clock.now


def test_registration_resyncs_small_forward_skew(world):
    """A device ahead by less than the bound is wound back to RI time."""
    fast = world.add_device("fast",
                            clock_skew_seconds=MAX_TIME_ROLLBACK_SECONDS
                            - 3600)
    fast.register(world.ri)
    assert fast.drm_time() == world.clock.now


def test_first_sync_accepts_any_factory_skew(world):
    """Before the first trusted sync there is nothing to protect: a
    factory clock a year fast is still corrected — the bound guards
    previously *synced* time, not the untrusted initial clock."""
    far_future = world.add_device(
        "far-future", clock_skew_seconds=365 * DAY)
    far_future.register(world.ri)
    assert far_future.drm_time() == world.clock.now


def test_resync_refuses_rollback_beyond_bound(world):
    """Once synced, a resync that would move DRM Time backward past the
    bound is refused — winding the clock forward cannot be 'cured' by a
    rollback large enough to double as an attack channel."""
    device = world.add_device("synced-then-fast")
    device.register(world.ri)
    device.wind_clock(MAX_TIME_ROLLBACK_SECONDS + DAY)
    with pytest.raises(TrustError, match="rollback"):
        device.register(world.ri)


def test_failed_registration_never_commits_the_offset(world):
    """The poisoned-clock contract: a refused resync leaves DRM Time
    exactly where it was."""
    device = world.add_device("poisoned")
    device.register(world.ri)
    device.wind_clock(MAX_TIME_ROLLBACK_SECONDS + DAY)
    before = device.drm_time()
    with pytest.raises(TrustError):
        device.register(world.ri)
    assert device.drm_time() == before


def test_wound_back_clock_is_cured_by_reregistration(world):
    """The classic constraint-stretching move — wind the clock back —
    is corrected (forward) by the next registration."""
    device = world.add_device("wound")
    device.register(world.ri)
    device.wind_clock(-20 * DAY)
    assert device.drm_time() == world.clock.now - 20 * DAY
    device.register(world.ri)
    assert device.drm_time() == world.clock.now


def test_context_expiry_boundary_after_resync(world):
    """The RI context's lifetime is measured in corrected DRM Time, so
    a large pre-registration skew does not shift the expiry boundary."""
    device = world.add_device("expiring", clock_skew_seconds=-30 * DAY)
    context = device.register(world.ri)
    assert context.registered_at == world.clock.now
    world.clock.advance(RI_CONTEXT_LIFETIME - 1)
    assert context.is_valid(device.drm_time())
    world.clock.advance(2)
    assert not context.is_valid(device.drm_time())


def test_winding_forward_expires_the_context_early(world):
    """DRM Time, not the raw clock, gates the context: winding the
    device clock forward past the lifetime expires it immediately."""
    device = world.add_device("jumper")
    context = device.register(world.ri)
    device.wind_clock(RI_CONTEXT_LIFETIME + 1)
    assert not context.is_valid(device.drm_time())
