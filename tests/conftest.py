"""Shared fixtures.

World construction costs seconds of RSA key generation, so worlds are
session-scoped wherever tests don't mutate protocol state, and
protocol-mutating tests use the cheaper 512-bit worlds (the DRM logic is
modulus-size independent; paper-scale 1024-bit keys are reserved for the
tests that check size-sensitive accounting).
"""

import copy

import pytest

from repro.analysis import report
from repro.analysis.common import DEFAULT_SEED
from repro.core.costs import CostOptions
from repro.usecases.catalog import ringtone
from repro.usecases.runner import run_functional
from repro.usecases.world import DRMWorld

#: Modulus size for protocol-logic tests (fast; logic is size-agnostic).
FAST_RSA_BITS = 512

#: Memoized pristine worlds, deep-copied out to keep tests isolated.
_WORLD_CACHE = {}


def _pristine_world(seed="fixture-fast", **kwargs):
    kwargs.setdefault("rsa_bits", FAST_RSA_BITS)
    key = (seed, tuple(sorted(kwargs.items())))
    if key not in _WORLD_CACHE:
        _WORLD_CACHE[key] = DRMWorld.create(seed=seed, **kwargs)
    return copy.deepcopy(_WORLD_CACHE[key])


@pytest.fixture()
def fast_world():
    """A fresh (copied) 512-bit world per test — cheap and isolated."""
    return _pristine_world("fixture-fast")


@pytest.fixture()
def fast_world_factory():
    """Factory for fresh 512-bit worlds with custom options."""
    return _pristine_world


@pytest.fixture(scope="session")
def paper_world():
    """One shared 1024-bit world for read-only size checks."""
    return DRMWorld.create(seed="fixture-paper")


@pytest.fixture(scope="session")
def report_document():
    """The default-seed reproduction report, built once per session.

    A full build takes tens of seconds, so the golden snapshot and the
    ``report`` CLI test share this one.
    """
    return report.generate(seed=DEFAULT_SEED)


@pytest.fixture(scope="session")
def ringtone_run_small():
    """A completed small-ringtone functional run (shared, read-only)."""
    use_case = ringtone().scaled(4096)
    return run_functional(use_case, seed="fixture-run",
                          options=CostOptions())
