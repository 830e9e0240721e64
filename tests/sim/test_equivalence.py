"""Kernel x existing machinery: fidelity costs nothing.

The kernel adds concurrency to the repository; this suite proves the
addition is *conservative* — every number the pre-kernel machinery
produces survives the kernel unchanged:

* **Fleet conservation** — the ``--kernel`` fleet pass replays the
  sequential engine's drawn population exactly: served + refused on
  the shared RI equals the sequential accumulator's request count, the
  sequential accumulator itself is untouched, and the whole result is
  bit-identical for any worker count.
* **Golden saturation snapshot** — the rendered saturation artifact is
  pinned, so formatting or measurement drift is caught even when every
  underlying invariant still holds. Regenerate intentionally with
  ``UPDATE_GOLDEN=1 python -m pytest tests/sim/test_equivalence.py``.
"""

import difflib
import gc
import os
import pathlib

import pytest

from repro.analysis.saturation import SaturationAnalysis, sweep
from repro.sim.fleet import run_fleet_kernel
from repro.sim.kernel import Process
from repro.sim.ri import RICapacity
from repro.usecases.fleet import FleetConfig

from ..conftest import FAST_RSA_BITS

GOLDEN_PATH = (pathlib.Path(__file__).resolve().parent
               / "golden" / "saturation.md")

FLEET_CONFIG = FleetConfig(devices=150, seed="eq-fleet",
                           rsa_bits=FAST_RSA_BITS,
                           window_seconds=600, arrival_bins=12)


@pytest.fixture(scope="module")
def kernel_fleet():
    return run_fleet_kernel(FLEET_CONFIG)


def test_fleet_kernel_conserves_requests(kernel_fleet):
    # Every request the sequential accumulator charged is accounted
    # for on the shared RI — served or refused, never lost, for every
    # architecture.
    expected = kernel_fleet.base.accumulator.requests
    assert expected > 0
    for name, arch in kernel_fleet.architectures.items():
        assert arch.served + arch.refused == expected, name
        assert arch.refused == 0  # unbounded queue refuses nothing


def test_fleet_kernel_leaves_sequential_result_untouched(kernel_fleet):
    from repro.usecases.fleet import run_fleet
    plain = run_fleet(FLEET_CONFIG)
    assert kernel_fleet.base.accumulator == plain.accumulator


def test_fleet_kernel_is_worker_independent(kernel_fleet):
    sharded = run_fleet_kernel(FLEET_CONFIG, workers=2)
    assert sharded.base.accumulator == kernel_fleet.base.accumulator
    assert sharded.architectures == kernel_fleet.architectures


def test_fleet_kernel_shows_the_architecture_gap(kernel_fleet):
    # The same population loads a software RI orders of magnitude
    # harder than a hardware one — the paper's Table 1 story, now as
    # server-side occupancy.
    archs = kernel_fleet.architectures
    assert archs["SW"].utilization > 10 * archs["HW"].utilization


def test_bounded_fleet_kernel_refuses_only_overflow():
    capacity = RICapacity(signing_units=1, queue_limit=0)
    bounded = run_fleet_kernel(FLEET_CONFIG, capacity=capacity)
    expected = bounded.base.accumulator.requests
    for name, arch in bounded.architectures.items():
        assert arch.served + arch.refused == expected, name
    # The zero-length queue must have refused something on the slow
    # architecture for the bound to be exercised at all.
    assert bounded.architectures["SW"].refused > 0


# -- the golden saturation artifact ----------------------------------------

def _normalize(text):
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    stripped = [line.rstrip() for line in lines]
    while stripped and not stripped[-1]:
        stripped.pop()
    return "\n".join(stripped) + "\n"


def test_saturation_matches_golden_snapshot():
    ladder = sweep(seed="golden-saturation", requests=300)
    ladder.assert_monotone_utilization()
    generated = _normalize(SaturationAnalysis(sweep=ladder).render())
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(generated, encoding="utf-8")
    golden = _normalize(GOLDEN_PATH.read_text(encoding="utf-8"))
    if generated != golden:
        diff = "\n".join(difflib.unified_diff(
            golden.splitlines(), generated.splitlines(),
            fromfile="golden/saturation.md", tofile="generated",
            lineterm=""))
        raise AssertionError(
            "saturation artifact drifted from the golden snapshot; if "
            "intentional, regenerate with UPDATE_GOLDEN=1.\n" + diff)


def test_open_load_validation():
    from repro.core.architecture import HW_PROFILE
    from repro.sim.fleet import run_open_load
    from repro.sim.ri import nominal_service_ticks
    with pytest.raises(ValueError):
        run_open_load("eq", HW_PROFILE, arrivals_per_second=0,
                      requests=10)
    with pytest.raises(ValueError):
        run_open_load("eq", HW_PROFILE, arrivals_per_second=1.0,
                      requests=0)
    with pytest.raises(ValueError):
        nominal_service_ticks(HW_PROFILE, mix={"hello": 0.0})


def test_open_load_is_freed_by_reference_counting():
    """The finished run leaves no process for the cyclic collector."""
    from repro.core.architecture import HW_PROFILE
    from repro.sim.fleet import run_open_load
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run_open_load("eq-gc", HW_PROFILE, arrivals_per_second=500.0,
                      requests=50)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage if isinstance(obj, Process)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not leaked


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(rhos=())
    with pytest.raises(ValueError):
        sweep(rhos=(0.5, -0.1))


def test_monotone_gate_rejects_a_doctored_sweep():
    ladder = sweep(seed="golden-saturation", requests=120,
                   rhos=(0.3, 0.7))
    for curve in ladder.points.values():
        curve.reverse()
    with pytest.raises(AssertionError):
        ladder.assert_monotone_utilization()
