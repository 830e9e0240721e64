"""Deterministic profiler: exact folding, exports, diffs, goldens.

The load-bearing invariant is *exact reconciliation*: the profile
tree's root cumulative cycles equal the tracer's virtual clock, which
equals the :class:`~repro.core.model.CostBreakdown` total of the same
trace under the same architecture — bit-exactly, for real protocol
runs, modeled paper-scale replays, and randomized device episodes
(clean, lossy, and outage-scheduled channels alike).

The collapsed-stack and speedscope exports are pinned as goldens
(paper-scale Music Player under SW); regenerate after an intentional
format change with::

    UPDATE_GOLDEN=1 python -m pytest tests/obs/test_profile.py
"""

import json
import os
import pathlib
from typing import Any, Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.outage import (OutageRIChannel, OutageSchedule,
                                    OutageWindow)
from repro.core.architecture import HW_PROFILE, SW_PROFILE
from repro.core.model import PerformanceModel
from repro.core.trace import Algorithm, OperationRecord, Phase
from repro.drm.rel import play_count
from repro.drm.roap.faults import FaultPlan, FaultyChannel
from repro.drm.roap.wire import WireChannel
from repro.drm.session import (BreakerPolicy, CircuitBreaker, RetryPolicy,
                               RoapSession)
from repro.obs.profile import ProfileTree, diff
from repro.obs.tracer import Tracer
from repro.usecases.tracing import run_scenario
from repro.usecases.world import DRMWorld

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_COLLAPSED = GOLDEN_DIR / "music.collapsed.txt"
GOLDEN_SPEEDSCOPE = GOLDEN_DIR / "music.speedscope.json"

SEED = "golden-profile"


def music_tree() -> ProfileTree:
    tracer = Tracer(profile=SW_PROFILE, actor="terminal")
    run_scenario("music", tracer, seed=SEED)
    return ProfileTree.from_tracer(tracer, architecture="SW",
                                   scenario="music", seed=SEED)


# -- exact reconciliation ---------------------------------------------------

def test_modeled_tree_reconciles_with_cost_breakdown():
    tracer = Tracer(profile=SW_PROFILE, actor="terminal")
    trace = run_scenario("music", tracer, seed=SEED)
    tree = ProfileTree.from_tracer(tracer)
    breakdown = PerformanceModel().evaluate(trace, SW_PROFILE)
    assert tree.total_cycles == tracer.now
    assert tree.total_cycles == breakdown.total_cycles


def test_protocol_stack_tree_reconciles_with_cost_breakdown():
    tracer = Tracer(profile=SW_PROFILE, actor="terminal")
    trace = run_scenario("registration", tracer, seed=SEED,
                         rsa_bits=512)
    tree = ProfileTree.from_tracer(tracer)
    breakdown = PerformanceModel().evaluate(trace, SW_PROFILE)
    assert tree.total_cycles == breakdown.total_cycles


def test_unreconciled_tracer_raises_from_the_library():
    """A tracer that priced one record the trace lacks cannot fold into
    a profile: ``run_scenario`` itself refuses it."""
    tracer = Tracer(profile=SW_PROFILE, actor="terminal")
    tracer.on_record(OperationRecord(Algorithm.SHA1, Phase.REGISTRATION,
                                     1, 1, "stray"))
    with pytest.raises(AssertionError,
                       match="profile tree does not reconcile with the "
                             "cost model"):
        run_scenario("registration", tracer, seed=SEED, rsa_bits=512)


def test_tree_folds_siblings_and_counts_calls():
    tracer = Tracer(profile=SW_PROFILE)
    for _ in range(3):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    tree = ProfileTree.from_tracer(tracer)
    outer = tree.root.children["outer"]
    assert outer.calls == 3
    assert outer.children["inner"].calls == 3


def test_same_seed_trees_are_identical():
    first, second = music_tree(), music_tree()
    assert first.collapsed() == second.collapsed()
    assert first.to_speedscope() == second.to_speedscope()


# -- the Hypothesis property: random episodes reconcile ---------------------

def traced_episode(tracer, seed, content_octets, accesses, loss_rate,
                   outage, breaker):
    """Register, acquire, install and consume through a ROAP session.

    The channel is clean, lossy or (with ``outage``) down for the first
    30 simulation seconds; ``breaker`` attaches a circuit breaker.
    Returns the terminal's metered trace.
    """
    world = DRMWorld.create(seed=seed, rsa_bits=512, tracer=tracer)
    content_id, ro_id = "cid:%s" % seed, "ro:%s" % seed
    world.ci.publish(content_id, "audio/mpeg", b"\x5a" * content_octets,
                     "http://ri.example/shop")
    world.ri.add_offer(ro_id, world.ci.negotiate_license(content_id),
                       play_count(5))
    if outage:
        epoch = world.clock.now
        channel = OutageRIChannel(
            world.ri, OutageSchedule([OutageWindow(epoch, epoch + 30)]),
            world.clock)
    elif loss_rate:
        channel = FaultyChannel(world.ri,
                                FaultPlan.lossy("%s/faults" % seed,
                                                loss_rate),
                                clock=world.clock)
    else:
        channel = WireChannel(world.ri)
    session = RoapSession(
        world.agent, channel,
        RetryPolicy(max_attempts=5, base_backoff_seconds=1,
                    jitter_seconds=1),
        name="session/%s" % seed,
        breaker=(CircuitBreaker(world.clock, BreakerPolicy())
                 if breaker else None))
    if session.register().completed:
        acquired = session.acquire(ro_id)
        if acquired.completed:
            world.agent.install(acquired.value,
                                world.ci.get_dcf(content_id))
            for _ in range(accesses):
                world.agent.consume(content_id)
    return world.agent_crypto.trace


@given(seed=st.sampled_from(["prof-a", "prof-b", "prof-c"]),
       content_octets=st.sampled_from([1024, 4096]),
       accesses=st.integers(min_value=0, max_value=2),
       loss_rate=st.sampled_from([0.0, 0.3]),
       outage=st.booleans(),
       breaker=st.booleans(),
       profile=st.sampled_from([SW_PROFILE, HW_PROFILE]))
@settings(max_examples=10, deadline=None)
def test_episode_tree_cumulative_equals_span_cost_sum(
        seed, content_octets, accesses, loss_rate, outage, breaker,
        profile):
    """Profile cumulative == sum of tracer span costs, any episode.

    Clean, lossy and outage episodes (with or without a breaker) all
    fold into trees whose root cumulative cycles equal both the sum of
    the tracer's operation-span costs and the cost model's total for
    the same metered trace.
    """
    tracer = Tracer(profile=profile, actor="terminal")
    trace = traced_episode(tracer, seed, content_octets, accesses,
                           loss_rate, outage, breaker)
    tree = ProfileTree.from_tracer(tracer)
    span_cost_sum = sum(span.args["cycles"]
                        for span in tracer.operation_spans())
    assert tree.total_cycles == span_cost_sum
    assert tree.total_cycles == tracer.now
    assert tree.total_cycles == \
        PerformanceModel().evaluate(trace, profile).total_cycles


# -- exports round-trip and pin as goldens ----------------------------------

def paths_from_collapsed(text: str) -> "Dict[Tuple[str, ...], int]":
    """Parse collapsed-stack lines back to ``{path: self_cycles}``.

    The exact inverse of :meth:`ProfileTree.collapsed`, so the tests
    below can prove the export round-trips losslessly.
    """
    out: Dict[Tuple[str, ...], int] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        stack, cycles = line.rsplit(" ", 1)
        out[tuple(stack.split(";"))] = int(cycles)
    return out


def paths_from_speedscope(document: Dict[str, Any]
                          ) -> "Dict[Tuple[str, ...], int]":
    """Recover ``{path: self_cycles}`` from a speedscope document."""
    frames = [frame["name"]
              for frame in document["shared"]["frames"]]
    profile = document["profiles"][document.get("activeProfileIndex", 0)]
    out: Dict[Tuple[str, ...], int] = {}
    for stack, weight in zip(profile["samples"], profile["weights"]):
        path = tuple(frames[index] for index in stack)
        out[path] = out.get(path, 0) + weight
    return out


def test_collapsed_round_trips_exact_paths():
    tree = music_tree()
    parsed = paths_from_collapsed(tree.collapsed())
    expected = {path: self_cycles
                for path, (self_cycles, _cum, _calls)
                in tree.paths().items() if self_cycles > 0}
    assert parsed == expected


def test_speedscope_round_trips_exact_paths():
    tree = music_tree()
    parsed = paths_from_speedscope(tree.to_speedscope())
    expected = {path: self_cycles
                for path, (self_cycles, _cum, _calls)
                in tree.paths().items() if self_cycles > 0}
    assert parsed == expected


def test_collapsed_matches_golden_snapshot():
    generated = music_tree().collapsed()
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN_COLLAPSED.write_text(generated, encoding="utf-8")
    assert generated == GOLDEN_COLLAPSED.read_text(encoding="utf-8"), \
        "collapsed-stack profile drifted from the golden snapshot; " \
        "if intentional, regenerate with UPDATE_GOLDEN=1."


def test_speedscope_matches_golden_snapshot(tmp_path):
    out = tmp_path / "music.speedscope.json"
    music_tree().write_speedscope(str(out))
    generated = out.read_bytes()
    if os.environ.get("UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN_SPEEDSCOPE.write_bytes(generated)
    assert generated == GOLDEN_SPEEDSCOPE.read_bytes(), \
        "speedscope profile drifted from the golden snapshot; if " \
        "intentional, regenerate with UPDATE_GOLDEN=1."


def test_golden_speedscope_is_well_formed():
    document = json.loads(GOLDEN_SPEEDSCOPE.read_text(encoding="utf-8"))
    assert document["profiles"][0]["type"] == "sampled"
    profile = document["profiles"][0]
    assert len(profile["samples"]) == len(profile["weights"])
    frames = document["shared"]["frames"]
    assert all(0 <= index < len(frames)
               for sample in profile["samples"] for index in sample)


# -- diffs ------------------------------------------------------------------

def test_diff_attributes_architecture_deltas():
    sw = music_tree()
    tracer = Tracer(profile=HW_PROFILE, actor="terminal")
    run_scenario("music", tracer, seed=SEED)
    hw = ProfileTree.from_tracer(tracer, architecture="HW",
                                 scenario="music", seed=SEED)
    delta = diff(sw, hw)
    assert delta.total_delta == hw.total_cycles - sw.total_cycles
    # HW offloads the bulk crypto, so the total must drop...
    assert delta.total_delta < 0
    # ...and the report carries the scenario's top-level path with the
    # exact whole-run delta (diff paths exclude the synthetic root).
    by_path = {d.path: d for d in delta.deltas}
    top = by_path[("music",)]
    assert top.delta == delta.total_delta


def test_diff_of_identical_trees_is_empty():
    delta = diff(music_tree(), music_tree())
    assert delta.total_delta == 0
    assert all(d.delta == 0 for d in delta.deltas)
