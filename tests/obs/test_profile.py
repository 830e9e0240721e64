"""Deterministic profiler: exact folding, exports, diffs, goldens.

The load-bearing invariant is *exact reconciliation*: the profile
tree's root cumulative cycles equal the tracer's virtual clock, which
equals the :class:`~repro.core.model.CostBreakdown` total of the same
trace under the same architecture — bit-exactly, for real protocol
runs, modeled paper-scale replays, and randomized kernel episodes
(clean, lossy, and outage-scheduled channels alike).

The collapsed-stack and speedscope exports are pinned as goldens
(paper-scale Music Player under SW); regenerate after an intentional
format change with::

    UPDATE_GOLDEN=1 python -m pytest tests/obs/test_profile.py
"""

import json
import os
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architecture import HW_PROFILE, SW_PROFILE
from repro.core.model import PerformanceModel
from repro.core.trace import Algorithm, OperationRecord, Phase
from repro.obs.profile import (ProfileTree, diff, paths_from_collapsed,
                               paths_from_speedscope)
from repro.obs.tracer import Tracer
from repro.sim.roap import EpisodeSpec, run_episode
from repro.usecases.tracing import replay_modeled, run_profile_scenario

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_COLLAPSED = GOLDEN_DIR / "music.collapsed.txt"
GOLDEN_SPEEDSCOPE = GOLDEN_DIR / "music.speedscope.json"

SEED = "golden-profile"


def music_tree() -> ProfileTree:
    tracer = Tracer(profile=SW_PROFILE, actor="terminal")
    replay_modeled("music", tracer, seed=SEED)
    return ProfileTree.from_tracer(tracer, architecture="SW",
                                   scenario="music", seed=SEED)


# -- exact reconciliation ---------------------------------------------------

def test_modeled_tree_reconciles_with_cost_breakdown():
    tracer = Tracer(profile=SW_PROFILE, actor="terminal")
    trace = replay_modeled("music", tracer, seed=SEED)
    tree = ProfileTree.from_tracer(tracer)
    breakdown = PerformanceModel().evaluate(trace, SW_PROFILE)
    assert tree.total_cycles == tracer.now
    assert tree.total_cycles == breakdown.total_cycles


def test_protocol_stack_tree_reconciles_with_cost_breakdown():
    tracer = Tracer(profile=SW_PROFILE, actor="terminal")
    trace = run_profile_scenario("registration", tracer, seed=SEED,
                                 rsa_bits=512)
    tree = ProfileTree.from_tracer(tracer)
    breakdown = PerformanceModel().evaluate(trace, SW_PROFILE)
    assert tree.total_cycles == breakdown.total_cycles


def test_unreconciled_tracer_raises_from_the_library():
    """A tracer that priced one record the trace lacks cannot fold into
    a profile: ``run_profile_scenario`` itself refuses it."""
    tracer = Tracer(profile=SW_PROFILE, actor="terminal")
    tracer.on_record(OperationRecord(Algorithm.SHA1, Phase.REGISTRATION,
                                     1, 1, "stray"))
    with pytest.raises(AssertionError,
                       match="profile tree does not reconcile with the "
                             "cost model"):
        run_profile_scenario("registration", tracer, seed=SEED,
                             rsa_bits=512)


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

episode_specs = st.builds(
    EpisodeSpec,
    seed=st.sampled_from(["prof-a", "prof-b", "prof-c"]),
    rsa_bits=st.just(512),
    content_octets=st.sampled_from([1024, 4096]),
    plays=st.just(5),
    accesses=st.integers(min_value=0, max_value=2),
    loss_rate=st.sampled_from([0.0, 0.3]),
    outages=st.sampled_from([(), ((0, 30),)]),
    breaker=st.booleans(),
)


@given(spec=episode_specs,
       profile=st.sampled_from([SW_PROFILE, HW_PROFILE]))
@settings(max_examples=10, deadline=None)
def test_episode_tree_cumulative_equals_span_cost_sum(spec, profile):
    """Profile cumulative == sum of tracer span costs, any episode.

    Clean, lossy and outage episodes (with or without a breaker) all
    fold into trees whose root cumulative cycles equal both the sum of
    the tracer's operation-span costs and the cost model's total for
    the same metered trace.
    """
    tracer = Tracer(profile=profile, actor="terminal")
    result = run_episode(spec, tracer=tracer)
    tree = ProfileTree.from_tracer(tracer)
    span_cost_sum = sum(span.args["cycles"]
                        for span in tracer.operation_spans())
    assert tree.total_cycles == span_cost_sum
    assert tree.total_cycles == tracer.now
    assert tree.total_cycles == result.breakdown(profile).total_cycles


# -- exports round-trip and pin as goldens ----------------------------------

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
    replay_modeled("music", tracer, seed=SEED)
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
    assert delta.regressions() == []
