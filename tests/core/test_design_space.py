"""Design-space enumeration and Pareto extraction."""

import pytest

from repro.core.design_space import (DesignPoint, MACRO_AES, MACRO_BLOCKS,
                                     MACRO_RSA, MACRO_SHA1, MacroCosts,
                                     enumerate_design_points,
                                     marginal_value, pareto_frontier,
                                     profile_for_macros)
from repro.core.costs import Implementation
from repro.core.trace import (Algorithm, OperationRecord, OperationTrace,
                              Phase)


@pytest.fixture()
def trace():
    """A workload with meaningful RSA and bulk components."""
    return OperationTrace([
        OperationRecord(Algorithm.RSA_PRIVATE, Phase.REGISTRATION, 3, 3),
        OperationRecord(Algorithm.RSA_PUBLIC, Phase.REGISTRATION, 4, 4),
        OperationRecord(Algorithm.AES_DECRYPT, Phase.CONSUMPTION, 5,
                        100_000),
        OperationRecord(Algorithm.SHA1, Phase.CONSUMPTION, 5, 100_000),
    ])


def test_macro_blocks_cover_all_algorithms():
    covered = {a for algorithms in MACRO_BLOCKS.values()
               for a in algorithms}
    assert covered == set(Algorithm)


def test_profile_for_macros():
    profile = profile_for_macros([MACRO_AES])
    assert profile.implementation(Algorithm.AES_DECRYPT) \
        == Implementation.HARDWARE
    assert profile.implementation(Algorithm.RSA_PRIVATE) \
        == Implementation.SOFTWARE
    assert profile.name == "AES"
    assert profile_for_macros([]).name == "SW-only"


def test_enumerate_produces_all_subsets(trace):
    points = enumerate_design_points(trace)
    assert len(points) == 8
    names = {p.name for p in points}
    assert "SW-only" in names
    assert "AES+RSA+SHA1" in names


def test_gate_costs(trace):
    costs = MacroCosts(aes_kgates=10, sha1_kgates=5, rsa_kgates=50)
    points = enumerate_design_points(trace, costs=costs)
    by_name = {p.name: p for p in points}
    assert by_name["SW-only"].kgates == 0
    assert by_name["AES"].kgates == 10
    assert by_name["AES+RSA+SHA1"].kgates == 65


def test_full_hardware_is_fastest(trace):
    points = enumerate_design_points(trace)
    fastest = min(points, key=lambda p: p.time_ms)
    assert fastest.name == "AES+RSA+SHA1"
    slowest = max(points, key=lambda p: p.time_ms)
    assert slowest.name == "SW-only"


def test_pareto_frontier_properties(trace):
    points = enumerate_design_points(trace)
    frontier = pareto_frontier(points)
    # Monotone: gates strictly increase, time strictly decreases.
    for earlier, later in zip(frontier, frontier[1:]):
        assert later.kgates > earlier.kgates
        assert later.time_ms < earlier.time_ms
    # Endpoints: SW-only is always Pareto (0 gates); full HW is fastest.
    assert frontier[0].name == "SW-only"
    assert frontier[-1].time_ms == min(p.time_ms for p in points)
    # Every non-frontier point is dominated.
    for point in points:
        if point in frontier:
            continue
        assert any(f.kgates <= point.kgates
                   and f.time_ms <= point.time_ms for f in frontier)


def test_pareto_energy_objective(trace):
    points = enumerate_design_points(trace)
    frontier = pareto_frontier(points, objective="energy")
    for earlier, later in zip(frontier, frontier[1:]):
        assert later.energy_mj < earlier.energy_mj
    with pytest.raises(ValueError):
        pareto_frontier(points, objective="gates")


def test_marginal_value_shape(trace):
    values = marginal_value(enumerate_design_points(trace))
    assert set(values) == {MACRO_AES, MACRO_SHA1, MACRO_RSA}
    for stats in values.values():
        assert stats["speedup"] > 1.0
        assert stats["saved_ms"] > 0.0
        assert stats["saved_ms_per_kgate"] > 0.0


def test_marginal_value_matches_workload_shape(trace):
    """The fixture workload (121.9M RSA vs 83M AES cycles) values the
    RSA macro most; a truly bulk-heavy one flips to AES."""
    values = marginal_value(enumerate_design_points(trace))
    assert values[MACRO_RSA]["saved_ms"] > values[MACRO_AES]["saved_ms"]

    bulk_heavy = OperationTrace([
        OperationRecord(Algorithm.RSA_PRIVATE, Phase.REGISTRATION, 3, 3),
        OperationRecord(Algorithm.AES_DECRYPT, Phase.CONSUMPTION, 5,
                        1_000_000),
    ])
    bulk_values = marginal_value(enumerate_design_points(bulk_heavy))
    assert bulk_values[MACRO_AES]["saved_ms"] \
        > bulk_values[MACRO_RSA]["saved_ms"]


def test_design_point_name():
    point = DesignPoint(macros=(), kgates=0, time_ms=1, energy_mj=1)
    assert point.name == "SW-only"
