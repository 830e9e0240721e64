"""Hypothesis property tests on the core data structures.

Invariants the whole pricing pipeline rests on: trace totals and
canonical form are batching-invariant, pricing is additive and
scale-linear, and the workload scaler is homogeneous in the access
count.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architecture import (HW_PROFILE, SW_HW_PROFILE,
                                     SW_PROFILE)
from repro.core.model import PerformanceModel
from repro.core.trace import (Algorithm, OperationRecord, OperationTrace,
                              Phase)

records = st.builds(
    OperationRecord,
    algorithm=st.sampled_from(list(Algorithm)),
    phase=st.sampled_from(list(Phase)),
    invocations=st.integers(min_value=0, max_value=10_000),
    blocks=st.integers(min_value=0, max_value=1_000_000),
    label=st.sampled_from(["a", "b", "dcf-hash", "content-decrypt"]),
)
traces = st.lists(records, min_size=0, max_size=30).map(OperationTrace)

MODEL = PerformanceModel()
PROFILES = (SW_PROFILE, SW_HW_PROFILE, HW_PROFILE)


def aggregated(trace):
    """``trace`` re-batched: records sharing (algorithm, phase, label)
    collapse into one, in order of first appearance."""
    merged = {}
    for record in trace:
        key = (record.algorithm, record.phase, record.label)
        if key in merged:
            merged[key] = replace(
                merged[key],
                invocations=merged[key].invocations + record.invocations,
                blocks=merged[key].blocks + record.blocks)
        else:
            merged[key] = record
    return OperationTrace(list(merged.values()))


@given(trace=traces)
@settings(max_examples=200, deadline=None)
def test_aggregation_preserves_totals(trace):
    batched = aggregated(trace)
    assert batched.totals_by_algorithm() == trace.totals_by_algorithm()
    for phase in Phase:
        assert batched.filter(phase=phase).totals_by_algorithm() \
            == trace.filter(phase=phase).totals_by_algorithm()
    assert batched.canonical() == trace.canonical()


@given(trace=traces)
@settings(max_examples=100, deadline=None)
def test_pricing_invariant_under_aggregation(trace):
    """Batching must never change the bill."""
    for profile in PROFILES:
        assert MODEL.evaluate(trace, profile).total_cycles \
            == MODEL.evaluate(aggregated(trace), profile).total_cycles


@given(a=traces, b=traces)
@settings(max_examples=100, deadline=None)
def test_pricing_is_additive(a, b):
    for profile in PROFILES:
        combined = MODEL.evaluate(OperationTrace(a.records + b.records),
                                  profile).total_cycles
        separate = (MODEL.evaluate(a, profile).total_cycles
                    + MODEL.evaluate(b, profile).total_cycles)
        assert combined == separate


@given(record=records, factor=st.integers(min_value=0, max_value=50))
@settings(max_examples=200, deadline=None)
def test_record_scaling_is_linear(record, factor):
    scaled = record.scaled(factor)
    for profile in PROFILES:
        single = MODEL.evaluate(OperationTrace([record]),
                                profile).total_cycles
        multiple = MODEL.evaluate(OperationTrace([scaled]),
                                  profile).total_cycles
        assert multiple == factor * single


@given(trace=traces)
@settings(max_examples=100, deadline=None)
def test_hardware_never_slower(trace):
    """With Table 1 costs, full hardware is never slower than any other
    assignment, and full software never faster."""
    sw = MODEL.evaluate(trace, SW_PROFILE).total_cycles
    mixed = MODEL.evaluate(trace, SW_HW_PROFILE).total_cycles
    hw = MODEL.evaluate(trace, HW_PROFILE).total_cycles
    assert hw <= mixed <= sw


@given(trace=traces)
@settings(max_examples=100, deadline=None)
def test_phase_totals_partition_the_bill(trace):
    for profile in PROFILES:
        breakdown = MODEL.evaluate(trace, profile)
        assert sum(breakdown.cycles_by_phase().values()) \
            == breakdown.total_cycles
        assert sum(breakdown.cycles_by_algorithm().values()) \
            == breakdown.total_cycles


@given(accesses=st.integers(min_value=1, max_value=40),
       blocks=st.integers(min_value=1, max_value=100_000))
@settings(max_examples=100, deadline=None)
def test_scale_trace_homogeneous_in_accesses(accesses, blocks):
    """Scaling consumption by N multiplies exactly the consumption
    phase's cycles by N."""
    from repro.usecases.workload import scale_trace
    base = OperationTrace([
        OperationRecord(Algorithm.RSA_PRIVATE, Phase.REGISTRATION, 1, 1),
        OperationRecord(Algorithm.AES_DECRYPT, Phase.CONSUMPTION, 1,
                        blocks, "content-decrypt"),
        OperationRecord(Algorithm.SHA1, Phase.CONSUMPTION, 1, blocks,
                        "dcf-hash"),
    ])
    scaled = scale_trace(base, target_dcf_octets=blocks * 16,
                         target_payload_octets=blocks * 16,
                         accesses=accesses)
    base_consumption = base.filter(
        phase=Phase.CONSUMPTION).totals_by_algorithm()
    scaled_consumption = scaled.filter(
        phase=Phase.CONSUMPTION).totals_by_algorithm()
    for algorithm, (inv, blk) in base_consumption.items():
        assert scaled_consumption[algorithm] \
            == (inv * accesses, blk * accesses)
    # Non-consumption phases pass through untouched.
    assert scaled.filter(phase=Phase.REGISTRATION).canonical() \
        == base.filter(phase=Phase.REGISTRATION).canonical()
