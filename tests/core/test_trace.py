"""Operation traces: records, totals, canonical form."""

import pytest

from repro.core.trace import (Algorithm, OperationRecord, OperationTrace,
                              Phase)


def record(algorithm=Algorithm.SHA1, phase=Phase.CONSUMPTION,
           invocations=1, blocks=10, label="x"):
    return OperationRecord(algorithm=algorithm, phase=phase,
                           invocations=invocations, blocks=blocks,
                           label=label)


def test_record_rejects_negative_counts():
    with pytest.raises(ValueError):
        record(invocations=-1)
    with pytest.raises(ValueError):
        record(blocks=-1)


def test_record_scaled():
    scaled = record(invocations=2, blocks=5).scaled(3)
    assert scaled.invocations == 6
    assert scaled.blocks == 15
    assert scaled.algorithm is Algorithm.SHA1
    with pytest.raises(ValueError):
        record().scaled(-1)


def test_trace_append_len_iter():
    trace = OperationTrace([record(label="a")])
    trace.append(record(label="b"))
    assert len(trace) == 2
    assert [r.label for r in trace] == ["a", "b"]


def test_filter_by_algorithm_and_phase():
    trace = OperationTrace([
        record(Algorithm.SHA1, Phase.REGISTRATION),
        record(Algorithm.SHA1, Phase.CONSUMPTION),
        record(Algorithm.AES_DECRYPT, Phase.CONSUMPTION),
    ])
    assert len(trace.filter(algorithm=Algorithm.SHA1)) == 2
    assert len(trace.filter(phase=Phase.CONSUMPTION)) == 2
    assert len(trace.filter(algorithm=Algorithm.SHA1,
                            phase=Phase.CONSUMPTION)) == 1


def test_totals_by_algorithm():
    trace = OperationTrace([
        record(Algorithm.SHA1, invocations=1, blocks=10),
        record(Algorithm.SHA1, invocations=2, blocks=20),
        record(Algorithm.RSA_PRIVATE, invocations=1, blocks=1),
    ])
    totals = trace.totals_by_algorithm()
    assert totals[Algorithm.SHA1] == (3, 30)
    assert totals[Algorithm.RSA_PRIVATE] == (1, 1)


def test_canonical_ignores_labels_and_batching():
    a = OperationTrace([record(label="x", blocks=3),
                        record(label="y", blocks=4)])
    b = OperationTrace([record(label="z", invocations=2, blocks=7)])
    assert a.canonical() == b.canonical()


def test_canonical_distinguishes_work():
    a = OperationTrace([record(blocks=3)])
    b = OperationTrace([record(blocks=4)])
    assert a.canonical() != b.canonical()
