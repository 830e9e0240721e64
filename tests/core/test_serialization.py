"""Trace and breakdown JSON serialization.

Operation traces travel as Chrome trace-event JSON
(:mod:`repro.obs.export`); breakdowns as a flat summary dict.
"""

import json

import pytest

from repro.core.architecture import SW_PROFILE
from repro.core.model import PerformanceModel
from repro.core.serialization import breakdown_to_dict
from repro.core.trace import (Algorithm, OperationRecord, OperationTrace,
                              Phase)
from repro.obs.export import to_chrome, trace_from_chrome, write_chrome
from repro.obs.tracer import OPERATION_CATEGORY, Tracer


@pytest.fixture()
def trace():
    return OperationTrace([
        OperationRecord(Algorithm.SHA1, Phase.CONSUMPTION, 1, 1920,
                        "dcf-hash"),
        OperationRecord(Algorithm.RSA_PRIVATE, Phase.REGISTRATION, 1, 1,
                        "sign"),
    ])


def traced(trace):
    tracer = Tracer(profile=SW_PROFILE)
    for record in trace:
        tracer.on_record(record)
    return tracer


def chrome(trace):
    return to_chrome(traced(trace))


def first_operation_args(document):
    return next(entry["args"] for entry in document["traceEvents"]
                if entry.get("cat") == OPERATION_CATEGORY)


def test_dict_roundtrip(trace):
    rebuilt = trace_from_chrome(chrome(trace))
    assert rebuilt.records == trace.records


def test_file_roundtrip(trace, tmp_path):
    path = str(tmp_path / "trace.json")
    write_chrome(traced(trace), path)
    # The file is real, valid JSON.
    with open(path) as handle:
        raw = json.load(handle)
    assert raw["otherData"]["kind"] == "repro-cycle-trace"
    assert trace_from_chrome(raw).records == trace.records


def test_rejects_wrong_kind(trace):
    data = chrome(trace)
    data["otherData"]["kind"] = "something-else"
    with pytest.raises(ValueError):
        trace_from_chrome(data)


def test_rejects_wrong_schema(trace):
    data = chrome(trace)
    data["otherData"]["schema"] = 99
    with pytest.raises(ValueError):
        trace_from_chrome(data)


def test_rejects_malformed_record(trace):
    data = chrome(trace)
    first_operation_args(data)["algorithm"] = "rot13"
    with pytest.raises(ValueError):
        trace_from_chrome(data)
    data = chrome(trace)
    del first_operation_args(data)["blocks"]
    with pytest.raises(ValueError):
        trace_from_chrome(data)


def test_empty_trace_roundtrip():
    rebuilt = trace_from_chrome(chrome(OperationTrace()))
    assert len(rebuilt) == 0


def test_breakdown_export(trace):
    breakdown = PerformanceModel().evaluate(trace, SW_PROFILE)
    data = breakdown_to_dict(breakdown)
    assert data["kind"] == "cost-breakdown"
    assert data["profile"] == "SW"
    assert data["total_cycles"] == breakdown.total_cycles
    assert data["by_algorithm_cycles"]["rsa-1024-private"] == 37_740_000
    assert data["by_phase_cycles"]["registration"] == 37_740_000
    assert len(data["operations"]) == 2
    assert json.loads(json.dumps(data)) == data


def test_serialized_trace_reprices_identically(trace):
    """The exchange-currency property: price before == price after."""
    model = PerformanceModel()
    before = model.evaluate(trace, SW_PROFILE).total_cycles
    document = json.loads(json.dumps(chrome(trace)))
    after = model.evaluate(trace_from_chrome(document),
                           SW_PROFILE).total_cycles
    assert before == after
