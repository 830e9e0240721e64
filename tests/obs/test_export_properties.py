"""Property tests: export round-trips and merge algebra.

Two contracts from the issue, stated as properties:

* Chrome trace export → re-import preserves the operation trace's
  ``canonical()`` form, for any record mix.
* ``MetricsRegistry.merge`` is associative and commutative, and folding
  any shard split of an operation stream equals the single-process
  registry — the invariant the fleet engine's worker-count independence
  rests on.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace import Algorithm, OperationRecord, OperationTrace, Phase
from repro.obs.export import to_chrome, trace_from_chrome
from repro.obs.metrics import MetricsRegistry, merge_registries
from repro.obs.tracer import Tracer

records = st.builds(
    OperationRecord,
    algorithm=st.sampled_from(sorted(Algorithm, key=lambda a: a.value)),
    phase=st.sampled_from(sorted(Phase, key=lambda p: p.value)),
    invocations=st.integers(min_value=1, max_value=4),
    blocks=st.integers(min_value=0, max_value=64),
    label=st.text(alphabet="abcdefgh-", min_size=1, max_size=12),
)

record_lists = st.lists(records, max_size=24)


def traced(record_list):
    tracer = Tracer()
    for record in record_list:
        tracer.on_record(record)
    return tracer


@given(record_lists)
@settings(max_examples=40, deadline=None)
def test_chrome_round_trip_preserves_canonical_trace(record_list):
    tracer = traced(record_list)
    document = json.loads(json.dumps(to_chrome(tracer), sort_keys=True))
    rebuilt = trace_from_chrome(document)
    assert rebuilt.canonical() == OperationTrace(record_list).canonical()


# -- merge algebra -----------------------------------------------------------

metric_ops = st.lists(
    st.one_of(
        st.tuples(st.just("counter"),
                  st.sampled_from(("ops", "retries", "commits")),
                  st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("gauge"),
                  st.sampled_from(("depth", "peak")),
                  st.integers(min_value=-5, max_value=99)),
        st.tuples(st.just("histogram"),
                  st.sampled_from(("cycles", "octets")),
                  st.integers(min_value=0, max_value=1000)),
    ),
    max_size=30,
)


def registry_from(ops):
    registry = MetricsRegistry()
    for kind, name, value in ops:
        getattr(registry, kind)(name, value)
    return registry


@given(metric_ops, metric_ops)
@settings(max_examples=40, deadline=None)
def test_merge_is_commutative(ops_a, ops_b):
    a, b = registry_from(ops_a), registry_from(ops_b)
    assert a.merge(b) == b.merge(a)


@given(metric_ops, metric_ops, metric_ops)
@settings(max_examples=40, deadline=None)
def test_merge_is_associative(ops_a, ops_b, ops_c):
    a, b, c = (registry_from(ops) for ops in (ops_a, ops_b, ops_c))
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(metric_ops, st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_any_shard_split_equals_single_process_run(ops, shards):
    whole = registry_from(ops)
    split = [ops[i::shards] for i in range(shards)]
    merged = merge_registries(registry_from(part) for part in split)
    assert merged == whole
