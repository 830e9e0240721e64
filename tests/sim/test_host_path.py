"""The kernel RI's untraced host path computes what the full path does.

Two shortcuts keep the per-request host work to what the model needs:
arrival kinds come from :func:`repro.sim.queueing.kind_draw`, one
bisect over precomputed cumulative weights, and
:meth:`~repro.sim.ri.RIServer.serve_request` makes no tracer calls when
the tracer's ``enabled`` is False. These tests hold both to the paths
they replace: the draw to ``Random.choices`` (same kinds, same RNG
state after), the untraced serve to a run with a recording
:class:`~repro.obs.tracer.Tracer` (same ledger, events, latencies and
storm digest), while the traced run still spans every served request.
"""

from collections import Counter
from itertools import accumulate
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architecture import HW_PROFILE, SW_PROFILE
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.fleet import run_open_load
from repro.sim.overload import StormSpec, run_storm
from repro.sim.queueing import kind_draw
from repro.sim.ri import nominal_service_ticks

_WEIGHT = st.one_of(
    st.integers(min_value=1, max_value=10 ** 6),
    st.floats(min_value=1e-9, max_value=1e9, allow_nan=False,
              allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64),
       weights=st.lists(_WEIGHT, min_size=1, max_size=8),
       draws=st.integers(min_value=0, max_value=200))
def test_kind_draw_is_random_choices(seed, weights, draws):
    names = tuple("kind-%d" % index for index in range(len(weights)))
    cum_weights = tuple(accumulate(weights))
    reference = Random(seed)
    rng = Random(seed)
    draw = kind_draw(rng, names, cum_weights)
    expected = [reference.choices(names, cum_weights=cum_weights)[0]
                for _ in range(draws)]
    assert [draw() for _ in range(draws)] == expected
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("names, cum_weights", [
    ((), ()),
    (("a", "b"), (1.0,)),
    (("a",), (0.0,)),
    (("a", "b"), (1.0, float("inf"))),
    (("a",), (float("nan"),)),
])
def test_kind_draw_rejects_what_choices_rejects(names, cum_weights):
    with pytest.raises(ValueError):
        kind_draw(Random(0), names, cum_weights)


@pytest.mark.parametrize("profile", (SW_PROFILE, HW_PROFILE),
                         ids=lambda profile: profile.name)
def test_open_load_untraced_equals_traced(profile):
    rate = 0.9 * profile.clock_hz / nominal_service_ticks(profile)
    tracer = Tracer(profile=profile, actor="ri")
    traced = run_open_load("host-path", profile, rate, requests=400,
                           tracer=tracer).load
    untraced = run_open_load("host-path", profile, rate, requests=400,
                             tracer=NULL_TRACER).load
    assert (untraced.served, untraced.refused, untraced.events,
            untraced.span_ticks) == (traced.served, traced.refused,
                                     traced.events, traced.span_ticks)
    # Latency, wait and per-kind summaries and the SLO report too.
    assert untraced == traced
    served_spans = [span for span in tracer.spans
                    if span.name.startswith("ri.serve.")]
    assert len(served_spans) == traced.served
    assert Counter(span.name[len("ri.serve."):]
                   for span in served_spans) == {
        kind: summary.count
        for kind, summary in traced.latency_by_kind.items()
        if summary.count}


def test_storm_untraced_equals_traced():
    spec = StormSpec(seed="host-path", admission="codel",
                     retry="backoff-jitter", deadlines=True,
                     spike_start=60, spike_end=120, horizon=240)
    tracer = Tracer(profile=SW_PROFILE, actor="ri")
    traced = run_storm(spec, tracer=tracer)
    untraced = run_storm(spec, tracer=NULL_TRACER)
    assert untraced.digest() == traced.digest()
    assert (untraced.served, untraced.refused, untraced.shed,
            untraced.timed_out, untraced.events) == \
        (traced.served, traced.refused, traced.shed, traced.timed_out,
         traced.events)
    assert untraced.slo == traced.slo
    # The storm stops at its horizon, not drained: closing the kernel
    # unwinds a request still in service, whose span closes without the
    # service_ticks a finished service sets.
    assert sum(span.name.startswith("ri.serve.")
               and "service_ticks" in span.args
               for span in tracer.spans) == traced.served
