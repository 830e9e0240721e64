"""The kernel RI's arrival-kind draw computes what ``Random.choices`` does.

Arrival kinds come from :func:`repro.sim.queueing.kind_draw`, one bisect
over precomputed cumulative weights, which keeps the per-request host
work to what the model needs. These tests hold it to the call it
replaces: same kinds, same RNG state after, and the same rejections.
The storm and open-load outputs it feeds are pinned by
``tests/sim/test_pinned_outputs.py``.
"""

from itertools import accumulate
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.queueing import kind_draw

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
