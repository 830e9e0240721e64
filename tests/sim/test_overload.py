"""Admission control and the retry-storm engine.

Two layers. The policy layer pins each admission policy's shedding
decision against hand-computed budgets (token refills, CoDel
intervals, per-class bounds) and ``serve_request``'s four terminal
statuses on small schedules. The storm layer asserts the experiment's
headline at the pinned seed: with no admission control and naive
retries the goodput collapse outlives the spike by at least five
spike durations, while the fully mitigated cell recovers on the spot
— plus request conservation and digest-level determinism, the
contracts the analysis sweep and CI smoke gate build on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architecture import HW_PROFILE, SW_PROFILE
from repro.sim import overload
from repro.sim.admission import (ADMISSION_POLICIES, CoDelShedder,
                                 PriorityAdmission, TokenBucket,
                                 make_admission)
from repro.sim.kernel import Kernel
from repro.sim.overload import (RETRY_DISCIPLINES, RETRY_POLICIES,
                                RetryBudget, StormSpec, run_storm)
from repro.sim.ri import RIServer


def _server(admission=None, profile=SW_PROFILE, **kwargs):
    kernel = Kernel(seed="overload-unit")
    return kernel, RIServer(kernel, profile, admission=admission,
                            **kwargs)


def _drive(kernel, ri, plans):
    """Run one ``serve_request`` per plan; returns outcomes in order."""
    outcomes = {}

    def request(index, kind, kwargs):
        outcome = yield from ri.serve_request(kind, **kwargs)
        outcomes[index] = outcome

    for index, (at, kind, kwargs) in enumerate(plans):
        kernel.spawn("req-%02d" % index, request(index, kind, kwargs),
                     at=at)
    kernel.run()
    return [outcomes[index] for index in sorted(outcomes)]


# -- policy construction ----------------------------------------------------

def test_make_admission_spells_every_policy():
    assert make_admission("none") is None
    for name in ADMISSION_POLICIES[1:]:
        policy = make_admission(name)
        assert policy is not None and policy.name == name
    with pytest.raises(ValueError):
        make_admission("leaky-bucket")


def test_policy_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate_fraction=0.0)
    with pytest.raises(ValueError):
        TokenBucket(burst=0)
    with pytest.raises(ValueError):
        CoDelShedder(target_services=0.0)
    with pytest.raises(ValueError):
        PriorityAdmission(class_limits={0: 0})


# -- token bucket -----------------------------------------------------------

def test_token_bucket_sheds_exactly_past_the_burst():
    _kernel, ri = _server()
    bucket = TokenBucket(rate_fraction=1.0, burst=3)
    bucket.bind(ri)
    verdicts = [bucket.admit(ri, "acquisition", 0) for _ in range(4)]
    assert verdicts[:3] == [None, None, None]
    assert "token-bucket" in verdicts[3]


def test_token_bucket_refills_one_token_per_period():
    _kernel, ri = _server()
    bucket = TokenBucket(rate_fraction=1.0, burst=1)
    bucket.bind(ri)
    # One token per nominal service time at rate_fraction=1.0.
    assert bucket.ticks_per_token == \
        int(round(ri.nominal_service_ticks()))
    assert bucket.admit(ri, "acquisition", 0) is None
    assert bucket.admit(ri, "acquisition", 0) is not None
    later = bucket.ticks_per_token
    assert bucket.admit(ri, "acquisition", later) is None
    assert bucket.admit(ri, "acquisition", later) is not None


# -- CoDel ------------------------------------------------------------------

def test_codel_sheds_only_after_a_sustained_standing_queue():
    _kernel, ri = _server()
    codel = CoDelShedder(target_services=1.0, interval_services=2.0)
    codel.bind(ri)
    # Push the work backlog past one service unit of implied delay.
    while codel._implied_delay_ticks(ri) <= codel.target_ticks:
        codel.on_admitted(ri, "registration", 0)
    # Above target, but not yet for a full interval: admit.
    assert codel.admit(ri, "acquisition", 0) is None
    assert codel.admit(ri, "acquisition",
                       codel.interval_ticks - 1) is None
    # A full interval above target: shed.
    verdict = codel.admit(ri, "acquisition", codel.interval_ticks)
    assert verdict is not None and "codel" in verdict
    # Draining the backlog under target re-opens admission.
    while codel._implied_delay_ticks(ri) > codel.target_ticks:
        codel.on_departed(ri, "registration",
                          codel.interval_ticks, "granted")
    assert codel.admit(ri, "acquisition",
                       codel.interval_ticks + 1) is None


# -- priority classes -------------------------------------------------------

def test_priority_admission_bounds_each_class_separately():
    _kernel, ri = _server()
    policy = PriorityAdmission(class_limits={0: 1, 1: 1, 2: 1})
    policy.bind(ri)
    assert policy.admit(ri, "acquisition", 0) is None
    policy.on_admitted(ri, "acquisition", 0)
    # The acquisition class is full; registrations still get in.
    assert "priority" in policy.admit(ri, "acquisition", 0)
    assert policy.admit(ri, "registration", 0) is None
    policy.on_departed(ri, "acquisition", 5, "granted")
    assert policy.admit(ri, "acquisition", 5) is None


def test_priority_classes_order_registration_first():
    policy = PriorityAdmission()
    assert policy.priority("registration") == 0
    assert policy.priority("domain-join") == 1
    assert policy.priority("acquisition") == 2
    # Unknown kinds rank below every configured class.
    assert policy.priority("mystery") == 3


# -- serve_request terminal statuses ----------------------------------------

def test_serve_request_statuses_served_and_refused():
    from repro.sim.ri import RICapacity
    kernel, ri = _server(capacity=RICapacity(signing_units=1,
                                             queue_limit=0))
    outcomes = _drive(kernel, ri, [
        (0, "hello", {}),
        (1, "hello", {}),  # server busy, zero queue: refused
    ])
    assert [o.status for o in outcomes] == ["served", "refused"]
    assert outcomes[0].service_ticks == ri.base_ticks("hello")
    assert outcomes[1].finished == outcomes[1].arrived == 1
    assert (ri.served, ri.refused) == (1, 1)


def test_serve_request_timeout_expires_in_queue():
    kernel, ri = _server()
    outcomes = _drive(kernel, ri, [
        (0, "registration", {}),
        (1, "hello", {"timeout": 10}),
    ])
    assert [o.status for o in outcomes] == ["served", "timed-out"]
    expired = outcomes[1]
    assert expired.waited == 10 and expired.latency == 10
    assert expired.service_ticks == 0
    assert ri.timed_out == 1


def test_serve_request_deadline_in_the_past_resolves_on_arrival():
    kernel, ri = _server()
    outcomes = _drive(kernel, ri, [
        (5, "hello", {"deadline": 3}),
    ])
    assert outcomes[0].status == "timed-out"
    assert outcomes[0].finished == outcomes[0].arrived == 5
    # Never reached the queue: the kernel saw no expiry either.
    assert ri.signing.timeouts == 0 and ri.timed_out == 1


def test_serve_request_deadline_caps_the_timeout():
    kernel, ri = _server()
    outcomes = _drive(kernel, ri, [
        (0, "registration", {}),
        (2, "hello", {"deadline": 9, "timeout": 50}),
    ])
    expired = [o for o in outcomes if o.status == "timed-out"][0]
    # The tighter bound wins: deadline 9 beats patience 50.
    assert expired.finished == 9


def test_serve_request_shed_spends_no_queue_slot():
    kernel, ri = _server(admission=TokenBucket(rate_fraction=1.0,
                                               burst=1))
    outcomes = _drive(kernel, ri, [
        (0, "hello", {}),
        (0, "hello", {}),  # bucket dry: shed before the queue
    ])
    assert [o.status for o in outcomes] == ["served", "shed"]
    shed = outcomes[1]
    assert "token-bucket" in shed.shed_reason
    assert shed.finished == shed.arrived
    assert ri.shed == 1 and ri.signing.rejections == 0


def test_idle_server_latency_is_the_base_service_time():
    kernel, ri = _server()
    outcome, = _drive(kernel, ri, [(0, "hello", {})])
    assert outcome.status == "served"
    assert outcome.latency == ri.base_ticks("hello")


# -- retry budget -----------------------------------------------------------

def test_retry_budget_validation():
    with pytest.raises(ValueError):
        RetryBudget(fresh_per_token=0)
    with pytest.raises(ValueError):
        RetryBudget(burst=0)


def test_retry_budget_refills_from_fresh_arrivals_only():
    budget = RetryBudget(fresh_per_token=2, burst=2)
    assert budget.take() and budget.take()
    assert not budget.take()  # dry
    budget.on_fresh()
    assert not budget.take()  # one fresh is not enough
    budget.on_fresh()
    assert budget.take()      # two fresh arrivals minted one token
    assert (budget.granted, budget.denied) == (3, 2)


# -- storm specs ------------------------------------------------------------

def test_storm_spec_validation():
    with pytest.raises(ValueError):
        StormSpec(architecture="FPGA")
    with pytest.raises(ValueError):
        StormSpec(admission="leaky-bucket")
    with pytest.raises(ValueError):
        StormSpec(retry="panic")
    with pytest.raises(ValueError):
        StormSpec(spike_start=500, spike_end=400)
    with pytest.raises(ValueError):
        StormSpec(horizon=959)  # not a whole number of bins
    with pytest.raises(ValueError):
        StormSpec(patience=0)


def test_storm_spec_labels():
    assert StormSpec().label == "none/naive"
    assert StormSpec(admission="token-bucket", retry="backoff-jitter",
                     deadlines=True).label \
        == "token-bucket/backoff-jitter+deadline"
    assert StormSpec().spike_duration == 120


def test_retry_disciplines_have_policies():
    assert set(RETRY_POLICIES) == set(RETRY_DISCIPLINES)
    naive = RETRY_POLICIES["naive"]
    # The anti-pattern on purpose: fixed delay, no jitter, deep budget.
    assert naive.jitter_seconds == 0
    assert naive.backoff_seconds(1) == naive.backoff_seconds(7)


# -- the storm itself -------------------------------------------------------

def test_unmitigated_storm_is_metastable_at_the_pinned_seed():
    spec = StormSpec()  # none/naive, the 1990s client stack
    result = run_storm(spec)
    window = 5 * spec.spike_duration
    # The headline: goodput stays collapsed for five spike durations
    # after the overload passed, and never recovers by the horizon.
    assert result.pre_goodput_per_bin > 0
    assert result.collapse_duration >= window
    assert result.recovery_bin is None
    # The mechanism: the server is busy serving abandoned requests.
    assert result.late_served > 0
    assert result.wasted_share > 0.5
    assert result.abandoned > result.successes


def test_mitigated_storm_recovers_at_the_pinned_seed():
    spec = StormSpec(admission="token-bucket", retry="backoff-jitter",
                     deadlines=True)
    result = run_storm(spec)
    assert result.recovered_within(5 * spec.spike_duration)
    assert result.goodput_ratio > 0.5
    assert result.shed > 0            # admission did real work
    assert result.wasted_share < 0.1  # deadlines killed the waste


def test_storm_conserves_every_attempt():
    for admission, retry, deadlines in (
            ("none", "naive", False),
            ("codel", "backoff-jitter", True),
            ("priority", "retry-budget", True)):
        result = run_storm(StormSpec(admission=admission, retry=retry,
                                     deadlines=deadlines))
        resolved = (result.served + result.refused + result.shed
                    + result.timed_out)
        assert resolved + result.pending == result.attempts
        if retry == "retry-budget":
            assert result.retries_denied > 0


def test_storm_digest_is_reproducible_and_seed_sensitive():
    spec = StormSpec()
    assert run_storm(spec).digest() == run_storm(spec).digest()
    other = run_storm(StormSpec(seed="repro-storm-2"))
    assert other.digest() != run_storm(spec).digest()


def test_storm_times_scale_in_ticks_not_in_service_units():
    sw = run_storm(StormSpec(architecture="SW", horizon=240,
                             spike_start=60, spike_end=90))
    hw = run_storm(StormSpec(architecture="HW", horizon=240,
                             spike_start=60, spike_end=90))
    # One service unit is priced per architecture from Table 1: the
    # software RI's RSA-bound slot dwarfs the hardware one.
    assert sw.slot_ticks > 100 * hw.slot_ticks
    ratio = RIServer(Kernel(seed="probe"),
                     SW_PROFILE).nominal_service_ticks() \
        / RIServer(Kernel(seed="probe2"),
                   HW_PROFILE).nominal_service_ticks()
    assert sw.slot_ticks / hw.slot_ticks == pytest.approx(ratio,
                                                          rel=0.01)


def test_storm_feeds_the_metrics_registry():
    result = run_storm(StormSpec(horizon=240, spike_start=60,
                                 spike_end=90))
    counters = result.metrics().counters
    assert counters["storm.clients"] == result.clients > 0
    assert counters.get("storm.abandoned", 0) == result.abandoned > 0
    assert counters["storm.success"] == result.successes


def _run_storm_capturing_ri(spec):
    """``run_storm(spec)`` plus the RIServer it built."""
    servers = []

    class Captured(RIServer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            servers.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(overload, "RIServer", Captured)
        result = run_storm(spec)
    ri, = servers
    return result, ri


def test_queue_peak_counts_growth_after_the_last_served_request():
    # A collapsed storm: the queue is still at its high-water mark when
    # the horizon falls, well after the last request the RI served.
    result, ri = _run_storm_capturing_ri(StormSpec(
        seed="p/0", spike_start=60, spike_end=120, horizon=240))
    assert result.recovery_bin is None
    peak = ri.signing.queue_depth.maximum
    assert peak == ri.signing.queued == result.pending - 1
    assert ri.metrics.gauges["ri.queue_peak"] == peak


@settings(max_examples=12, deadline=None)
@given(admission=st.sampled_from(ADMISSION_POLICIES),
       retry=st.sampled_from(RETRY_DISCIPLINES),
       deadlines=st.booleans(),
       signing_units=st.sampled_from((1, 2)),
       queue_limit=st.sampled_from((None, 0, 3)),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_every_storm_closes_the_ri_ledger(admission, retry, deadlines,
                                          signing_units, queue_limit,
                                          seed):
    # run_storm raises from check_conservation if the books do not
    # close; the storm's own attempt count must agree with them too.
    result, ri = _run_storm_capturing_ri(StormSpec(
        seed="ledger/%d" % seed, admission=admission, retry=retry,
        deadlines=deadlines, signing_units=signing_units,
        queue_limit=queue_limit, spike_start=10, spike_end=20,
        horizon=40, bin_size=10, patience=4))
    assert ri.offered == result.attempts
    assert result.pending == ri.signing.busy + ri.signing.queued
    assert (result.served + result.refused + result.shed
            + result.timed_out + result.pending) == result.attempts
