"""The concurrent Rights Issuer: pricing, state, refusal, telemetry.

Everything here cross-checks :class:`repro.sim.ri.RIServer` against the
*existing* cost machinery — the same :class:`~repro.core.costs
.CostTable` and :class:`~repro.core.architecture.ArchitectureProfile`
that price the terminal side — so the RI cannot drift onto a private
notion of what crypto costs.
"""

import math

import pytest

from repro.core.architecture import (HW_PROFILE, PAPER_PROFILES,
                                     SW_PROFILE)
from repro.core.costs import PAPER_TABLE1
from repro.core.stats import StreamingStats, merge_all
from repro.core.trace import Algorithm
from repro.sim.kernel import Kernel
from repro.sim.ri import (DEFAULT_REQUEST_MIX, REQUEST_KINDS,
                          RICapacity, RIServer, ServeOutcome,
                          nominal_service_ticks, service_records)

HW = HW_PROFILE


def _server(profile=SW_PROFILE, **kwargs):
    kernel = Kernel(seed="ri-unit")
    return kernel, RIServer(kernel, profile, **kwargs)


# -- pricing ----------------------------------------------------------------

@pytest.mark.parametrize("profile", PAPER_PROFILES,
                         ids=lambda p: p.name)
@pytest.mark.parametrize("kind", REQUEST_KINDS)
def test_base_ticks_are_table1_sums(profile, kind):
    _, ri = _server(profile)
    expected = sum(
        PAPER_TABLE1.cycles(record,
                            profile.implementation(record.algorithm))
        for record in service_records(kind))
    assert ri.base_ticks(kind) == expected
    assert expected > 0


@pytest.mark.parametrize("profile", PAPER_PROFILES,
                         ids=lambda p: p.name)
@pytest.mark.parametrize("mix", [
    DEFAULT_REQUEST_MIX,
    {"hello": 0.25, "registration": 0.25, "domain-join": 0.5},
], ids=["default", "domain-join"])
def test_module_nominal_service_ticks_equals_the_server_method(profile,
                                                               mix):
    _, ri = _server(profile)
    assert nominal_service_ticks(profile, mix) \
        == ri.nominal_service_ticks(mix)


def test_signing_dominates_registration_in_software():
    # The architecture story in one assertion: the software RI's
    # registration demand is dominated by the 37.74 Mcycle RSA private
    # operation; hardware cuts the same request by more than 100x.
    _, sw = _server(SW_PROFILE)
    _, hw = _server(HW)
    assert sw.base_ticks("registration") > 37_000_000
    assert sw.base_ticks("registration") > \
        100 * hw.base_ticks("registration")


def test_service_records_rejects_unknown_kind():
    with pytest.raises(ValueError):
        service_records("teardown")


def test_hello_is_hash_only():
    records = service_records("hello")
    assert len(records) == 1
    assert records[0].algorithm.name == "SHA1"


# -- stateful terms ---------------------------------------------------------

def test_ocsp_refresh_charged_once_per_validity_window():
    kernel, ri = _server(ocsp_fetch_ms=50.0, ocsp_validity_seconds=300)
    base = ri.base_ticks("registration")
    probe = ri.replay_probe_ticks()
    first = ri.service_ticks("registration")
    assert first == base + probe + ri.ocsp_fetch_ticks
    assert ri.ocsp_fetches == 1
    # Within the validity window: no refresh.
    second = ri.service_ticks("registration")
    assert second == base + probe
    assert ri.ocsp_fetches == 1
    # Age the cached assertion out and the fetch recurs.
    kernel.now += ri.ocsp_validity_ticks + 1
    third = ri.service_ticks("registration")
    assert third == first
    assert ri.ocsp_fetches == 2


def test_replay_probe_grows_logarithmically():
    _, ri = _server()
    assert ri.replay_probe_ticks() > 0  # the HMAC floor
    empty = ri.replay_probe_ticks()
    ri.replay_entries = 1
    one = ri.replay_probe_ticks()
    ri.replay_entries = 1_000_000
    million = ri.replay_probe_ticks()
    assert empty < one < million
    # Depth is ceil(log2(n + 1)): 20 levels at a million entries, so
    # the growth is gentle — pressure, not collapse.
    ri.replay_entries = 2_000_000
    assert ri.replay_probe_ticks() - million <= million - empty


def test_replay_probe_is_priced_per_cache_depth():
    _, ri = _server()
    impl = ri.profile.implementation
    hmac = PAPER_TABLE1.cost(Algorithm.HMAC_SHA1,
                             impl(Algorithm.HMAC_SHA1)).cycles(1, 2)
    sha1 = PAPER_TABLE1.cost(Algorithm.SHA1, impl(Algorithm.SHA1))
    for entries in (0, 1, 2, 3, 4, 7, 8, 1023, 1024, 1_000_000):
        ri.replay_entries = entries
        depth = math.ceil(math.log2(entries + 1)) if entries else 0
        expected = hmac + sha1.cycles(depth, depth * 2)
        assert ri.replay_probe_ticks() == expected
        assert ri.replay_probe_ticks() == expected  # the memoized path


# -- the serving protocol ---------------------------------------------------

def _drive(ri, kinds, until=None):
    """Spawn one process per request, all arriving at tick zero;
    returns each one's outcome, ``None`` while still in flight."""
    outcomes = [None] * len(kinds)

    def request(index, kind):
        outcomes[index] = yield from ri.serve_request(kind)

    for index, kind in enumerate(kinds):
        ri.kernel.spawn("req/%d" % index, request(index, kind))
    ri.kernel.run(until=until)
    return outcomes


def test_serve_records_latency_and_replay_growth():
    _, ri = _server(HW)
    outcomes = _drive(ri, ["hello", "registration", "acquisition"])
    assert ri.served == 3
    assert ri.refused == 0
    # hello does not populate the replay cache; the others do.
    assert ri.replay_entries == 2
    assert ri.latency.count == 3
    latencies = [outcome.latency for outcome in outcomes]
    assert all(value > 0 for value in latencies)
    # Simultaneous arrivals on one signing unit: each latency includes
    # the queue wait behind its predecessors.
    assert latencies[0] < latencies[1] < latencies[2]
    counters = ri.metrics.to_dict()["counters"]
    assert counters["ri.served"] == 3
    assert counters["ri.served.hello"] == 1


def test_latency_is_the_merge_of_per_kind_latencies():
    _, ri = _server(SW_PROFILE, capacity=RICapacity(signing_units=2,
                                                    queue_limit=9))
    kinds = [REQUEST_KINDS[index % 3] for index in range(14)]
    outcomes = _drive(ri, kinds)
    served = [outcome for outcome in outcomes if outcome.served]
    assert 0 < len(served) < len(outcomes)
    assert ri.latency == merge_all(ri.latency_by_kind.values())
    expected = StreamingStats()
    expected.extend(outcome.latency for outcome in served)
    assert ri.latency.summary() == expected.summary()
    assert ri.latency.count == ri.served == len(served)
    # Built on read: the view is a fresh accumulator each time.
    view = ri.latency
    view.add(1)
    assert ri.latency == expected


def test_bounded_queue_refuses_and_counts():
    _, ri = _server(HW, capacity=RICapacity(signing_units=1,
                                            queue_limit=1))
    outcomes = _drive(ri, ["hello"] * 3)
    assert ri.served == 2
    assert ri.refused == 1
    # The last arrival found the queue full.
    assert [o.status for o in outcomes] == ["served", "served",
                                            "refused"]
    counters = ri.metrics.to_dict()["counters"]
    assert counters["ri.refused"] == 1
    assert counters["ri.refused.hello"] == 1


def test_serve_rejects_unknown_kind():
    _, ri = _server()
    with pytest.raises(ValueError):
        next(ri.serve_request("teardown"))


# -- the outcome ledger -----------------------------------------------------

def test_ledger_closes_against_requests_still_in_flight():
    _, ri = _server(HW, capacity=RICapacity(signing_units=1,
                                            queue_limit=2))
    # Stop mid-run: one request in service, two queued, one refused.
    _drive(ri, ["registration"] * 4, until=1)
    assert (ri.offered, ri.refused, ri.served) == (4, 1, 0)
    assert (ri.signing.busy, ri.signing.queued) == (1, 2)
    ri.check_conservation()
    ri.kernel.run()
    assert ri.served == 3
    ri.check_conservation()


def test_corrupted_ledger_cell_fails_conservation():
    _, ri = _server(HW)
    _drive(ri, ["hello", "acquisition", "acquisition"])
    ri.check_conservation()
    ri.ledger["served"]["acquisition"] += 1  # one outcome booked twice
    with pytest.raises(AssertionError,
                       match="acquisition: offered 2, served 3"):
        ri.check_conservation()
    ri.ledger["served"]["acquisition"] -= 2  # one outcome lost
    with pytest.raises(AssertionError,
                       match="acquisition: offered 2, served 1"):
        ri.check_conservation()


def test_metrics_publish_the_ledger_and_signing_stats():
    _, ri = _server(HW, capacity=RICapacity(signing_units=1,
                                            queue_limit=1))
    _drive(ri, ["hello", "registration", "registration"])
    metrics = ri.metrics
    assert metrics.counters == {"ri.served": 2, "ri.served.hello": 1,
                                "ri.served.registration": 1,
                                "ri.refused": 1,
                                "ri.refused.registration": 1}
    assert metrics.histograms["ri.wait_ticks"] == ri.signing.wait_ticks
    assert metrics.histograms["ri.latency_ticks.registration"] \
        == ri.latency_by_kind["registration"]
    assert metrics.gauges["ri.queue_peak"] == 1


def test_one_served_request_leaves_the_queue_empty():
    _, ri = _server(HW)
    _drive(ri, ["hello"])
    assert ri.latency.count == 1
    assert ri.utilization() > 0
    assert ri.mean_queue_depth() == 0.0


def test_capacity_validation():
    with pytest.raises(ValueError):
        RICapacity(signing_units=0)
    with pytest.raises(ValueError):
        RICapacity(queue_limit=-1)


def test_serve_outcome_is_a_slotted_keyword_record():
    outcome = ServeOutcome(kind="hello", status="served", arrived=3,
                           finished=10)
    assert (outcome.waited, outcome.service_ticks,
            outcome.shed_reason) == (0, 0, "")
    assert outcome.served and outcome.latency == 7
    shed = ServeOutcome(kind="acquisition", status="shed", arrived=4,
                        finished=4, waited=1, service_ticks=2,
                        shed_reason="bucket-empty")
    assert not shed.served and shed.latency == 0
    assert (shed.waited, shed.service_ticks, shed.shed_reason) == \
        (1, 2, "bucket-empty")
    assert not hasattr(outcome, "__dict__")
