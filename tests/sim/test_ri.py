"""The concurrent Rights Issuer: pricing, state, refusal, telemetry.

Everything here cross-checks :class:`repro.sim.ri.RIServer` against the
*existing* cost machinery — the same Table 1 and
:class:`~repro.core.architecture.ArchitectureProfile` that price the
terminal side — so the RI cannot drift onto a private notion of what
crypto costs.
"""

import math

import pytest

from repro.core.architecture import (HW_PROFILE, PAPER_PROFILES,
                                     SW_PROFILE)
from repro.core.costs import PAPER_TABLE1
from repro.core.stats import StreamingStats, merge_all
from repro.core.trace import Algorithm
from repro.sim.kernel import Kernel
from repro.obs.slo import DEFAULT_OBJECTIVES
from repro.sim.admission import AdmissionPolicy
from repro.sim.overload import StormSpec, run_storm
from repro.sim.ri import (DEFAULT_OCSP_FETCH_MS,
                          DEFAULT_OCSP_VALIDITY_SECONDS,
                          DEFAULT_REQUEST_MIX, REQUEST_KINDS,
                          SERVE_STATUSES, RICapacity, RIServer,
                          ServeOutcome, nominal_service_ticks,
                          service_records)

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
    kernel, ri = _server()
    clock_hz = SW_PROFILE.clock_hz
    assert ri.ocsp_fetch_ticks == round(DEFAULT_OCSP_FETCH_MS / 1000.0
                                        * clock_hz)
    assert ri.ocsp_validity_ticks \
        == DEFAULT_OCSP_VALIDITY_SECONDS * clock_hz
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
    latencies = [outcome.finished - outcome.arrived
                 for outcome in outcomes]
    assert all(value > 0 for value in latencies)
    # Simultaneous arrivals on one signing unit: each latency includes
    # the queue wait behind its predecessors.
    assert latencies[0] < latencies[1] < latencies[2]
    assert [ri.ledger["served"][kind]
            for kind in ("hello", "registration", "acquisition")] \
        == [1, 1, 1]


def test_latency_is_the_merge_of_per_kind_latencies():
    _, ri = _server(SW_PROFILE, capacity=RICapacity(signing_units=2,
                                                    queue_limit=9))
    kinds = [REQUEST_KINDS[index % 3] for index in range(14)]
    outcomes = _drive(ri, kinds)
    served = [outcome for outcome in outcomes
              if outcome.status == "served"]
    assert 0 < len(served) < len(outcomes)
    assert ri.latency == merge_all(ri.latency_by_kind.values())
    expected = StreamingStats()
    for outcome in served:
        expected.add(outcome.finished - outcome.arrived)
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
    assert ri.ledger["refused"]["hello"] == 1


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


def test_one_served_request_leaves_the_queue_empty():
    _, ri = _server(HW)
    _drive(ri, ["hello"])
    assert ri.latency.count == 1
    assert ri.utilization() > 0
    assert ri.mean_queue_depth() == 0.0


# -- the SLO monitor ---------------------------------------------------------

class _ShedDomainJoins(AdmissionPolicy):
    """Admits everything but domain joins."""

    def bind(self, ri):
        pass

    def admit(self, ri, kind, now):
        return "no joins" if kind == "domain-join" else None


def test_every_server_scores_every_resolved_outcome():
    kernel, ri = _server(HW, capacity=RICapacity(signing_units=1,
                                                 queue_limit=1),
                         admission=_ShedDomainJoins())
    statuses = []

    def request(kind, **kwargs):
        outcome = yield from ri.serve_request(kind, **kwargs)
        statuses.append(outcome.status)

    # Served, served from the queue, refused (queue full), timed out
    # (already past its deadline) and shed, all at tick zero.
    for index, (kind, kwargs) in enumerate([
            ("hello", {}), ("registration", {}), ("acquisition", {}),
            ("acquisition", {"deadline": 0}), ("domain-join", {})]):
        kernel.spawn("req/%d" % index, request(kind, **kwargs))
    kernel.run()
    assert sorted(statuses) == sorted(SERVE_STATUSES + ("served",))
    report = ri.slo.report()
    assert report.slot_ticks == max(1, round(ri.nominal_service_ticks()))
    assert [r.name for r in report.objectives] \
        == [objective.name for objective in DEFAULT_OBJECTIVES]
    goodput = report.objective("goodput")
    assert (goodput.total, goodput.bad) \
        == (ri.offered, ri.refused + ri.shed + ri.timed_out)
    for kind in ("hello", "registration", "acquisition"):
        scored = report.objective("%s-latency" % kind).total
        assert scored == sum(ri.ledger[status][kind]
                             for status in SERVE_STATUSES)


def test_a_storm_server_is_scored_against_the_spec_objectives():
    spec = StormSpec(spike_start=60, spike_end=120, horizon=240)
    result = run_storm(spec)
    assert result.slo.slot_ticks == result.slot_ticks
    assert [(r.name, r.kind, r.target) for r in result.slo.objectives] \
        == [(o.name, o.kind, o.target) for o in spec.objectives()]
    assert result.slo.objective("storm-goodput").total \
        == result.served + result.refused + result.shed \
        + result.timed_out


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
    assert (outcome.status, outcome.finished - outcome.arrived) \
        == ("served", 7)
    shed = ServeOutcome(kind="acquisition", status="shed", arrived=4,
                        finished=4, waited=1, service_ticks=2,
                        shed_reason="bucket-empty")
    assert (shed.waited, shed.service_ticks, shed.shed_reason) == \
        (1, 2, "bucket-empty")
    assert not hasattr(outcome, "__dict__")
