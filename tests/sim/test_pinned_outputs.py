"""Literal pins of kernel RI outputs, so a faster loop cannot drift.

The determinism tests compare a run against a second run of the same
code; these compare against values recorded once, so a change to the
kernel, the RI, the SLO monitor or the request sources that moves one
scheduled event fails here even when it is self-consistent. The storm
pins use drmbench's ``ri-storm`` shape (SW, spike 60-120, horizon 240
service units) over all 24 admission x retry x deadline combinations.
"""

import hashlib
import json

import pytest

from repro.analysis.overload import DEFAULT_COMBOS
from repro.core.architecture import HW_PROFILE, SW_PROFILE
from repro.core.stats import StatsSummary
from repro.sim.fleet import run_open_load
from repro.sim.overload import StormSpec, run_storm
from repro.sim.queueing import exponential_draw, simulate_queue
from repro.sim.ri import RICapacity, nominal_service_ticks

STORM_SHAPE = {"spike_start": 60, "spike_end": 120, "horizon": 240}

STORM_DIGESTS = {
    "none/naive": "ed1a8e1d4f6e53152d33efc1d9e4620e74943b0b",
    "none/naive+deadline": "3d7a7ebe45e5fed27de7aef683d17b460d56f4d5",
    "none/backoff-jitter": "423f52e953c0ab890d7dceaecbc2df38746ea5f4",
    "none/backoff-jitter+deadline":
        "bdbb8d54e3738798377e59fe22bbd6f44a92405d",
    "none/retry-budget": "cd9194772cd7188896660e8de354c319f501c02e",
    "none/retry-budget+deadline":
        "1b603cf4757915ecf9d1d68b15324c3a9d2ae7b1",
    "token-bucket/naive": "705e9c8d3c678175f0f9b5ed581202a1e24c847f",
    "token-bucket/naive+deadline":
        "36de65c9e8316eadae6450045cefd30333b6401c",
    "token-bucket/backoff-jitter":
        "79a78405505eadc2728ac4567001c8bf51604aa7",
    "token-bucket/backoff-jitter+deadline":
        "8ed689460dba19d010c79853cb8520dcb8634a06",
    "token-bucket/retry-budget":
        "b4eaa1009404206505721ccb8986042938ea23b2",
    "token-bucket/retry-budget+deadline":
        "1d0570c929484295d3122c67ed9ec8e31a6619c9",
    "codel/naive": "6c2424a9f831b3ae387c65817bbe4ae793e12798",
    "codel/naive+deadline": "de70d220cbfa3e10d78a9deb0a0db4f66bd1ca1f",
    "codel/backoff-jitter": "af1e5e3ef7979957d9c67c07d2a11b765b58b438",
    "codel/backoff-jitter+deadline":
        "a00f09bcf3099fccef0b774621f2b5961714ff74",
    "codel/retry-budget": "c89cb56d9d7309ac7c458fac9ddf592d6ff9b4dc",
    "codel/retry-budget+deadline":
        "75ad038b68117d42ca4d628ab9121a8ca5af77b3",
    "priority/naive": "439a6042e683ea1687dc8b1d3a5fb3e1d6f4fa17",
    "priority/naive+deadline": "c35785bd89f3166ea40b379f1643a0f5010ddff3",
    "priority/backoff-jitter": "aaff67b0245b48c4161c7bb55a79a3733a827d8c",
    "priority/backoff-jitter+deadline":
        "82c1b3d6224774b200b42d550d12fad9e462a4d4",
    "priority/retry-budget": "0166f14686028fb7ce91a222282122d10d84038a",
    "priority/retry-budget+deadline":
        "1314c570032f8084bacd8919274e763ecc0d80c3",
}


@pytest.mark.parametrize("index", range(len(DEFAULT_COMBOS)))
def test_storm_digest_is_pinned(index):
    admission, retry, deadlines = DEFAULT_COMBOS[index]
    result = run_storm(StormSpec(
        seed="pin/%d" % index, architecture="SW", admission=admission,
        retry=retry, deadlines=deadlines, **STORM_SHAPE))
    assert result.digest() == STORM_DIGESTS[result.spec.label]


def test_pins_cover_every_combination():
    labels = {StormSpec(admission=admission, retry=retry,
                        deadlines=deadlines).label
              for admission, retry, deadlines in DEFAULT_COMBOS}
    assert labels == set(STORM_DIGESTS)


def test_open_load_signature_is_pinned():
    """An overloaded bounded RI: refusals, queueing and SLO breaches."""
    rate = SW_PROFILE.clock_hz / nominal_service_ticks(SW_PROFILE)
    load = run_open_load(
        "pin", SW_PROFILE, 1.1 * rate, requests=400,
        capacity=RICapacity(signing_units=1, queue_limit=12)).load
    assert (load.events, load.served, load.refused, load.span_ticks) \
        == (1849, 324, 76, 8820367967)
    assert load.latency == StatsSummary(
        count=324, total=91756475758, minimum=49953200,
        maximum=450749207, mean=283198999.25308645, p50=279729623,
        p95=382066734, p99=430566822)
    assert {kind: stats.count
            for kind, stats in load.latency_by_kind.items()} \
        == {"hello": 104, "registration": 150, "acquisition": 70}
    hellos = ("hello@517630314", "hello@534549871", "hello@555578853",
              "hello@602566441", "hello@613747271")
    assert [(report.name, report.total, report.bad, len(report.alerts),
             tuple(exemplar.label for exemplar in report.exemplars))
            for report in load.slo.objectives] == [
        ("hello-latency", 141, 37, 2, hellos),
        ("registration-latency", 174, 24, 4, (
            "registration@1807274591", "registration@1851393282",
            "registration@1879217514", "registration@1899364252",
            "registration@2324364351")),
        ("acquisition-latency", 85, 15, 4, (
            "acquisition@665230656", "acquisition@1778150958",
            "acquisition@1798925989", "acquisition@2395432368",
            "acquisition@3672966857")),
        ("goodput", 400, 76, 1, hellos),
    ]
    # Everything else in the report (alert ticks, burn rates,
    # compliance floats, exemplar latencies) through one digest.
    document = json.dumps(load.slo.to_dict(), sort_keys=True)
    assert hashlib.sha1(document.encode("utf-8")).hexdigest() \
        == "71e0addaf40b601892ef3dcb15f500d14b9105e6"


def test_ten_thousand_session_event_counts_are_pinned():
    """A 10^4-request open load on the HW RI at 60% of its nominal
    capacity, and a 10^4-job M/M/1 queue at rho = 2/3."""
    load = run_open_load("bench-kernel", HW_PROFILE, 730.0,
                         requests=10_000).load
    queue = simulate_queue("bench-kernel", 10_000,
                           interarrival=exponential_draw(1500),
                           service=exponential_draw(1000))
    assert (load.events, queue.events) == (50001, 50001)


def test_default_storm_outcomes_are_pinned():
    """The default storm shape, unmitigated and fully mitigated."""
    seed = "bench-overload"
    storms = (StormSpec(seed=seed),
              StormSpec(seed=seed, admission="token-bucket",
                        retry="backoff-jitter", deadlines=True))
    assert [(result.events, result.goodput_ratio,
             result.collapse_duration, result.wasted_share)
            for result in map(run_storm, storms)] == [
        (51726, 0.11652542372881355, 660, 0.8782015807831615),
        (15704, 0.7203389830508474, 0, 0.06275400010633989),
    ]
