"""SLO engine: burn-rate mechanics, exemplars, determinism, wiring.

The monitor lives on the virtual timebase (ticks in, ticks out), so
every assertion here is exact: alerts open at a computable tick, close
at a computable tick, and two runs of the same seed produce identical
reports — including through the kernel entry points
(:func:`repro.sim.fleet.run_open_load`,
:func:`repro.sim.overload.run_storm`).
"""

import pytest

from repro.core.architecture import SW_PROFILE
from repro.obs.slo import (DEFAULT_OBJECTIVES, MIN_WINDOW_EVENTS,
                           Objective, SLOMonitor)
from repro.sim.fleet import run_open_load
from repro.sim.overload import StormSpec, run_storm
from repro.sim.ri import RICapacity, nominal_service_ticks

LATENCY = Objective(name="lat", kind="req", threshold_units=10.0,
                    target=0.9, fast_window_units=20,
                    slow_window_units=80, burn_threshold=2.0)


def monitor(slot_ticks=100, objectives=(LATENCY,)):
    return SLOMonitor(slot_ticks=slot_ticks, objectives=objectives)


# -- objective validation ---------------------------------------------------

def test_objective_validation():
    with pytest.raises(ValueError):
        Objective(name="bad", target=0.0)
    with pytest.raises(ValueError):
        Objective(name="bad", target=1.0)
    with pytest.raises(ValueError):
        Objective(name="bad", fast_window_units=300,
                  slow_window_units=60)
    with pytest.raises(ValueError):
        Objective(name="bad", burn_threshold=0.0)


def test_default_objectives_cover_kinds_and_goodput():
    kinds = {obj.kind for obj in DEFAULT_OBJECTIVES}
    assert {"hello", "registration", "acquisition", "*"} <= kinds
    goodput = [obj for obj in DEFAULT_OBJECTIVES
               if obj.threshold_units is None]
    assert len(goodput) == 1


# -- scoring and compliance -------------------------------------------------

def test_latency_threshold_separates_good_from_bad():
    slo = monitor()
    # threshold = 10 units x 100 ticks/unit = 1000 ticks.
    slo.observe("req", now=0, completed=True, latency_ticks=1000)
    slo.observe("req", now=1, completed=True, latency_ticks=1001)
    slo.observe("req", now=2, completed=False, latency_ticks=0)
    report = slo.report().objective("lat")
    assert report.total == 3
    assert report.bad == 2
    assert report.compliance == pytest.approx(1 / 3)


def test_kind_filter_ignores_other_kinds():
    slo = monitor()
    slo.observe("other", now=0, completed=False, latency_ticks=0)
    assert slo.report().objective("lat").total == 0


def test_goodput_objective_scores_any_completion():
    goodput = Objective(name="gp", threshold_units=None, target=0.99)
    slo = monitor(objectives=(goodput,))
    slo.observe("a", now=0, completed=True, latency_ticks=10 ** 9)
    slo.observe("b", now=1, completed=False, latency_ticks=0)
    report = slo.report().objective("gp")
    assert report.total == 2 and report.bad == 1


def test_observations_must_not_move_backwards_in_time():
    slo = monitor()
    slo.observe("req", now=5, completed=True, latency_ticks=0)
    slo.observe("req", now=5, completed=True, latency_ticks=0)
    with pytest.raises(ValueError):
        slo.observe("req", now=4, completed=False, latency_ticks=0)
    # The order holds across kinds, scored or not.
    slo.observe("other", now=9, completed=True, latency_ticks=0)
    with pytest.raises(ValueError):
        slo.observe("req", now=8, completed=True, latency_ticks=0)
    assert slo.report().objective("lat").total == 2


# -- burn-rate alert mechanics ----------------------------------------------

def burn_storm(slo, bad_from, bad_to, total=400, gap=10):
    """Feed ``total`` requests, bad inside [bad_from, bad_to)."""
    for index in range(total):
        now = index * gap
        bad = bad_from <= index < bad_to
        slo.observe("req", now=now, completed=not bad,
                    latency_ticks=0)


def test_alert_opens_only_after_min_window_events():
    slo = monitor()
    # All-bad traffic: burn rates blow past the threshold immediately,
    # but the alert must wait for MIN_WINDOW_EVENTS observations.
    for index in range(MIN_WINDOW_EVENTS + 2):
        slo.observe("req", now=index * 10, completed=False,
                    latency_ticks=0)
    report = slo.report().objective("lat")
    assert len(report.alerts) == 1
    opened_index = report.alerts[0].opened // 10
    assert opened_index == MIN_WINDOW_EVENTS - 1


def test_alert_opens_during_error_burst_and_closes_after():
    slo = monitor()
    burn_storm(slo, bad_from=100, bad_to=200)
    report = slo.report().objective("lat")
    assert len(report.alerts) == 1
    alert = report.alerts[0]
    assert alert.opened >= 100 * 10
    assert alert.closed is not None and alert.closed > alert.opened
    assert alert.fast_burn >= LATENCY.burn_threshold
    assert alert.slow_burn >= LATENCY.burn_threshold


def test_no_alert_below_budget():
    slo = monitor()
    # 2% bad against a 10% budget: burn rate 0.2, far below 2.0.
    for index in range(500):
        slo.observe("req", now=index * 10,
                    completed=index % 50 != 0, latency_ticks=0)
    report = slo.report().objective("lat")
    assert report.alerts == ()


def test_still_open_alert_reports_closed_none():
    slo = monitor()
    burn_storm(slo, bad_from=300, bad_to=400)
    report = slo.report().objective("lat")
    assert len(report.alerts) == 1
    assert report.alerts[0].closed is None


def test_exemplars_capture_first_breaches_up_to_cap():
    slo = monitor()
    burn_storm(slo, bad_from=0, bad_to=100)
    report = slo.report().objective("lat")
    assert len(report.exemplars) == LATENCY.max_exemplars
    ticks = [exemplar.tick for exemplar in report.exemplars]
    assert ticks == sorted(ticks)
    assert ticks[0] == 0


def test_exemplar_label_is_explicit_or_kind_at_arrival():
    slo = monitor()
    slo.observe("req", now=5, completed=False, latency_ticks=0,
                label="replay-me", arrived=1)
    slo.observe("req", now=6, completed=False, latency_ticks=4,
                arrived=2)
    slo.observe("req", now=7, completed=False, latency_ticks=0)
    labels = [ex.label for ex in slo.report().objective("lat").exemplars]
    assert labels == ["replay-me", "req@2", ""]


def test_each_kind_scores_every_matching_objective():
    wildcard = Objective(name="all", kind="*", target=0.9)
    slo = monitor(objectives=(LATENCY, wildcard))
    for now, kind in enumerate(("req", "other", "req", "other", "req")):
        slo.observe(kind, now=now, completed=True, latency_ticks=0)
    report = slo.report()
    assert report.objective("lat").total == 3
    assert report.objective("all").total == 5


def test_monitor_is_deterministic():
    def run():
        slo = monitor()
        burn_storm(slo, bad_from=50, bad_to=150)
        return slo.report()
    assert run().to_dict() == run().to_dict()


# -- kernel wiring ----------------------------------------------------------

def test_open_load_attaches_slo_report():
    result = run_open_load("slo-wire", SW_PROFILE,
                           arrivals_per_second=2.0, requests=60)
    slo = result.load.slo
    assert slo is not None
    names = {obj.name for obj in DEFAULT_OBJECTIVES}
    assert {report.name for report in slo.objectives} == names
    total = sum(report.total for report in slo.objectives
                if report.name != "goodput")
    assert total == 60
    assert slo.objective("goodput").total == 60


def test_kernel_exemplars_read_kind_at_arrival_under_the_cap():
    rate = SW_PROFILE.clock_hz / nominal_service_ticks(SW_PROFILE)
    result = run_open_load("slo-exemplars", SW_PROFILE, 1.2 * rate,
                           requests=300,
                           capacity=RICapacity(queue_limit=8))
    captured = 0
    for report, objective in zip(result.load.slo.objectives,
                                 DEFAULT_OBJECTIVES):
        cap = objective.max_exemplars
        assert len(report.exemplars) == min(report.bad, cap)
        for exemplar in report.exemplars:
            arrived = exemplar.tick - exemplar.latency_ticks
            assert exemplar.label == "%s@%d" % (exemplar.kind, arrived)
        captured += len(report.exemplars)
    # Every objective breached more often than it keeps exemplars.
    assert captured == sum(objective.max_exemplars
                           for objective in DEFAULT_OBJECTIVES)


def test_storm_slo_alerts_are_reproducible():
    spec = StormSpec(seed="slo-storm")
    first = run_storm(spec)
    second = run_storm(spec)
    assert first.slo is not None
    assert first.slo.to_dict() == second.slo.to_dict()
    # The unmitigated storm's answered-in-patience alert never closes:
    # the metastable collapse as an operator-visible page.
    patience = first.slo.objective("answered-in-patience")
    assert patience.alerts
    assert patience.alerts[-1].closed is None


def test_storm_objectives_are_seed_sensitive():
    baseline = run_storm(StormSpec(seed="slo-storm"))
    mitigated = run_storm(StormSpec(seed="slo-storm",
                                    admission="token-bucket",
                                    retry="backoff-jitter",
                                    deadlines=True))
    base_patience = baseline.slo.objective("answered-in-patience")
    good_patience = mitigated.slo.objective("answered-in-patience")
    assert good_patience.compliance > base_patience.compliance
    assert good_patience.alerts[0].closed is not None
