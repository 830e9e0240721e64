"""The tick-log SLO monitor against a sliding-deque reference.

:class:`repro.obs.slo.SLOMonitor` reads both burn-rate windows off one
sorted log of ticks per objective and computes burn rates only when the
fast window holds a breach. The reference below is the straightforward
design it replaced: two deques of ``(tick, good)`` per objective, both
burn rates on every observation. Every report, alert burn floats
included, must match it exactly.
"""

import random
from bisect import bisect_right
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.slo import (LOG_SLACK, MIN_WINDOW_EVENTS, Alert, Exemplar,
                           Objective, ObjectiveReport, SLOMonitor,
                           SLOReport)


class _DequeWindow:
    """Sliding (total, bad) counts over the trailing ``width`` ticks."""

    def __init__(self, width):
        self.width = width
        self.events = deque()
        self.total = 0
        self.bad = 0

    def push(self, tick, good):
        self.events.append((tick, good))
        self.total += 1
        self.bad += not good
        while self.events[0][0] <= tick - self.width:
            _old, was_good = self.events.popleft()
            self.total -= 1
            self.bad -= not was_good

    def burn_rate(self, budget):
        return (self.bad / self.total) / budget if self.total else 0.0


class _DequeObjective:
    def __init__(self, objective, slot_ticks):
        self.objective = objective
        self.threshold_ticks = (
            None if objective.threshold_units is None
            else int(round(objective.threshold_units * slot_ticks)))
        self.budget = 1.0 - objective.target
        self.fast = _DequeWindow(objective.fast_window_units * slot_ticks)
        self.slow = _DequeWindow(objective.slow_window_units * slot_ticks)
        self.total = 0
        self.bad = 0
        self.alerts = []
        self.exemplars = []
        self.open = None

    def observe(self, kind, now, completed, latency_ticks, label,
                arrived):
        good = completed and (self.threshold_ticks is None
                              or latency_ticks <= self.threshold_ticks)
        self.total += 1
        if not good:
            self.bad += 1
            if len(self.exemplars) < self.objective.max_exemplars:
                if not label and arrived is not None:
                    label = "%s@%d" % (kind, arrived)
                self.exemplars.append(Exemplar(
                    objective=self.objective.name, tick=now, kind=kind,
                    latency_ticks=latency_ticks, label=label))
        self.fast.push(now, good)
        self.slow.push(now, good)
        fast_burn = self.fast.burn_rate(self.budget)
        slow_burn = self.slow.burn_rate(self.budget)
        threshold = self.objective.burn_threshold
        if self.open is None:
            if (fast_burn >= threshold and slow_burn >= threshold
                    and self.fast.total >= MIN_WINDOW_EVENTS
                    and self.slow.total >= MIN_WINDOW_EVENTS):
                self.open = Alert(self.objective.name, now, None,
                                  fast_burn, slow_burn)
                self.alerts.append(self.open)
        elif fast_burn < threshold:
            self.alerts[-1] = Alert(self.open.objective, self.open.opened,
                                    now, self.open.fast_burn,
                                    self.open.slow_burn)
            self.open = None


def _reference_report(slot_ticks, objectives, stream):
    states = [_DequeObjective(objective, slot_ticks)
              for objective in objectives]
    for kind, now, completed, latency, label, arrived in stream:
        for state in states:
            if state.objective.matches(kind):
                state.observe(kind, now, completed, latency, label,
                              arrived)
    reports = []
    for state in states:
        compliance = ((state.total - state.bad) / state.total
                      if state.total else 1.0)
        reports.append(ObjectiveReport(
            name=state.objective.name, kind=state.objective.kind,
            target=state.objective.target, total=state.total,
            bad=state.bad, compliance=compliance,
            breached=compliance < state.objective.target,
            alerts=tuple(state.alerts), exemplars=tuple(state.exemplars)))
    return SLOReport(slot_ticks=slot_ticks,
                     objectives=tuple(reports)).to_dict()


def _monitor_report(slot_ticks, objectives, stream):
    slo = SLOMonitor(slot_ticks=slot_ticks, objectives=objectives)
    for kind, now, completed, latency, label, arrived in stream:
        slo.observe(kind, now, completed, latency, label=label,
                    arrived=arrived)
    return slo.report().to_dict()


KINDS = ("hello", "registration", "acquisition")


def _stream(seed, length, max_gap, slot_ticks):
    """Monotone ticks with repeats, mixed kinds and error bursts."""
    rng = random.Random(seed)
    now = 0
    stream = []
    bad_share = 0.0
    for _ in range(length):
        if rng.random() < 0.02:
            bad_share = rng.choice((0.0, 0.0, 0.05, 0.3, 0.9))
        now += rng.choice((0, 0, rng.randint(0, max_gap)))
        latency = rng.randint(0, 12 * slot_ticks)
        if rng.random() < bad_share:
            latency += 10 * slot_ticks
        stream.append((rng.choice(KINDS), now,
                       rng.random() >= bad_share / 2, latency,
                       rng.choice(("", "", "x")),
                       rng.choice((None, max(0, now - latency)))))
    return stream


@st.composite
def objectives(draw):
    count = draw(st.integers(1, 4))
    drawn = []
    for index in range(count):
        slow = draw(st.integers(1, 12))
        fast = draw(st.one_of(st.just(slow), st.integers(1, slow)))
        drawn.append(Objective(
            name="o%d" % index,
            kind=draw(st.sampled_from(("*",) + KINDS)),
            threshold_units=draw(st.one_of(
                st.none(), st.sampled_from((4.0, 7.5, 10.0, 15.0)))),
            target=draw(st.sampled_from((0.5, 0.9, 0.95, 0.99))),
            fast_window_units=fast, slow_window_units=slow,
            burn_threshold=draw(st.sampled_from((0.5, 1.0, 2.0, 6.0))),
            max_exemplars=draw(st.integers(0, 3))))
    return tuple(drawn)


@settings(max_examples=60, deadline=None)
@given(objectives=objectives(), seed=st.integers(0, 2 ** 32),
       length=st.integers(0, 1500), max_gap=st.integers(0, 40),
       slot_ticks=st.integers(1, 5))
def test_monitor_matches_the_deque_reference(objectives, seed, length,
                                             max_gap, slot_ticks):
    stream = _stream(seed, length, max_gap, slot_ticks)
    assert (_monitor_report(slot_ticks, objectives, stream)
            == _reference_report(slot_ticks, objectives, stream))


def test_reference_comparison_covers_alerts_on_every_objective():
    objectives = (
        Objective(name="lat", kind="hello", threshold_units=10.0,
                  target=0.9, fast_window_units=3, slow_window_units=12),
        Objective(name="same", kind="*", threshold_units=7.5,
                  target=0.95, fast_window_units=6, slow_window_units=6),
        Objective(name="gp", kind="*", target=0.99,
                  fast_window_units=2, slow_window_units=8))
    stream = _stream(7, 20000, 30, 3)
    report = _monitor_report(3, objectives, stream)
    assert report == _reference_report(3, objectives, stream)
    # Many alerts open and close, on a stream long enough to compact
    # every tick log many times over.
    for objective in report["objectives"]:
        assert objective["total"] > 20 * LOG_SLACK
        assert objective["alerts"]
        assert all(alert["closed"] is not None
                   for alert in objective["alerts"])


def _window_split(log, horizon):
    """(ticks at or before ``horizon``, ticks after it) in ``log``."""
    stale = bisect_right(log, horizon)
    return stale, len(log) - stale


def test_tick_logs_stay_within_the_slow_window_plus_slack():
    objective = Objective(name="lat", kind="*", threshold_units=10.0,
                          target=0.9, fast_window_units=5,
                          slow_window_units=20)
    for bad_from in (None, 1000):
        slo = SLOMonitor(slot_ticks=10, objectives=(objective,))
        state = slo._states[0]
        rng = random.Random(bad_from)
        seen, seen_bad = [], []
        now = 0
        for index in range(100000):
            now += rng.randint(0, 3)
            bad = bad_from is not None and index >= bad_from
            slo.observe("req", now, not bad, 0)
            seen.append(now)
            if bad:
                seen_bad.append(now)
            horizon = now - state.slow_width
            for log, full in ((state.ticks, seen),
                              (state.bad_ticks, seen_bad)):
                stale, kept = _window_split(log, horizon)
                # Compaction keeps the whole slow window and at most
                # LOG_SLACK older ticks.
                assert stale <= LOG_SLACK, index
                assert kept == _window_split(full, horizon)[1], index
        report = slo.report().objective("lat")
        assert report.total == 100000
        assert report.bad == len(seen_bad)
        # 100k observations over ~150k ticks: ~750 slow windows.
        assert now > 700 * state.slow_width
        if bad_from is None:
            assert report.alerts == ()
        else:
            assert len(report.alerts) == 1
            assert report.alerts[0].closed is None
