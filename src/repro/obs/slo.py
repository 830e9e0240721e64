"""Service-level objectives and burn-rate alerts on virtual time.

A production Rights Issuer is operated against *objectives* — "99 % of
acquisitions answered within N service units" — not raw latency
histograms. This module evaluates exactly that, but on the simulation's
virtual timebase: every observation is an integer kernel tick, every
threshold an exact tick bound, so the same seed produces the same
compliance ratios, the same alert timestamps, and the same exemplars,
byte for byte.

The alerting discipline is the multi-window, multi-burn-rate policy of
Google's SRE workbook: an alert opens when the error budget is burning
at ≥ ``burn_threshold`` over *both* a fast window (catches sudden
storms quickly) and a slow window (suppresses blips), and closes when
the fast window recovers. Windows slide on virtual ticks; thresholds
and window lengths are declared in *service units* (multiples of the
server's mix-weighted nominal service time) so one objective
configuration is meaningful on every architecture profile.

Observations carry a label (``kind@arrival_tick`` when fed from
:class:`~repro.sim.ri.RIServer`), and each objective captures the first
few breaching observations as :class:`Exemplar` records — the exact
seeded requests to replay when debugging a breach.
"""

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Cap on breaching exemplars retained per objective.
DEFAULT_MAX_EXEMPLARS = 5

#: Observations a window must hold before burn rates are meaningful;
#: below this an alert cannot open (avoids firing on the first error).
MIN_WINDOW_EVENTS = 10


@dataclass(frozen=True)
class Objective:
    """One declarative latency/goodput objective.

    ``threshold_units`` bounds the sojourn latency of a *good* request
    in service units; ``None`` declares a pure goodput objective (any
    completed request is good, anything refused/shed/timed-out is bad).
    ``target`` is the long-run good fraction promised; ``1 - target``
    is the error budget the burn rates are measured against.
    """

    name: str
    kind: str = "*"
    threshold_units: Optional[float] = None
    target: float = 0.99
    fast_window_units: int = 60
    slow_window_units: int = 240
    burn_threshold: float = 2.0
    max_exemplars: int = DEFAULT_MAX_EXEMPLARS

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if self.fast_window_units <= 0 or self.slow_window_units <= 0:
            raise ValueError("window lengths must be positive")
        if self.fast_window_units > self.slow_window_units:
            raise ValueError("the fast window must not exceed the slow "
                             "window")
        if self.burn_threshold <= 0:
            raise ValueError("burn threshold must be positive")

    def matches(self, kind: str) -> bool:
        """Whether this objective scores requests of ``kind``."""
        return self.kind == "*" or self.kind == kind


@dataclass(frozen=True)
class Exemplar:
    """One captured breaching request."""

    objective: str
    tick: int
    kind: str
    latency_ticks: int
    label: str


@dataclass(frozen=True)
class Alert:
    """One burn-rate alert interval (closed tick ``None`` = still open)."""

    objective: str
    opened: int
    closed: Optional[int]
    fast_burn: float
    slow_burn: float


#: Default objective set for a Rights Issuer: per-kind latency bounds
#: sized from the M/M/1 sojourn tail (p99 sojourn at utilization rho is
#: about ``-ln(0.01)/(1-rho)`` service times, so 24 units separates a
#: healthy ladder step from a saturated one), plus a global goodput
#: objective that scores refusals/sheds/timeouts regardless of latency.
DEFAULT_OBJECTIVES: Tuple[Objective, ...] = (
    Objective(name="hello-latency", kind="hello",
              threshold_units=24.0, target=0.95),
    Objective(name="registration-latency", kind="registration",
              threshold_units=24.0, target=0.95),
    Objective(name="acquisition-latency", kind="acquisition",
              threshold_units=24.0, target=0.95),
    Objective(name="goodput", kind="*", threshold_units=None,
              target=0.99),
)


#: Stale observations an objective's tick log may hold past its slow
#: window before the log is compacted.
LOG_SLACK = 256


class _ObjectiveState:
    """Mutable evaluation state for one bound objective.

    One log of observation ticks and one of breaching ticks serve both
    burn-rate windows: a window of width ``w`` at tick ``now`` is
    (now - w, now], read off the sorted logs with ``bisect_right``. A
    good request in a quiet window costs one append; burn rates are
    computed only when the fast window holds a breach, since otherwise
    the fast burn is exactly 0.0, which opens no alert (thresholds are
    positive) and closes an open one.
    """

    def __init__(self, objective: Objective, slot_ticks: int) -> None:
        self.objective = objective
        self.threshold_ticks = (
            None if objective.threshold_units is None
            else int(round(objective.threshold_units * slot_ticks)))
        self.budget = 1.0 - objective.target
        self.fast_width = objective.fast_window_units * slot_ticks
        self.slow_width = objective.slow_window_units * slot_ticks
        self.ticks: List[int] = []
        self.bad_ticks: List[int] = []
        #: Observations (and breaches) compacted out of the logs.
        self.dropped = 0
        self.dropped_bad = 0
        self.alerts: List[Alert] = []
        self.exemplars: List[Exemplar] = []
        self._open: Optional[Alert] = None

    def observe(self, kind: str, now: int, completed: bool,
                latency_ticks: int, label: str,
                arrived: Optional[int]) -> None:
        ticks = self.ticks
        bad_ticks = self.bad_ticks
        ticks.append(now)
        if not completed or (self.threshold_ticks is not None
                             and latency_ticks > self.threshold_ticks):
            bad_ticks.append(now)
            if len(self.exemplars) < self.objective.max_exemplars:
                if not label and arrived is not None:
                    label = "%s@%d" % (kind, arrived)
                self.exemplars.append(Exemplar(
                    objective=self.objective.name, tick=now, kind=kind,
                    latency_ticks=latency_ticks, label=label))
        # More than LOG_SLACK logged ticks have left the slow window.
        if len(ticks) > LOG_SLACK and \
                ticks[LOG_SLACK] <= now - self.slow_width:
            self._compact(now - self.slow_width)
        fast_horizon = now - self.fast_width
        if not bad_ticks or bad_ticks[-1] <= fast_horizon:
            if self._open is not None:
                self._close(now)
            return
        # The tick just logged keeps every window non-empty.
        fast_total = len(ticks) - bisect_right(ticks, fast_horizon)
        fast_bad = len(bad_ticks) - bisect_right(bad_ticks, fast_horizon)
        fast_burn = (fast_bad / fast_total) / self.budget
        threshold = self.objective.burn_threshold
        if self._open is not None:
            if fast_burn < threshold:
                self._close(now)
            return
        if fast_burn < threshold or fast_total < MIN_WINDOW_EVENTS:
            return
        # The slow window holds the fast one, so it holds at least
        # MIN_WINDOW_EVENTS observations too.
        slow_horizon = now - self.slow_width
        slow_total = len(ticks) - bisect_right(ticks, slow_horizon)
        slow_bad = len(bad_ticks) - bisect_right(bad_ticks, slow_horizon)
        slow_burn = (slow_bad / slow_total) / self.budget
        if slow_burn >= threshold:
            self._open = Alert(objective=self.objective.name, opened=now,
                               closed=None, fast_burn=fast_burn,
                               slow_burn=slow_burn)
            self.alerts.append(self._open)

    def _compact(self, horizon: int) -> None:
        """Drop the logged ticks at or before ``horizon``."""
        cut = bisect_right(self.ticks, horizon)
        del self.ticks[:cut]
        self.dropped += cut
        cut = bisect_right(self.bad_ticks, horizon)
        del self.bad_ticks[:cut]
        self.dropped_bad += cut

    def _close(self, now: int) -> None:
        alert = self._open
        self.alerts[-1] = Alert(objective=alert.objective,
                                opened=alert.opened, closed=now,
                                fast_burn=alert.fast_burn,
                                slow_burn=alert.slow_burn)
        self._open = None

    @property
    def total(self) -> int:
        """Lifetime observations."""
        return self.dropped + len(self.ticks)

    @property
    def bad(self) -> int:
        """Lifetime breaching observations."""
        return self.dropped_bad + len(self.bad_ticks)

    @property
    def compliance(self) -> float:
        """Lifetime good fraction (1.0 when nothing was observed)."""
        if not self.total:
            return 1.0
        return (self.total - self.bad) / self.total

    @property
    def breached(self) -> bool:
        """Whether lifetime compliance fell below the target."""
        return self.compliance < self.objective.target


@dataclass(frozen=True)
class ObjectiveReport:
    """Frozen summary of one objective after a run."""

    name: str
    kind: str
    target: float
    total: int
    bad: int
    compliance: float
    breached: bool
    alerts: Tuple[Alert, ...]
    exemplars: Tuple[Exemplar, ...]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "kind": self.kind, "target": self.target,
            "total": self.total, "bad": self.bad,
            "compliance": self.compliance, "breached": self.breached,
            "alerts": [{"opened": alert.opened, "closed": alert.closed,
                        "fast_burn": alert.fast_burn,
                        "slow_burn": alert.slow_burn}
                       for alert in self.alerts],
            "exemplars": [{"tick": ex.tick, "kind": ex.kind,
                           "latency_ticks": ex.latency_ticks,
                           "label": ex.label}
                          for ex in self.exemplars],
        }


@dataclass(frozen=True)
class SLOReport:
    """All objective reports of one monitor, in declaration order."""

    slot_ticks: int
    objectives: Tuple[ObjectiveReport, ...]

    def objective(self, name: str) -> ObjectiveReport:
        """Look one report up by objective name."""
        for report in self.objectives:
            if report.name == name:
                return report
        raise KeyError(name)

    @property
    def alert_count(self) -> int:
        """Total alerts across all objectives."""
        return sum(len(report.alerts) for report in self.objectives)

    @property
    def breached(self) -> Tuple[str, ...]:
        """Names of objectives whose lifetime compliance missed target."""
        return tuple(report.name for report in self.objectives
                     if report.breached)

    def to_dict(self) -> Dict[str, Any]:
        return {"slot_ticks": self.slot_ticks,
                "objectives": [report.to_dict()
                               for report in self.objectives]}


class SLOMonitor:
    """Scores request outcomes against a set of objectives.

    ``slot_ticks`` converts service units to kernel ticks — pass the
    server's rounded :meth:`~repro.sim.ri.RIServer
    .nominal_service_ticks` so objectives stay architecture-invariant.
    """

    def __init__(self, slot_ticks: int,
                 objectives: Tuple[Objective, ...] = DEFAULT_OBJECTIVES
                 ) -> None:
        if slot_ticks < 1:
            raise ValueError("slot_ticks must be at least one tick")
        names = [objective.name for objective in objectives]
        if len(set(names)) != len(names):
            raise ValueError("objective names must be unique")
        self.slot_ticks = slot_ticks
        self._states = [_ObjectiveState(objective, slot_ticks)
                        for objective in objectives]
        #: kind -> the states whose objective scores it, in
        #: declaration order; routed on a kind's first observation.
        self._routes: Dict[str, Tuple[_ObjectiveState, ...]] = {}
        self._last_tick: float = float("-inf")

    def observe(self, kind: str, now: int, completed: bool,
                latency_ticks: int, label: str = "",
                arrived: Optional[int] = None) -> None:
        """Score one resolved request against every matching objective.

        An exemplar is labelled ``label``, or ``kind@arrived`` when no
        label is given — built only for the few exemplars captured.
        Observations arrive in time order: ``now`` earlier than the
        last observed tick raises :class:`ValueError`.
        """
        if now < self._last_tick:
            raise ValueError("observations must not move backwards in "
                             "time")
        self._last_tick = now
        states = self._routes.get(kind)
        if states is None:
            states = self._routes[kind] = tuple(
                state for state in self._states
                if state.objective.matches(kind))
        for state in states:
            state.observe(kind, now, completed, latency_ticks, label,
                          arrived)

    def observe_outcome(self, outcome: Any) -> None:
        """Score a :class:`~repro.sim.ri.ServeOutcome` (duck-typed)."""
        self.observe(outcome.kind, outcome.finished,
                     outcome.status == "served",
                     outcome.finished - outcome.arrived,
                     arrived=outcome.arrived)

    def report(self) -> SLOReport:
        """Freeze the current evaluation into an :class:`SLOReport`."""
        return SLOReport(
            slot_ticks=self.slot_ticks,
            objectives=tuple(
                ObjectiveReport(
                    name=state.objective.name,
                    kind=state.objective.kind,
                    target=state.objective.target,
                    total=state.total, bad=state.bad,
                    compliance=state.compliance,
                    breached=state.breached,
                    alerts=tuple(state.alerts),
                    exemplars=tuple(state.exemplars),
                ) for state in self._states))
