"""Experiment ``overload``: retry storms and what defuses them.

The saturation experiment (:mod:`repro.analysis.saturation`) shows
where each architecture's Rights Issuer runs out of capacity under
polite open load. This experiment asks the uglier operational
question: what happens when the fleet is *impolite* — when every
refused or slow request comes back as a retry — and which combination
of server-side admission control and client-side retry discipline
keeps goodput alive through a load spike.

The retry-storm engine (:mod:`repro.sim.overload`) drives one spike
scenario — baseline offered load, a spike of several multiples of
capacity, then baseline again — across the full (admission policy ×
retry discipline × deadline propagation) grid, plus a spike-severity
ladder and an architecture cross-check. Every run at one seed draws
the same arrival process (common random numbers), so differences
between cells are pure policy, not luck.

The headline is the *metastable* contract the CI smoke gate asserts:
with no admission control and naive fixed-delay retries, goodput
collapses and **stays** collapsed for at least five spike durations
after the overload has passed — the server is busy serving requests
whose clients already left, and those clients' retries keep it there.
At least one mitigated cell recovers to ≥90% of pre-spike goodput
within the same window. Everything is bit-deterministic per seed, for
any ``--jobs`` worker count.
"""

import multiprocessing
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sim.admission import ADMISSION_POLICIES
from ..sim.overload import (RETRY_DISCIPLINES, StormResult, StormSpec,
                            run_storm)
from .common import DEFAULT_SEED
from .formatting import format_table

#: The full mitigation grid: every admission policy crossed with every
#: retry discipline, with and without deadline propagation.
DEFAULT_COMBOS: Tuple[Tuple[str, str, bool], ...] = tuple(
    (admission, retry, deadlines)
    for admission in ADMISSION_POLICIES
    for retry in RETRY_DISCIPLINES
    for deadlines in (False, True))

#: The unmitigated baseline: the storm every 1990s client stack brews.
BASELINE_COMBO = ("none", "naive", False)

#: The all-mitigations reference cell for the severity and
#: architecture tables.
MITIGATED_COMBO = ("token-bucket", "backoff-jitter", True)

#: Spike severities (multiples of nominal capacity) for the severity
#: ladder; the grid's own spike sits between them.
DEFAULT_SPIKE_RHOS = (2.0, 8.0)

#: Architectures for the cross-check table beyond the grid's own.
DEFAULT_ARCHITECTURES = ("SW/HW", "HW")


def _combo_spec(seed: str, architecture: str,
                combo: Tuple[str, str, bool],
                spike_rho: Optional[float] = None) -> StormSpec:
    admission, retry, deadlines = combo
    kwargs = {} if spike_rho is None else {"spike_rho": spike_rho}
    return StormSpec(seed=seed, architecture=architecture,
                     admission=admission, retry=retry,
                     deadlines=deadlines, **kwargs)


def _run_point(spec: StormSpec) -> StormResult:
    """Module-level worker so ``Pool.map`` can pickle it."""
    return run_storm(spec)


@dataclass
class OverloadSweep:
    """The full experiment: grid, severity ladder, architecture check.

    ``grid`` maps a :attr:`~repro.sim.overload.StormSpec.label` to its
    result on the primary architecture; ``severity`` maps
    ``(spike_rho, label)`` and ``architectures`` maps
    ``(architecture, label)`` for the two reference combos.
    """

    seed: str
    architecture: str
    grid: Dict[str, StormResult] = field(default_factory=dict)
    severity: Dict[Tuple[float, str], StormResult] = \
        field(default_factory=dict)
    architectures: Dict[Tuple[str, str], StormResult] = \
        field(default_factory=dict)

    @property
    def baseline(self) -> StormResult:
        """The unmitigated cell the metastable contract measures."""
        return self.grid[_combo_spec(self.seed, self.architecture,
                                     BASELINE_COMBO).label]

    @property
    def recovery_window(self) -> int:
        """Five spike durations, in service units — the contract bar."""
        return 5 * self.baseline.spec.spike_duration

    def recovered(self) -> List[StormResult]:
        """Grid cells back at ≥90% goodput inside the window."""
        return [result for result in self.grid.values()
                if result.recovered_within(self.recovery_window)]

    def assert_metastable_contract(self) -> None:
        """Raise unless the storm is metastable and escapable.

        The two halves of the experiment's headline, asserted exactly
        at the pinned seed: (1) the unmitigated baseline's goodput
        collapse outlives the spike by at least five spike durations;
        (2) at least one mitigated cell is back at ≥90% of pre-spike
        goodput within that same window. CI runs this as the overload
        smoke gate.
        """
        baseline = self.baseline
        window = self.recovery_window
        if baseline.collapse_duration < window:
            raise AssertionError(
                "no metastable collapse: %s recovered after %d "
                "service units (the contract requires ≥ %d)"
                % (baseline.spec.label, baseline.collapse_duration,
                   window))
        recovered = [result for result in self.recovered()
                     if result.spec.label != baseline.spec.label]
        if not recovered:
            raise AssertionError(
                "no mitigation recovered to ≥90%% of pre-spike "
                "goodput within %d service units" % window)

    def assert_slo_contract(self) -> None:
        """Raise unless burn-rate alerting tells the same story.

        The SLO monitor watches the storm from the operator's side;
        its alerts must agree with the goodput bins: (1) the
        unmitigated baseline opens an ``answered-in-patience`` alert
        at/after the spike start and the alert is *still open* at the
        horizon — alert-shaped metastability; (2) the all-mitigations
        reference cell's alert closes before the horizon — the escape,
        as the on-call engineer would see it.
        """
        baseline = self.baseline
        spec = baseline.spec
        report = baseline.slo.objective("answered-in-patience")
        if not report.alerts:
            raise AssertionError("the unmitigated baseline fired no "
                                 "burn-rate alert")
        first = report.alerts[0]
        if first.opened < spec.spike_start * baseline.slot_ticks:
            raise AssertionError(
                "baseline alert opened at tick %d, before the spike "
                "start" % first.opened)
        if report.alerts[-1].closed is not None:
            raise AssertionError(
                "baseline alert closed at tick %d — the collapse "
                "should outlive the horizon"
                % report.alerts[-1].closed)
        mitigated_label = _combo_spec(self.seed, self.architecture,
                                      MITIGATED_COMBO).label
        mitigated = self.grid[mitigated_label]
        report = mitigated.slo.objective("answered-in-patience")
        if not report.alerts:
            raise AssertionError("the mitigated reference cell fired "
                                 "no burn-rate alert during the spike")
        if report.alerts[0].closed is None:
            raise AssertionError(
                "the mitigated reference cell's alert never closed — "
                "burn-rate recovery should match goodput recovery")


def sweep(seed: str = DEFAULT_SEED, architecture: str = "SW",
          combos: Tuple[Tuple[str, str, bool], ...] = DEFAULT_COMBOS,
          spike_rhos: Tuple[float, ...] = DEFAULT_SPIKE_RHOS,
          architectures: Tuple[str, ...] = DEFAULT_ARCHITECTURES,
          jobs: int = 1) -> OverloadSweep:
    """Run the full overload experiment, optionally in parallel.

    Every measurement is a pure function of its :class:`StormSpec`,
    and the spec list is built in deterministic order before any
    worker runs — so results are bit-identical for every ``jobs``
    count (the ``--jobs`` invariance the tests pin via
    :meth:`~repro.sim.overload.StormResult.digest`).
    """
    if jobs < 1:
        raise ValueError("at least one worker is required")
    specs: List[StormSpec] = []
    specs.extend(_combo_spec(seed, architecture, combo)
                 for combo in combos)
    specs.extend(_combo_spec(seed, architecture, combo, spike_rho=rho)
                 for rho in spike_rhos
                 for combo in (BASELINE_COMBO, MITIGATED_COMBO))
    specs.extend(_combo_spec(seed, other, combo)
                 for other in architectures
                 for combo in (BASELINE_COMBO, MITIGATED_COMBO))

    if jobs == 1 or len(specs) == 1:
        results = [_run_point(spec) for spec in specs]
    else:
        with multiprocessing.Pool(processes=min(jobs,
                                                len(specs))) as pool:
            results = pool.map(_run_point, specs)

    out = OverloadSweep(seed=seed, architecture=architecture)
    cursor = iter(results)
    for combo in combos:
        result = next(cursor)
        out.grid[result.spec.label] = result
    for rho in spike_rhos:
        for _combo in (BASELINE_COMBO, MITIGATED_COMBO):
            result = next(cursor)
            out.severity[(rho, result.spec.label)] = result
    for other in architectures:
        for _combo in (BASELINE_COMBO, MITIGATED_COMBO):
            result = next(cursor)
            out.architectures[(other, result.spec.label)] = result
    return out


def _result_row(result: StormResult) -> Tuple[str, ...]:
    if result.pre_goodput_per_bin == 0:
        # No healthy pre-spike baseline to collapse from or recover
        # to (the HW RI's OCSP round-trip alone outlives patience).
        collapse, recovery = "n/a", "n/a"
    else:
        collapse = "%d" % result.collapse_duration
        recovery = ("never" if result.recovery_time is None
                    else "%d" % result.recovery_time)
    return ("%.2f" % result.goodput_ratio,
            collapse,
            recovery,
            "%.0f%%" % (100.0 * result.shed_rate),
            "%.0f%%" % (100.0 * result.wasted_share),
            "%d" % result.gave_up)


@dataclass
class OverloadAnalysis:
    """The rendered overload experiment."""

    sweep: OverloadSweep

    def render(self) -> str:
        """The grid, severity ladder and architecture cross-check."""
        spec = self.sweep.baseline.spec
        columns = ("goodput", "collapse [S]", "recovery [S]", "shed",
                   "wasted", "gave up")
        grid_rows = [(label,) + _result_row(result)
                     for label, result in self.sweep.grid.items()]
        tables = [format_table(
            ("admission/retry",) + columns, grid_rows,
            title="%s RI, spike %.0f%%→%.0f%% of nominal for %d "
                  "service units (horizon %d, patience %d; recovery "
                  "window %d)"
                  % (self.sweep.architecture,
                     100.0 * spec.baseline_rho,
                     100.0 * spec.spike_rho, spec.spike_duration,
                     spec.horizon, spec.patience,
                     self.sweep.recovery_window))]

        severity_rows = [("%.0f%%" % (100.0 * rho), label)
                         + _result_row(result)
                         for (rho, label), result
                         in self.sweep.severity.items()]
        tables.append(format_table(
            ("spike", "admission/retry") + columns, severity_rows,
            title="Spike severity ladder (%s RI)"
                  % self.sweep.architecture))

        architecture_rows = [(architecture, label)
                             + _result_row(result)
                             + ("%d" % result.slot_ticks,)
                             for (architecture, label), result
                             in self.sweep.architectures.items()]
        tables.append(format_table(
            ("arch", "admission/retry") + columns
            + ("service [ticks]",),
            architecture_rows,
            title="Architecture cross-check: same story in service "
                  "units, pure Table 1 scaling in ticks"))

        slo_rows = []
        for label, result in self.sweep.grid.items():
            report = result.slo.objective("answered-in-patience")
            if report.alerts:
                first = report.alerts[0]
                opened = "%d" % (first.opened // result.slot_ticks)
                closed = ("open at horizon" if report.alerts[-1].closed
                          is None else "%d" % (report.alerts[-1].closed
                                               // result.slot_ticks))
            else:
                opened, closed = "-", "-"
            exemplar = (report.exemplars[0].label
                        if report.exemplars else "-")
            slo_rows.append((label, "%d" % len(report.alerts), opened,
                             closed, "%.3f" % report.compliance,
                             exemplar))
        tables.append(format_table(
            ("admission/retry", "alerts", "opened [S]", "closed [S]",
             "compliance", "first exemplar"),
            slo_rows,
            title="SLO burn-rate alerts (answered-in-patience, "
                  "fast/slow windows %d/%d service units): the "
                  "baseline's alert never closes — metastability as "
                  "the on-call engineer sees it"
                  % (spec.bin_size, 4 * spec.bin_size)))
        return "\n\n".join(tables)


def generate(seed: str = DEFAULT_SEED, architecture: str = "SW",
             jobs: int = 1) -> OverloadAnalysis:
    """Run the overload experiment at report scale and validate it."""
    analysis = OverloadAnalysis(
        sweep=sweep(seed + "/overload", architecture=architecture,
                    jobs=jobs))
    analysis.sweep.assert_metastable_contract()
    analysis.sweep.assert_slo_contract()
    return analysis
