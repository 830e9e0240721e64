"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1`` / ``figure5`` / ``figure6`` / ``figure7`` / ``claims`` —
  regenerate one paper artifact.
* ``all`` — regenerate everything (the quickstart).
* ``run`` — price a (possibly custom) use case under every
  architecture.
* ``pareto`` — print the gate/time Pareto frontier for a workload.
* ``battery`` — battery-life impact of a workload per architecture.
* ``concurrency`` — CPU-busy vs wall-clock under macro offload.
* ``resilience`` — expected retry overhead on a lossy bearer.
* ``durability`` — write-ahead journal overhead and recovery cost.
* ``adversary`` — active-attacker sweep (zero-acceptance invariant),
  circuit-breaker forgery drain and outage degradation.
* ``fleet`` — simulate a large device population against one RI
  (``--kernel`` replays it on the event kernel's shared RI).
* ``saturation`` — RI utilization/latency vs offered load per
  architecture on the event kernel.
* ``overload`` — retry-storm metastability: goodput collapse and
  recovery across (admission policy × retry discipline × deadline
  propagation) under a load spike.
* ``trace`` — run a named scenario with the cycle-timebase tracer,
  reconciled against the cost model, and export Chrome trace-event JSON
  plus a metrics registry.
* ``profile`` — fold a traced scenario into an exact virtual-cycle
  call tree (reconciled against the cost model), export
  collapsed-stack / speedscope profiles, and diff two profiles.
* ``perfdiff`` — validate or merge ``BENCH_*.json`` artifacts into the
  performance trajectory and fail on tolerance-band regressions.
* ``report`` — write the full paper-vs-measured Markdown report.
* ``selftest`` — run the cryptographic known-answer self-tests.
* ``lint`` — run the AST-based invariant analyzer (``repro.lint``).

Every analysis subcommand accepts ``--json`` for machine-readable
output; ``run --trace PATH`` additionally exports the priced workload
as a Chrome trace on the virtual cycle timeline.
"""

import argparse
import json
import sys
from dataclasses import fields, is_dataclass
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from .analysis import (adversary, claims, durability, figure5, figure6,
                       figure7, fleet, overload, report, resilience,
                       saturation, table1)
from .analysis.common import DEFAULT_SEED
from .analysis.formatting import format_ms, format_table
from .core.architecture import PAPER_PROFILES
from .core.battery import Battery, battery_impact
from .core.concurrency import analyze as analyze_concurrency
from .crypto.selftest import run_self_tests
from .lint import cli as lint_cli
from .core.design_space import (MacroCosts, enumerate_design_points,
                                marginal_value, pareto_frontier)
from .core.model import PerformanceModel
from .core.serialization import breakdown_to_dict
from .obs.export import write_chrome, write_metrics
from .obs.profile import ProfileTree
from .obs.profile import diff as profile_diff
from .obs.tracer import Tracer
from .perf import trajectory as perf_trajectory
from .usecases.catalog import music_player, ringtone
from .usecases.scenario import UseCase
from .usecases.tracing import MODELED_SCENARIOS, SCENARIOS, run_scenario
from .usecases.workload import run_modeled

_ARTIFACTS = {
    "table1": table1.generate,
    "figure5": figure5.generate,
    "figure6": figure6.generate,
    "figure7": figure7.generate,
    "claims": claims.generate,
}

_PROFILES = {profile.name: profile for profile in PAPER_PROFILES}

#: ``(text, payload)`` produced by each subcommand builder: the rendered
#: text artifact and its machine-readable counterpart for ``--json``.
CommandOutput = Tuple[str, Any]


# -- shared output helpers -------------------------------------------------

def _json_key(key: Any) -> str:
    """JSON object keys must be strings; enums export their value."""
    if isinstance(key, Enum):
        return str(key.value)
    if isinstance(key, str):
        return key
    return str(key)


def _jsonable(value: Any) -> Any:
    """Recursively convert an analysis result to JSON-ready data.

    Prefers an object's own ``to_dict``; otherwise walks dataclasses,
    mappings and sequences, exporting enums by value. Scalars pass
    through untouched.
    """
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {_json_key(key): _jsonable(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return [_jsonable(item) for item in sorted(value)]
    return value


def _analysis_command(args: argparse.Namespace,
                      build: Callable[[argparse.Namespace],
                                      CommandOutput]) -> int:
    """The one shared driver behind every analysis subcommand.

    Calls ``build``, prints its text rendering (or the JSON payload
    under ``--json``), and maps ``ValueError`` — the library's usage
    error convention — to exit code 2 with a message on stderr.
    """
    try:
        text, payload = build(args)
    except ValueError as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    else:
        print(text)
    return 0


def _trace_summary_payload(tracer: Tracer) -> Dict[str, Any]:
    """The tracer facts every trace-producing command reports."""
    return {
        "spans": len(tracer.spans),
        "events": len(tracer.events),
        "operation_spans": len(tracer.operation_spans()),
        "total_cycles": tracer.now,
        "cycles_by_track": tracer.cycles_by_track(),
        "cycles_by_algorithm": tracer.cycles_by_algorithm(),
    }


# -- subcommand builders ---------------------------------------------------

def _resolve_use_case(args: argparse.Namespace) -> UseCase:
    if args.use_case == "music":
        base = music_player()
    elif args.use_case == "ringtone":
        base = ringtone()
    else:
        base = UseCase(name="custom", content_octets=args.size or 30720,
                       accesses=args.accesses
                       if args.accesses is not None else 25)
    if args.size is not None or args.accesses is not None:
        base = base.scaled(args.size or base.content_octets,
                           accesses=args.accesses)
    return base


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--use-case",
                        choices=("music", "ringtone", "custom"),
                        default="ringtone")
    parser.add_argument("--size", type=int, default=None,
                        help="content size in octets (overrides the "
                             "use case default)")
    parser.add_argument("--accesses", type=int, default=None,
                        help="number of accesses (overrides the "
                             "use case default)")
    parser.add_argument("--seed", default=DEFAULT_SEED)


def _build_artifact(name: str, args: argparse.Namespace) -> CommandOutput:
    result = _ARTIFACTS[name]()
    return result.render(), {"artifact": name, "result": result}


def _build_all(args: argparse.Namespace) -> CommandOutput:
    results = {name: _ARTIFACTS[name]() for name in _ARTIFACTS}
    text = "\n\n".join(results[name].render()
                       for name in _ARTIFACTS) + "\n"
    return text, {"artifacts": results}


def _build_run(args: argparse.Namespace) -> CommandOutput:
    use_case = _resolve_use_case(args)
    run = run_modeled(use_case, seed=args.seed)
    model = PerformanceModel()
    rows = []
    breakdowns = {}
    for profile in PAPER_PROFILES:
        breakdown = model.evaluate(run.trace, profile)
        breakdowns[profile.name] = breakdown
        rows.append((profile.name, format_ms(breakdown.total_ms)))
    lines = [format_table(
        ("architecture", "time [ms]"), rows,
        title="%s: %d octets x %d accesses"
              % (use_case.name, use_case.content_octets,
                 use_case.accesses))]
    if args.trace:
        # Replay the modeled trace onto the cycle timeline: each record
        # becomes one operation span priced under --arch.
        tracer = Tracer(profile=_PROFILES[args.arch], actor="terminal")
        for record in run.trace:
            tracer.on_record(record)
        write_chrome(tracer, args.trace)
        lines.append("cycle trace (%d spans) written to %s"
                     % (len(tracer.spans), args.trace))
    payload = {
        "use_case": {"name": use_case.name,
                     "content_octets": use_case.content_octets,
                     "accesses": use_case.accesses},
        "seed": args.seed,
        "architectures": {name: breakdown_to_dict(breakdown)
                          for name, breakdown in breakdowns.items()},
    }
    return "\n".join(lines), payload


def _build_pareto(args: argparse.Namespace) -> CommandOutput:
    use_case = _resolve_use_case(args)
    run = run_modeled(use_case, seed=args.seed)
    costs = MacroCosts(aes_kgates=args.aes_kgates,
                       sha1_kgates=args.sha1_kgates,
                       rsa_kgates=args.rsa_kgates)
    points = enumerate_design_points(run.trace, costs=costs)
    frontier = pareto_frontier(points, objective=args.objective)
    rows = [
        (point.name, "%.0f" % point.kgates, format_ms(point.time_ms),
         "%.2f" % point.energy_mj,
         "yes" if point in frontier else "")
        for point in points
    ]
    text = format_table(
        ("macro set", "kgates", "time [ms]", "energy [mJ]", "Pareto"),
        rows, title="Design space: %s (objective: %s)"
        % (use_case.name, args.objective))
    marginal = marginal_value(points)
    text += "\n\n" + format_table(
        ("macro", "speedup", "saved [ms]", "saved ms/kgate"),
        [(macro, "%.2fx" % stats["speedup"], format_ms(stats["saved_ms"]),
          "%.2f" % stats["saved_ms_per_kgate"])
         for macro, stats in marginal.items()],
        title="Marginal macro value: %s" % use_case.name)
    payload = {
        "objective": args.objective,
        "points": [{"name": point.name, "kgates": point.kgates,
                    "time_ms": point.time_ms,
                    "energy_mj": point.energy_mj,
                    "pareto": point in frontier}
                   for point in points],
        "marginal": marginal,
    }
    return text, payload


def _build_battery(args: argparse.Namespace) -> CommandOutput:
    use_case = _resolve_use_case(args)
    run = run_modeled(use_case, seed=args.seed)
    model = PerformanceModel()
    battery = Battery(capacity_mah=args.capacity_mah)
    rows = []
    impacts = {}
    for profile in PAPER_PROFILES:
        impact = battery_impact(model.evaluate(run.trace, profile),
                                battery=battery)
        impacts[profile.name] = impact
        rows.append((
            profile.name, "%.3f" % impact.millijoules,
            "%.2f" % impact.microamp_hours,
            "%.0f" % impact.runs_per_charge(),
        ))
    text = format_table(
        ("architecture", "energy [mJ]", "charge [uAh]",
         "workloads/charge"),
        rows, title="Battery impact: %s (%.0f mAh cell)"
        % (use_case.name, battery.capacity_mah))
    payload = {
        "capacity_mah": battery.capacity_mah,
        "architectures": {
            name: {"millijoules": impact.millijoules,
                   "microamp_hours": impact.microamp_hours,
                   "runs_per_charge": impact.runs_per_charge()}
            for name, impact in impacts.items()},
    }
    return text, payload


def _build_concurrency(args: argparse.Namespace) -> CommandOutput:
    use_case = _resolve_use_case(args)
    run = run_modeled(use_case, seed=args.seed)
    model = PerformanceModel()
    rows = []
    outcomes = {}
    for profile in PAPER_PROFILES:
        result = analyze_concurrency(model.evaluate(run.trace, profile),
                                     overlap=args.overlap)
        outcomes[profile.name] = result
        rows.append((
            profile.name, format_ms(result.wall_clock_ms),
            format_ms(result.cpu_busy_ms),
            "%.1f%%" % (100.0 * result.cpu_freed_fraction),
        ))
    text = format_table(
        ("architecture", "wall clock [ms]", "CPU busy [ms]",
         "CPU freed"),
        rows, title="%s: offload concurrency (overlap %.2f)"
        % (use_case.name, args.overlap))
    return text, {"overlap": args.overlap, "architectures": outcomes}


def _build_resilience(args: argparse.Namespace) -> CommandOutput:
    loss_rates = tuple(float(part)
                       for part in args.loss_rates.split(","))
    result = resilience.generate(seed=args.seed,
                                 loss_rates=loss_rates,
                                 max_attempts=args.max_attempts)
    return result.render(), result


def _build_durability(args: argparse.Namespace) -> CommandOutput:
    journal_lengths = tuple(int(part)
                            for part in args.journal_lengths.split(","))
    result = durability.generate(seed=args.seed,
                                 journal_lengths=journal_lengths,
                                 rsa_bits=args.rsa_bits)
    return result.render(), result


def _build_adversary(args: argparse.Namespace) -> CommandOutput:
    result = adversary.generate(seed=args.seed, rsa_bits=args.rsa_bits)
    return result.render(), result


def _build_fleet(args: argparse.Namespace) -> CommandOutput:
    from .sim.ri import RICapacity
    capacity = RICapacity(signing_units=args.ri_capacity,
                          queue_limit=args.ri_queue_limit)
    analysis = fleet.generate(
        seed=args.seed, devices=args.devices, workers=args.workers,
        kernel=args.kernel, ri_capacity=capacity,
        arrival_model=args.arrival, window_seconds=args.window,
        lossy_fraction=args.lossy_fraction,
        loss_rate=args.loss_rate, shard_size=args.shard_size,
        rsa_bits=args.rsa_bits, journaled=args.journaled,
        crash_rate=args.crash_rate,
        adversary_fraction=args.adversary_fraction,
        breaker_cutoff=args.breaker_cutoff)
    lines = [analysis.render()]
    if args.metrics:
        write_metrics(analysis.result.metrics, args.metrics)
        lines.append("merged fleet metrics written to %s" % args.metrics)
    return "\n".join(lines), analysis


def _build_saturation(args: argparse.Namespace) -> CommandOutput:
    from .sim.ri import RICapacity
    rhos = tuple(float(part) for part in args.rhos.split(","))
    capacity = RICapacity(signing_units=args.signing_units,
                          queue_limit=args.queue_limit)
    analysis = saturation.generate(seed=args.seed,
                                   requests=args.requests,
                                   rhos=rhos, capacity=capacity)
    return analysis.render(), analysis


def _build_overload(args: argparse.Namespace) -> CommandOutput:
    analysis = overload.generate(seed=args.seed,
                                 architecture=args.arch,
                                 jobs=args.jobs)
    return analysis.render(), analysis


def _build_trace(args: argparse.Namespace) -> CommandOutput:
    tracer = Tracer(profile=_PROFILES[args.arch], actor="terminal")
    run_scenario(args.scenario, tracer, seed=args.seed,
                 rsa_bits=args.rsa_bits)
    output = args.output or "repro-%s.trace.json" % args.scenario
    metrics_path = args.metrics or "repro-%s.metrics.json" % args.scenario
    write_chrome(tracer, output)
    write_metrics(tracer.metrics, metrics_path)
    profile = _PROFILES[args.arch]
    total_ms = tracer.now / profile.clock_hz * 1000.0
    lines = [
        "%s scenario (seed %r, arch %s): %d spans, %d events, "
        "%d cycles (%.1f ms)"
        % (args.scenario, args.seed, args.arch, len(tracer.spans),
           len(tracer.events), tracer.now, total_ms),
        "Chrome trace written to %s" % output,
        "metrics written to %s" % metrics_path,
    ]
    payload = {"scenario": args.scenario, "seed": args.seed,
               "arch": args.arch, "rsa_bits": _rsa_bits(args),
               "output": output, "metrics_path": metrics_path}
    payload.update(_trace_summary_payload(tracer))
    return "\n".join(lines), payload


def _rsa_bits(args: argparse.Namespace) -> Optional[int]:
    """The key size a traced scenario ran at; None for a modeled replay."""
    if args.scenario in MODELED_SCENARIOS:
        return None
    return args.rsa_bits


def _profile_tree(arch: str, scenario: str, seed: str,
                  rsa_bits: int) -> ProfileTree:
    """Trace one scenario and fold it.

    :func:`~repro.usecases.tracing.run_scenario` has already checked
    that the tree's root cycles equal the cost model's breakdown of the
    same trace, so the tree is reconciled exactly.
    """
    tracer = Tracer(profile=_PROFILES[arch], actor="terminal")
    run_scenario(scenario, tracer, seed=seed, rsa_bits=rsa_bits)
    return ProfileTree.from_tracer(tracer, architecture=arch,
                                   scenario=scenario, seed=seed)


def _build_profile(args: argparse.Namespace) -> CommandOutput:
    tree = _profile_tree(args.arch, args.scenario, args.seed,
                         args.rsa_bits)
    profile = _PROFILES[args.arch]
    lines = [
        "%s scenario (seed %r, arch %s): %d cycles (%.1f ms), "
        "reconciled exactly against the cost model"
        % (args.scenario, args.seed, args.arch, tree.total_cycles,
           profile.cycles_to_ms(tree.total_cycles)),
        "",
        tree.render(max_depth=args.max_depth),
    ]
    if args.collapsed:
        tree.write_collapsed(args.collapsed)
        lines.append("collapsed-stack profile written to %s"
                     % args.collapsed)
    if args.speedscope:
        tree.write_speedscope(args.speedscope)
        lines.append("speedscope profile written to %s"
                     % args.speedscope)
    payload: Dict[str, Any] = {
        "scenario": args.scenario, "arch": args.arch,
        "seed": args.seed, "rsa_bits": _rsa_bits(args),
        "total_cycles": tree.total_cycles,
        # Equal by run_scenario's reconciliation check.
        "breakdown_total_cycles": tree.total_cycles,
        "tree": tree.root.to_dict(),
    }
    if args.diff_arch or args.diff_scenario:
        after_arch = args.diff_arch or args.arch
        after_scenario = args.diff_scenario or args.scenario
        after = _profile_tree(after_arch, after_scenario, args.seed,
                              args.rsa_bits)
        delta = profile_diff(tree, after)
        lines.extend([
            "",
            "diff: %s/%s -> %s/%s"
            % (args.arch, args.scenario, after_arch, after_scenario),
            delta.render(top=args.top),
        ])
        payload["diff"] = {
            "after_arch": after_arch,
            "after_scenario": after_scenario,
            "total_delta": delta.total_delta,
            "deltas": [{"path": list(d.path),
                        "before_cycles": d.before_cycles,
                        "after_cycles": d.after_cycles,
                        "delta": d.delta}
                       for d in delta.deltas[:args.top]],
        }
    return "\n".join(lines), payload


def _command_perfdiff(args: argparse.Namespace) -> int:
    try:
        if args.merge:
            reports = [perf_trajectory.load_report(path)
                       for path in args.merge]
            previous = (perf_trajectory.load_trajectory(args.previous)
                        if args.previous else None)
            trajectory = perf_trajectory.merge(reports,
                                               previous=previous)
            if args.out:
                trajectory.write(args.out)
                print("trajectory written to %s" % args.out)
        else:
            if not args.trajectory:
                print("error: pass a trajectory file or --merge",
                      file=sys.stderr)
                return 2
            trajectory = perf_trajectory.load_trajectory(
                args.trajectory)
    except (OSError, ValueError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 2
    ok, text = perf_trajectory.validate(trajectory)
    print(text)
    print("perf trajectory gate %s" % ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def _command_report(args: argparse.Namespace) -> int:
    document = report.generate(seed=args.seed)
    document.write(args.output)
    print("report written to %s (%d characters)"
          % (args.output, len(document.markdown)))
    return 0


def _command_selftest(args: argparse.Namespace) -> int:
    outcome = run_self_tests()
    for name, ok in outcome.results:
        print("%-20s %s" % (name, "PASS" if ok else "FAIL"))
    print("self-test %s" % ("PASSED" if outcome.passed else "FAILED"))
    return 0 if outcome.passed else 1


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OMA DRM 2 embedded performance model "
                    "(Thull & Sannino, DATE 2005 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def analysis_parser(name: str, help_text: str,
                        build: Callable[[argparse.Namespace],
                                        CommandOutput]
                        ) -> argparse.ArgumentParser:
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON instead of "
                              "the text rendering")
        sub.set_defaults(handler=lambda args, build=build:
                         _analysis_command(args, build))
        return sub

    for name in _ARTIFACTS:
        analysis_parser(name, "regenerate paper artifact %r" % name,
                        lambda args, name=name:
                        _build_artifact(name, args))

    analysis_parser("all", "regenerate every paper artifact",
                    _build_all)

    sub = analysis_parser("run", "price a workload", _build_run)
    _add_workload_arguments(sub)
    sub.add_argument("--arch", choices=tuple(_PROFILES),
                     default="SW", help="architecture for --trace")
    sub.add_argument("--trace", metavar="PATH", default=None,
                     help="write a Chrome trace of the priced workload "
                          "on the cycle timeline")

    sub = analysis_parser("pareto", "gate/time design-space frontier",
                          _build_pareto)
    _add_workload_arguments(sub)
    sub.add_argument("--objective", choices=("time", "energy"),
                     default="time")
    sub.add_argument("--aes-kgates", type=float, default=25.0)
    sub.add_argument("--sha1-kgates", type=float, default=20.0)
    sub.add_argument("--rsa-kgates", type=float, default=100.0)

    sub = analysis_parser("battery",
                          "battery-life impact per architecture",
                          _build_battery)
    _add_workload_arguments(sub)
    sub.add_argument("--capacity-mah", type=float, default=850.0)

    sub = analysis_parser("concurrency",
                          "CPU-busy vs wall-clock per architecture",
                          _build_concurrency)
    _add_workload_arguments(sub)
    sub.add_argument("--overlap", type=float, default=1.0,
                     help="macro/CPU overlap factor in [0, 1]")

    sub = analysis_parser("resilience",
                          "expected retry overhead on a lossy bearer",
                          _build_resilience)
    sub.add_argument("--seed", default=DEFAULT_SEED)
    sub.add_argument("--loss-rates", default="0,0.05,0.1,0.2,0.4",
                     help="comma-separated per-transmission loss rates")
    sub.add_argument("--max-attempts", type=int,
                     default=resilience.DEFAULT_MAX_ATTEMPTS)

    sub = analysis_parser("durability",
                          "write-ahead journal overhead and "
                          "power-loss recovery cost",
                          _build_durability)
    sub.add_argument("--seed", default=DEFAULT_SEED)
    sub.add_argument("--journal-lengths",
                     default=",".join(str(n) for n in
                                      durability.DEFAULT_JOURNAL_LENGTHS),
                     help="comma-separated journal lengths (records) "
                          "for the recovery projection")
    sub.add_argument("--rsa-bits", type=int, default=1024,
                     help="modulus size for the calibration run")

    sub = analysis_parser("adversary",
                          "attack sweep, forgery drain and outage "
                          "degradation",
                          _build_adversary)
    sub.add_argument("--seed", default=DEFAULT_SEED)
    sub.add_argument("--rsa-bits", type=int, default=1024,
                     help="modulus size for the attacked worlds")

    sub = analysis_parser("fleet",
                          "simulate a large device population "
                          "against one RI",
                          _build_fleet)
    sub.add_argument("--seed", default=DEFAULT_SEED)
    sub.add_argument("--devices", type=int,
                     default=fleet.REPORT_DEVICES,
                     help="population size (10^4-10^6)")
    sub.add_argument("--workers", type=int, default=1,
                     help="worker processes; any value gives "
                          "bit-identical statistics")
    sub.add_argument("--arrival", choices=("uniform", "peaked"),
                     default="uniform",
                     help="arrival distribution over the window")
    sub.add_argument("--window", type=int, default=3600,
                     help="arrival window in seconds")
    sub.add_argument("--lossy-fraction", type=float, default=0.2,
                     help="fraction of devices on a lossy bearer")
    sub.add_argument("--loss-rate", type=float, default=0.1,
                     help="per-transmission loss rate for lossy devices")
    sub.add_argument("--shard-size", type=int, default=25_000,
                     help="devices per shard (fixed, worker-"
                          "independent)")
    sub.add_argument("--rsa-bits", type=int, default=1024,
                     help="modulus size for the calibration run")
    sub.add_argument("--journaled", action="store_true",
                     help="price power-loss-atomic (journaled) storage "
                          "on every device")
    sub.add_argument("--crash-rate", type=float, default=0.0,
                     help="per-device power-loss probability (requires "
                          "--journaled)")
    sub.add_argument("--adversary-fraction", type=float, default=0.0,
                     help="fraction of devices behind an active forger "
                          "(their registrations fail and are cut off "
                          "by the circuit breaker)")
    sub.add_argument("--breaker-cutoff", type=int, default=2,
                     help="identical trust failures before the forgery "
                          "cut-off aborts an attacked flow")
    sub.add_argument("--metrics", metavar="PATH", default=None,
                     help="write the merged fleet metrics registry "
                          "as JSON")
    sub.add_argument("--kernel", action="store_true",
                     help="replay the population against one shared "
                          "RI per architecture on the event kernel "
                          "(adds the contention table; sequential "
                          "statistics are unchanged)")
    sub.add_argument("--ri-capacity", type=int, default=1,
                     help="concurrent signing units of the shared RI "
                          "(--kernel mode)")
    sub.add_argument("--ri-queue-limit", type=int, default=None,
                     help="bound the shared RI's signing queue; "
                          "overflowing requests are refused "
                          "(--kernel mode)")

    sub = analysis_parser("saturation",
                          "RI utilization/latency vs offered load "
                          "per architecture (event kernel)",
                          _build_saturation)
    sub.add_argument("--seed", default=DEFAULT_SEED)
    sub.add_argument("--requests", type=int,
                     default=saturation.REPORT_REQUESTS,
                     help="Poisson request arrivals per measurement "
                          "point")
    sub.add_argument("--rhos", default=",".join(
        "%g" % rho for rho in saturation.DEFAULT_RHOS),
                     help="comma-separated offered loads as fractions "
                          "of nominal capacity")
    sub.add_argument("--signing-units", type=int, default=1,
                     help="concurrent signing units of the RI")
    sub.add_argument("--queue-limit", type=int, default=None,
                     help="bound the signing queue; overflowing "
                          "requests are refused")

    sub = analysis_parser("overload",
                          "retry-storm metastability: admission "
                          "control vs retry discipline under a load "
                          "spike",
                          _build_overload)
    sub.add_argument("--seed", default=DEFAULT_SEED)
    sub.add_argument("--arch", choices=tuple(_PROFILES), default="SW",
                     help="architecture profile of the storm grid "
                          "(the cross-check table always covers the "
                          "others)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the sweep; results "
                          "are bit-identical for any count")

    sub = analysis_parser("trace",
                          "trace a named scenario on the cycle "
                          "timeline and export it",
                          _build_trace)
    sub.add_argument("--scenario", choices=tuple(SCENARIOS),
                     default="registration",
                     help="named scenario from repro.usecases.tracing "
                          "(protocol-stack names plus the modeled "
                          "paper-scale 'music' and 'ringtone')")
    sub.add_argument("--seed", default=DEFAULT_SEED)
    sub.add_argument("--arch", choices=tuple(_PROFILES), default="SW",
                     help="architecture profile pricing the timeline")
    sub.add_argument("--rsa-bits", type=int, default=1024,
                     help="modulus size for the traced world")
    sub.add_argument("--output", metavar="PATH", default=None,
                     help="Chrome trace-event JSON path (default "
                          "repro-<scenario>.trace.json)")
    sub.add_argument("--metrics", metavar="PATH", default=None,
                     help="metrics registry JSON path (default "
                          "repro-<scenario>.metrics.json)")

    sub = analysis_parser("profile",
                          "fold a traced scenario into an exact "
                          "virtual-cycle call tree and export/diff it",
                          _build_profile)
    sub.add_argument("--scenario", choices=tuple(SCENARIOS),
                     default="registration",
                     help="named scenario from repro.usecases.tracing")
    sub.add_argument("--seed", default=DEFAULT_SEED)
    sub.add_argument("--arch", choices=tuple(_PROFILES), default="SW",
                     help="architecture profile pricing the timeline")
    sub.add_argument("--rsa-bits", type=int, default=1024,
                     help="modulus size for protocol-stack scenarios")
    sub.add_argument("--max-depth", type=int, default=None,
                     help="truncate the rendered tree at this depth")
    sub.add_argument("--collapsed", metavar="PATH", default=None,
                     help="write a collapsed-stack (flamegraph) "
                          "profile")
    sub.add_argument("--speedscope", metavar="PATH", default=None,
                     help="write a speedscope JSON profile")
    sub.add_argument("--diff-arch", choices=tuple(_PROFILES),
                     default=None,
                     help="diff against the same scenario under "
                          "another architecture")
    sub.add_argument("--diff-scenario", choices=tuple(SCENARIOS),
                     default=None,
                     help="diff against another scenario (same "
                          "architecture unless --diff-arch)")
    sub.add_argument("--top", type=int, default=10,
                     help="paths shown in the diff table")

    sub = subparsers.add_parser("perfdiff",
                                help="validate/merge BENCH_*.json "
                                     "performance artifacts and fail "
                                     "on regressions")
    sub.add_argument("trajectory", nargs="?", default=None,
                     help="a BENCH_trajectory.json to validate "
                          "self-contained")
    sub.add_argument("--merge", metavar="BENCH.json", nargs="+",
                     default=None,
                     help="merge these bench-report artifacts into a "
                          "trajectory instead of validating one")
    sub.add_argument("--previous", metavar="PATH", default=None,
                     help="prior trajectory supplying reference "
                          "values for --merge")
    sub.add_argument("--out", metavar="PATH", default=None,
                     help="write the merged trajectory here")
    sub.set_defaults(handler=_command_perfdiff)

    sub = subparsers.add_parser("selftest",
                                help="run the crypto known-answer "
                                     "self-tests")
    sub.set_defaults(handler=_command_selftest)

    sub = subparsers.add_parser("lint",
                                help="run the AST-based invariant "
                                     "analyzer")
    lint_cli.add_arguments(sub)
    sub.set_defaults(handler=lint_cli.run)

    sub = subparsers.add_parser("report",
                                help="write the full paper-vs-measured "
                                     "Markdown report")
    sub.add_argument("--output", metavar="PATH", default="REPORT.md")
    sub.add_argument("--seed", default=DEFAULT_SEED)
    sub.set_defaults(handler=_command_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
