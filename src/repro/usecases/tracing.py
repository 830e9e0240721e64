"""Named traced scenarios: the one traced-run entry point.

:func:`run_scenario` drives one named workload against a
:class:`~repro.obs.tracer.Tracer` and returns the metered
:class:`~repro.core.trace.OperationTrace`; ``python -m repro trace``,
``python -m repro profile`` and the report's observability section all
call it. Two kinds of scenario share one registry:

* **protocol-stack** names build a fresh, fully seeded world with the
  tracer attached to the terminal's crypto provider and run the real
  protocol stack. Fresh worlds only: the analysis layer's memoized runs
  must never observe a tracer, so traced runs share nothing with them.
* **modeled** names (``music``, ``ringtone``) take the trace from the
  exact rescaling engine (:func:`~repro.usecases.workload.run_modeled`)
  and *replay* it through the tracer, one structural span per
  contiguous protocol-phase segment — full 3.5 MB Music Player profiles
  in milliseconds instead of a functional run's minutes.

Either way the tracer must price exactly the cycles the cost model
charges for the returned trace; :func:`run_scenario` checks that before
returning. Timestamps live on the virtual cycle timeline of the
architecture profile the tracer prices under; no wall-clock anywhere, so
the same seed always produces byte-identical exports.
"""

from typing import Callable, Dict, List, Tuple

from ..core.model import PerformanceModel
from ..core.trace import OperationTrace, Phase
from ..drm.rel import play_count
from ..drm.roap.faults import FaultPlan, FaultyChannel
from ..drm.session import RetryPolicy, RoapSession
from ..obs.profile import ProfileTree
from ..obs.tracer import Tracer
from .catalog import music_player, ringtone
from .scenario import KIB, UseCase
from .workload import run_modeled
from .world import DRMWorld, RSA_BITS

#: Content the scenarios publish: ringtone-class, deterministic bytes.
CONTENT_ID = "cid:trace"
CONTENT_OCTETS = 30 * KIB
RO_ID = "ro:trace"

#: Loss rate the ``lossy-registration`` scenario injects.
LOSSY_RATE = 0.4

#: Accesses the ``full`` and ``durable`` scenarios perform.
FULL_ACCESSES = 3

#: A scenario body: ``(tracer, seed, rsa_bits) -> metered trace``.
Runner = Callable[[Tracer, str, int], OperationTrace]


def _seeded_world(tracer: Tracer, seed: str, rsa_bits: int,
                  durable: bool = False) -> Tuple[DRMWorld, object]:
    world = DRMWorld.create(seed=seed, rsa_bits=rsa_bits, tracer=tracer,
                            durable=durable)
    dcf = world.ci.publish(CONTENT_ID, "audio/mpeg",
                           b"\x5a" * CONTENT_OCTETS,
                           "http://ri.example/shop")
    world.ri.add_offer(RO_ID, world.ci.negotiate_license(CONTENT_ID),
                       play_count(1_000))
    return world, dcf


def _installed(tracer: Tracer, seed: str, rsa_bits: int,
               durable: bool = False) -> DRMWorld:
    world, dcf = _seeded_world(tracer, seed, rsa_bits, durable)
    world.agent.register(world.ri)
    protected = world.agent.acquire(world.ri, RO_ID)
    world.agent.install(protected, dcf)
    return world


def _consumed(accesses: int, durable: bool = False) -> Runner:
    """Install, consume ``accesses`` times; ``durable`` journals the
    agent's storage and replays the journal at the end."""
    def run(tracer: Tracer, seed: str, rsa_bits: int) -> OperationTrace:
        world = _installed(tracer, seed, rsa_bits, durable)
        for _ in range(accesses):
            world.agent.consume(CONTENT_ID)
        if durable:
            world.agent.recover_storage()
        return world.agent_crypto.trace
    return run


def _registration(tracer: Tracer, seed: str,
                  rsa_bits: int) -> OperationTrace:
    world, _ = _seeded_world(tracer, seed, rsa_bits)
    world.agent.register(world.ri)
    return world.agent_crypto.trace


def _acquisition(tracer: Tracer, seed: str,
                 rsa_bits: int) -> OperationTrace:
    world, _ = _seeded_world(tracer, seed, rsa_bits)
    world.agent.register(world.ri)
    world.agent.acquire(world.ri, RO_ID)
    return world.agent_crypto.trace


def _lossy_registration(tracer: Tracer, seed: str,
                        rsa_bits: int) -> OperationTrace:
    world, _ = _seeded_world(tracer, seed, rsa_bits)
    plan = FaultPlan.lossy("%s/lossy" % seed, LOSSY_RATE)
    channel = FaultyChannel(world.ri, plan, clock=world.clock)
    session = RoapSession(world.agent, channel,
                          RetryPolicy(max_attempts=8),
                          name="%s/session" % seed)
    session.register()
    return world.agent_crypto.trace


def _modeled(name: str, use_case: Callable[[], UseCase]) -> Runner:
    """Replay a paper-scale modeled use case under a ``name`` span.

    The modeled trace's records are priced through
    :meth:`~repro.obs.tracer.Tracer.on_record` — exactly the records
    :class:`~repro.core.model.PerformanceModel` prices — nested inside
    one structural span per contiguous phase segment. ``rsa_bits`` does
    not apply: the rescaling engine builds its own calibration world.
    """
    def run(tracer: Tracer, seed: str, rsa_bits: int) -> OperationTrace:
        case = use_case()
        trace = run_modeled(case, seed=seed).trace
        segments: List[Tuple[Phase, List]] = []
        for record in trace:
            if not segments or segments[-1][0] is not record.phase:
                segments.append((record.phase, []))
            segments[-1][1].append(record)
        with tracer.span(name, track="modeled", use_case=case.name,
                         content_octets=case.content_octets,
                         accesses=case.accesses):
            for phase, records in segments:
                with tracer.span(phase.value, track=phase.value):
                    for record in records:
                        tracer.on_record(record)
        return trace
    return run


#: Scenarios the rescaling engine replays; ``rsa_bits`` does not apply.
MODELED_SCENARIOS = frozenset({"music", "ringtone"})

#: Scenario name -> runner; ordering is the CLI help ordering.
SCENARIOS: Dict[str, Runner] = {
    "registration": _registration,
    "acquisition": _acquisition,
    "install": _consumed(0),
    "consume": _consumed(1),
    "full": _consumed(FULL_ACCESSES),
    "lossy-registration": _lossy_registration,
    "durable": _consumed(FULL_ACCESSES, durable=True),
    "music": _modeled("music", music_player),
    "ringtone": _modeled("ringtone", ringtone),
}


def run_scenario(name: str, tracer: Tracer,
                 seed: str = "repro-trace",
                 rsa_bits: int = RSA_BITS) -> OperationTrace:
    """Trace one named scenario; returns its metered trace.

    The tracer's folded :class:`~repro.obs.profile.ProfileTree` and its
    per-algorithm operation-span cycles must equal the cost model's
    breakdown of the returned trace, to the cycle. A mismatch is a bug
    in the tracer or profiler, so it raises ``AssertionError`` instead
    of handing back a wrong trace. Unknown names raise ``ValueError`` so
    the CLI can report a usage error instead of a traceback.
    """
    try:
        runner = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            "unknown scenario %r (expected one of %s)"
            % (name, ", ".join(sorted(SCENARIOS)))) from None
    trace = runner(tracer, seed, rsa_bits)
    tree_cycles = ProfileTree.from_tracer(tracer).total_cycles
    breakdown = PerformanceModel().evaluate(trace, tracer.profile)
    if tree_cycles != breakdown.total_cycles:
        raise AssertionError(
            "profile tree does not reconcile with the cost model: "
            "tree %d cycles != breakdown %d cycles"
            % (tree_cycles, breakdown.total_cycles))
    priced = {algorithm.value: cycles for algorithm, cycles
              in breakdown.cycles_by_algorithm().items() if cycles}
    if tracer.cycles_by_algorithm() != priced:
        raise AssertionError(
            "tracer does not reconcile with the cost model: "
            "cycles by algorithm %r != breakdown %r"
            % (tracer.cycles_by_algorithm(), priced))
    return trace
