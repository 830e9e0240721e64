"""The four benchmark workloads, built only from ``repro``'s public API.

Each workload is a closed loop with one client: ``op(index)`` runs one
operation to completion and returns a short string summarising its
output. The string feeds the run's output digest. An operation whose
output fails its check raises :class:`CheckFailed`. Operation inputs
derive from ``"<seed>/<index>"``, so a seed fixes every input.

The DRM world (keys, certificates) is built from a fixed seed: it is
the deployment under test, not an input. Set-up time then measures the
same key generation on every seed.
"""

import hashlib
import random

from repro.analysis.overload import DEFAULT_COMBOS
from repro.core.architecture import PAPER_PROFILES
from repro.core.model import PerformanceModel
from repro.drm import (RetryPolicy, RoapSession, SessionState, content_id,
                       play_count, rights_object_id)
from repro.drm.roap import FaultPlan, FaultyChannel
from repro.sim import (StormSpec, nominal_service_ticks, run_open_load,
                       run_storm)
from repro.usecases import RINGTONE_CONTENT_OCTETS, DRMWorld

WORLD_SEED = "drmbench-world"
RI_URL = "http://ri.example/shop"

#: Profile names as metric-name suffixes ("SW/HW" has a slash).
PROFILE_KEYS = tuple(p.name.replace("/", "-") for p in PAPER_PROFILES)


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def _publish(world, seed: str, rights):
    """Publish a ringtone DCF and offer a license for it.

    The content bytes derive from the seed; their size is fixed.
    Returns ``(content_id, clear_content, dcf, ro_id)``.
    """
    cid = content_id("ringtone")
    clear = random.Random(seed + "/content").randbytes(
        RINGTONE_CONTENT_OCTETS)
    dcf = world.ci.publish(content_id=cid, content_type="audio/midi",
                           clear_content=clear, rights_issuer_url=RI_URL)
    ro_id = rights_object_id(cid + "-license")
    world.ri.add_offer(ro_id, world.ci.negotiate_license(cid), rights)
    return cid, clear, dcf, ro_id


def _cycles(traces):
    """Mean modeled cycles per trace under each paper profile."""
    model = PerformanceModel()
    return {key: sum(model.evaluate(trace, profile).total_cycles
                     for trace in traces) / len(traces)
            for key, profile in zip(PROFILE_KEYS, PAPER_PROFILES)}


class Workload:
    """Shared shape: op cycle length, fixed-op count, result counters."""

    #: Ops in one cycle of the input mix. Timed runs stop on a whole
    #: cycle, so every run weighs the mix equally.
    cycle_ops = 1
    #: Ops of the traced run, of the output digest and of the modeled
    #: cycles: a fixed prefix, identical on every host.
    fixed_ops = 24

    #: Result-derived counters every workload reports (0 where its ops
    #: never reach the layer).
    COUNTERS = ("core.meter.records", "drm.session.flows",
                "drm.session.attempts", "drm.session.completed",
                "drm.session.reregistrations", "drm.session.backoff_sim_s",
                "sim.kernel.events", "sim.ri.requests", "sim.ri.served",
                "sim.ri.refused", "sim.ri.shed", "sim.ri.timed_out",
                "sim.ri.pending", "sim.ri.successes", "sim.ri.clients",
                "sim.ri.wasted_service_ticks", "sim.ri.service_ticks")

    def __init__(self, seed: str) -> None:
        self.seed = seed
        self.counters = dict.fromkeys(self.COUNTERS, 0)

    def count(self, name: str, delta) -> None:
        self.counters[name] += delta

    def final_checks(self, parts):
        """Checks run after the timed loop; ``name -> passed``."""
        return {}

    def modeled(self):
        """``modeled.cycles_per_op.<profile>`` over the fixed ops."""
        raise NotImplementedError


class Playback(Workload):
    """The paper's Ringtone use case: repeated access to one DCF."""

    name = "playback"
    fixed_ops = 40
    #: Enough plays that the count constraint never runs out.
    PLAYS = 1_000_000

    def __init__(self, seed: str, rsa_bits: int) -> None:
        super().__init__(seed)
        world = self.world = DRMWorld.create(WORLD_SEED, rsa_bits=rsa_bits)
        self.cid, self.clear, dcf, ro_id = _publish(
            world, seed, play_count(self.PLAYS))
        world.agent.register(world.ri)
        world.agent.install(world.agent.acquire(world.ri, ro_id), dcf)
        self.count("core.meter.records",
                   len(world.agent_crypto.reset_trace()))
        self.reference = None
        self.op(-1)

    def op(self, index: int) -> str:
        result = self.world.agent.consume(self.cid)
        trace = self.world.agent_crypto.reset_trace()
        self.count("core.meter.records", len(trace))
        if result.clear_content != self.clear:
            raise CheckFailed("access %d returned the wrong content"
                              % index)
        # Identical records price identically under every profile.
        if self.reference is None:
            self.reference = trace
        elif trace.records != self.reference.records:
            raise CheckFailed("access %d metered different work" % index)
        return hashlib.sha1(result.clear_content).hexdigest()

    def modeled(self):
        return _cycles([self.reference])


class RoapLossy(Workload):
    """Terminal onboarding (register, acquire, install) over a lossy
    bearer, round-robin over four metered terminals."""

    name = "roap-lossy"
    cycle_ops = 4
    fixed_ops = 40
    LOSS = 0.05
    #: Deep enough that a flow aborting is vanishingly rare
    #: (registration fails an attempt with p = 1 - 0.95**4 ~ 0.19;
    #: sixteen in a row ~ 2e-12), so every op is expected to complete.
    POLICY = RetryPolicy(max_attempts=16, base_backoff_seconds=1,
                         jitter_seconds=1)

    def __init__(self, seed: str, rsa_bits: int) -> None:
        super().__init__(seed)
        world = self.world = DRMWorld.create(WORLD_SEED, rsa_bits=rsa_bits)
        self.terminals = [world.agent] + [
            world.add_device("terminal-%d" % k, metered=True)
            for k in (2, 3, 4)]
        _, _, self.dcf, self.ro_id = _publish(world, seed, play_count(1))
        self.traces = []
        self.op(-1)

    def _flow_stats(self, outcomes) -> None:
        for outcome in outcomes:
            self.count("drm.session.flows", 1)
            self.count("drm.session.attempts", outcome.attempts)
            self.count("drm.session.completed", int(outcome.completed))
            self.count("drm.session.reregistrations",
                       outcome.reregistrations)
        # The session's transitions span both flows; a BACKOFF state
        # lasts exactly its backoff on the simulation clock.
        transitions = outcomes[-1].transitions
        self.count("drm.session.backoff_sim_s", sum(
            after.at - before.at
            for before, after in zip(transitions, transitions[1:])
            if before.state is SessionState.BACKOFF))

    def op(self, index: int) -> str:
        key = "%s/%d" % (self.seed, index)
        terminal = self.terminals[index % len(self.terminals)]
        channel = FaultyChannel(self.world.ri,
                                FaultPlan.lossy(key + "/f", self.LOSS),
                                self.world.clock)
        session = RoapSession(terminal, channel, self.POLICY, name=key)
        outcomes = [session.register()]
        if outcomes[0].completed:
            outcomes.append(session.acquire(self.ro_id))
        self._flow_stats(outcomes)
        trace = terminal.crypto.reset_trace()
        self.count("core.meter.records", len(trace))
        if 0 <= index < self.fixed_ops:
            self.traces.append(trace)
        if not outcomes[-1].completed:
            raise CheckFailed("op %d aborted: %s"
                              % (index, outcomes[-1].reason))
        installed = terminal.install(outcomes[1].value, self.dcf)
        return "%d.%d:%s" % (outcomes[0].attempts, outcomes[1].attempts,
                             installed.ro.ro_nonce.hex())

    def modeled(self):
        return _cycles(self.traces)


class _KernelWorkload(Workload):
    """An ``ri-*`` op is a pure function of its index: op 0 re-runs."""

    def final_checks(self, parts):
        return {"rerun_op0": self.op(0) == parts[0]}


class RiSaturation(_KernelWorkload):
    """Open Poisson load on one kernel RI: profile x load ladder."""

    name = "ri-saturation"
    cycle_ops = 12
    RHOS = (0.3, 0.6, 0.9, 0.97)
    REQUESTS = 2000

    def __init__(self, seed: str, rsa_bits: int) -> None:
        super().__init__(seed)
        self.rates = [profile.clock_hz / nominal_service_ticks(profile)
                      for profile in PAPER_PROFILES]
        self.busy = {key: [] for key in PROFILE_KEYS}
        self.op(-1)

    def op(self, index: int) -> str:
        slot = index % len(PAPER_PROFILES)
        rho = self.RHOS[index // len(PAPER_PROFILES) % len(self.RHOS)]
        result = run_open_load("%s/%d" % (self.seed, index),
                               PAPER_PROFILES[slot],
                               rho * self.rates[slot],
                               requests=self.REQUESTS)
        load = result.load
        self.count("sim.ri.requests", self.REQUESTS)
        self.count("sim.ri.served", load.served)
        self.count("sim.ri.refused", load.refused)
        self.count("sim.kernel.events", load.events)
        if 0 <= index < self.fixed_ops:
            self.busy[PROFILE_KEYS[slot]].append(
                load.utilization * load.span_ticks)
        if load.served + load.refused != self.REQUESTS:
            raise CheckFailed("op %d lost requests: %d served + %d "
                              "refused of %d" % (index, load.served,
                                                 load.refused,
                                                 self.REQUESTS))
        return "%d/%d/%d/%d/%r" % (load.served, load.refused, load.events,
                                   load.span_ticks, load.latency)

    def modeled(self):
        return {key: sum(v) / len(v) for key, v in self.busy.items()}


class RiStorm(_KernelWorkload):
    """The overload grid: every admission x retry x deadline combo."""

    name = "ri-storm"
    cycle_ops = len(DEFAULT_COMBOS)
    #: A quarter of the analysis storm (spike 180-300, horizon 960
    #: service units): the same collapse, shedding and expiry dynamics
    #: at ~70 ms per storm, so a 15 s run holds eight whole combo cycles.
    SHAPE = {"spike_start": 60, "spike_end": 120, "horizon": 240}

    def __init__(self, seed: str, rsa_bits: int) -> None:
        super().__init__(seed)
        self.service = []
        self.op(-1)

    def op(self, index: int) -> str:
        admission, retry, deadlines = DEFAULT_COMBOS[
            index % len(DEFAULT_COMBOS)]
        result = run_storm(StormSpec(
            seed="%s/%d" % (self.seed, index), architecture="SW",
            admission=admission, retry=retry, deadlines=deadlines,
            **self.SHAPE))
        for name in ("served", "refused", "shed", "timed_out", "pending",
                     "clients", "successes", "wasted_service_ticks"):
            self.count("sim.ri." + name, getattr(result, name))
        self.count("sim.ri.requests", result.attempts)
        self.count("sim.ri.service_ticks", result.service_ticks_total)
        self.count("sim.kernel.events", result.events)
        if 0 <= index < self.fixed_ops:
            self.service.append(result.service_ticks_total)
        resolved = (result.served + result.refused + result.shed
                    + result.timed_out + result.pending)
        if resolved != result.attempts:
            raise CheckFailed("op %d: %d attempts but %d accounted for"
                              % (index, result.attempts, resolved))
        return result.digest()

    def modeled(self):
        # Storms run on the SW profile only.
        cycles = dict.fromkeys(PROFILE_KEYS, 0.0)
        cycles["SW"] = sum(self.service) / len(self.service)
        return cycles


WORKLOADS = {cls.name: cls
             for cls in (Playback, RoapLossy, RiSaturation, RiStorm)}
