"""Priced retry overhead: what an unreliable bearer costs the terminal.

The paper prices each ROAP flow once, over a perfect channel. A cellular
bearer is not perfect, and the session layer
(:mod:`repro.drm.session`) cures losses by re-running the whole flow —
fresh nonce, fresh signature, fresh public-key operations. Every retry
therefore re-spends the per-attempt crypto budget, and the expected
overhead is a function of the loss rate and the architecture.

The expected overhead reported here is analytic, layered on a *measured*
clean attempt:

* One registration is run over a clean channel with a metered crypto
  provider, giving the per-attempt cost (cycles, time, energy per
  architecture profile; octets on the wire).
* With per-transmission loss ``p`` and ``m`` transmissions per attempt,
  an attempt succeeds with ``q = (1-p)^m``. Bounded at ``A`` attempts,
  the expected number of attempts started is
  ``E = sum_{k=1..A} (1-q)^(k-1)`` and the completion probability is
  ``1 - (1-q)^A``.
* Expected retry overhead is ``(E - 1)`` times the per-attempt cost —
  zero at ``p = 0`` and monotonically non-decreasing in ``p`` by
  construction, which a sampled simulation cannot guarantee.

The simulated path (:class:`~repro.drm.roap.faults.FaultyChannel` under
:class:`~repro.drm.session.RoapSession`) exercises the same costs
concretely; this module reports their expectation.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from ..core.architecture import PAPER_PROFILES
from ..core.energy import ProportionalEnergyModel
from ..core.model import PerformanceModel
from ..core.trace import OperationTrace
from ..drm.roap.wire import WireChannel
from ..usecases.fleet import (REGISTRATION_TRANSMISSIONS,
                              attempt_success_probability)
from ..usecases.world import RSA_BITS, DRMWorld
from .common import DEFAULT_SEED
from .formatting import format_table

#: Loss-rate columns the report sweeps.
DEFAULT_LOSS_RATES = (0.0, 0.05, 0.10, 0.20, 0.40)

#: Retry budget assumed by the expectation (matches RetryPolicy).
DEFAULT_MAX_ATTEMPTS = 5


def expected_attempts(loss_rate: float,
                      transmissions: int = REGISTRATION_TRANSMISSIONS,
                      max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> float:
    """Expected number of attempts started, bounded at ``max_attempts``.

    ``E[min(Geom(q), A)] = sum_{k=1..A} (1-q)^(k-1)`` — 1 on a clean
    channel, approaching ``A`` as the loss rate approaches 1.
    """
    if max_attempts < 1:
        raise ValueError("at least one attempt is required")
    q = attempt_success_probability(loss_rate, transmissions)
    return sum((1.0 - q) ** (k - 1) for k in range(1, max_attempts + 1))


def completion_probability(loss_rate: float,
                           transmissions: int =
                           REGISTRATION_TRANSMISSIONS,
                           max_attempts: int =
                           DEFAULT_MAX_ATTEMPTS) -> float:
    """Probability the flow completes within the retry budget."""
    q = attempt_success_probability(loss_rate, transmissions)
    return 1.0 - (1.0 - q) ** max_attempts


@lru_cache(maxsize=8)
def _clean_registration(seed: str,
                        rsa_bits: int) -> Tuple[OperationTrace, int]:
    """Measured trace and wire octets of one clean registration."""
    world = DRMWorld.create(seed, metered=True, rsa_bits=rsa_bits)
    channel = WireChannel(world.ri)
    world.agent_crypto.reset_trace()
    world.agent.register(channel)
    trace = world.agent_crypto.reset_trace()
    return trace, channel.log.total_octets()


@dataclass(frozen=True)
class RetryOverhead:
    """Expected retry overhead at one (architecture, loss rate) point."""

    architecture: str
    loss_rate: float
    expected_attempts: float
    completion_probability: float
    overhead_cycles: float
    overhead_ms: float
    overhead_millijoules: float
    overhead_octets: float


@dataclass
class ResilienceResult:
    """The priced retry-overhead sweep for registration."""

    seed: str
    rsa_bits: int
    transmissions: int
    max_attempts: int
    loss_rates: Tuple[float, ...]
    attempt_octets: int
    attempt_cycles: Dict[str, int]
    attempt_ms: Dict[str, float]
    attempt_millijoules: Dict[str, float]
    overheads: Tuple[RetryOverhead, ...]

    def render(self) -> str:
        """Aligned ASCII table, one row per (architecture, loss rate)."""
        rows = []
        for o in self.overheads:
            rows.append((
                o.architecture,
                "%.0f%%" % (100.0 * o.loss_rate),
                "%.2f" % o.expected_attempts,
                "%.4f" % o.completion_probability,
                "%.0f" % o.overhead_cycles,
                "%.2f" % o.overhead_ms,
                "%.3f" % o.overhead_millijoules,
                "%.0f" % o.overhead_octets,
            ))
        title = ("Registration retry overhead (%d transmissions/attempt, "
                 "<= %d attempts)" % (self.transmissions,
                                      self.max_attempts))
        return format_table(
            ("arch", "loss", "E[attempts]", "P(complete)",
             "overhead [cycles]", "overhead [ms]", "overhead [mJ]",
             "overhead [octets]"),
            rows, title=title)


def generate(seed: str = DEFAULT_SEED,
             loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
             max_attempts: int = DEFAULT_MAX_ATTEMPTS,
             rsa_bits: int = RSA_BITS) -> ResilienceResult:
    """Price the expected registration retry overhead per architecture."""
    trace, octets = _clean_registration(seed, rsa_bits)
    model = PerformanceModel()
    energy = ProportionalEnergyModel()

    attempt_cycles: Dict[str, int] = {}
    attempt_ms: Dict[str, float] = {}
    attempt_mj: Dict[str, float] = {}
    for profile in PAPER_PROFILES:
        breakdown = model.evaluate(trace, profile)
        attempt_cycles[profile.name] = breakdown.total_cycles
        attempt_ms[profile.name] = breakdown.total_ms
        attempt_mj[profile.name] = 1000.0 * energy.joules(breakdown)

    overheads: List[RetryOverhead] = []
    for profile in PAPER_PROFILES:
        for rate in loss_rates:
            attempts = expected_attempts(
                rate, REGISTRATION_TRANSMISSIONS, max_attempts)
            extra = attempts - 1.0
            overheads.append(RetryOverhead(
                architecture=profile.name,
                loss_rate=rate,
                expected_attempts=attempts,
                completion_probability=completion_probability(
                    rate, REGISTRATION_TRANSMISSIONS, max_attempts),
                overhead_cycles=extra * attempt_cycles[profile.name],
                overhead_ms=extra * attempt_ms[profile.name],
                overhead_millijoules=extra * attempt_mj[profile.name],
                overhead_octets=extra * octets,
            ))

    return ResilienceResult(
        seed=seed, rsa_bits=rsa_bits,
        transmissions=REGISTRATION_TRANSMISSIONS,
        max_attempts=max_attempts,
        loss_rates=tuple(loss_rates),
        attempt_octets=octets,
        attempt_cycles=attempt_cycles,
        attempt_ms=attempt_ms,
        attempt_millijoules=attempt_mj,
        overheads=tuple(overheads))
