"""Fault injection for the ROAP byte transport.

The paper prices each ROAP run exactly once, but a real terminal speaks
ROAP over a lossy bearer (GPRS of the period dropped, delayed and
garbled packets routinely), and every retry re-spends the RSA/AES/SHA-1
cycles the cost model budgets. This module provides the lossy bearer:

* :class:`FaultPolicy` — per-message-type fault rates (drop, truncate,
  bit-flip, duplicate, reorder, delay, RI error status).
* :class:`FaultPlan` — a seeded, deterministic decision source: given
  the same seed and the same protocol run, the exact same transmissions
  fault in the exact same way, so every faulty run is reproducible.
* :class:`FaultLog` — the fault mirror of
  :class:`~repro.drm.roap.wire.MessageLog`: every injected fault, in
  order, with direction and detail.
* :class:`FaultyChannel` — a :class:`~repro.drm.roap.wire.WireChannel`
  whose transport applies the plan. Lost or garbled deliveries cost the
  device a timeout on the shared
  :class:`~repro.drm.clock.SimulationClock` and surface as
  :class:`~repro.drm.errors.ChannelTimeoutError`; corruption that
  reaches the peer exercises the hardened decoders and the signature
  checks exactly as real corruption would.

The channel only injects faults; recovering from them is the job of
:class:`~repro.drm.session.RoapSession`, which retries with backoff and
fresh nonces until the flow completes or its budget is spent.
"""

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ...crypto.errors import CryptoError
from ..errors import (ChannelTimeoutError, DRMError, RoapStatusError,
                      WireDecodeError)
from .wire import WireChannel, decode_message, encode_message

#: Device-side response timeout in simulation seconds: how long the
#: agent waits before concluding a request or response was lost.
DEFAULT_TIMEOUT_SECONDS = 30

#: Status string injected by :attr:`FaultKind.ERROR_STATUS` faults.
SERVER_BUSY = "ServerBusy"


class FaultKind(enum.Enum):
    """Every way a transmission can go wrong on the modeled bearer."""

    DROP = "drop"                  # message never arrives
    TRUNCATE = "truncate"          # tail cut off in transit
    BIT_FLIP = "bit-flip"          # one bit corrupted in transit
    DUPLICATE = "duplicate"        # delivered twice (replay)
    REORDER = "reorder"            # a stale message overtakes the fresh one
    DELAY = "delay"                # late delivery (possibly past timeout)
    ERROR_STATUS = "error-status"  # RI sheds load with an error status

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FaultPolicy:
    """Per-transmission fault probabilities for one message type.

    Each rate is the probability that the corresponding fault hits one
    transmission; at most one fault applies per transmission, so the
    rates must sum to at most 1. ``delay_seconds`` sizes DELAY (and
    REORDER hold-back) faults; a delay at or beyond the channel timeout
    behaves like a drop.
    """

    drop: float = 0.0
    truncate: float = 0.0
    bit_flip: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0
    error_status: float = 0.0
    delay_seconds: int = 5

    def __post_init__(self) -> None:
        if any(rate < 0.0 for _, rate in self.rates()):
            raise ValueError("fault rates must be non-negative")
        if self.total_rate() > 1.0 + 1e-9:
            raise ValueError("fault rates must sum to at most 1")
        if self.delay_seconds < 0:
            raise ValueError("delay must be non-negative")

    def rates(self) -> Tuple[Tuple[FaultKind, float], ...]:
        """The (kind, probability) pairs, in deterministic order."""
        return (
            (FaultKind.DROP, self.drop),
            (FaultKind.TRUNCATE, self.truncate),
            (FaultKind.BIT_FLIP, self.bit_flip),
            (FaultKind.DUPLICATE, self.duplicate),
            (FaultKind.REORDER, self.reorder),
            (FaultKind.DELAY, self.delay),
            (FaultKind.ERROR_STATUS, self.error_status),
        )

    def total_rate(self) -> float:
        """Probability that any fault hits one transmission."""
        return sum(rate for _, rate in self.rates())

    @classmethod
    def loss(cls, rate: float) -> "FaultPolicy":
        """Pure message loss at ``rate`` — the canonical lossy bearer."""
        return cls(drop=rate)

    @classmethod
    def mixed(cls, rate: float, delay_seconds: int = 5) -> "FaultPolicy":
        """``rate`` spread evenly over every fault kind."""
        share = rate / 7.0
        return cls(drop=share, truncate=share, bit_flip=share,
                   duplicate=share, reorder=share, delay=share,
                   error_status=share, delay_seconds=delay_seconds)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, mirroring a wire record."""

    sequence: int
    direction: str  # "device->ri" or "ri->device"
    message: str
    kind: FaultKind
    detail: str = ""


@dataclass
class FaultLog:
    """Everything the fault plan did to this channel, in order."""

    events: List[FaultEvent] = field(default_factory=list)

    def add(self, direction: str, message: str, kind: FaultKind,
            detail: str = "") -> FaultEvent:
        """Record one injected fault."""
        event = FaultEvent(sequence=len(self.events), direction=direction,
                           message=message, kind=kind, detail=detail)
        self.events.append(event)
        return event

    def __len__(self) -> int:
        return len(self.events)

class FaultPlan:
    """Seeded, deterministic fault decisions, composable per message type.

    ``default`` applies to every transmission; ``per_message`` overrides
    it for specific message type names (e.g. only fault
    ``"RegistrationRequest"``). The same seed always yields the same
    decision sequence, so a faulty protocol run is exactly as
    reproducible as a clean one.
    """

    def __init__(self, seed: str = "fault-plan",
                 default: FaultPolicy = FaultPolicy(),
                 per_message: Optional[Dict[str, FaultPolicy]] = None
                 ) -> None:
        self.seed = seed
        self.default = default
        self.per_message = dict(per_message or {})
        self._rng = random.Random(seed)

    @classmethod
    def lossy(cls, seed: str, rate: float) -> "FaultPlan":
        """A plan dropping every message type at ``rate``."""
        return cls(seed=seed, default=FaultPolicy.loss(rate))

    def policy_for(self, message_name: str) -> FaultPolicy:
        """The effective policy for one message type."""
        return self.per_message.get(message_name, self.default)

    def draw(self, message_name: str) -> Optional[FaultKind]:
        """Decide the fault (or None) for one transmission."""
        policy = self.policy_for(message_name)
        if policy.total_rate() <= 0.0:
            return None
        u = self._rng.random()
        cumulative = 0.0
        for kind, rate in policy.rates():
            cumulative += rate
            if u < cumulative:
                return kind
        return None

    def position(self, length: int) -> int:
        """A deterministic cut/flip position inside ``length`` octets."""
        if length <= 0:
            return 0
        return self._rng.randrange(length)


class FaultyChannel(WireChannel):
    """A :class:`WireChannel` whose transport follows a fault plan.

    Semantics per fault kind, matched to what a real bearer does:

    * DROP — the blob vanishes; the device waits out ``timeout_seconds``
      on the simulation clock and raises
      :class:`~repro.drm.errors.ChannelTimeoutError`.
    * TRUNCATE / BIT_FLIP — the blob is corrupted in transit. If the
      receiver can no longer parse or validate it, an uplink corruption
      is discarded by the RI (device times out) while a downlink
      corruption surfaces to the device as ``WireDecodeError`` or a
      failed signature — both retryable.
    * DUPLICATE — the blob is delivered twice. Uplink duplicates hit the
      RI's nonce replay cache (idempotency); downlink duplicates only
      cost octets.
    * REORDER — downlink: the previous response of the same type
      overtakes the fresh one (the device sees a stale message and its
      nonce check fires). Uplink: modeled as an in-order delay.
    * DELAY — the clock advances by the policy's ``delay_seconds``; a
      delay at or past the timeout is indistinguishable from a drop.
    * ERROR_STATUS — the RI front-end sheds the request with an
      unsigned ``ServerBusy`` status
      (:class:`~repro.drm.errors.RoapStatusError`).
    """

    def __init__(self, rights_issuer, plan: FaultPlan, clock,
                 timeout_seconds: int = DEFAULT_TIMEOUT_SECONDS) -> None:
        super().__init__(rights_issuer)
        if timeout_seconds <= 0:
            raise ValueError("channel timeout must be positive")
        self.plan = plan
        self.clock = clock
        self.timeout_seconds = timeout_seconds
        self.faults = FaultLog()
        self._held_responses: Dict[str, bytes] = {}

    # -- helpers ----------------------------------------------------------
    def _expire(self, name: str) -> bytes:
        """Wait out the timeout and report the exchange as lost."""
        self.clock.advance(self.timeout_seconds)
        raise ChannelTimeoutError(
            "no response to %s within %d s" % (name, self.timeout_seconds))

    def _corrupt(self, blob: bytes, kind: FaultKind, direction: str,
                 name: str) -> bytes:
        if kind is FaultKind.TRUNCATE:
            cut = self.plan.position(len(blob))
            self.faults.add(direction, name, kind,
                            "cut at octet %d of %d" % (cut, len(blob)))
            return blob[:cut]
        octet = self.plan.position(len(blob))
        bit = self.plan.position(8)
        self.faults.add(direction, name, kind,
                        "flipped bit %d of octet %d" % (bit, octet))
        mutated = bytearray(blob)
        mutated[octet] ^= 1 << bit
        return bytes(mutated)

    # -- transport --------------------------------------------------------
    def _deliver(self, handler, request, request_blob):
        name = type(request).__name__
        kind = self.plan.draw(name)
        policy = self.plan.policy_for(name)
        blob = request_blob
        corrupted = False

        if kind is FaultKind.DROP:
            self.faults.add("device->ri", name, kind,
                            "request lost by the bearer")
            return self._expire(name)
        if kind is FaultKind.ERROR_STATUS:
            self.faults.add("device->ri", name, kind,
                            "RI shed the request with %s" % SERVER_BUSY)
            raise RoapStatusError(
                SERVER_BUSY, "RI refused %s: %s" % (name, SERVER_BUSY))
        if kind in (FaultKind.DELAY, FaultKind.REORDER):
            self.faults.add("device->ri", name, kind,
                            "delivered %d s late" % policy.delay_seconds)
            if policy.delay_seconds >= self.timeout_seconds:
                return self._expire(name)
            self.clock.advance(policy.delay_seconds)
        if kind in (FaultKind.TRUNCATE, FaultKind.BIT_FLIP):
            blob = self._corrupt(blob, kind, "device->ri", name)
            corrupted = True

        try:
            message = decode_message(blob)
        except WireDecodeError:
            if not corrupted:
                raise
            # The RI cannot parse the garbled request and discards it;
            # from the device's side the exchange simply times out.
            return self._expire(name)
        try:
            response = handler(message)
            if kind is FaultKind.DUPLICATE:
                self.faults.add("device->ri", name, kind,
                                "request delivered twice")
                self.log.add("device->ri", request, blob)
                response = handler(message)
        except (DRMError, CryptoError):
            if not corrupted:
                raise
            # A corrupted-but-parseable request failed the RI's checks
            # (typically the signature); the RI sends nothing back.
            return self._expire(name)

        return self._deliver_response(response)

    def _deliver_response(self, response) -> bytes:
        name = type(response).__name__
        response_blob = encode_message(response)
        self.log.add("ri->device", response, response_blob)
        kind = self.plan.draw(name)
        policy = self.plan.policy_for(name)

        if kind is FaultKind.DROP:
            self.faults.add("ri->device", name, kind,
                            "response lost by the bearer")
            return self._expire(name)
        if kind is FaultKind.ERROR_STATUS:
            self.faults.add("ri->device", name, kind,
                            "response replaced by %s" % SERVER_BUSY)
            raise RoapStatusError(
                SERVER_BUSY,
                "RI replaced %s with status %s" % (name, SERVER_BUSY))
        if kind is FaultKind.DELAY:
            self.faults.add("ri->device", name, kind,
                            "delivered %d s late" % policy.delay_seconds)
            if policy.delay_seconds >= self.timeout_seconds:
                return self._expire(name)
            self.clock.advance(policy.delay_seconds)
            return response_blob
        if kind is FaultKind.REORDER:
            held = self._held_responses.get(name)
            self._held_responses[name] = response_blob
            if held is not None:
                self.faults.add("ri->device", name, kind,
                                "stale %s overtook the fresh one" % name)
                return held
            self.faults.add("ri->device", name, kind,
                            "nothing in flight to reorder with")
            return response_blob
        if kind is FaultKind.DUPLICATE:
            self.faults.add("ri->device", name, kind,
                            "response delivered twice")
            self.log.add("ri->device", response, response_blob)
            return response_blob
        if kind in (FaultKind.TRUNCATE, FaultKind.BIT_FLIP):
            return self._corrupt(response_blob, kind, "ri->device", name)
        return response_blob
