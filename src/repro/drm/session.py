"""Resilient ROAP sessions: drive protocol flows to a terminal outcome.

The :class:`~repro.drm.agent.DRMAgent` implements one *attempt* of each
ROAP flow and fails loudly on any transport or validation problem. On a
real bearer those failures are routine — messages drop, arrive garbled,
stale or twice — so a terminal needs a session layer that retries until
the flow completes or a budget is spent, and reports a terminal outcome
instead of leaking whichever exception the last attempt happened to die
of.

:class:`RoapSession` is that layer, a small state machine::

    IDLE -> IN_FLIGHT -> COMPLETED
               |  ^
               v  |  (retryable failure, budget left)
             BACKOFF
               |
               v  (budget exhausted / fatal failure)
            ABORTED

Design points:

* **Bounded retries, exponential backoff, deterministic jitter.** Wait
  times are spent on the shared
  :class:`~repro.drm.clock.SimulationClock`; jitter derives from the
  session name and attempt number through SHA-1, so runs are exactly
  reproducible — no hidden global randomness.
* **Nonce-fresh re-signing.** Every retry re-runs the agent flow, which
  draws a fresh nonce and re-signs the request; a retry is a new
  protocol attempt, never a byte replay (byte replays are what the RI's
  replay cache absorbs).
* **Graceful degradation.** ``acquire``/``join_domain`` catch
  :class:`~repro.drm.errors.ContextExpiredError` and transparently
  re-register before retrying, instead of surfacing an opaque failure
  for a device whose year-old RI Context just lapsed.
* **Priced retries.** The agent's crypto provider meters every attempt,
  so the cost model sees exactly what retries re-spend; see
  :mod:`repro.analysis.resilience` for the expected overhead as a
  function of loss rate.

Retryable failures are transport faults and everything corruption
produces: timeouts, decode failures, nonce mismatches, signature and
trust-chain failures, and transient RI error statuses. Semantic refusals
(unknown license, permission denied, version mismatch) abort
immediately — retrying cannot cure them.

**Circuit breaking (active adversaries and outages).** Treating every
``TrustError`` as bearer corruption is the right call for *random*
faults, but it hands an active man-in-the-middle the whole retry
budget: each forged response costs the terminal its full per-attempt
crypto spend, five times over. :class:`CircuitBreaker` closes that
hole with two policies layered on the retry loop:

* **Forgery cut-off** — ``K`` consecutive *identical* trust failures
  (same exception type, same message) within one flow are a consistent
  forgery, not noise: random corruption produces *varying* failures
  (different octets garble different checks), an attacker replaying
  the same tampering produces the same failure every time. The flow
  aborts immediately, refunding the remaining retry budget.
* **Outage fast-fail** — repeated failures across flows trip the
  breaker OPEN; while open, flows fast-fail without spending any
  crypto until ``open_seconds`` of simulation time pass, then one
  HALF_OPEN probe attempt decides between re-closing and re-opening.
"""

import enum
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from ..core.jitter import deterministic_jitter
from ..crypto.errors import SignatureError
from ..obs.tracer import NULL_TRACER
from .errors import (ChannelError, ContextExpiredError, DRMError,
                     NonceMismatchError, TrustError, WireDecodeError)

#: Failures one more attempt can plausibly cure. ``TrustError`` is
#: included because under a faulty bearer a failed certificate check is
#: overwhelmingly a corrupted response; the retry budget bounds the cost
#: when it is not.
RETRYABLE_ERRORS = (ChannelError, WireDecodeError, NonceMismatchError,
                    SignatureError, TrustError)


class SessionState(enum.Enum):
    """States of the session state machine."""

    IDLE = "idle"
    IN_FLIGHT = "in-flight"
    BACKOFF = "backoff"
    REREGISTERING = "re-registering"
    COMPLETED = "completed"
    ABORTED = "aborted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Outcome(enum.Enum):
    """Terminal result of one driven flow."""

    COMPLETED = "completed"
    ABORTED = "aborted"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``backoff_seconds(n)`` for attempt ``n`` (1-based) is
    ``base * multiplier^(n-1)`` capped at ``max_backoff_seconds``, plus
    a jitter of 0..``jitter_seconds`` derived deterministically from the
    salt and attempt number (desynchronizing a fleet of devices without
    nondeterminism in any single one).
    """

    max_attempts: int = 5
    base_backoff_seconds: int = 2
    backoff_multiplier: float = 2.0
    max_backoff_seconds: int = 300
    jitter_seconds: int = 3

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("at least one attempt is required")
        if self.base_backoff_seconds < 0 or self.jitter_seconds < 0:
            raise ValueError("backoff and jitter must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff must not shrink across attempts")

    def backoff_seconds(self, attempt: int, salt: str = "") -> int:
        """Wait before the attempt after ``attempt`` failed (1-based)."""
        if attempt < 1:
            raise ValueError("attempts are counted from 1")
        base = self.base_backoff_seconds \
            * self.backoff_multiplier ** (attempt - 1)
        delay = min(int(base), self.max_backoff_seconds)
        if self.jitter_seconds:
            # repro: allow[REP202] -- the shared jitter helper hashes scheduling salt, not protocol bytes; it is intentionally unpriced, exactly like the DRBG (see repro.core.jitter)
            delay += deterministic_jitter(salt, attempt,
                                          self.jitter_seconds)
        return delay


class BreakerState(enum.Enum):
    """States of the circuit breaker guarding a session's flows."""

    CLOSED = "closed"        # normal operation, failures counted
    OPEN = "open"            # fast-fail: no attempts until cool-down
    HALF_OPEN = "half-open"  # cool-down elapsed: one probe allowed

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class BreakerPolicy:
    """Thresholds for :class:`CircuitBreaker`.

    ``identical_trust_failures`` is the forgery cut-off: that many
    consecutive byte-identical trust failures within one flow abort it
    immediately (random corruption varies, an active attacker repeats).
    ``failure_threshold`` consecutive failed attempts trip the breaker
    OPEN; ``open_seconds`` of simulation time must pass before a
    HALF_OPEN probe is allowed through.
    """

    identical_trust_failures: int = 2
    failure_threshold: int = 3
    open_seconds: int = 300

    def __post_init__(self) -> None:
        if self.identical_trust_failures < 2:
            raise ValueError(
                "forgery cut-off needs at least two observations")
        if self.failure_threshold < 1:
            raise ValueError("failure threshold must be positive")
        if self.open_seconds < 0:
            raise ValueError("the open window must be non-negative")


class CircuitBreaker:
    """Closed → open → half-open failure containment for ROAP flows.

    Shared by all flows of one :class:`RoapSession` (or several sessions
    of one device): consecutive attempt failures trip it OPEN, flows
    then fast-fail — spending *zero* crypto — until ``open_seconds`` of
    simulation time pass; the first attempt after the cool-down is the
    HALF_OPEN probe that decides between re-closing and re-opening.

    The counters (``fast_fails``, ``forgeries_detected``,
    ``times_opened``) feed :mod:`repro.analysis.adversary`.
    """

    def __init__(self, clock, policy: BreakerPolicy = BreakerPolicy(),
                 tracer=NULL_TRACER) -> None:
        self.clock = clock
        self.policy = policy
        self.tracer = tracer
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.fast_fails = 0
        self.forgeries_detected = 0
        self.times_opened = 0
        self._opened_at: Optional[int] = None

    def allow_attempt(self) -> bool:
        """Whether a protocol attempt may be started right now.

        An OPEN breaker transitions to HALF_OPEN once the cool-down has
        elapsed on the simulation clock; the caller's next attempt is
        then the probe. Returns False (and counts a fast-fail) while
        the cool-down is still running.
        """
        if self.state is BreakerState.OPEN:
            elapsed = self.clock.now - (self._opened_at or 0)
            if elapsed >= self.policy.open_seconds:
                self.state = BreakerState.HALF_OPEN
                self.tracer.event("breaker.half-open", track="roap")
            else:
                self.fast_fails += 1
                return False
        return True

    def seconds_until_probe(self) -> int:
        """Simulation seconds until an OPEN breaker allows its probe."""
        if self.state is not BreakerState.OPEN:
            return 0
        elapsed = self.clock.now - (self._opened_at or 0)
        return max(0, self.policy.open_seconds - elapsed)

    def record_success(self) -> None:
        """An attempt completed: re-close and forget the failure run."""
        self.consecutive_failures = 0
        if self.state is not BreakerState.CLOSED:
            self.state = BreakerState.CLOSED
            self.tracer.event("breaker.closed", track="roap")

    def record_failure(self) -> None:
        """An attempt failed: count it, tripping OPEN at the threshold.

        A failed HALF_OPEN probe re-opens immediately — the outage (or
        attacker) is still there, and the cool-down restarts.
        """
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN \
                or self.consecutive_failures \
                >= self.policy.failure_threshold:
            self.trip_open()

    def record_forgery(self) -> None:
        """A consistent forgery was identified: count it and trip OPEN."""
        self.forgeries_detected += 1
        self.trip_open()

    def trip_open(self) -> None:
        """Open the breaker (idempotent while already open)."""
        if self.state is not BreakerState.OPEN:
            self.state = BreakerState.OPEN
            self.times_opened += 1
            self.tracer.event("breaker.open", track="roap",
                              consecutive_failures=
                              self.consecutive_failures)
        self._opened_at = self.clock.now


@dataclass(frozen=True)
class Transition:
    """One state-machine transition, timestamped on the simulation clock."""

    state: SessionState
    at: int
    note: str = ""


@dataclass(frozen=True)
class SessionOutcome:
    """The terminal result of one driven flow.

    ``value`` carries the flow's product (an RI context, a protected RO,
    a domain context) when completed; ``reason`` explains an abort.
    """

    outcome: Outcome
    value: Any = None
    attempts: int = 0
    reason: Optional[str] = None
    reregistrations: int = 0
    elapsed_seconds: int = 0
    transitions: Tuple[Transition, ...] = ()

    @property
    def completed(self) -> bool:
        """Whether the flow reached COMPLETED."""
        return self.outcome is Outcome.COMPLETED


class RoapSession:
    """Drives an agent's ROAP flows over an unreliable channel.

    ``channel`` is anything with the RI protocol surface — a bare
    :class:`~repro.drm.rights_issuer.RightsIssuer`, a
    :class:`~repro.drm.roap.wire.WireChannel`, or a
    :class:`~repro.drm.roap.faults.FaultyChannel`. The session never
    raises for protocol failures: each flow returns a
    :class:`SessionOutcome` that is either ``Completed`` or
    ``Aborted(reason)``.
    """

    def __init__(self, agent, channel,
                 policy: RetryPolicy = RetryPolicy(),
                 name: str = "roap-session",
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.agent = agent
        self.channel = channel
        self.policy = policy
        self.name = name
        self.breaker = breaker
        self.tracer = getattr(agent, "tracer", NULL_TRACER)
        self.transitions: List[Transition] = []
        self.state = SessionState.IDLE
        self._enter(SessionState.IDLE, "session created")

    @property
    def clock(self):
        """The simulation clock all waits are spent on."""
        return self.agent.clock

    def _enter(self, state: SessionState, note: str = "") -> None:
        self.state = state
        self.transitions.append(
            Transition(state=state, at=self.clock.now, note=note))

    # -- public flows -----------------------------------------------------
    def register(self) -> SessionOutcome:
        """Drive the 4-pass registration to a terminal outcome."""
        return self._drive("register",
                           lambda: self.agent.register(self.channel))

    def acquire(self, ro_id: str,
                domain_id: Optional[str] = None) -> SessionOutcome:
        """Drive the 2-pass RO acquisition, re-registering if expired."""
        return self._drive(
            "acquire",
            lambda: self.agent.acquire(self.channel, ro_id,
                                       domain_id=domain_id),
            reregister_on_expiry=True)

    def join_domain(self, domain_id: str) -> SessionOutcome:
        """Drive the 2-pass domain join, re-registering if expired."""
        return self._drive(
            "join-domain",
            lambda: self.agent.join_domain(self.channel, domain_id),
            reregister_on_expiry=True)

    # -- the retry loop ---------------------------------------------------
    def _drive(self, label: str, step: Callable[[], Any],
               reregister_on_expiry: bool = False) -> SessionOutcome:
        started = self.clock.now
        attempts = 0
        reregistrations = 0
        last_error: Optional[Exception] = None
        # Forgery cut-off bookkeeping: (type, message) of the last trust
        # failure and how many consecutive times it repeated unchanged.
        last_trust_key: Optional[Tuple[str, str]] = None
        identical_trust_failures = 0
        while attempts < self.policy.max_attempts:
            if self.breaker is not None \
                    and not self.breaker.allow_attempt():
                self.tracer.event("session.fast-fail", track="roap",
                                  label=label)
                return self._abort(
                    label, started, attempts, reregistrations,
                    "circuit open: fast-failed %s (probe in %d s)"
                    % (label, self.breaker.seconds_until_probe()))
            attempts += 1
            self._enter(SessionState.IN_FLIGHT,
                        "%s attempt %d/%d"
                        % (label, attempts, self.policy.max_attempts))
            try:
                with self.tracer.span("session.%s" % label, track="roap",
                                      attempt=attempts):
                    value = step()
            except ContextExpiredError as exc:
                if not reregister_on_expiry or reregistrations >= 1:
                    return self._abort(label, started, attempts,
                                       reregistrations, str(exc))
                reregistrations += 1
                self._enter(SessionState.REREGISTERING, str(exc))
                self.tracer.event("session.reregister", track="roap",
                                  label=label, attempt=attempts)
                recovery = self._drive(
                    "register",
                    lambda: self.agent.register(self.channel))
                if not recovery.completed:
                    return self._abort(
                        label, started, attempts, reregistrations,
                        "re-registration failed: %s" % recovery.reason)
                continue
            except RETRYABLE_ERRORS as exc:
                last_error = exc
                self.tracer.event("session.retry", track="roap",
                                  label=label, attempt=attempts,
                                  error=type(exc).__name__)
                if self.breaker is not None:
                    self.breaker.record_failure()
                    if isinstance(exc, TrustError):
                        key = (type(exc).__name__, str(exc))
                        if key == last_trust_key:
                            identical_trust_failures += 1
                        else:
                            last_trust_key = key
                            identical_trust_failures = 1
                        if identical_trust_failures >= \
                                self.breaker.policy \
                                    .identical_trust_failures:
                            # Random corruption garbles different octets
                            # on every delivery; the same trust failure
                            # repeating verbatim is an active forgery.
                            # Refund the remaining retry budget.
                            self.breaker.record_forgery()
                            self.tracer.event(
                                "session.forgery", track="roap",
                                label=label, attempts=attempts,
                                error=type(exc).__name__)
                            return self._abort(
                                label, started, attempts,
                                reregistrations,
                                "consistent forgery: %d identical %s "
                                "failures (%s)"
                                % (identical_trust_failures,
                                   type(exc).__name__, exc))
                    else:
                        last_trust_key = None
                        identical_trust_failures = 0
                if attempts >= self.policy.max_attempts:
                    break
                delay = self.policy.backoff_seconds(
                    attempts, salt="%s/%s" % (self.name, label))
                self._enter(SessionState.BACKOFF,
                            "retry in %d s after %s: %s"
                            % (delay, type(exc).__name__, exc))
                self.tracer.event("session.backoff", track="roap",
                                  label=label, delay_seconds=delay)
                self.clock.advance(delay)
            except DRMError as exc:
                # Semantic refusal — retrying cannot change the answer.
                return self._abort(label, started, attempts,
                                   reregistrations, str(exc))
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                self._enter(SessionState.COMPLETED,
                            "%s completed after %d attempt(s)"
                            % (label, attempts))
                return SessionOutcome(
                    outcome=Outcome.COMPLETED, value=value,
                    attempts=attempts,
                    reregistrations=reregistrations,
                    elapsed_seconds=self.clock.now - started,
                    transitions=tuple(self.transitions))
        return self._abort(
            label, started, attempts, reregistrations,
            "retries exhausted after %d attempts (last: %s: %s)"
            % (attempts, type(last_error).__name__, last_error))

    def _abort(self, label: str, started: int, attempts: int,
               reregistrations: int, reason: str) -> SessionOutcome:
        self._enter(SessionState.ABORTED, "%s: %s" % (label, reason))
        self.tracer.event("session.abort", track="roap", label=label,
                          attempts=attempts, reason=reason)
        return SessionOutcome(
            outcome=Outcome.ABORTED, attempts=attempts, reason=reason,
            reregistrations=reregistrations,
            elapsed_seconds=self.clock.now - started,
            transitions=tuple(self.transitions))
