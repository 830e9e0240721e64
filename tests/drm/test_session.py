"""The resilient session layer: retries, backoff, terminal outcomes."""

import pytest

from repro.drm.agent import RI_CONTEXT_LIFETIME
from repro.drm.rel import PermissionType, play_count
from repro.drm.roap.faults import (FaultKind, FaultPlan, FaultPolicy,
                                   FaultyChannel)
from repro.drm.session import (BreakerState, Outcome, RetryPolicy,
                               RoapSession, SessionState)

FAST_RETRIES = RetryPolicy(max_attempts=8, base_backoff_seconds=1,
                           jitter_seconds=1)


@pytest.mark.parametrize("kind", [SessionState, Outcome, BreakerState,
                                  FaultKind, PermissionType])
def test_enum_str_is_its_value(kind):
    assert [str(member) for member in kind] \
        == [member.value for member in kind]


def offer_license(world, ro_id="ro:session", content_id="cid:session"):
    world.ci.publish(content_id, "audio/mpeg", b"tune" * 64,
                     "http://ri.example")
    world.ri.add_offer(ro_id, world.ci.negotiate_license(content_id),
                       play_count(5))
    return ro_id


def lossy_session(world, rate, seed="test-session",
                  policy=FAST_RETRIES, fault_policy=None):
    plan = FaultPlan(seed, fault_policy or FaultPolicy.loss(rate))
    channel = FaultyChannel(world.ri, plan, clock=world.clock)
    return RoapSession(world.agent, channel, policy)


# -- RetryPolicy ----------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff_seconds=-1)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy().backoff_seconds(0)


def test_backoff_grows_and_is_capped():
    policy = RetryPolicy(base_backoff_seconds=2, backoff_multiplier=2.0,
                         max_backoff_seconds=10, jitter_seconds=0)
    delays = [policy.backoff_seconds(n) for n in range(1, 6)]
    assert delays == [2, 4, 8, 10, 10]


def test_backoff_jitter_is_deterministic():
    policy = RetryPolicy(jitter_seconds=3)
    first = [policy.backoff_seconds(n, salt="dev-a") for n in (1, 2, 3)]
    again = [policy.backoff_seconds(n, salt="dev-a") for n in (1, 2, 3)]
    other = [policy.backoff_seconds(n, salt="dev-b") for n in (1, 2, 3)]
    assert first == again
    assert first != other  # different salts desynchronize devices


# -- registration under loss ---------------------------------------------
def test_register_completes_on_clean_channel(fast_world):
    session = lossy_session(fast_world, 0.0)
    outcome = session.register()
    assert outcome.completed
    assert outcome.attempts == 1
    assert outcome.value.ri_id == fast_world.ri.ri_id
    assert session.state is SessionState.COMPLETED


def test_register_completes_at_twenty_percent_loss(fast_world):
    session = lossy_session(fast_world, 0.2)
    outcome = session.register()
    assert outcome.completed
    assert fast_world.agent.has_valid_ri_context(fast_world.ri.ri_id)


def test_register_aborts_cleanly_at_total_loss(fast_world):
    session = lossy_session(fast_world, 1.0,
                            policy=RetryPolicy(max_attempts=3))
    outcome = session.register()
    assert outcome.outcome is Outcome.ABORTED
    assert outcome.attempts == 3
    assert "retries exhausted" in outcome.reason
    assert session.state is SessionState.ABORTED


def test_retries_spend_simulation_time(fast_world):
    before = fast_world.clock.now
    session = lossy_session(fast_world, 1.0,
                            policy=RetryPolicy(max_attempts=2,
                                               jitter_seconds=0))
    outcome = session.register()
    # Two 30 s timeouts plus one 2 s backoff between the attempts.
    assert outcome.elapsed_seconds == fast_world.clock.now - before
    assert outcome.elapsed_seconds == 30 + 2 + 30


def test_transitions_trace_the_state_machine(fast_world):
    session = lossy_session(fast_world, 1.0,
                            policy=RetryPolicy(max_attempts=2))
    session.register()
    states = [t.state for t in session.transitions]
    assert states == [SessionState.IDLE, SessionState.IN_FLIGHT,
                      SessionState.BACKOFF, SessionState.IN_FLIGHT,
                      SessionState.ABORTED]


def test_retry_uses_fresh_nonce(fast_world):
    """A retry is a new signed attempt, not a byte replay."""
    seen_nonces = []
    ri_register = fast_world.ri.register

    def spying_register(request):
        seen_nonces.append(request.device_nonce)
        return ri_register(request)

    fast_world.ri.register = spying_register
    session = lossy_session(
        fast_world, 0.0, seed="nonce-test",
        policy=RetryPolicy(max_attempts=3),
        fault_policy=FaultPolicy())
    session.channel.plan.per_message["RegistrationResponse"] = \
        FaultPolicy(drop=1.0)
    outcome = session.register()
    assert outcome.outcome is Outcome.ABORTED
    assert len(seen_nonces) == outcome.attempts == 3
    assert len(set(seen_nonces)) == 3


def test_session_convergence_is_deterministic(fast_world_factory):
    def run():
        world = fast_world_factory("determinism")
        session = lossy_session(world, 0.3, seed="fixed")
        outcome = session.register()
        return (outcome.outcome, outcome.attempts,
                outcome.elapsed_seconds)

    assert run() == run()


# -- semantic failures abort immediately ---------------------------------
def test_unknown_license_aborts_without_retry(fast_world):
    session = lossy_session(fast_world, 0.0)
    assert session.register().completed
    outcome = session.acquire("ro:nonexistent")
    assert outcome.outcome is Outcome.ABORTED
    assert outcome.attempts == 1


# -- acquisition and re-registration -------------------------------------
def test_acquire_completes_under_loss(fast_world):
    ro_id = offer_license(fast_world)
    session = lossy_session(fast_world, 0.2)
    assert session.register().completed
    outcome = session.acquire(ro_id)
    assert outcome.completed
    assert outcome.value.ro.ro_id == ro_id


def test_acquire_reregisters_after_context_expiry(fast_world):
    ro_id = offer_license(fast_world)
    session = lossy_session(fast_world, 0.0)
    assert session.register().completed
    fast_world.clock.advance(RI_CONTEXT_LIFETIME + 1)
    assert not fast_world.agent.has_valid_ri_context(
        fast_world.ri.ri_id)
    outcome = session.acquire(ro_id)
    assert outcome.completed
    assert outcome.reregistrations == 1
    assert fast_world.agent.has_valid_ri_context(fast_world.ri.ri_id)
    assert SessionState.REREGISTERING in [
        t.state for t in outcome.transitions]


def test_join_domain_under_loss(fast_world):
    fast_world.ri.create_domain("domain:home")
    session = lossy_session(fast_world, 0.2)
    assert session.register().completed
    outcome = session.join_domain("domain:home")
    assert outcome.completed
    assert outcome.value.domain_id == "domain:home"


def test_mixed_faults_converge(fast_world):
    session = lossy_session(
        fast_world, 0.0, fault_policy=FaultPolicy.mixed(0.35),
        policy=RetryPolicy(max_attempts=12))
    outcome = session.register()
    assert outcome.completed
