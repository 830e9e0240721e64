"""AdversaryChannel mechanics and per-attack defense mapping."""

import pytest

from repro.adversary.attacks import (ALL_ATTACKS, AdversaryChannel,
                                     AttackKind)
from repro.crypto.errors import SignatureError
from repro.drm.errors import (NonceMismatchError, RegistrationError,
                              TrustError)
from repro.usecases.world import DRMWorld

BITS = 512


@pytest.fixture()
def world():
    return DRMWorld.create("test-attacks", rsa_bits=BITS)


def test_attack_str_is_its_value():
    assert [str(kind) for kind in AttackKind] \
        == [kind.value for kind in AttackKind]


def test_unarmed_channel_is_transparent(world):
    channel = AdversaryChannel(world.ri)
    context = world.agent.register(channel)
    assert context.ri_id
    assert channel.attacks.count() == 0


def test_channel_captures_passing_responses(world):
    channel = AdversaryChannel(world.ri)
    world.agent.register(channel)
    assert "RIHello" in channel.captured
    assert "RegistrationResponse" in channel.captured


def test_arm_disarm_and_attack_log(world):
    channel = AdversaryChannel(world.ri)
    channel.arm(AttackKind.FORGE_SIGNATURE)
    with pytest.raises(SignatureError):
        world.agent.register(channel)
    channel.disarm()
    assert channel.armed is None
    assert channel.attacks.count(AttackKind.FORGE_SIGNATURE) == 1
    assert channel.attacks.count() == 1
    # Disarmed again, the channel passes traffic through untouched.
    world.agent.register(channel)
    assert channel.attacks.count() == 1


def test_forged_signature_rejected_by_pss(world):
    channel = AdversaryChannel(world.ri)
    channel.arm(AttackKind.FORGE_SIGNATURE)
    with pytest.raises(SignatureError):
        world.agent.register(channel)


def test_downgrade_rejected_before_any_crypto(world):
    channel = AdversaryChannel(world.ri)
    channel.arm(AttackKind.DOWNGRADE_VERSION)
    with pytest.raises(RegistrationError, match="1.0"):
        world.agent.register(channel)


def test_time_rollback_rejected_by_resync_bound(world):
    channel = AdversaryChannel(world.ri)
    # The rollback bound protects previously *synced* DRM Time, so the
    # realistic target is a device the RI has already corrected once.
    world.agent.register(channel)
    channel.arm(AttackKind.TIME_ROLLBACK)
    with pytest.raises(TrustError, match="rollback"):
        world.agent.register(channel)


def test_cert_substitution_fails_anchor_lookup(world):
    channel = AdversaryChannel(world.ri)
    channel.arm(AttackKind.CERT_SUBSTITUTION)
    with pytest.raises(TrustError, match="evil-root"):
        world.agent.register(channel)


def test_cert_substitution_failure_is_byte_identical(world):
    """The forgery cut-off keys on identical (type, message) pairs."""
    channel = AdversaryChannel(world.ri)
    channel.arm(AttackKind.CERT_SUBSTITUTION)
    messages = set()
    for _ in range(3):
        with pytest.raises(TrustError) as excinfo:
            world.agent.register(channel)
        messages.add(str(excinfo.value))
    assert len(messages) == 1


def test_replay_rejected_by_nonce_echo(world):
    channel = AdversaryChannel(world.ri)
    world.agent.register(channel)          # the tapped clean flow
    world.agent.register(channel)          # a second capture to replay
    channel.arm(AttackKind.REPLAY_RESPONSE)
    with pytest.raises(NonceMismatchError):
        world.agent.register(channel)


def test_attacks_are_deterministic_per_seed():
    """Same seed, same world, same attack -> identical rejection."""
    details = []
    for _ in range(2):
        world = DRMWorld.create("test-attacks-det", rsa_bits=BITS)
        channel = AdversaryChannel(world.ri, seed="det")
        channel.arm(AttackKind.FORGE_SIGNATURE)
        with pytest.raises(SignatureError) as excinfo:
            world.agent.register(channel)
        details.append((str(excinfo.value),
                        channel.attacks.events[0].detail))
    assert details[0] == details[1]


def test_corpus_enumerates_every_kind():
    assert set(ALL_ATTACKS) == set(AttackKind)
    assert len(ALL_ATTACKS) >= 10
