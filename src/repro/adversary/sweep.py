"""The zero-acceptance sweep: every attack, every flow, no acceptance.

For each :class:`~repro.adversary.attacks.AttackKind` the sweep builds a
fresh deterministic world, mounts the attack on its natural protocol
step, drives the flow and records which defense rejected it. The
invariant under test:

    **No attack ever yields an installed Rights Object, a decrypted
    content payload, or a completed registration against tampered
    material.**

An attack that *fails to mount* (scenario bug: zero perturbed messages)
is treated as a sweep failure too — silently green is the one outcome
this harness must never produce.

Each attacked flow runs against a metered terminal, so the sweep also
prices what the attack *cost the defender* before rejection, per
architecture profile — the numbers :mod:`repro.analysis.adversary`
reports.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.architecture import PAPER_PROFILES
from ..core.model import PerformanceModel
from ..crypto.errors import CryptoError
from ..drm.clock import DAY
from ..drm.errors import DRMError
from ..drm.identifiers import content_id, rights_object_id
from ..drm.rel import play_count
from ..usecases.world import RSA_BITS, DRMWorld
from .attacks import ALL_ATTACKS, AdversaryChannel, AttackKind

#: Attacks mounted on the RO-acquisition flow (after a clean
#: registration); everything else targets the registration flow.
ACQUISITION_ATTACKS = frozenset({
    AttackKind.TAMPER_RO_RIGHTS,
    AttackKind.TAMPER_CEK,
})

#: Attacks that need a prior clean capture before they can fire.
CAPTURE_ATTACKS = frozenset({
    AttackKind.REPLAY_RESPONSE,
    AttackKind.STALE_OCSP,
    AttackKind.WRONG_RECIPIENT,
})

#: Attacks that target an already-synced device: the rollback bound
#: protects previously *trusted* DRM Time, so the device must have one
#: clean registration behind it (a fresh factory clock is untrusted and
#: its first correction is legitimately unbounded).
SYNCED_ATTACKS = frozenset({
    AttackKind.TIME_ROLLBACK,
})


@dataclass(frozen=True)
class AttackOutcome:
    """What one mounted attack achieved (nothing, if all is well)."""

    attack: AttackKind
    flow: str               # "register" or "acquire"
    mounted: int            # wire messages actually perturbed
    rejected: bool
    defense: str            # exception type that stopped the flow
    detail: str             # its message
    defender_cycles: Dict[str, int]  # architecture -> cycles spent

    @property
    def accepted(self) -> bool:
        """True when the attacked flow completed — the invariant broke."""
        return not self.rejected


@dataclass
class SweepResult:
    """All outcomes of one full attack-corpus sweep."""

    seed: str
    rsa_bits: int
    outcomes: Tuple[AttackOutcome, ...]

    @property
    def accepted(self) -> List[AttackOutcome]:
        """Outcomes that violated the zero-acceptance invariant."""
        return [o for o in self.outcomes if o.accepted]

    @property
    def unmounted(self) -> List[AttackOutcome]:
        """Outcomes whose attack never actually fired (harness bug)."""
        return [o for o in self.outcomes if o.mounted == 0]

    def assert_zero_acceptance(self) -> None:
        """Raise ``AssertionError`` unless every attack mounted and was
        rejected."""
        problems = []
        for outcome in self.accepted:
            problems.append("%s was ACCEPTED on %s"
                            % (outcome.attack.value, outcome.flow))
        for outcome in self.unmounted:
            problems.append("%s never mounted on %s"
                            % (outcome.attack.value, outcome.flow))
        if problems:
            raise AssertionError(
                "zero-acceptance invariant violated: "
                + "; ".join(problems))


def _provisioned_world(seed: str, rsa_bits: int
                       ) -> Tuple[DRMWorld, str, str, object]:
    """A metered world with one published content and one offer."""
    world = DRMWorld.create(seed, metered=True, rsa_bits=rsa_bits)
    cid = content_id("attacked-track")
    dcf = world.ci.publish(
        content_id=cid, content_type="audio/mp3",
        clear_content=b"\x5a" * 256,
        rights_issuer_url="http://ri.example/shop")
    ro_id = rights_object_id(cid + "-license")
    world.ri.add_offer(ro_id, world.ci.negotiate_license(cid),
                       play_count(4))
    return world, cid, ro_id, dcf


def _priced(world: DRMWorld) -> Dict[str, int]:
    """Cycles the terminal spent since the last reset, per architecture."""
    trace = world.agent_crypto.reset_trace()
    model = PerformanceModel()
    return {profile.name: model.evaluate(trace, profile).total_cycles
            for profile in PAPER_PROFILES}


def attack_registration(world: DRMWorld, channel: AdversaryChannel,
                        attack: AttackKind) -> Optional[Exception]:
    """Mount ``attack`` on one registration flow; return the rejection.

    Handles the attack's preconditions (warm-up captures, clock
    advances, a bystander device for wrong-recipient material), arms the
    channel and drives one registration. Returns the exception that
    rejected the flow, or ``None`` if the registration *completed* —
    which the caller must treat as an invariant violation.
    """
    if attack in SYNCED_ATTACKS:
        # Establish trusted DRM Time first — the realistic rollback
        # target is a device whose clock the RI already corrected.
        world.agent.register(channel)
        world.clock.advance(DAY)
    if attack in CAPTURE_ATTACKS:
        # The recorder phase: a clean registration the attacker taps.
        world.agent.register(channel)
        if attack is AttackKind.STALE_OCSP:
            # Let the captured OCSP response expire (7-day validity)
            # before presenting it again.
            world.clock.advance(8 * DAY)
        else:
            world.clock.advance(DAY)
    if attack is AttackKind.WRONG_RECIPIENT:
        bystander = world.add_device("bystander")
        tap = AdversaryChannel(world.ri,
                               seed=channel.seed + "/bystander")
        bystander.register(tap)
        channel.record_foreign(tap)
    # Only the attacked flow itself is priced, not the warm-up.
    world.agent_crypto.reset_trace()
    channel.arm(attack)
    try:
        world.agent.register(channel)
    except (DRMError, CryptoError) as exc:
        return exc
    finally:
        channel.disarm()
    return None


def attack_acquisition(world: DRMWorld, channel: AdversaryChannel,
                       attack: AttackKind, ro_id: str, cid: str,
                       dcf) -> Optional[Exception]:
    """Mount ``attack`` on the RO-acquisition/installation pipeline.

    Registers cleanly first (the attack targets the ROResponse), then
    drives acquire → install → consume under the armed channel. Returns
    the rejecting exception, or ``None`` if content was decrypted.
    """
    world.agent.register(channel)
    # Only the attacked pipeline is priced, not the clean registration.
    world.agent_crypto.reset_trace()
    channel.arm(attack)
    try:
        protected_ro = world.agent.acquire(channel, ro_id)
        world.agent.install(protected_ro, dcf)
        world.agent.consume(cid)
    except (DRMError, CryptoError) as exc:
        return exc
    finally:
        channel.disarm()
    return None


def run_attack_sweep(seed: str = "adversary-sweep",
                     rsa_bits: int = RSA_BITS,
                     attacks: Sequence[AttackKind] = ALL_ATTACKS
                     ) -> SweepResult:
    """Run the full corpus, one fresh deterministic world per attack."""
    outcomes: List[AttackOutcome] = []
    for attack in attacks:
        world, cid, ro_id, dcf = _provisioned_world(
            "%s/%s" % (seed, attack.value), rsa_bits)
        channel = AdversaryChannel(
            world.ri, seed="%s/%s" % (seed, attack.value))
        if attack in ACQUISITION_ATTACKS:
            flow = "acquire"
            rejection = attack_acquisition(world, channel, attack,
                                           ro_id, cid, dcf)
        else:
            flow = "register"
            rejection = attack_registration(world, channel, attack)
        outcomes.append(AttackOutcome(
            attack=attack,
            flow=flow,
            mounted=channel.attacks.count(attack),
            rejected=rejection is not None,
            defense=type(rejection).__name__ if rejection else "",
            detail=str(rejection) if rejection else "",
            defender_cycles=_priced(world),
        ))
    return SweepResult(seed=seed, rsa_bits=rsa_bits,
                       outcomes=tuple(outcomes))
