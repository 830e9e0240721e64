"""End-to-end use-case execution over the functional DRM model.

:func:`run_functional` drives a complete consumption process — register,
acquire, install, consume N times — through the real protocol stack with
real cryptography, and returns the metered operation trace together with
the artifacts whose sizes the cost model depends on.

Pure-Python crypto makes paper-scale payloads (3.5 MB x 5 playbacks)
impractical to execute functionally in a test loop, so
:mod:`repro.usecases.workload` provides the complementary *modeled* path:
a functional run at calibration scale whose trace is then exactly rescaled
to paper scale. The two paths are property-tested to agree wherever both
are feasible.
"""

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.costs import CostOptions
from ..core.trace import OperationTrace
from ..drm.dcf import DCF
from ..drm.identifiers import content_id as make_content_id
from ..drm.identifiers import domain_id as make_domain_id
from ..drm.identifiers import rights_object_id
from .scenario import UseCase
from .world import DRMWorld

#: Domain used by domain-enabled scenarios.
DEFAULT_DOMAIN = "family"


def synthetic_content(octets: int) -> bytes:
    """Deterministic pseudo-content of the requested size.

    A short repeating texture rather than DRBG output: content bytes are
    workload data, not cryptographic material, and generating megabytes
    through HMAC-DRBG would only slow the simulation down.
    """
    pattern = bytes(range(251))  # prime length avoids block alignment
    repeats = octets // len(pattern) + 1
    return (pattern * repeats)[:octets]


@dataclass
class ScenarioRun:
    """Everything a completed use-case run yields."""

    use_case: UseCase
    world: DRMWorld
    trace: OperationTrace
    dcf: DCF
    clear_content_octets: int
    sizes: Dict[str, int]

    @property
    def dcf_octets(self) -> int:
        """Canonical DCF size — what the per-access hash covers."""
        return self.sizes["dcf"]


def run_functional(use_case: UseCase, seed: str = "repro-world",
                   options: CostOptions = CostOptions(),
                   sign_device_ros: bool = False,
                   verify_dcf_on_install: bool = False,
                   kdev_optimization: bool = True,
                   consume_times: Optional[int] = None,
                   world: Optional[DRMWorld] = None) -> ScenarioRun:
    """Execute ``use_case`` end to end and return its metered trace.

    ``consume_times`` overrides the number of consumptions actually
    executed (the rights grant still matches ``use_case.accesses``); the
    workload scaler uses this to run a single calibration access.
    """
    if world is None:
        world = DRMWorld.create(
            seed=seed, metered=True, options=options,
            sign_device_ros=sign_device_ros,
            verify_dcf_on_install=verify_dcf_on_install,
            kdev_optimization=kdev_optimization,
        )
    agent, ri, ci = world.agent, world.ri, world.ci

    # Content publication (Content Issuer side, never metered).
    cid = make_content_id(use_case.name.lower().replace(" ", "-"))
    clear = synthetic_content(use_case.content_octets)
    dcf = ci.publish(
        content_id=cid, content_type=use_case.content_type,
        clear_content=clear, rights_issuer_url="http://ri.example/shop",
        metadata=use_case.metadata,
    )

    # License listing (CI-RI negotiation, out of scope for the standard).
    ro_id = rights_object_id(cid + "-license")
    ri.add_offer(ro_id, ci.negotiate_license(cid),
                 use_case.effective_rights())

    # Phase 1-2: registration and acquisition (plus domain join if asked).
    agent.register(ri)
    domain = None
    if use_case.domain:
        domain = make_domain_id(DEFAULT_DOMAIN)
        ri.create_domain(domain)
        agent.join_domain(ri, domain)
    protected_ro = agent.acquire(ri, ro_id, domain_id=domain)

    # Phase 3: installation (Figure 3 unwrap + C2dev re-wrap).
    installed = agent.install(protected_ro, dcf)

    # Phase 4: consumption, once per access.
    accesses = use_case.accesses if consume_times is None else consume_times
    for _ in range(accesses):
        result = agent.consume(cid)
        assert result.clear_content == clear  # functional correctness

    trace = (world.agent_crypto.trace
             if hasattr(world.agent_crypto, "trace")
             else OperationTrace())
    sizes = {
        "dcf": len(dcf.to_bytes()),
        "encrypted_payload": len(dcf.encrypted_data),
        "ro_payload": len(installed.ro.payload_bytes()),
        "device_certificate": len(agent.certificate.to_bytes()),
        "ri_certificate": len(ri.certificate.to_bytes()),
    }
    return ScenarioRun(
        use_case=use_case, world=world, trace=trace, dcf=dcf,
        clear_content_octets=len(clear), sizes=sizes,
    )
