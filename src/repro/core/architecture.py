"""SoC architecture profiles — the paper's three implementation variants.

The paper's system model (§3) is a System-on-Chip Application Processor: a
general-purpose core (ARM9 class), optional dedicated cryptographic
hardware macros, secure on-chip memory and a system bus. An
:class:`ArchitectureProfile` assigns each Table 1 algorithm to software or
to a hardware macro and fixes the clock frequency (200 MHz in every paper
variant).

The three evaluated variants:

* :data:`SW_PROFILE` — everything on the CPU.
* :data:`SW_HW_PROFILE` — AES and SHA-1 (and hence HMAC-SHA1) in hardware,
  RSA in software.
* :data:`HW_PROFILE` — dedicated macros for every algorithm.
"""

from dataclasses import dataclass
from typing import Dict, Mapping

from .costs import Implementation
from .trace import Algorithm

#: The paper's assumed clock frequency for every variant.
DEFAULT_CLOCK_HZ = 200_000_000


@dataclass(frozen=True)
class ArchitectureProfile:
    """One hardware/software partitioning of the cryptographic workload."""

    name: str
    assignment: Mapping[Algorithm, str]
    clock_hz: int = DEFAULT_CLOCK_HZ
    description: str = ""

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ValueError("clock frequency must be positive")
        missing = [a for a in Algorithm if a not in self.assignment]
        if missing:
            raise ValueError(
                "profile %r lacks assignments for %s"
                % (self.name, ", ".join(str(a) for a in missing))
            )
        bad = [
            a for a, impl in self.assignment.items()
            if impl not in Implementation.ALL
        ]
        if bad:
            raise ValueError(
                "profile %r has invalid implementations for %s"
                % (self.name, ", ".join(str(a) for a in bad))
            )

    def implementation(self, algorithm: Algorithm) -> str:
        """Where ``algorithm`` executes under this profile."""
        return self.assignment[algorithm]

    def cycles_to_ms(self, cycles: int) -> float:
        """Convert a cycle count to milliseconds at this profile's clock."""
        return cycles / self.clock_hz * 1000.0


def _uniform(implementation: str) -> Dict[Algorithm, str]:
    return {algorithm: implementation for algorithm in Algorithm}


#: Pure software variant ("SW" in Figures 6 and 7).
SW_PROFILE = ArchitectureProfile(
    name="SW",
    assignment=_uniform(Implementation.SOFTWARE),
    description="All cryptography on the general-purpose core.",
)

#: Mixed variant ("SW/HW"): AES + SHA-1 macros, RSA in software.
SW_HW_PROFILE = ArchitectureProfile(
    name="SW/HW",
    assignment={
        Algorithm.AES_ENCRYPT: Implementation.HARDWARE,
        Algorithm.AES_DECRYPT: Implementation.HARDWARE,
        Algorithm.SHA1: Implementation.HARDWARE,
        Algorithm.HMAC_SHA1: Implementation.HARDWARE,
        Algorithm.RSA_PUBLIC: Implementation.SOFTWARE,
        Algorithm.RSA_PRIVATE: Implementation.SOFTWARE,
    },
    description="AES and SHA-1 (thus HMAC-SHA1) in hardware macros; "
                "RSA in software.",
)

#: Full hardware variant ("HW"): dedicated macros for every algorithm.
HW_PROFILE = ArchitectureProfile(
    name="HW",
    assignment=_uniform(Implementation.HARDWARE),
    description="Dedicated hardware macros for every algorithm.",
)

#: The three variants in the order the paper plots them.
PAPER_PROFILES = (SW_PROFILE, SW_HW_PROFILE, HW_PROFILE)


def custom_profile(name: str, hardware: Mapping[Algorithm, bool],
                   clock_hz: int = DEFAULT_CLOCK_HZ,
                   description: str = "") -> ArchitectureProfile:
    """Build a profile from a per-algorithm hardware yes/no map.

    Algorithms absent from ``hardware`` default to software, so
    ``custom_profile("aes-only", {Algorithm.AES_DECRYPT: True})`` describes
    a SoC with a lone AES decryption macro.
    """
    assignment = {
        algorithm: (Implementation.HARDWARE
                    if hardware.get(algorithm, False)
                    else Implementation.SOFTWARE)
        for algorithm in Algorithm
    }
    return ArchitectureProfile(name=name, assignment=assignment,
                               clock_hz=clock_hz, description=description)
