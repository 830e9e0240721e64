"""Operation traces: the interface between the functional DRM model and
the cost model.

The paper's methodology (§2.4.5) is to run a functional model of OMA DRM 2,
extract "a list of cryptographic operations carried out in each of the four
phases", and price that list under different architecture assumptions. The
:class:`OperationTrace` is that list. Each :class:`OperationRecord` captures
one primitive invocation batch — which algorithm ran, in which consumption
phase, how many keyed invocations (the per-invocation constant of Table 1,
e.g. AES key scheduling) and how many data blocks were processed.

Block units follow Table 1's normalization:

* AES, SHA-1, HMAC-SHA1 — 128-bit units,
* RSA — 1024-bit units (one unit per modular exponentiation).
"""

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple


class Algorithm(enum.Enum):
    """The cryptographic algorithms of Table 1."""

    AES_ENCRYPT = "aes-encrypt"
    AES_DECRYPT = "aes-decrypt"
    SHA1 = "sha1"
    HMAC_SHA1 = "hmac-sha1"
    RSA_PUBLIC = "rsa-1024-public"
    RSA_PRIVATE = "rsa-1024-private"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Phase(enum.Enum):
    """The four consumption-process phases of paper §2.4."""

    REGISTRATION = "registration"
    ACQUISITION = "acquisition"
    INSTALLATION = "installation"
    CONSUMPTION = "consumption"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class OperationRecord:
    """One priced batch of cryptographic work.

    ``invocations`` counts keyed operations (each pays the Table 1 constant
    offset); ``blocks`` counts data units in the algorithm's native block
    size (128 bits for the symmetric algorithms, 1024 bits for RSA).
    """

    algorithm: Algorithm
    phase: Phase
    invocations: int
    blocks: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.invocations < 0 or self.blocks < 0:
            raise ValueError("operation counts must be non-negative")

    def scaled(self, factor: int) -> "OperationRecord":
        """The same record repeated ``factor`` times."""
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return replace(self, invocations=self.invocations * factor,
                       blocks=self.blocks * factor)


@dataclass
class OperationTrace:
    """An ordered list of :class:`OperationRecord` with summing helpers."""

    records: List[OperationRecord] = field(default_factory=list)

    def append(self, record: OperationRecord) -> None:
        """Append one record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[OperationRecord]:
        return iter(self.records)

    def filter(self, algorithm: Optional[Algorithm] = None,
               phase: Optional[Phase] = None) -> "OperationTrace":
        """A sub-trace restricted to one algorithm and/or phase."""
        selected = [
            r for r in self.records
            if (algorithm is None or r.algorithm == algorithm)
            and (phase is None or r.phase == phase)
        ]
        return OperationTrace(selected)

    def totals_by_algorithm(self) -> Dict[Algorithm, Tuple[int, int]]:
        """Map algorithm -> (total invocations, total blocks)."""
        totals: Dict[Algorithm, Tuple[int, int]] = {}
        for record in self.records:
            inv, blk = totals.get(record.algorithm, (0, 0))
            totals[record.algorithm] = (
                inv + record.invocations, blk + record.blocks
            )
        return totals

    def canonical(self) -> List[Tuple[str, str, int, int]]:
        """A hashable, order-independent summary for equality testing.

        Collapses labels — two traces are canonically equal when they
        perform the same cryptographic work per algorithm and phase,
        regardless of how the work was annotated or batched.
        """
        totals: Dict[Tuple[str, str], Tuple[int, int]] = {}
        for record in self.records:
            key = (record.algorithm.value, record.phase.value)
            inv, blk = totals.get(key, (0, 0))
            totals[key] = (inv + record.invocations, blk + record.blocks)
        return sorted(
            (alg, phase, inv, blk)
            for (alg, phase), (inv, blk) in totals.items()
        )
