"""Cycle-cost database — the paper's Table 1.

Every entry is a :class:`LinearCost`: a constant per-invocation offset plus
a per-block cost, in clock cycles. Block units are the paper's: 128 bits
for the symmetric algorithms, 1024 bits (one modular exponentiation) for
RSA.

Table 1 of the paper, verbatim:

=====================  ==========================  =======================
Algorithm              Software [cycles]           Hardware [cycles]
=====================  ==========================  =======================
AES Encryption         360 + 830/128 bit           10/128 bit
AES Decryption         950 + 830/128 bit           10 + 10/128 bit
SHA-1                  400/128 bit                 20/128 bit
HMAC SHA-1             1200 + 400/128 bit          240 + 20/128 bit
RSA 1024 Public Key    2,160,000/1024 bit          10,000/1024 bit
RSA 1024 Private Key   37,740,000/1024 bit [#]_    260,000/1024 bit
=====================  ==========================  =======================

.. [#] The paper prints "3,774,0000" — a typesetting slip. 37 740 000 is
   the only reading consistent with the paper's own derived results: it
   yields the "roughly 600ms" total PKI time and the Figure 6/7 bars,
   while 3 774 000 would make them unreachable by an order of magnitude.
   It also matches the expected ~17:1 CRT-exponentiation ratio against
   the 2 160 000-cycle public operation with e = 2^16 + 1.

The constant offsets are, per the paper, key scheduling (AES) and hashing
on fixed-length data (HMAC).
"""

from dataclasses import dataclass, field
from typing import Mapping

from .trace import Algorithm, OperationRecord


class Implementation:
    """Where an algorithm executes: CPU software or a dedicated macro."""

    SOFTWARE = "software"
    HARDWARE = "hardware"

    ALL = (SOFTWARE, HARDWARE)


@dataclass(frozen=True)
class LinearCost:
    """``cycles = offset * invocations + per_block * blocks``."""

    offset_cycles: int
    cycles_per_block: int
    block_bits: int = 128

    def cycles(self, invocations: int, blocks: int) -> int:
        """Total cycles for a batch of work."""
        if invocations < 0 or blocks < 0:
            raise ValueError("operation counts must be non-negative")
        return (self.offset_cycles * invocations
                + self.cycles_per_block * blocks)


#: Paper Table 1 — software column.
SOFTWARE_COSTS: Mapping[Algorithm, LinearCost] = {
    Algorithm.AES_ENCRYPT: LinearCost(360, 830),
    Algorithm.AES_DECRYPT: LinearCost(950, 830),
    Algorithm.SHA1: LinearCost(0, 400),
    Algorithm.HMAC_SHA1: LinearCost(1200, 400),
    Algorithm.RSA_PUBLIC: LinearCost(0, 2_160_000, block_bits=1024),
    Algorithm.RSA_PRIVATE: LinearCost(0, 37_740_000, block_bits=1024),
}

#: Paper Table 1 — hardware column.
HARDWARE_COSTS: Mapping[Algorithm, LinearCost] = {
    Algorithm.AES_ENCRYPT: LinearCost(0, 10),
    Algorithm.AES_DECRYPT: LinearCost(10, 10),
    Algorithm.SHA1: LinearCost(0, 20),
    Algorithm.HMAC_SHA1: LinearCost(240, 20),
    Algorithm.RSA_PUBLIC: LinearCost(0, 10_000, block_bits=1024),
    Algorithm.RSA_PRIVATE: LinearCost(0, 260_000, block_bits=1024),
}


@dataclass(frozen=True)
class CostTable:
    """Cycle costs per (algorithm, implementation).

    ``TABLE1`` (module constant :data:`PAPER_TABLE1`) encodes the paper's
    numbers; custom tables support what-if studies (e.g. a faster RSA
    macro or a slower CPU).
    """

    software: Mapping[Algorithm, LinearCost] = field(
        default_factory=lambda: dict(SOFTWARE_COSTS))
    hardware: Mapping[Algorithm, LinearCost] = field(
        default_factory=lambda: dict(HARDWARE_COSTS))

    def cost(self, algorithm: Algorithm, implementation: str) -> LinearCost:
        """Look up the cost entry for one algorithm/implementation pair."""
        if implementation == Implementation.SOFTWARE:
            table = self.software
        elif implementation == Implementation.HARDWARE:
            table = self.hardware
        else:
            raise KeyError("unknown implementation %r" % (implementation,))
        if algorithm not in table:
            raise KeyError(
                "no %s cost for %s" % (implementation, algorithm)
            )
        return table[algorithm]

    def cycles(self, record: OperationRecord, implementation: str) -> int:
        """Price one trace record under one implementation choice."""
        entry = self.cost(record.algorithm, implementation)
        return entry.cycles(record.invocations, record.blocks)

    def override(self, algorithm: Algorithm, implementation: str,
                 cost: LinearCost) -> "CostTable":
        """A copy with one entry replaced — the what-if hook.

        Example: a next-generation RSA macro at half the cycle count::

            faster = PAPER_TABLE1.override(
                Algorithm.RSA_PRIVATE, Implementation.HARDWARE,
                LinearCost(0, 130_000, block_bits=1024))
        """
        software = dict(self.software)
        hardware = dict(self.hardware)
        if implementation == Implementation.SOFTWARE:
            software[algorithm] = cost
        elif implementation == Implementation.HARDWARE:
            hardware[algorithm] = cost
        else:
            raise KeyError("unknown implementation %r" % (implementation,))
        return CostTable(software=software, hardware=hardware)


#: The paper's Table 1 as a ready-to-use cost table.
PAPER_TABLE1 = CostTable()


@dataclass(frozen=True)
class CostOptions:
    """Modeling switches that change which operations are counted.

    ``count_mgf1`` — the paper approximates EMSA-PSS with "just one hash
    function over the message code"; enabling this counts the MGF1 mask
    hashes and the fixed ``H = Hash(M')`` as well (ablation ``abl-mgf1``).
    """

    count_mgf1: bool = False
