"""Priced durability overhead: what power-loss atomicity costs.

The paper prices the consumption process on storage that is simply
assumed to survive. :mod:`repro.store` drops that assumption — every
storage mutation is HMAC-SHA1-framed into a write-ahead journal, and a
reboot replays the committed transactions — and because both run
through the agent's metered crypto provider, the overhead is measured
the same way every other cost in this reproduction is:

* the same consumption process runs volatile and journaled from one
  seed; the per-phase cycle difference is the journal's price;
* a metered :meth:`~repro.drm.agent.DRMAgent.recover_storage` prices
  the reboot replay, and the per-record linear scaling projects it to
  any journal length.

The result complements :mod:`repro.analysis.resilience`: that module
prices surviving an unreliable *bearer*, this one prices surviving an
unreliable *battery*.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..core.architecture import PAPER_PROFILES
from ..usecases.durability import (DurabilityMeasurement,
                                   measure_durability)
from ..usecases.world import RSA_BITS
from .common import DEFAULT_SEED
from .formatting import format_table

#: Journal lengths (records) the recovery projection sweeps: a fresh
#: device, a moderate history, and a device that has never compacted.
DEFAULT_JOURNAL_LENGTHS = (8, 64, 512, 4096)


@dataclass(frozen=True)
class PhaseOverhead:
    """Journal overhead of one phase on one architecture."""

    architecture: str
    phase: str
    baseline_cycles: int
    overhead_cycles: int
    records: int
    journal_octets: int

    @property
    def overhead_fraction(self) -> float:
        """Overhead relative to the volatile baseline (0 when free)."""
        if self.baseline_cycles == 0:
            return 0.0
        return self.overhead_cycles / self.baseline_cycles


@dataclass(frozen=True)
class RecoveryProjection:
    """Projected reboot-replay cost at one journal length."""

    architecture: str
    records: int
    cycles: int
    ms: float


@dataclass
class DurabilityResult:
    """The priced durability overhead and recovery projections."""

    seed: str
    rsa_bits: int
    measurement: DurabilityMeasurement
    overheads: Tuple[PhaseOverhead, ...]
    projections: Tuple[RecoveryProjection, ...]

    def render(self) -> str:
        """Two aligned ASCII tables: journal overhead, recovery cost."""
        overhead_rows = []
        for o in self.overheads:
            overhead_rows.append((
                o.architecture, o.phase,
                "%d" % o.baseline_cycles,
                "%d" % o.overhead_cycles,
                "%.2f%%" % (100.0 * o.overhead_fraction),
                "%d" % o.records,
                "%d" % o.journal_octets,
            ))
        overhead_table = format_table(
            ("arch", "phase", "baseline [cycles]", "journal [cycles]",
             "overhead", "records", "flash [octets]"),
            overhead_rows,
            title="Write-ahead journal overhead per phase")

        projection_rows = [
            (p.architecture, "%d" % p.records, "%d" % p.cycles,
             "%.3f" % p.ms)
            for p in self.projections
        ]
        projection_table = format_table(
            ("arch", "journal [records]", "replay [cycles]",
             "replay [ms]"),
            projection_rows,
            title="Power-loss recovery replay cost vs journal length")
        return overhead_table + "\n\n" + projection_table


def generate(seed: str = DEFAULT_SEED,
             journal_lengths: Sequence[int] = DEFAULT_JOURNAL_LENGTHS,
             rsa_bits: int = RSA_BITS) -> DurabilityResult:
    """Measure and price durability overhead for every architecture."""
    measurement = measure_durability(seed, rsa_bits=rsa_bits)
    templates = measurement.templates

    phases = (
        ("registration", measurement.baseline_registration_cycles,
         templates.registration_overhead_cycles,
         templates.registration_records, templates.registration_octets),
        ("installation", measurement.baseline_installation_cycles,
         templates.installation_overhead_cycles,
         templates.install_records, templates.install_octets),
        ("access", measurement.baseline_access_cycles,
         templates.access_overhead_cycles,
         templates.access_records, templates.access_octets),
    )
    overheads: List[PhaseOverhead] = []
    for profile in PAPER_PROFILES:
        for phase, baseline, overhead, records, octets in phases:
            overheads.append(PhaseOverhead(
                architecture=profile.name, phase=phase,
                baseline_cycles=baseline[profile.name],
                overhead_cycles=overhead[profile.name],
                records=records, journal_octets=octets,
            ))

    projections: List[RecoveryProjection] = []
    for profile in PAPER_PROFILES:
        for records in journal_lengths:
            cycles = templates.recovery_cycles_for(profile.name,
                                                   records)
            projections.append(RecoveryProjection(
                architecture=profile.name, records=records,
                cycles=cycles, ms=profile.cycles_to_ms(cycles),
            ))

    return DurabilityResult(
        seed=seed, rsa_bits=rsa_bits, measurement=measurement,
        overheads=tuple(overheads), projections=tuple(projections))
