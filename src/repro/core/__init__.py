"""The paper's primary contribution: the DRM cryptographic cost model.

* :mod:`~repro.core.trace` — operation traces (the "list of cryptographic
  operations" of paper §2.4.5)
* :mod:`~repro.core.costs` — the Table 1 cycle-cost database
* :mod:`~repro.core.architecture` — SW / SW-HW / HW SoC profiles (§3)
* :mod:`~repro.core.meter` — crypto providers (plain and metered)
* :mod:`~repro.core.model` — trace pricing into cycles/time breakdowns
* :mod:`~repro.core.energy` — proportional and per-unit energy models
* :mod:`~repro.core.stats` — exact mergeable accumulators (fleet scale)

The package re-exports only the cost model itself. The helpers that
only the CLI and the analysis modules use are imported from their own
submodules: :mod:`~repro.core.report` (Figure 5/6/7-shaped comparisons),
:mod:`~repro.core.battery`, :mod:`~repro.core.concurrency`,
:mod:`~repro.core.design_space` and :mod:`~repro.core.serialization`.
So is :mod:`~repro.core.meter`, which imports :mod:`repro.obs.tracer`:
:mod:`repro.obs` builds on :mod:`~repro.core.stats`, so re-exporting
the meter here would make the two packages import each other.
"""

from .architecture import (ArchitectureProfile, DEFAULT_CLOCK_HZ,
                           HW_PROFILE, PAPER_PROFILES, SW_HW_PROFILE,
                           SW_PROFILE, custom_profile)
from .stats import StatsSummary, StreamingStats, merge_all
from .costs import (CostOptions, CostTable, HARDWARE_COSTS, Implementation,
                    LinearCost, PAPER_TABLE1, SOFTWARE_COSTS)
from .energy import (DEFAULT_CPU_POWER_WATTS, DEFAULT_MACRO_POWER_WATTS,
                     ProportionalEnergyModel, WeightedEnergyModel)
from .model import CostBreakdown, PerformanceModel, PricedOperation
from .trace import Algorithm, OperationRecord, OperationTrace, Phase

__all__ = [
    "StatsSummary", "StreamingStats", "merge_all",
    "ArchitectureProfile", "DEFAULT_CLOCK_HZ", "HW_PROFILE",
    "PAPER_PROFILES", "SW_HW_PROFILE", "SW_PROFILE", "custom_profile",
    "CostOptions", "CostTable", "HARDWARE_COSTS", "Implementation",
    "LinearCost", "PAPER_TABLE1", "SOFTWARE_COSTS",
    "DEFAULT_CPU_POWER_WATTS", "DEFAULT_MACRO_POWER_WATTS",
    "ProportionalEnergyModel", "WeightedEnergyModel", "CostBreakdown",
    "PerformanceModel", "PricedOperation", "Algorithm", "OperationRecord",
    "OperationTrace", "Phase",
]
