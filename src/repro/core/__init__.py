"""The paper's primary contribution: the DRM cryptographic cost model.

* :mod:`~repro.core.trace` — operation traces (the "list of cryptographic
  operations" of paper §2.4.5)
* :mod:`~repro.core.costs` — the Table 1 cycle-cost database
* :mod:`~repro.core.architecture` — SW / SW-HW / HW SoC profiles (§3)
* :mod:`~repro.core.meter` — crypto providers (plain and metered)
* :mod:`~repro.core.model` — trace pricing into cycles/time breakdowns
* :mod:`~repro.core.energy` — proportional and per-unit energy models
* :mod:`~repro.core.stats` — exact mergeable accumulators (fleet scale)
* :mod:`~repro.core.report` — Figure 5/6/7-shaped report helpers
"""

from .architecture import (ArchitectureProfile, DEFAULT_CLOCK_HZ,
                           HW_PROFILE, PAPER_PROFILES, SW_HW_PROFILE,
                           SW_PROFILE, custom_profile)
from .battery import (Battery, BatteryImpact, battery_impact,
                      drm_tax_percent)
from .concurrency import (ConcurrencyResult, DEFAULT_DISPATCH_CYCLES,
                          analyze as analyze_concurrency)
from .design_space import (DesignPoint, MACRO_AES, MACRO_BLOCKS,
                           MACRO_RSA, MACRO_SHA1, MacroCosts,
                           cheapest_within_budget,
                           enumerate_design_points, marginal_value,
                           pareto_frontier, profile_for_macros)
from .serialization import breakdown_to_dict
from .stats import (StatsSummary, StreamingStats, histogram, merge_all)
from .sweep import (SweepPoint, WorkloadSweep, points_to_csv, write_csv)
from .costs import (CostOptions, CostTable, HARDWARE_COSTS, Implementation,
                    LinearCost, PAPER_TABLE1, SOFTWARE_COSTS)
from .energy import (DEFAULT_CPU_POWER_WATTS, DEFAULT_MACRO_POWER_WATTS,
                     ProportionalEnergyModel, WeightedEnergyModel)
from .meter import MeteredCrypto, PlainCrypto, units_128
from .model import CostBreakdown, PerformanceModel, PricedOperation
from .report import (ArchitectureComparison, FIGURE5_CATEGORIES,
                     FIGURE5_GROUPING, category_cycles, category_shares,
                     compare_architectures)
from .trace import Algorithm, OperationRecord, OperationTrace, Phase

__all__ = [
    "Battery", "BatteryImpact", "battery_impact", "drm_tax_percent",
    "ConcurrencyResult", "DEFAULT_DISPATCH_CYCLES",
    "analyze_concurrency", "DesignPoint", "MACRO_AES", "MACRO_BLOCKS",
    "MACRO_RSA", "MACRO_SHA1", "MacroCosts", "cheapest_within_budget",
    "enumerate_design_points", "marginal_value", "pareto_frontier",
    "profile_for_macros", "breakdown_to_dict",
    "StatsSummary", "StreamingStats", "histogram", "merge_all",
    "SweepPoint", "WorkloadSweep", "points_to_csv", "write_csv",
    "ArchitectureProfile", "DEFAULT_CLOCK_HZ", "HW_PROFILE",
    "PAPER_PROFILES", "SW_HW_PROFILE", "SW_PROFILE", "custom_profile",
    "CostOptions", "CostTable", "HARDWARE_COSTS", "Implementation",
    "LinearCost", "PAPER_TABLE1", "SOFTWARE_COSTS",
    "DEFAULT_CPU_POWER_WATTS", "DEFAULT_MACRO_POWER_WATTS",
    "ProportionalEnergyModel", "WeightedEnergyModel", "MeteredCrypto",
    "PlainCrypto", "units_128", "CostBreakdown", "PerformanceModel",
    "PricedOperation", "ArchitectureComparison", "FIGURE5_CATEGORIES",
    "FIGURE5_GROUPING", "category_cycles", "category_shares",
    "compare_architectures", "Algorithm", "OperationRecord",
    "OperationTrace", "Phase",
]
