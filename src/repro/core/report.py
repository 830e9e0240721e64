"""Report helpers that shape priced breakdowns into the paper's artifacts.

Figure 5 groups the six Table 1 algorithms into four display categories
(its legend): *PKI Public Key Operation*, *PKI Private Key Operation*,
*AES Decryption* and *SHA-1*. HMAC-SHA1 work is SHA-1 hashing and is folded
into the SHA-1 category; AES encryption work (only the small installation
re-wrap) is folded into AES Decryption, matching the legend's omission.
"""

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence

from .architecture import ArchitectureProfile
from .model import CostBreakdown, PerformanceModel
from .trace import Algorithm, OperationTrace

#: Figure 5 legend categories, in the paper's stacking order.
FIGURE5_CATEGORIES = (
    "PKI Public Key Operation",
    "PKI Private Key Operation",
    "AES Decryption",
    "SHA-1",
)

#: Table 1 algorithm -> Figure 5 legend category.
FIGURE5_GROUPING: Mapping[Algorithm, str] = {
    Algorithm.RSA_PUBLIC: "PKI Public Key Operation",
    Algorithm.RSA_PRIVATE: "PKI Private Key Operation",
    Algorithm.AES_DECRYPT: "AES Decryption",
    Algorithm.AES_ENCRYPT: "AES Decryption",
    Algorithm.SHA1: "SHA-1",
    Algorithm.HMAC_SHA1: "SHA-1",
}


def category_cycles(breakdown: CostBreakdown) -> Dict[str, int]:
    """Cycles per Figure 5 legend category."""
    totals = {category: 0 for category in FIGURE5_CATEGORIES}
    for algorithm, cycles in breakdown.cycles_by_algorithm().items():
        totals[FIGURE5_GROUPING[algorithm]] += cycles
    return totals


def category_shares(breakdown: CostBreakdown) -> Dict[str, float]:
    """Fraction of total cycles per Figure 5 category (sums to 1)."""
    totals = category_cycles(breakdown)
    grand_total = sum(totals.values())
    if grand_total == 0:
        return {category: 0.0 for category in FIGURE5_CATEGORIES}
    return {
        category: cycles / grand_total
        for category, cycles in totals.items()
    }


@dataclass(frozen=True)
class ArchitectureComparison:
    """One Figure 6/7-style series: total ms per architecture variant."""

    use_case: str
    breakdowns: Sequence[CostBreakdown]

    def series_ms(self) -> List[float]:
        """Total milliseconds in profile order (the figure's bars)."""
        return [b.total_ms for b in self.breakdowns]

    def labels(self) -> List[str]:
        """Profile names in order (the figure's x-axis)."""
        return [b.profile.name for b in self.breakdowns]


def compare_architectures(trace: OperationTrace,
                          profiles: Sequence[ArchitectureProfile],
                          model: PerformanceModel = None,
                          use_case: str = "") -> ArchitectureComparison:
    """Price one use-case trace under several profiles (Figures 6 and 7)."""
    if model is None:
        model = PerformanceModel()
    return ArchitectureComparison(
        use_case=use_case,
        breakdowns=model.compare(trace, profiles),
    )
