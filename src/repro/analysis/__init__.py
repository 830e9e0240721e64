"""Reproduction harness: one module per paper table/figure plus ablations.

* :mod:`~repro.analysis.table1` — Table 1 (algorithm cycle costs)
* :mod:`~repro.analysis.figure5` — Figure 5 (relative algorithm shares)
* :mod:`~repro.analysis.figure6` — Figure 6 (Music Player, three variants)
* :mod:`~repro.analysis.figure7` — Figure 7 (Ringtone, three variants)
* :mod:`~repro.analysis.claims` — in-text quantitative claims (PKI ~600 ms)
* :mod:`~repro.analysis.ablations` — design-choice studies
* :mod:`~repro.analysis.formatting` — ASCII table/chart rendering
"""

# ``ablations`` is left out of the eager imports so that
# ``python -m repro.analysis.ablations`` runs it without a double import.
from . import (claims, durability, figure5, figure6, figure7, fleet,
               messages, report, table1)
from .common import DEFAULT_SEED, music_trace, ringtone_trace
from .formatting import (deviation_pct, format_log_bars, format_ms,
                         format_stacked_shares, format_table)

__all__ = [
    "ablations", "claims", "durability", "figure5", "figure6",
    "figure7", "fleet", "messages", "report", "table1",
    "DEFAULT_SEED", "music_trace", "ringtone_trace", "deviation_pct",
    "format_log_bars", "format_ms", "format_stacked_shares",
    "format_table",
]
