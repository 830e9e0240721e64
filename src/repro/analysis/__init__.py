"""Reproduction harness: one module per paper table/figure plus ablations.

* :mod:`~repro.analysis.table1` — Table 1 (algorithm cycle costs)
* :mod:`~repro.analysis.figure5` — Figure 5 (relative algorithm shares)
* :mod:`~repro.analysis.figure6` — Figure 6 (Music Player, three variants)
* :mod:`~repro.analysis.figure7` — Figure 7 (Ringtone, three variants)
* :mod:`~repro.analysis.claims` — in-text quantitative claims (PKI ~600 ms)
* :mod:`~repro.analysis.ablations` — design-choice studies
* :mod:`~repro.analysis.formatting` — ASCII table/chart rendering

The package imports only the shared seed, traces and formatting. Each
table, figure and sweep is imported as its submodule
(``from repro.analysis import figure6`` loads ``figure6`` alone).
"""

from .common import DEFAULT_SEED, music_trace, ringtone_trace
from .formatting import (deviation_pct, format_log_bars, format_ms,
                         format_stacked_shares, format_table)

__all__ = [
    "DEFAULT_SEED", "music_trace", "ringtone_trace", "deviation_pct",
    "format_log_bars", "format_ms", "format_stacked_shares",
    "format_table",
]
