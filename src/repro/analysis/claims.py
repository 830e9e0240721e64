"""Experiment ``pki600``: the paper's in-text quantitative claims.

Beyond the figures, §4 makes checkable numeric statements:

* the PKI operations "total to roughly 600ms" in software, identically in
  both use cases (their execution time does not depend on the DCF size);
* Music Player: AES/SHA-1 hardware macros cut the total "to almost a
  tenth" of the pure-software value;
* PKI hardware acceleration "has only limited benefits ... from a
  performance point of view" once AES/SHA-1 are in hardware for the Music
  Player (the HW bar improves on SW/HW far less than SW/HW improved on SW).
"""

from dataclasses import dataclass

from ..core.architecture import SW_PROFILE
from ..core.model import PerformanceModel
from ..core.trace import Algorithm
from .common import DEFAULT_SEED, music_trace, ringtone_trace
from .figure6 import generate as generate_fig6
from .formatting import format_table

#: The paper's wording: PKI totals "roughly 600ms" in software.
PAPER_PKI_MS = 600.0


def pki_software_ms(trace, model: PerformanceModel) -> float:
    """Milliseconds of RSA (public + private) work in pure software."""
    breakdown = model.evaluate(trace, SW_PROFILE)
    per_algorithm = breakdown.ms_by_algorithm()
    return (per_algorithm.get(Algorithm.RSA_PUBLIC, 0.0)
            + per_algorithm.get(Algorithm.RSA_PRIVATE, 0.0))


@dataclass
class ClaimsResult:
    """Measured values for each in-text claim."""

    pki_ms_music: float
    pki_ms_ringtone: float
    music_sw_over_swhw: float

    @property
    def pki_identical_across_use_cases(self) -> bool:
        """PKI time must not depend on the DCF size (paper §4)."""
        return abs(self.pki_ms_music - self.pki_ms_ringtone) < 1e-9

    def render(self) -> str:
        """ASCII table of claim vs measurement."""
        rows = [
            ("PKI total, software, Music Player",
             "~600 ms", "%.1f ms" % self.pki_ms_music),
            ("PKI total, software, Ringtone",
             "~600 ms", "%.1f ms" % self.pki_ms_ringtone),
            ("PKI identical across use cases",
             "yes", "yes" if self.pki_identical_across_use_cases
             else "NO"),
            ("Music Player SW / SW-HW speedup",
             "~10x (almost a tenth)",
             "%.1fx" % self.music_sw_over_swhw),
        ]
        return format_table(
            headers=("Claim", "Paper", "Measured"), rows=rows,
            title="In-text claims (paper section 4)",
        )


def generate(seed: str = DEFAULT_SEED) -> ClaimsResult:
    """Measure every in-text claim."""
    model = PerformanceModel()
    fig6 = generate_fig6(seed)
    return ClaimsResult(
        pki_ms_music=pki_software_ms(music_trace(seed), model),
        pki_ms_ringtone=pki_software_ms(ringtone_trace(seed), model),
        music_sw_over_swhw=(fig6.measured_ms["SW"]
                            / fig6.measured_ms["SW/HW"]),
    )
