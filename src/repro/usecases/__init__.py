"""Evaluation use cases: world building, scenario running, trace scaling.

* :mod:`~repro.usecases.world` — wire up the Figure 1 actor constellation
* :mod:`~repro.usecases.scenario` / :mod:`~repro.usecases.catalog` —
  workload descriptions (Music Player, Ringtone)
* :mod:`~repro.usecases.runner` — functional end-to-end execution
* :mod:`~repro.usecases.workload` — exact rescaling to paper-scale traces
* :mod:`~repro.usecases.fleet` — sharded large-population simulation
* :mod:`~repro.usecases.durability` — priced write-ahead journal overhead
"""

from .catalog import (MUSIC_ACCESSES, MUSIC_CONTENT_OCTETS,
                      RINGTONE_ACCESSES, RINGTONE_CONTENT_OCTETS,
                      music_player, ringtone)
from .durability import (DurabilityMeasurement, DurabilityTemplates,
                         build_durability_templates, measure_durability)
from .fleet import (DEFAULT_FAMILIES, CostTemplates, DeviceDraw,
                    FleetAccumulator, FleetConfig, FleetResult,
                    ScenarioFamily, build_cost_templates, draw_device,
                    run_fleet)
from .runner import ScenarioRun, run_functional, synthetic_content
from .scenario import KIB, MIB, UseCase
from .workload import (DEFAULT_CALIBRATION_OCTETS, dcf_octets_for_content,
                       padded_payload_octets, run_modeled, scale_trace)
from .world import DRMWorld, RSA_BITS

__all__ = [
    "MUSIC_ACCESSES", "MUSIC_CONTENT_OCTETS", "RINGTONE_ACCESSES",
    "RINGTONE_CONTENT_OCTETS", "music_player", "ringtone", "ScenarioRun",
    "run_functional", "synthetic_content",
    "KIB", "MIB", "UseCase", "DEFAULT_CALIBRATION_OCTETS",
    "dcf_octets_for_content", "padded_payload_octets",
    "run_modeled", "scale_trace", "DRMWorld", "RSA_BITS",
    "DEFAULT_FAMILIES", "CostTemplates", "DeviceDraw",
    "FleetAccumulator", "FleetConfig", "FleetResult", "ScenarioFamily",
    "build_cost_templates", "draw_device", "run_fleet",
    "DurabilityMeasurement", "DurabilityTemplates",
    "build_durability_templates", "measure_durability",
]
