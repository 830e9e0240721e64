"""Deterministic discrete-event simulation (`docs/simulation.md`).

The kernel (:mod:`repro.sim.kernel`) is the shared-clock substrate the
per-device cost engine cannot provide: a binary event heap with
FIFO-stable tie-breaking, generator processes, seeded per-entity DRBG
streams and in-queue expiry timers. A run is a pure function of its
seed and spawns, and keeps no event log.
:mod:`repro.sim.queueing` validates it against closed-form queueing
laws; :mod:`repro.sim.ri` puts a concurrent Rights Issuer on it,
priced from the paper's Table 1; :mod:`repro.sim.admission` adds
its overload-shedding policies; :mod:`repro.sim.fleet` drives the
fleet population and open Poisson load through that RI; and
:mod:`repro.sim.overload` reproduces metastable retry storms against
it.
"""

from .kernel import (REJECTED, TIMED_OUT, Acquire, Kernel, Process,
                     Release, Resource, Wait)
from .queueing import (QueueObservation, deterministic_draw,
                       exponential_draw, exponential_ticks,
                       md1_mean_wait, mm1_mean_number, mm1_mean_wait,
                       offered_load, simulate_queue)
from .ri import (DEFAULT_OCSP_FETCH_MS, DEFAULT_OCSP_VALIDITY_SECONDS,
                 DEFAULT_REQUEST_MIX, REQUEST_KINDS, SERVE_STATUSES,
                 RICapacity, RIServer, ServeOutcome, nominal_service_ticks,
                 service_records)
from .admission import (ADMISSION_POLICIES, PRIORITY_CLASSES,
                        AdmissionPolicy, CoDelShedder,
                        PriorityAdmission, TokenBucket, make_admission)
from .fleet import (ArchitectureLoadResult, KernelFleetResult,
                    OpenLoadResult, run_fleet_kernel, run_open_load)
from .overload import (RETRY_DISCIPLINES, RETRY_POLICIES, BinStat,
                       RetryBudget, StormResult, StormSpec, run_storm)

__all__ = [
    "REJECTED", "TIMED_OUT", "Acquire", "Kernel", "Process", "Release",
    "Resource", "Wait",
    "QueueObservation", "deterministic_draw", "exponential_draw",
    "exponential_ticks", "md1_mean_wait", "mm1_mean_number",
    "mm1_mean_wait", "offered_load", "simulate_queue",
    "DEFAULT_OCSP_FETCH_MS", "DEFAULT_OCSP_VALIDITY_SECONDS",
    "DEFAULT_REQUEST_MIX", "REQUEST_KINDS", "SERVE_STATUSES",
    "RICapacity", "RIServer", "ServeOutcome", "nominal_service_ticks",
    "service_records",
    "ADMISSION_POLICIES", "PRIORITY_CLASSES", "AdmissionPolicy",
    "CoDelShedder", "PriorityAdmission", "TokenBucket", "make_admission",
    "ArchitectureLoadResult", "KernelFleetResult", "OpenLoadResult",
    "run_fleet_kernel", "run_open_load",
    "RETRY_DISCIPLINES", "RETRY_POLICIES", "BinStat", "RetryBudget",
    "StormResult", "StormSpec", "run_storm",
]
