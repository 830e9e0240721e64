"""Power-loss-atomic device storage.

The paper targets an embedded terminal, where power can vanish between
any two flash writes, and its §2.4.3 robustness rules require rights
state — install replay guards, count-based constraint decrements — to
survive exactly that. This package is the state-side counterpart of the
wire-side resilience layer (:mod:`repro.drm.roap.faults`): a
write-ahead :class:`~repro.store.journal.Journal` over a modeled
:class:`~repro.store.journal.Flash` region, a
:class:`~repro.store.transactional.TransactionalStorage` that makes the
DRM Agent's mutations all-or-nothing, a seeded
:class:`~repro.store.crash.CrashInjector` that can kill execution at
every journal write boundary, and a
:class:`~repro.store.recovery.Recovery` replay that rebuilds RAM state
from the surviving flash bytes.

Every journal record is HMAC-SHA1-framed through the agent's crypto
provider, so durability costs cycles the performance model prices like
any other crypto work (see :mod:`repro.analysis.durability`).
"""

# The store is built on drm's data modules, and the drm package (through
# its agent) on the store. Initialising drm first means every store
# module is first loaded from the agent's imports, so none of them ever
# meets a half-built journal, whichever module a process imports first.
from .. import drm  # noqa: F401
from .crash import (CrashInjector, CrashPoint, PowerLossError, StoreError,
                    enumerate_crash_points)
from .journal import COMMIT_OP, Flash, Journal, JournalRecord
from .recovery import Recovery, RecoveryReport
from .transactional import TransactionalStorage

__all__ = [
    "COMMIT_OP",
    "CrashInjector",
    "CrashPoint",
    "Flash",
    "Journal",
    "JournalRecord",
    "PowerLossError",
    "Recovery",
    "RecoveryReport",
    "StoreError",
    "TransactionalStorage",
    "enumerate_crash_points",
]
