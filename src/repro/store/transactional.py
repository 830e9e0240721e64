"""Journaled device storage: DeviceStorage semantics, flash durability.

:class:`TransactionalStorage` is a drop-in :class:`~repro.drm.storage.
DeviceStorage` whose mutations are write-ahead journaled. Each mutation
inside a ``with storage.transaction():`` block appends one journal
record *before* it is buffered (so a crash any time before the commit
record leaves the transaction discardable), and the block's exit seals
the transaction with a commit record — the commit point — before any
RAM state changes. A bare mutator call outside a transaction is
auto-wrapped in a one-op transaction, so every durable mutation is
always covered by a commit record.

The op codec below maps each mutator's arguments to and from the
canonically-encodable dict the journal stores. Only already-protected
material crosses it (DCF ciphertext, ``C2dev``-wrapped keys, the RO's
MAC-covered payload): the journal lives in ordinary flash and must not
weaken the storage model.
"""

from typing import Optional, Tuple

from ..crypto.kem import KemCiphertext
from ..drm import serialize
from ..drm.certificates import certificate_from_bytes
from ..drm.dcf import DCF
from ..drm.errors import WireDecodeError
from ..drm.rel import PermissionType, RightsState
from ..drm.ro import InstalledRightsObject
from ..drm.roap.wire import rights_object_from_payload
from ..drm.storage import DeviceStorage, DomainContext, RIContext
from ..obs.tracer import NULL_TRACER
from .crash import CrashInjector, JournalCorruptError, PowerLossError
from .journal import Flash, Journal


def _state_to_args(state: RightsState) -> dict:
    return {
        "remaining": {p.value: n
                      for p, n in sorted(state.remaining_counts.items(),
                                         key=lambda kv: kv[0].value)},
        "first_use": {p.value: t
                      for p, t in sorted(state.first_use.items(),
                                         key=lambda kv: kv[0].value)},
    }


def _state_from_args(args: dict) -> RightsState:
    return RightsState(
        remaining_counts={PermissionType(p): int(n)
                          for p, n in args["remaining"].items()},
        first_use={PermissionType(p): int(t)
                   for p, t in args["first_use"].items()},
    )


def encode_op(op: str, params: tuple) -> dict:
    """The journal-record ``args`` dict for one buffered mutation."""
    if op == "store_dcf":
        (dcf,) = params
        return {"dcf": dcf.to_bytes()}
    if op == "store_ro":
        (installed,) = params
        kem = installed.kem_ciphertext
        return {
            "ro_payload": installed.ro.payload_bytes(),
            "c2dev": installed.c2dev,
            "mac": installed.mac,
            "kem_c1": kem.c1 if kem is not None else None,
            "kem_c2": kem.c2 if kem is not None else None,
            "state": _state_to_args(installed.state),
        }
    if op == "remove_ro":
        (ro_id,) = params
        return {"ro_id": ro_id}
    if op == "set_ro_state":
        ro_id, state = params
        return {"ro_id": ro_id, "state": _state_to_args(state)}
    if op == "store_ri_context":
        (context,) = params
        return {
            "ri_id": context.ri_id,
            "certificate": context.ri_certificate.to_bytes(),
            "session_id": context.session_id,
            "registered_at": context.registered_at,
            "expires_at": context.expires_at,
            "algorithms": list(context.selected_algorithms),
        }
    if op == "store_domain_context":
        (context,) = params
        return {
            "domain_id": context.domain_id,
            "ri_id": context.ri_id,
            "wrapped_domain_key": context.wrapped_domain_key,
            "joined_at": context.joined_at,
        }
    if op == "remove_domain_context":
        (domain_id,) = params
        return {"domain_id": domain_id}
    if op == "remember":
        (ro_guid,) = params
        return {"ro_id": ro_guid[0], "ro_nonce": ro_guid[1]}
    raise JournalCorruptError("no journal encoding for op %r" % op)


def decode_op(op: str, args: dict) -> tuple:
    """Inverse of :func:`encode_op`: the ``_do_<op>`` argument tuple."""
    try:
        return _decode_op(op, args)
    except (KeyError, TypeError, ValueError, WireDecodeError) as exc:
        raise JournalCorruptError(
            "journal record for op %r is malformed: %s" % (op, exc)
        ) from exc


def _decode_op(op: str, args: dict) -> tuple:
    if op == "store_dcf":
        return (DCF(**serialize.decode(args["dcf"])),)
    if op == "store_ro":
        kem = None
        if args["kem_c1"] is not None:
            kem = KemCiphertext(c1=args["kem_c1"], c2=args["kem_c2"])
        return (InstalledRightsObject(
            ro=rights_object_from_payload(args["ro_payload"]),
            c2dev=args["c2dev"],
            mac=args["mac"],
            kem_ciphertext=kem,
            state=_state_from_args(args["state"]),
        ),)
    if op == "remove_ro":
        return (args["ro_id"],)
    if op == "set_ro_state":
        return (args["ro_id"], _state_from_args(args["state"]))
    if op == "store_ri_context":
        return (RIContext(
            ri_id=args["ri_id"],
            ri_certificate=certificate_from_bytes(args["certificate"]),
            session_id=args["session_id"],
            registered_at=int(args["registered_at"]),
            expires_at=int(args["expires_at"]),
            selected_algorithms=tuple(args["algorithms"]),
        ),)
    if op == "store_domain_context":
        return (DomainContext(
            domain_id=args["domain_id"],
            ri_id=args["ri_id"],
            wrapped_domain_key=args["wrapped_domain_key"],
            joined_at=int(args["joined_at"]),
        ),)
    if op == "remove_domain_context":
        return (args["domain_id"],)
    if op == "remember":
        return ((args["ro_id"], args["ro_nonce"]),)
    raise JournalCorruptError("no journal decoding for op %r" % op)


class TransactionalStorage(DeviceStorage):
    """DeviceStorage whose transactions survive power loss.

    ``crypto`` and ``kdev`` come from the owning agent: journal records
    are HMAC-framed under the device key through the agent's (possibly
    metered) provider, so durability costs appear in the operation
    trace. Pass a surviving ``flash`` plus
    :meth:`TransactionalStorage.recover` to rebuild state after a
    crash; pass an ``injector`` to make this storage crashable.
    """

    def __init__(self, crypto, kdev: bytes,
                 flash: Optional[Flash] = None,
                 injector: Optional[CrashInjector] = None) -> None:
        super().__init__()
        self.tracer = getattr(crypto, "tracer", NULL_TRACER)
        self.journal = Journal(crypto, kdev, flash=flash,
                               injector=injector)
        self._txn_id = 0

    # -- transaction hooks --------------------------------------------------
    def _begin(self) -> None:
        self._txn_id += 1

    def _precommit(self) -> None:
        self.journal.commit(self._txn_id)
        self.tracer.event("journal.commit", track="store",
                          txn_id=self._txn_id)

    def _mutate(self, op: str, *args) -> None:
        if self._txn is None:
            # A bare mutator call still gets full atomicity: wrap it in
            # its own single-op transaction (journal record + commit).
            with self.transaction():
                self._mutate(op, *args)
            return
        try:
            self.journal.append(self._txn_id, op, encode_op(op, args))
        except PowerLossError:
            self.tracer.event("storage.crash", track="store",
                              txn_id=self._txn_id, op=op)
            raise
        self._txn.append((op, args))

    # -- recovery ----------------------------------------------------------
    def replay_record(self, op: str, args: dict) -> None:
        """Re-apply one committed journal record to RAM state.

        Called by :class:`~repro.store.recovery.Recovery` only: applies
        directly, without journaling again — the record is already on
        flash.
        """
        getattr(self, "_do_" + op)(*decode_op(op, args))

    @classmethod
    def recover(cls, crypto, kdev: bytes, flash: Flash,
                injector: Optional[CrashInjector] = None,
                ) -> Tuple["TransactionalStorage", "RecoveryReport"]:
        """Rebuild storage from a surviving flash region after power loss.

        Returns the recovered storage and the
        :class:`~repro.store.recovery.RecoveryReport` describing what
        the replay found. Idempotent: recovering the same flash again
        yields the identical state and discards nothing further.
        """
        from .recovery import Recovery
        storage = cls(crypto, kdev, flash=flash, injector=injector)
        report = Recovery(storage.journal).replay(storage)
        return storage, report
