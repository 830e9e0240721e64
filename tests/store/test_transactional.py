"""TransactionalStorage: buffering, op codec, full-protocol recovery."""

import pytest

from repro.core.meter import PlainCrypto
from repro.crypto.rng import HmacDrbg
from repro.drm.identifiers import content_id as make_content_id
from repro.drm.identifiers import rights_object_id
from repro.drm.rel import PermissionType, play_count
from repro.drm.storage import DeviceStorage, DomainContext
from repro.store import COMMIT_OP, TransactionalStorage
from repro.store.crash import JournalCorruptError
from repro.store.transactional import decode_op, encode_op
from repro.usecases.runner import synthetic_content

KEY = b"\x42" * 16


def fresh_storage():
    return TransactionalStorage(PlainCrypto(HmacDrbg(b"store-tests")), KEY)


def recovered_copy(storage, crypto=None):
    if crypto is None:
        crypto = PlainCrypto(HmacDrbg(b"store-tests"))
    recovered, report = TransactionalStorage.recover(
        crypto, storage.journal.key, storage.journal.flash)
    return recovered, report


# -- transaction buffering ---------------------------------------------------

def test_bare_mutation_is_a_single_op_transaction():
    storage = fresh_storage()
    storage.remember(("ro", "nonce"))
    records, _ = storage.journal.scan()
    assert [r.op for r in records] == ["remember", COMMIT_OP]
    assert storage.seen_before(("ro", "nonce"))


def test_mutations_buffer_until_commit():
    storage = fresh_storage()
    with storage.transaction():
        storage.remember(("ro", "nonce"))
        # Journaled write-ahead, but RAM unchanged until the block exits.
        assert not storage.seen_before(("ro", "nonce"))
        records, _ = storage.journal.scan()
        assert [r.op for r in records] == ["remember"]
    assert storage.seen_before(("ro", "nonce"))
    records, _ = storage.journal.scan()
    assert [r.op for r in records] == ["remember", COMMIT_OP]


def test_exception_discards_transaction():
    storage = fresh_storage()
    with pytest.raises(RuntimeError):
        with storage.transaction():
            storage.remember(("ro", "nonce"))
            raise RuntimeError("abort")
    # RAM untouched; the journaled records carry no commit.
    assert not storage.seen_before(("ro", "nonce"))
    records, _ = storage.journal.scan()
    assert [r.op for r in records] == ["remember"]
    recovered, report = recovered_copy(storage)
    assert not recovered.seen_before(("ro", "nonce"))
    assert report.transactions_discarded == 1


def test_nested_transaction_is_reentrant():
    storage = fresh_storage()
    with storage.transaction():
        storage.remember(("a", "n"))
        with storage.transaction():
            storage.remember(("b", "n"))
        # Inner exit must not commit the outer transaction.
        assert not storage.seen_before(("a", "n"))
    assert storage.seen_before(("a", "n"))
    assert storage.seen_before(("b", "n"))
    records, _ = storage.journal.scan()
    assert [r.op for r in records].count(COMMIT_OP) == 1


def test_empty_transaction_writes_no_commit():
    storage = fresh_storage()
    with storage.transaction():
        pass
    assert len(storage.journal.flash) == 0


def test_volatile_storage_unaffected_by_transactions():
    storage = DeviceStorage()
    with storage.transaction():
        storage.remember(("ro", "nonce"))
        assert not storage.seen_before(("ro", "nonce"))
    assert storage.seen_before(("ro", "nonce"))


# -- op codec ----------------------------------------------------------------

def test_simple_ops_roundtrip_through_codec():
    guid = ("ro-1", "nonce-1")
    assert decode_op("remember", encode_op("remember", (guid,))) == (guid,)
    assert decode_op("remove_ro", encode_op("remove_ro", ("ro-1",))) \
        == ("ro-1",)
    context = DomainContext(domain_id="d", ri_id="ri",
                            wrapped_domain_key=b"\x01" * 24, joined_at=7)
    (decoded,) = decode_op("store_domain_context",
                           encode_op("store_domain_context", (context,)))
    assert decoded == context


def test_codec_rejects_unknown_op_and_malformed_args():
    with pytest.raises(JournalCorruptError):
        encode_op("format_flash", ())
    with pytest.raises(JournalCorruptError):
        decode_op("format_flash", {})
    with pytest.raises(JournalCorruptError):
        decode_op("remember", {"ro_id": "only-half-a-guid"})
    with pytest.raises(JournalCorruptError):
        decode_op("store_dcf", {"dcf": b"\x00garbage"})


# -- full-protocol recovery --------------------------------------------------

def run_protocol(world, accesses=1):
    cid = make_content_id("txn-roundtrip")
    dcf = world.ci.publish(
        content_id=cid, content_type="audio/midi",
        clear_content=synthetic_content(512),
        rights_issuer_url="http://ri.example/shop")
    ro_id = rights_object_id(cid + "-license")
    world.ri.add_offer(ro_id, world.ci.negotiate_license(cid),
                       play_count(5))
    world.agent.register(world.ri)
    protected_ro = world.agent.acquire(world.ri, ro_id)
    world.agent.install(protected_ro, dcf)
    for _ in range(accesses):
        world.agent.consume(cid)
    return cid, ro_id


def test_recovery_rebuilds_full_protocol_state(fast_world_factory):
    world = fast_world_factory("txn-roundtrip", durable=True)
    cid, ro_id = run_protocol(world, accesses=2)
    live = world.agent.storage

    recovered, report = TransactionalStorage.recover(
        world.agent.crypto, world.agent.secure.kdev, live.journal.flash)
    assert recovered.dcfs == live.dcfs
    assert recovered.installed_ros == live.installed_ros
    assert recovered.ri_contexts == live.ri_contexts
    assert recovered.domain_contexts == live.domain_contexts
    assert recovered.replay_cache == live.replay_cache
    assert recovered.installed_ros[ro_id].state.remaining_counts[
        PermissionType.PLAY] == 3
    # registration + installation + 2 accesses
    assert report.transactions_applied == 4
    assert report.transactions_discarded == 0
    assert report.torn_octets_discarded == 0

    # Idempotent: recovering the recovered flash changes nothing.
    again, _ = TransactionalStorage.recover(
        world.agent.crypto, world.agent.secure.kdev,
        recovered.journal.flash)
    assert again.installed_ros == recovered.installed_ros
    assert again.replay_cache == recovered.replay_cache

    # The recovered storage keeps working: consume down to exhaustion.
    world.agent.storage = recovered
    for _ in range(3):
        world.agent.consume(cid)


def test_recovered_txn_ids_do_not_collide(fast_world_factory):
    world = fast_world_factory("txn-roundtrip", durable=True)
    run_protocol(world)
    recovered, _ = TransactionalStorage.recover(
        world.agent.crypto, world.agent.secure.kdev,
        world.agent.storage.journal.flash)
    # New transactions must continue past the replayed ids, or their
    # records would alias committed history on the next recovery.
    highest = max(r.txn for r in recovered.journal.scan()[0])
    recovered.remember(("fresh", "guid"))
    records, _ = recovered.journal.scan()
    assert records[-1].txn > highest
