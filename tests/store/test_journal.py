"""Journal framing: length prefix, HMAC tag, torn-tail scanning."""

import struct

import pytest

from repro.core.meter import PlainCrypto
from repro.crypto.rng import HmacDrbg
from repro.drm import serialize
from repro.store import (COMMIT_OP, CrashInjector, CrashPoint, Flash,
                         Journal, PowerLossError, enumerate_crash_points)
from repro.store.crash import SWEEP_FRACTIONS
from repro.store.journal import LENGTH_OCTETS, TAG_OCTETS

KEY = b"\x42" * 16


def make_journal(injector=None):
    return Journal(PlainCrypto(HmacDrbg(b"journal-tests")), KEY,
                   injector=injector)


def test_append_scan_roundtrip():
    journal = make_journal()
    journal.append(1, "remember", {"ro_id": "a", "ro_nonce": "n"})
    journal.append(1, "remove_ro", {"ro_id": "b"})
    journal.commit(1)
    records, valid = journal.scan()
    assert [(r.txn, r.op) for r in records] == [
        (1, "remember"), (1, "remove_ro"), (1, COMMIT_OP)]
    assert records[0].args == {"ro_id": "a", "ro_nonce": "n"}
    assert records[2].is_commit and not records[0].is_commit
    assert valid == len(journal.flash)
    assert journal.records_appended == 3


def test_scan_stops_at_torn_tail():
    journal = make_journal()
    journal.append(1, "remember", {"ro_id": "a", "ro_nonce": "n"})
    full = len(journal.flash)
    journal.commit(1)
    # Every possible torn cut of the second frame: only the first
    # record survives, and the valid prefix is exactly its end.
    for cut in range(full, len(journal.flash)):
        torn = make_journal()
        torn.flash.data = bytearray(journal.flash.data[:cut])
        records, valid = torn.scan()
        assert [r.op for r in records] == ["remember"]
        assert valid == full


def test_scan_rejects_tampered_body():
    journal = make_journal()
    journal.append(1, "remember", {"ro_id": "a", "ro_nonce": "n"})
    journal.commit(1)
    clean, prefix = journal.scan()
    assert len(clean) == 2
    # Flip one octet inside the second frame's body.
    journal.flash.data[len(journal.flash) - TAG_OCTETS - 1] ^= 0x01
    records, valid = journal.scan()
    assert [r.op for r in records] == ["remember"]
    assert valid < prefix


def test_scan_rejects_unauthenticated_garbage():
    journal = make_journal()
    journal.commit(7)
    body = serialize.encode({"txn": 8, "op": "remember", "args": {}})
    # Correct framing but a zeroed tag: must not authenticate.
    journal.flash.data += struct.pack(">I", len(body)) + body \
        + b"\x00" * TAG_OCTETS
    records, valid = journal.scan()
    assert [r.txn for r in records] == [7]


def test_scan_rejects_authenticated_wrong_shape():
    journal = make_journal()
    crypto = journal.crypto
    body = serialize.encode(["not", "a", "record"])
    tag = crypto.hmac_sha1(KEY, body, label="journal-record")
    journal.flash.append(struct.pack(">I", len(body)) + body + tag)
    records, valid = journal.scan()
    assert records == [] and valid == 0


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        Journal(PlainCrypto(HmacDrbg(b"journal-tests")), b"")


def test_deterministic_crash_tears_exact_prefix():
    injector = CrashInjector(point=CrashPoint(boundary=1, fraction=0.5))
    journal = make_journal(injector=injector)
    journal.append(1, "remember", {"ro_id": "a", "ro_nonce": "n"})
    first_end = len(journal.flash)
    with pytest.raises(PowerLossError):
        journal.commit(1)
    torn = len(journal.flash) - first_end
    # Half the frame (length prefix + body + tag) persisted.
    body = serialize.encode({"txn": 1, "op": COMMIT_OP, "args": {}})
    assert torn == (LENGTH_OCTETS + len(body) + TAG_OCTETS) // 2
    # A fired injector disarms: the retry lands in full.
    assert injector.fired
    journal.flash.truncate(first_end)
    journal.commit(1)
    records, valid = journal.scan()
    assert [r.op for r in records] == ["remember", COMMIT_OP]


def test_crash_before_any_octet_persists_nothing():
    injector = CrashInjector(point=CrashPoint(boundary=0, fraction=0.0))
    journal = make_journal(injector=injector)
    with pytest.raises(PowerLossError):
        journal.append(1, "remember", {"ro_id": "a", "ro_nonce": "n"})
    assert len(journal.flash) == 0


def test_seeded_injector_is_reproducible():
    def boundaries(seed):
        injector = CrashInjector(seed=seed, crash_rate=0.3)
        flash = Flash(injector=injector)
        fired_at = []
        for index in range(50):
            try:
                flash.append(b"\xAA" * 40)
            except PowerLossError:
                fired_at.append((index, len(flash)))
                injector.fired = False  # keep drawing
        return fired_at

    assert boundaries("soak-1") == boundaries("soak-1")
    assert boundaries("soak-1") != boundaries("soak-2")


def test_enumerate_crash_points_covers_every_pair():
    points = enumerate_crash_points(3)
    assert len(points) == 3 * len(SWEEP_FRACTIONS)
    assert {(p.boundary, p.fraction) for p in points} == {
        (b, f) for b in range(3) for f in SWEEP_FRACTIONS}
    with pytest.raises(ValueError):
        enumerate_crash_points(-1)
    with pytest.raises(ValueError):
        CrashPoint(boundary=0, fraction=1.5)
    with pytest.raises(ValueError):
        CrashInjector(point=CrashPoint(0, 0.0), seed="both")
    with pytest.raises(ValueError):
        CrashInjector(crash_rate=0.5)
