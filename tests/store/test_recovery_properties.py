"""Property test: random crash/recover sequences never corrupt state.

Runs straight at the storage layer (no RSA worlds) so hypothesis can
afford many examples: random transactions of random ops execute against
a seeded :class:`CrashInjector`, and after every power loss the
recovered state must equal either the pre- or the post-transaction
shadow state — all-or-nothing, with re-recovery a fixed point.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.meter import PlainCrypto
from repro.crypto.rng import HmacDrbg
from repro.drm.storage import DomainContext
from repro.store import (CrashInjector, PowerLossError,
                         TransactionalStorage)

KEY = b"\x42" * 16

_GUIDS = [("ro-%d" % i, "nonce-%d" % i) for i in range(4)]
_DOMAINS = ["domain-%d" % i for i in range(3)]

_OPS = st.one_of(
    st.tuples(st.just("remember"), st.sampled_from(_GUIDS)),
    st.tuples(st.just("store_domain"), st.sampled_from(_DOMAINS),
              st.integers(min_value=0, max_value=10)),
    st.tuples(st.just("remove_domain"), st.sampled_from(_DOMAINS)),
)

_SEQUENCES = st.lists(
    st.lists(_OPS, min_size=1, max_size=4), min_size=1, max_size=6)


def snapshot(storage):
    return (frozenset(storage.replay_cache),
            tuple(sorted((d, c.wrapped_domain_key, c.joined_at)
                         for d, c in storage.domain_contexts.items())))


def shadow_apply(shadow, ops):
    guids = set(shadow[0])
    domains = {d: (w, j) for d, w, j in shadow[1]}
    for op in ops:
        if op[0] == "remember":
            guids.add(op[1])
        elif op[0] == "store_domain":
            domains[op[1]] = (bytes([op[2]]) * 24, op[2])
        else:
            domains.pop(op[1], None)
    return (frozenset(guids),
            tuple(sorted((d, w, j) for d, (w, j) in domains.items())))


def execute(storage, ops):
    with storage.transaction():
        for op in ops:
            if op[0] == "remember":
                storage.remember(op[1])
            elif op[0] == "store_domain":
                storage.store_domain_context(DomainContext(
                    domain_id=op[1], ri_id="ri",
                    wrapped_domain_key=bytes([op[2]]) * 24,
                    joined_at=op[2]))
            else:
                storage.remove_domain_context(op[1])


def run_sequence(transactions, crash_rate, seed_salt):
    crypto = PlainCrypto(HmacDrbg(b"recovery-tests"))
    storage = TransactionalStorage(
        crypto, KEY,
        injector=CrashInjector(seed="soak-%s" % seed_salt,
                               crash_rate=crash_rate))
    shadow = snapshot(storage)
    crashes = 0
    for index, ops in enumerate(transactions):
        before = shadow
        after = shadow_apply(shadow, ops)
        try:
            execute(storage, ops)
            shadow = after
            assert snapshot(storage) == shadow
        except PowerLossError:
            crashes += 1
            flash = storage.journal.flash
            storage, report = TransactionalStorage.recover(
                crypto, KEY, flash)
            recovered = snapshot(storage)
            # All-or-nothing: never a partially applied transaction.
            assert recovered in (before, after), (index, ops)
            shadow = recovered
            # Re-recovery is a fixed point.
            again, _ = TransactionalStorage.recover(crypto, KEY, flash)
            assert snapshot(again) == recovered
            storage = again
            # Fresh injector: keep crashing through the whole sequence.
            storage.journal.flash.injector = CrashInjector(
                seed="soak-%s-%d" % (seed_salt, index),
                crash_rate=crash_rate)
    return crashes


@settings(max_examples=40, deadline=None, derandomize=True)
@given(transactions=_SEQUENCES,
       crash_rate=st.floats(min_value=0.1, max_value=0.9),
       seed_salt=st.integers(min_value=0, max_value=2 ** 16))
def test_random_crash_recover_sequences_are_atomic(
        transactions, crash_rate, seed_salt):
    run_sequence(transactions, crash_rate, seed_salt)


@pytest.mark.slow
@settings(max_examples=300, deadline=None, derandomize=True)
@given(transactions=st.lists(st.lists(_OPS, min_size=1, max_size=6),
                             min_size=1, max_size=12),
       crash_rate=st.floats(min_value=0.05, max_value=0.95),
       seed_salt=st.integers(min_value=0, max_value=2 ** 24))
def test_random_crash_recover_soak(transactions, crash_rate, seed_salt):
    run_sequence(transactions, crash_rate, seed_salt)
