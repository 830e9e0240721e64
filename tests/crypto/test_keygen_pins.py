"""Key identity: every RSA key and DRBG draw of the eager search is kept.

Key generation defers the DRBG-witness rounds of each prime until the
modulus has full length, and sieves each scan window. Neither may change
a key or the DRBG state it leaves behind. Three checks hold that:

* literal SHA-256 pins over ``(n, e, d, p, q)`` and the DRBG post-state,
  recorded with the eager search;
* a property test against a local copy of the eager search, with its
  witnesses drawn from the DRBG (192- and 256-bit moduli are above the
  3.3·10^24 deterministic bound at half size, so deferral applies);
* a forced deferred-round failure, whose rewind-and-replay must land on
  the eager result under the same fault.
"""

import hashlib
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import primes, rsa
from repro.crypto.rng import HmacDrbg

#: (bits, seed) -> SHA-256 of the key and the DRBG post-state.
PINS = {
    (64, b"key-pin-0"):
        "1bdd46c2df7b9fddd10dc8f5d68cc676a213c0834b140ff4282d9555d8b9f0fc",
    (64, b"key-pin-1"):
        "246e53b63b8ea0527cdd011f343159ab3a435b961c1ec89acc28078190e1fee1",
    (64, b"key-pin-2"):
        "c491bd7950cb317ad4bdf410dc84eb9742eaeb013148d9ddf67319af6e388829",
    (512, b"key-pin-0"):
        "cfafecaaf01c6732ad4d92bd568bbb8bb5f85a26105d3f8a0e8fc06f676d1652",
    (512, b"key-pin-1"):
        "f0533d97d3f4a2af7243d42fe0c721ae917f77087b32572dae3efec3cd480a78",
    (512, b"key-pin-2"):
        "ee7b670a5688c83e9324a85535beddc5b8ba74a948e870857e94aaca99de0ebe",
    (1024, b"key-pin-0"):
        "bd13582715ec47c4969b72f19390bd604482a47749d7b2fe8ece24366673f1a1",
    (1024, b"key-pin-1"):
        "b32c039e53c83c08dadcf9c7febd2464a175a2f5388f25f302dea2c38563e4cb",
    (1024, b"key-pin-2"):
        "8fd972498f65800b4d5ea29cc900e69fcaeb032ab8f71818b1b4a95764f95b26",
}


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Every generation here runs the search, not the memo."""
    monkeypatch.setattr(rsa, "_KEYPAIRS", OrderedDict())


def digest(key, rng):
    parts = [str(v).encode() for v in (key.n, key.e, key.d, key.p, key.q)]
    return hashlib.sha256(b"|".join(parts + list(rng.state()))).hexdigest()


def generated(generate, bits, seed):
    rng = HmacDrbg(seed)
    key = generate(bits, rng)
    return (key.n, key.e, key.d, key.p, key.q), rng.state()


# -- the eager search, as it ran before deferral and the sieve ---------------

def eager_is_probable_prime(candidate, rng, rounds=40):
    for p in primes._SMALL_PRIMES:
        if candidate == p:
            return True
        if candidate % p == 0:
            return False
    odd_part, power_of_two = candidate - 1, 0
    while odd_part % 2 == 0:
        odd_part //= 2
        power_of_two += 1
    if candidate < primes._DETERMINISTIC_BOUND:
        witnesses = iter(w for w in primes._DETERMINISTIC_WITNESSES
                         if w < candidate - 1)
    else:
        if not primes._miller_rabin_round(candidate, 2, odd_part,
                                          power_of_two):
            return False
        witnesses = (rng.random_range(2, candidate - 1)
                     for _ in range(rounds))
    return all(primes._miller_rabin_round(candidate, w, odd_part,
                                          power_of_two)
               for w in witnesses)


def eager_generate_prime(bits, rng):
    while True:
        candidate = rng.random_odd_int(bits)
        for _ in range(4096):
            if eager_is_probable_prime(candidate, rng):
                return candidate
            candidate += 2
            if candidate.bit_length() != bits:
                break


def eager_generate_keypair(bits, rng, public_exponent=65537):
    half = bits // 2
    for _ in range(1000):
        p = eager_generate_prime(bits - half, rng)
        q = eager_generate_prime(half, rng)
        if p == q or (p * q).bit_length() != bits:
            continue
        try:
            d = pow(public_exponent, -1, (p - 1) * (q - 1))
        except ValueError:
            continue
        p, q = max(p, q), min(p, q)
        return rsa.RSAPrivateKey(
            n=p * q, e=public_exponent, d=d, p=p, q=q,
            d_p=d % (p - 1), d_q=d % (q - 1), q_inv=pow(q, -1, p))
    raise AssertionError("no key in 1000 attempts")


# -- the checks ---------------------------------------------------------------

@pytest.mark.parametrize("bits, seed", sorted(PINS))
def test_key_and_drbg_post_state_are_pinned(bits, seed):
    rng = HmacDrbg(seed)
    key = rsa.generate_keypair(bits, rng)
    assert digest(key, rng) == PINS[bits, seed]


@given(seed=st.binary(min_size=1, max_size=12),
       bits=st.sampled_from([192, 256]))
@settings(max_examples=30, deadline=None)
def test_deferred_search_equals_the_eager_search(seed, bits):
    rsa._KEYPAIRS.clear()
    assert generated(rsa.generate_keypair, bits, seed) \
        == generated(eager_generate_keypair, bits, seed)


def test_failed_deferred_round_replays_the_eager_attempt(monkeypatch):
    bits, seed = 256, b"forced-replay"
    unfaulted = rsa.generate_keypair(bits, HmacDrbg(seed))
    rsa._KEYPAIRS.clear()
    # Make the kept prime p a composite to every DRBG witness: it still
    # passes trial division and base 2, so the deferred search keeps it
    # until the modulus has full length, and only then sees it fail.
    target, honest_round = unfaulted.p, primes._miller_rabin_round

    def faulty_round(candidate, witness, odd_part, power_of_two):
        if candidate == target and witness != 2:
            return False
        return honest_round(candidate, witness, odd_part, power_of_two)

    replays = []
    eager_prime = rsa.generate_prime

    def counted_prime(prime_bits, rng):
        replays.append(prime_bits)
        return eager_prime(prime_bits, rng)

    monkeypatch.setattr(primes, "_miller_rabin_round", faulty_round)
    monkeypatch.setattr(rsa, "generate_prime", counted_prime)
    faulted = generated(rsa.generate_keypair, bits, seed)
    assert replays[:2] == [bits // 2, bits // 2]
    assert faulted == generated(eager_generate_keypair, bits, seed)
    assert target not in faulted[0]
