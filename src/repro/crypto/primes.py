"""Prime generation for RSA key material.

Miller–Rabin probabilistic primality testing with a small-prime sieve
front-end, driven by the deterministic DRBG so key generation is
reproducible. 40 Miller–Rabin rounds give an error probability below
2^-80, ample for a simulation (and in line with FIPS 186 guidance for
1024-bit primes).

The incremental search sieves each scan window before any candidate is
tested: the odd primes below a bound that grows with the candidate size
mark the window's composites, and :func:`is_probable_prime` runs, as
before, on every survivor only.

:func:`generate_prime_deferred` is the same search for a caller that may
throw the prime away (RSA key generation discards both primes of an
attempt whose modulus falls one bit short). Above the deterministic
bound it draws a candidate's 40 DRBG witnesses where
:func:`generate_prime` draws them, but leaves them untested;
:func:`witnesses_pass` runs them once the prime is kept. The two
searches return the same prime and leave the DRBG in the same state
unless a candidate above 3.3·10^24 is a composite that passes the base-2
round (a base-2 strong pseudoprime): the deferred search accepts it and
draws all 40 witnesses, where the eager one rejects it after fewer
draws. The sieve adds no such case below its 1000 trial-division primes;
above them, a base-2 strong pseudoprime with a sieving-prime factor is
skipped with no draw where the eager search would draw its witnesses.
"""

from functools import lru_cache
from typing import Tuple

from .rng import HmacDrbg

#: Primes below 1000, used to sieve candidates before Miller-Rabin.
_SMALL_PRIMES = []


def _build_small_primes(limit: int = 1000) -> list:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for n in range(2, int(limit ** 0.5) + 1):
        if sieve[n]:
            sieve[n * n::n] = bytearray(len(sieve[n * n::n]))
    return [n for n in range(limit + 1) if sieve[n]]


_SMALL_PRIMES = _build_small_primes()

#: Deterministic witnesses that make Miller-Rabin exact below 3.3 * 10^24.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981

#: Miller-Rabin rounds with DRBG witnesses above the deterministic bound.
_ROUNDS = 40

#: Candidates per scan window: a fresh draw after this many misses keeps
#: the search statistically close to uniform sampling.
_WINDOW = 4096


def _miller_rabin_round(candidate: int, witness: int,
                        odd_part: int, power_of_two: int) -> bool:
    """One Miller-Rabin round; True means 'probably prime so far'."""
    x = pow(witness, odd_part, candidate)
    if x in (1, candidate - 1):
        return True
    for _ in range(power_of_two - 1):
        x = (x * x) % candidate
        if x == candidate - 1:
            return True
    return False


def _split(candidate: int) -> Tuple[int, int]:
    """``(d, s)`` with ``candidate - 1 == d * 2**s`` and ``d`` odd."""
    odd_part = candidate - 1
    power_of_two = 0
    while odd_part % 2 == 0:
        odd_part //= 2
        power_of_two += 1
    return odd_part, power_of_two


def is_probable_prime(candidate: int, rng: HmacDrbg = None,
                      rounds: int = _ROUNDS) -> bool:
    """Miller-Rabin primality test.

    Small candidates use deterministic witnesses; large candidates use
    ``rounds`` random witnesses drawn from ``rng`` (a fixed witness set is
    used when no rng is supplied, which is fine for non-adversarial input).
    """
    if candidate < 2:
        return False
    for p in _SMALL_PRIMES:
        if candidate == p:
            return True
        if candidate % p == 0:
            return False

    odd_part, power_of_two = _split(candidate)

    if candidate < _DETERMINISTIC_BOUND:
        witnesses = iter(
            w for w in _DETERMINISTIC_WITNESSES if w < candidate - 1
        )
    else:
        # Base-2 pre-screen rejects almost every composite before any
        # random witness is drawn — witness generation through the DRBG
        # is far more expensive than one modular exponentiation.
        if not _miller_rabin_round(candidate, 2, odd_part, power_of_two):
            return False
        if rng is None:
            witnesses = iter(_DETERMINISTIC_WITNESSES[:rounds])
        else:
            witnesses = (
                rng.random_range(2, candidate - 1) for _ in range(rounds)
            )

    return all(
        _miller_rabin_round(candidate, w, odd_part, power_of_two)
        for w in witnesses
    )


@lru_cache(maxsize=None)
def _sieving_primes(bits: int) -> Tuple[int, ...]:
    """Odd primes that sieve a ``bits``-bit scan window.

    The bound grows with the square of the size, as the saved
    exponentiations do. Below the trial-division primes there is no
    sieve: it would only repeat the first loop of
    :func:`is_probable_prime`, and cost 64-bit keys ~8%.
    """
    bound = bits * bits // 16
    if bound <= _SMALL_PRIMES[-1]:
        return ()
    return tuple(_build_small_primes(bound)[1:])


def _window(start: int, bits: int):
    """Yield the candidates of the scan window from ``start`` upward.

    The window is ``start, start + 2, ...`` for at most :data:`_WINDOW`
    candidates, ending before the first one longer than ``bits`` bits;
    a candidate that a sieving prime divides is skipped.
    """
    count = min(_WINDOW, ((1 << bits) - start + 1) // 2)
    composite = bytearray(count)
    ones = b"\x01" * count
    for p in _sieving_primes(bits):
        # Index i of the first candidate start + 2i divisible by p.
        first = (-start % p) * ((p + 1) >> 1) % p
        composite[first::p] = ones[:(count - 1 - first) // p + 1]
    index = composite.find(0)
    while index >= 0:
        yield start + 2 * index
        index = composite.find(0, index + 1)


def generate_prime(bits: int, rng: HmacDrbg) -> int:
    """Generate a random probable prime with exactly ``bits`` bits.

    Draws one random odd starting point and scans upward in steps of two
    (the standard incremental search of FIPS 186 / OpenSSL): candidate
    density is unchanged while DRBG traffic drops from one draw per
    candidate to one draw per prime.
    """
    return _search(bits, rng, defer=False)[0]


def generate_prime_deferred(bits: int, rng: HmacDrbg
                            ) -> Tuple[int, Tuple[int, ...]]:
    """:func:`generate_prime` with its DRBG-witness rounds left untested.

    Returns ``(candidate, witnesses)``: the candidate passed trial
    division and the base-2 round, and ``witnesses`` are the DRBG
    witnesses drawn for it, which :func:`witnesses_pass` tests. Below the
    deterministic bound the witnesses are tested at once and ``witnesses``
    is empty. The module docstring names the one case where the result
    differs from :func:`generate_prime`'s.
    """
    return _search(bits, rng, defer=True)


def witnesses_pass(candidate: int, witnesses: Tuple[int, ...]) -> bool:
    """Run the deferred Miller-Rabin rounds of ``candidate``."""
    odd_part, power_of_two = _split(candidate)
    return all(
        _miller_rabin_round(candidate, w, odd_part, power_of_two)
        for w in witnesses
    )


def _search(bits: int, rng: HmacDrbg,
            defer: bool) -> Tuple[int, Tuple[int, ...]]:
    if bits < 8:
        raise ValueError("refusing to generate primes below 8 bits")
    while True:
        for candidate in _window(rng.random_odd_int(bits), bits):
            if not defer or candidate < _DETERMINISTIC_BOUND:
                if is_probable_prime(candidate, rng):
                    return candidate, ()
            elif all(candidate % p for p in _SMALL_PRIMES) \
                    and _miller_rabin_round(candidate, 2, *_split(candidate)):
                return candidate, tuple(
                    rng.random_range(2, candidate - 1)
                    for _ in range(_ROUNDS)
                )
