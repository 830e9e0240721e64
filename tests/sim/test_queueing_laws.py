"""The kernel validated against a century of queueing theory.

A discrete-event kernel is only trustworthy if it reproduces the
analytic behaviour of the systems it claims to simulate. This suite
holds two layers of agreement:

* **Exact sample-path identities.** Over a *drained* run on integer
  ticks, Little's law is not a limit theorem but an accounting
  identity: the integral of number-in-system equals the sum of sojourn
  times, bit-for-bit. Same for the queue (waits) and the server
  (service). These hold with ``==`` on integers — any discrepancy is a
  kernel bug, full stop.
* **Closed-form means within tolerance.** The M/M/1 and M/D/1 mean
  waits (Pollaczek-Khinchine) at fixed seeds and 30 000 jobs agree
  with theory to within 2 % — tight enough to catch a mis-ordered
  grant or a lost tick, loose enough to absorb finite-run noise at the
  pinned seeds.

Seeds and sizes are fixed, so every number here is reproducible to the
bit; the tolerances were chosen *after* observing the deviations at
these seeds (about 1 %), not tuned until green.
"""

import pytest

from repro.sim.queueing import (QueueObservation, deterministic_draw,
                                exponential_draw, exponential_ticks,
                                md1_mean_wait, mm1_mean_number,
                                mm1_mean_wait, offered_load,
                                simulate_queue)

#: Mean service demand in ticks — large enough that the integer
#: quantization of exponential draws is a <0.1 % effect.
MEAN_SERVICE = 1000

#: Jobs per measurement run: enough for ~1 % agreement with the
#: closed forms at the pinned seeds.
JOBS = 30_000

#: Relative tolerance for closed-form comparisons.
TOLERANCE = 0.02


def _mm1(seed: str, rho: float) -> QueueObservation:
    return simulate_queue(
        seed, JOBS,
        interarrival=exponential_draw(MEAN_SERVICE / rho),
        service=exponential_draw(MEAN_SERVICE))


def _md1(seed: str, rho: float) -> QueueObservation:
    return simulate_queue(
        seed, JOBS,
        interarrival=exponential_draw(MEAN_SERVICE / rho),
        service=deterministic_draw(MEAN_SERVICE))


@pytest.fixture(scope="module")
def mm1_obs():
    return _mm1("law-0", 0.6)


@pytest.fixture(scope="module")
def md1_obs():
    return _md1("law-0", 0.8)


# -- exact sample-path identities ------------------------------------------

def assert_littles_law_exact(obs: QueueObservation) -> None:
    """The drained-run identities, stated over exact integers."""
    assert obs.completed == obs.arrivals
    # System form: integral of N(t) == sum of sojourn times.
    assert obs.system_area == obs.sojourn.total
    # Queue form: integral of Nq(t) == sum of queue waits.
    assert obs.queue_area == obs.wait.total
    # Server form: busy time == total service demand.
    assert obs.busy_area == obs.service.total


def test_littles_law_is_exact_for_mm1(mm1_obs):
    assert_littles_law_exact(mm1_obs)


def test_littles_law_is_exact_for_md1(md1_obs):
    assert_littles_law_exact(md1_obs)


def test_littles_law_is_exact_for_multi_server():
    obs = simulate_queue(
        "law-multi", 5_000,
        interarrival=exponential_draw(MEAN_SERVICE / 1.5),
        service=exponential_draw(MEAN_SERVICE),
        capacity=2)
    assert_littles_law_exact(obs)


def test_l_equals_lambda_w(mm1_obs):
    # L = lambda * W follows from the exact identity; stated here in
    # the rate form an analyst would write down.
    lam = mm1_obs.arrival_rate()
    mean_sojourn = mm1_obs.sojourn.mean
    assert mm1_obs.mean_number_in_system() == \
        pytest.approx(lam * mean_sojourn, rel=1e-12)


def test_lq_equals_lambda_wq(mm1_obs):
    # The queue form: Lq = lambda * Wq, and L = Lq + utilization.
    lam = mm1_obs.arrival_rate()
    assert mm1_obs.mean_queue_depth() == \
        pytest.approx(lam * mm1_obs.wait.mean, rel=1e-12)
    assert mm1_obs.mean_number_in_system() == pytest.approx(
        mm1_obs.mean_queue_depth() + mm1_obs.utilization(), rel=1e-12)


# -- closed-form agreement -------------------------------------------------

def _relative_error(measured: float, expected: float) -> float:
    return abs(measured - expected) / expected


@pytest.mark.parametrize("seed", ["law-0", "law-1"])
def test_mm1_mean_wait_matches_pollaczek_khinchine(seed):
    rho = 0.6
    obs = _mm1(seed, rho)
    expected = mm1_mean_wait(rho / MEAN_SERVICE, 1.0 / MEAN_SERVICE)
    assert _relative_error(obs.wait.mean, expected) < TOLERANCE


@pytest.mark.parametrize("seed", ["law-0", "law-3"])
def test_md1_mean_wait_matches_pollaczek_khinchine(seed):
    rho = 0.8
    obs = _md1(seed, rho)
    expected = md1_mean_wait(rho / MEAN_SERVICE, 1.0 / MEAN_SERVICE)
    assert _relative_error(obs.wait.mean, expected) < TOLERANCE


def test_utilization_matches_offered_load(mm1_obs, md1_obs):
    assert _relative_error(mm1_obs.utilization(), 0.6) < TOLERANCE
    assert _relative_error(md1_obs.utilization(), 0.8) < TOLERANCE


def test_mm1_mean_number_in_system(mm1_obs):
    expected = mm1_mean_number(0.6 / MEAN_SERVICE, 1.0 / MEAN_SERVICE)
    assert _relative_error(mm1_obs.mean_number_in_system(),
                           expected) < 2 * TOLERANCE


def test_md1_waits_half_of_mm1():
    # The Pollaczek-Khinchine separation: zero service variance halves
    # the mean queue wait at every load.
    lam, mu = 0.8 / MEAN_SERVICE, 1.0 / MEAN_SERVICE
    assert md1_mean_wait(lam, mu) == \
        pytest.approx(mm1_mean_wait(lam, mu) / 2.0)


# -- plumbing validation ---------------------------------------------------

def test_closed_forms_reject_unstable_loads():
    for formula in (mm1_mean_wait, md1_mean_wait, mm1_mean_number):
        with pytest.raises(ValueError):
            formula(1.0, 1.0)


def test_offered_load_requires_positive_service_rate():
    with pytest.raises(ValueError):
        offered_load(1.0, 0.0)
    assert offered_load(3.0, 4.0) == 0.75


def test_exponential_ticks_validation_and_mean():
    from random import Random
    with pytest.raises(ValueError):
        exponential_ticks(Random(0), 0)
    rng = Random("law-mean")
    draws = [exponential_ticks(rng, MEAN_SERVICE) for _ in range(20_000)]
    assert _relative_error(sum(draws) / len(draws),
                           MEAN_SERVICE) < TOLERANCE


def test_deterministic_draw_validation():
    with pytest.raises(ValueError):
        deterministic_draw(-1)
    from random import Random
    assert deterministic_draw(7)(Random(0)) == 7


def test_bounded_queue_conserves_jobs():
    obs = simulate_queue(
        "law-bounded", 2_000,
        interarrival=exponential_draw(MEAN_SERVICE / 2.0),
        service=exponential_draw(MEAN_SERVICE),
        queue_limit=5)
    # Overloaded (rho = 2) with a short queue: some jobs are refused,
    # yet every arrival was drawn and counted.
    assert obs.arrivals == 2_000
    assert 0 < obs.completed < obs.arrivals
    # The queue identity still holds for the jobs that did wait.
    assert obs.queue_area == obs.wait.total


def test_simulate_queue_requires_jobs():
    with pytest.raises(ValueError):
        simulate_queue("law-empty", 0,
                       interarrival=exponential_draw(10),
                       service=exponential_draw(10))
