"""Fleet engine: determinism contract, sharding invariance, aggregates."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.architecture import PAPER_PROFILES
from repro.usecases.fleet import (ACQUISITION_REQUESTS,
                                  REGISTRATION_REQUESTS, CostTemplates,
                                  FleetAccumulator, FleetConfig,
                                  ScenarioFamily, _run_shard,
                                  build_cost_templates, draw_device,
                                  run_fleet)

SEED = "test-fleet"
BITS = 512

ARCHES = tuple(profile.name for profile in PAPER_PROFILES)


def small_config(devices=600, **overrides):
    overrides.setdefault("shard_size", 100)
    overrides.setdefault("rsa_bits", BITS)
    return FleetConfig(devices=devices, seed=SEED, **overrides)


@pytest.fixture(scope="module")
def config():
    return small_config()


@pytest.fixture(scope="module")
def templates(config):
    return build_cost_templates(config)


@pytest.fixture(scope="module")
def serial_result(config, templates):
    return run_fleet(config, workers=1, templates=templates)


# -- configuration validation ------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        FleetConfig(devices=0)
    with pytest.raises(ValueError):
        FleetConfig(arrival_model="flash-crowd")
    with pytest.raises(ValueError):
        FleetConfig(lossy_fraction=1.5)
    with pytest.raises(ValueError):
        FleetConfig(loss_rate=1.0)
    with pytest.raises(ValueError):
        FleetConfig(max_attempts=0)
    with pytest.raises(ValueError):
        FleetConfig(shard_size=0)
    with pytest.raises(ValueError):
        ScenarioFamily("empty", 1.0, (), (1,))
    with pytest.raises(ValueError):
        ScenarioFamily("weightless", 0.0, (1024,), (1,))


def test_shard_decomposition_is_worker_independent():
    config = small_config(devices=250, shard_size=100)
    assert config.shards() == [(0, 100), (100, 100), (200, 50)]
    assert sum(count for _, count in config.shards()) == 250


def test_size_buckets_sorted_union(config):
    buckets = config.size_buckets()
    assert buckets == tuple(sorted(set(buckets)))
    for family in config.families:
        for size in family.content_octets_choices:
            assert size in buckets


# -- device draws ------------------------------------------------------------

def test_draws_are_deterministic(config):
    first = [draw_device(config, i) for i in range(50)]
    second = [draw_device(config, i) for i in range(50)]
    assert first == second


def test_draws_depend_on_seed_and_index(config):
    other = small_config()
    reseeded = FleetConfig(devices=other.devices, seed=SEED + "-b",
                           shard_size=other.shard_size,
                           rsa_bits=other.rsa_bits)
    assert draw_device(config, 7) != draw_device(reseeded, 7)
    assert draw_device(config, 7) != draw_device(config, 8)


def test_draw_fields_within_grids(config):
    families = {family.name: family for family in config.families}
    for index in range(200):
        draw = draw_device(config, index)
        family = families[draw.family]
        assert draw.content_octets in family.content_octets_choices
        assert draw.accesses in family.accesses_choices
        assert 0 <= draw.arrival_bin < config.arrival_bins
        assert 1 <= draw.registration_attempts <= config.max_attempts
        if not draw.lossy:
            assert draw.registration_attempts == 1
            assert draw.registered and draw.acquired
        if not draw.registered:
            assert draw.acquisition_attempts == 0
            assert not draw.acquired


def test_clean_fleet_never_retries(templates):
    config = small_config(devices=300, lossy_fraction=0.0)
    result = run_fleet(config, workers=1, templates=templates)
    acc = result.accumulator
    assert acc.retries == 0
    assert acc.failed_registrations == 0
    assert acc.failed_acquisitions == 0
    assert acc.requests == 300 * (REGISTRATION_REQUESTS
                                  + ACQUISITION_REQUESTS)
    assert result.retry_request_fraction() == 0.0


def test_peaked_arrivals_concentrate_mid_window(templates):
    uniform = run_fleet(small_config(devices=2000,
                                     arrival_model="uniform"),
                        workers=1, templates=templates)
    peaked = run_fleet(small_config(devices=2000,
                                    arrival_model="peaked"),
                      workers=1, templates=templates)
    assert peaked.peak_request_rate() > uniform.peak_request_rate()
    middle_bin, _ = peaked.accumulator.peak_request_bin()
    bins = peaked.config.arrival_bins
    assert bins // 4 <= middle_bin <= 3 * bins // 4


# -- templates ---------------------------------------------------------------

def test_templates_price_every_architecture_and_bucket(config, templates):
    for table in (templates.registration_cycles,
                  templates.acquisition_cycles,
                  templates.installation_cycles):
        assert set(table) == set(ARCHES)
        assert all(cycles > 0 for cycles in table.values())
    assert set(templates.access_cycles) == set(config.size_buckets())
    for per_arch in templates.access_cycles.values():
        assert set(per_arch) == set(ARCHES)
        # Hardware is never slower than software for the same access.
        assert per_arch["HW"] <= per_arch["SW"]
    assert templates.registration_octets > 0
    assert templates.acquisition_octets > 0


def test_access_cycles_increase_with_content_size(templates):
    sizes = sorted(templates.access_cycles)
    for arch in ARCHES:
        costs = [templates.access_cycles[size][arch] for size in sizes]
        assert costs == sorted(costs)
        assert costs[0] < costs[-1]


# -- sharding determinism contract -------------------------------------------

def test_shard_invariance_1_2_4_workers(config, templates,
                                        serial_result):
    for workers in (2, 4):
        sharded = run_fleet(config, workers=workers,
                            templates=templates)
        assert sharded.accumulator == serial_result.accumulator
        for theirs, ours in zip(
                sharded.architecture_summaries(),
                serial_result.architecture_summaries()):
            assert theirs.cycles == ours.cycles


def test_shard_size_does_not_change_results(config, templates,
                                            serial_result):
    rechunked = FleetConfig(devices=config.devices, seed=config.seed,
                            shard_size=37, rsa_bits=config.rsa_bits)
    result = run_fleet(rechunked, workers=3, templates=templates)
    assert result.accumulator == serial_result.accumulator


def test_run_shard_is_pure(config, templates):
    spec = (config, templates, 100, 50)
    assert _run_shard(spec) == _run_shard(spec)


def test_more_workers_than_shards(templates):
    config = small_config(devices=120, shard_size=100)
    result = run_fleet(config, workers=8, templates=templates)
    assert result.accumulator.devices == 120


def test_workers_must_be_positive(config, templates):
    with pytest.raises(ValueError):
        run_fleet(config, workers=0, templates=templates)


# -- aggregate consistency ---------------------------------------------------

def test_aggregates_match_per_device_recomputation(config, templates,
                                                  serial_result):
    acc = serial_result.accumulator
    assert acc.devices == config.devices
    assert sum(acc.family_devices.values()) == config.devices
    assert sum(acc.arrival_requests.values()) == acc.requests
    assert acc.octets.count == config.devices
    for arch in ARCHES:
        assert acc.cycles[arch].count == config.devices

    draws = [draw_device(config, i) for i in range(config.devices)]
    expected_requests = sum(
        d.registration_attempts * REGISTRATION_REQUESTS
        + (d.acquisition_attempts * ACQUISITION_REQUESTS
           if d.registered else 0)
        for d in draws)
    assert acc.requests == expected_requests
    assert acc.failed_registrations == sum(not d.registered
                                           for d in draws)
    assert acc.accesses == sum(d.accesses for d in draws if d.acquired)

    sw_total = sum(
        d.registration_attempts * templates.registration_cycles["SW"]
        + (d.acquisition_attempts * templates.acquisition_cycles["SW"]
           if d.registered else 0)
        + ((templates.installation_cycles["SW"]
            + d.accesses
            * templates.access_cycles[d.content_octets]["SW"])
           if d.acquired else 0)
        for d in draws)
    assert acc.cycles["SW"].summary().total == sw_total


def test_rate_summaries(serial_result):
    acc = serial_result.accumulator
    config = serial_result.config
    assert serial_result.mean_request_rate() == pytest.approx(
        acc.requests / config.window_seconds)
    assert (serial_result.peak_request_rate()
            >= serial_result.mean_request_rate())


# -- hypothesis: accumulator merge laws --------------------------------------

@st.composite
def accumulators(draw):
    """Small synthetic accumulators built through the real observe()."""
    config = small_config(devices=10_000)
    templates = _SYNTHETIC_TEMPLATES
    indices = draw(st.lists(
        st.integers(min_value=0, max_value=9_999), max_size=30))
    acc = FleetAccumulator()
    for index in indices:
        acc.observe(draw_device(config, index), config, templates)
    return acc


def _synthetic_templates():
    sizes = small_config().size_buckets()
    return CostTemplates(
        registration_cycles={a: 1000 + i for i, a in enumerate(ARCHES)},
        acquisition_cycles={a: 500 + i for i, a in enumerate(ARCHES)},
        installation_cycles={a: 200 + i for i, a in enumerate(ARCHES)},
        access_cycles={size: {a: size // 16 + i
                              for i, a in enumerate(ARCHES)}
                       for size in sizes},
        registration_octets=4000,
        acquisition_octets=2500,
    )


_SYNTHETIC_TEMPLATES = _synthetic_templates()


@given(a=accumulators(), b=accumulators())
@settings(max_examples=50, deadline=None)
def test_accumulator_merge_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@given(a=accumulators(), b=accumulators(), c=accumulators())
@settings(max_examples=50, deadline=None)
def test_accumulator_merge_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(a=accumulators())
@settings(max_examples=50, deadline=None)
def test_accumulator_merge_identity(a):
    empty = FleetAccumulator()
    assert a.merge(empty) == a
    assert empty.merge(a) == a


@given(seed=st.text(min_size=1, max_size=12),
       split=st.integers(min_value=0, max_value=40))
@settings(max_examples=25, deadline=None)
def test_any_split_point_merges_exactly(seed, split):
    """Property form of shard invariance: cut anywhere, merge, compare."""
    config = FleetConfig(devices=40, seed=seed, shard_size=40,
                         rsa_bits=BITS)
    templates = _SYNTHETIC_TEMPLATES
    whole = _run_shard((config, templates, 0, 40))
    left = _run_shard((config, templates, 0, split))
    right = _run_shard((config, templates, split, 40 - split))
    assert left.merge(right) == whole


# -- journaled storage and power-loss recovery -------------------------------

def test_crash_rate_requires_journaled_storage():
    with pytest.raises(ValueError):
        FleetConfig(devices=10, crash_rate=0.1)
    with pytest.raises(ValueError):
        FleetConfig(devices=10, journaled=True, crash_rate=1.5)


def test_journaled_fleet_preserves_the_draw_stream():
    """Turning journaling on reprices devices but redraws nothing."""
    volatile = small_config()
    journaled = small_config(journaled=True)
    for index in range(40):
        a = draw_device(volatile, index)
        b = draw_device(journaled, index)
        assert (a.family, a.content_octets, a.accesses, a.lossy,
                a.arrival_bin) == (b.family, b.content_octets,
                                   b.accesses, b.lossy, b.arrival_bin)
        assert not b.crashed  # no crash draws at crash_rate 0


def test_journaled_fleet_costs_strictly_more():
    base = run_fleet(small_config(), workers=1).accumulator
    durable = run_fleet(small_config(journaled=True),
                        workers=1).accumulator
    assert durable.requests == base.requests
    assert durable.accesses == base.accesses
    for arch in ARCHES:
        assert durable.cycles[arch].summary().total \
            > base.cycles[arch].summary().total


def test_crash_recovery_is_worker_and_shard_invariant():
    config = small_config(journaled=True, crash_rate=0.08)
    serial = run_fleet(config, workers=1).accumulator
    assert serial.recoveries > 0
    assert serial.recovery_records > 0
    for workers in (2, 4):
        assert run_fleet(config, workers=workers).accumulator == serial
    resharded = small_config(journaled=True, crash_rate=0.08,
                             shard_size=37)
    assert run_fleet(resharded, workers=3).accumulator == serial


def test_crashed_devices_pay_recovery_cycles():
    quiet = run_fleet(small_config(journaled=True),
                      workers=1).accumulator
    crashy = run_fleet(small_config(journaled=True, crash_rate=0.5),
                       workers=1).accumulator
    assert crashy.recoveries > quiet.recoveries == 0
    for arch in ARCHES:
        assert crashy.cycles[arch].summary().total \
            > quiet.cycles[arch].summary().total


# -- adversary fraction ------------------------------------------------------

def test_adversary_config_validation():
    with pytest.raises(ValueError):
        FleetConfig(devices=10, adversary_fraction=-0.1)
    with pytest.raises(ValueError):
        FleetConfig(devices=10, adversary_fraction=1.01)
    with pytest.raises(ValueError):
        FleetConfig(devices=10, breaker_cutoff=1)


def test_adversary_off_preserves_the_draw_stream():
    """adversary_fraction=0 must not consume any RNG draws: every
    device draw is identical to the pre-adversary engine's."""
    plain = small_config()
    gated = small_config(adversary_fraction=0.0)
    for index in range(60):
        assert draw_device(plain, index) == draw_device(gated, index)


def test_attacked_draws_are_cut_off_and_consistent():
    config = small_config(adversary_fraction=0.5)
    draws = [draw_device(config, index) for index in range(200)]
    attacked = [d for d in draws if d.attacked]
    assert 0 < len(attacked) < len(draws)
    for draw in attacked:
        # The breaker aborts the forged registration after the cut-off;
        # nothing downstream of registration can have happened.
        assert draw.registration_attempts == config.breaker_cutoff
        assert not draw.registered
        assert not draw.acquired and draw.acquisition_attempts == 0
        assert not draw.crashed


def test_attacked_devices_counted_and_shard_invariant():
    config = small_config(adversary_fraction=0.25)
    templates = build_cost_templates(config)
    serial = run_fleet(config, workers=1, templates=templates)
    sharded = run_fleet(config, workers=4, templates=templates)
    acc = serial.accumulator
    assert acc.attacked_devices > 0
    assert acc.failed_registrations >= acc.attacked_devices
    assert acc.metrics().counters["fleet.attacked_devices"] \
        == acc.attacked_devices
    assert sharded.accumulator.attacked_devices == acc.attacked_devices
    assert sharded.accumulator.requests == acc.requests
