"""REL: permissions, constraints and stateful consumption."""

import pytest

from repro.drm.errors import PermissionDeniedError
from repro.drm.rel import (CountConstraint, DatetimeConstraint,
                           IntervalConstraint, Permission, PermissionType,
                           Rights, RightsEvaluator, RightsState,
                           constraint_from_dict, play_count, unlimited)

NOW = 1_100_000_000


def make_evaluator(*permissions):
    return RightsEvaluator(Rights(permissions=tuple(permissions)))


def test_unlimited_play():
    evaluator = RightsEvaluator(unlimited())
    state = evaluator.initial_state()
    for _ in range(100):
        evaluator.consume(PermissionType.PLAY, state, NOW)


def test_missing_permission_denied():
    evaluator = RightsEvaluator(unlimited(PermissionType.DISPLAY))
    state = evaluator.initial_state()
    with pytest.raises(PermissionDeniedError):
        evaluator.check(PermissionType.PLAY, state, NOW)


def test_count_constraint_exhausts():
    evaluator = RightsEvaluator(play_count(3))
    state = evaluator.initial_state()
    assert state.remaining_counts[PermissionType.PLAY] == 3
    for _ in range(3):
        evaluator.consume(PermissionType.PLAY, state, NOW)
    assert state.remaining_counts[PermissionType.PLAY] == 0
    with pytest.raises(PermissionDeniedError):
        evaluator.consume(PermissionType.PLAY, state, NOW)


def test_check_does_not_consume():
    evaluator = RightsEvaluator(play_count(1))
    state = evaluator.initial_state()
    evaluator.check(PermissionType.PLAY, state, NOW)
    evaluator.check(PermissionType.PLAY, state, NOW)
    assert state.remaining_counts[PermissionType.PLAY] == 1


def test_datetime_window():
    evaluator = make_evaluator(Permission(
        PermissionType.PLAY,
        (DatetimeConstraint(not_before=NOW, not_after=NOW + 100),),
    ))
    state = evaluator.initial_state()
    with pytest.raises(PermissionDeniedError):
        evaluator.check(PermissionType.PLAY, state, NOW - 1)
    evaluator.check(PermissionType.PLAY, state, NOW)
    evaluator.check(PermissionType.PLAY, state, NOW + 100)
    with pytest.raises(PermissionDeniedError):
        evaluator.check(PermissionType.PLAY, state, NOW + 101)


def test_datetime_open_ended():
    evaluator = make_evaluator(Permission(
        PermissionType.PLAY, (DatetimeConstraint(not_after=NOW + 10),),
    ))
    state = evaluator.initial_state()
    evaluator.check(PermissionType.PLAY, state, 0)  # no lower bound


def test_interval_starts_at_first_use():
    evaluator = make_evaluator(Permission(
        PermissionType.PLAY, (IntervalConstraint(duration=100),),
    ))
    state = evaluator.initial_state()
    # Before first use the interval has not started; any time is fine.
    evaluator.check(PermissionType.PLAY, state, NOW + 10 ** 6)
    evaluator.consume(PermissionType.PLAY, state, NOW)
    assert state.first_use[PermissionType.PLAY] == NOW
    evaluator.check(PermissionType.PLAY, state, NOW + 100)
    with pytest.raises(PermissionDeniedError):
        evaluator.check(PermissionType.PLAY, state, NOW + 101)


def test_first_use_not_overwritten():
    evaluator = make_evaluator(Permission(
        PermissionType.PLAY, (IntervalConstraint(duration=100),),
    ))
    state = evaluator.initial_state()
    evaluator.consume(PermissionType.PLAY, state, NOW)
    evaluator.consume(PermissionType.PLAY, state, NOW + 50)
    assert state.first_use[PermissionType.PLAY] == NOW


def test_combined_constraints_all_must_hold():
    evaluator = make_evaluator(Permission(
        PermissionType.PLAY,
        (CountConstraint(2), DatetimeConstraint(not_after=NOW + 10)),
    ))
    state = evaluator.initial_state()
    evaluator.consume(PermissionType.PLAY, state, NOW)
    with pytest.raises(PermissionDeniedError):
        evaluator.consume(PermissionType.PLAY, state, NOW + 11)
    evaluator.consume(PermissionType.PLAY, state, NOW + 5)
    with pytest.raises(PermissionDeniedError):
        evaluator.consume(PermissionType.PLAY, state, NOW + 6)


def test_multiple_permissions_independent_counts():
    evaluator = make_evaluator(
        Permission(PermissionType.PLAY, (CountConstraint(1),)),
        Permission(PermissionType.DISPLAY, (CountConstraint(2),)),
    )
    state = evaluator.initial_state()
    evaluator.consume(PermissionType.PLAY, state, NOW)
    evaluator.consume(PermissionType.DISPLAY, state, NOW)
    with pytest.raises(PermissionDeniedError):
        evaluator.consume(PermissionType.PLAY, state, NOW)
    evaluator.consume(PermissionType.DISPLAY, state, NOW)


def test_rights_to_bytes_deterministic_and_distinct():
    assert unlimited().to_bytes() == unlimited().to_bytes()
    assert play_count(5).to_bytes() != play_count(6).to_bytes()
    assert unlimited().to_bytes() != play_count(5).to_bytes()


@pytest.mark.parametrize("constraint", [
    CountConstraint(3), DatetimeConstraint(not_before=NOW, not_after=NOW + 9),
    IntervalConstraint(3600)], ids=["count", "datetime", "interval"])
def test_constraint_describe_round_trips(constraint):
    assert constraint_from_dict(constraint.describe()) == constraint


def test_rights_find():
    rights = unlimited(PermissionType.EXECUTE)
    assert rights.find(PermissionType.EXECUTE).type \
        is PermissionType.EXECUTE
    with pytest.raises(PermissionDeniedError):
        rights.find(PermissionType.PRINT)


def test_state_snapshot_is_independent():
    state = RightsState(remaining_counts={PermissionType.PLAY: 3})
    snapshot = state.snapshot()
    state.remaining_counts[PermissionType.PLAY] = 0
    assert snapshot.remaining_counts[PermissionType.PLAY] == 3
