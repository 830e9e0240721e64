"""Use-case descriptions and the paper catalog."""

import pytest

from repro.drm.rel import PermissionType, unlimited
from repro.usecases.catalog import (MUSIC_ACCESSES, MUSIC_CONTENT_OCTETS,
                                    RINGTONE_ACCESSES,
                                    RINGTONE_CONTENT_OCTETS, music_player,
                                    ringtone)
from repro.usecases.scenario import KIB, MIB, UseCase


def test_paper_parameters():
    """The §4 workload definitions, verbatim."""
    assert MUSIC_CONTENT_OCTETS == int(3.5 * MIB)
    assert MUSIC_ACCESSES == 5
    assert RINGTONE_CONTENT_OCTETS == 30 * KIB
    assert RINGTONE_ACCESSES == 25


def test_catalog_factories():
    music = music_player()
    ring = ringtone()
    assert music.content_octets == MUSIC_CONTENT_OCTETS
    assert music.accesses == 5
    assert ring.content_octets == RINGTONE_CONTENT_OCTETS
    assert ring.accesses == 25
    assert not music.domain and not ring.domain


def test_default_rights_match_accesses():
    uc = UseCase(name="t", content_octets=100, accesses=7)
    rights = uc.effective_rights()
    permission = rights.find(PermissionType.PLAY)
    assert permission.constraints[0].count == 7


def test_explicit_rights_pass_through():
    uc = UseCase(name="t", content_octets=100, accesses=7,
                 rights=unlimited())
    assert uc.effective_rights() is uc.rights


def test_scaled_copy():
    uc = music_player()
    small = uc.scaled(1024)
    assert small.content_octets == 1024
    assert small.accesses == uc.accesses
    assert small.name == uc.name
    smaller = uc.scaled(1024, accesses=1)
    assert smaller.accesses == 1


def test_validation():
    with pytest.raises(ValueError):
        UseCase(name="t", content_octets=0, accesses=1)
    with pytest.raises(ValueError):
        UseCase(name="t", content_octets=10, accesses=-1)
