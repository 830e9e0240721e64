"""Multi-asset Rights Objects: one license over several content objects.

Paper §2.4.2: the RO "contains a list of Content Object IDs and their
respective usage permissions" — the album-license case.
"""

import pytest

from repro.drm.errors import (InstallationError, IntegrityError,
                              UnknownContentError)
from repro.drm.rel import play_count
from repro.drm.ro import Asset, RightsObject


def publish_album(world, tracks=3):
    dcfs = []
    grants = []
    for index in range(tracks):
        cid = "cid:track-%d" % index
        dcfs.append(world.ci.publish(
            cid, "audio/mpeg", b"tune-%d" % index * 100, "u"))
        grants.append(world.ci.negotiate_license(cid))
    world.ri.add_offer("ro:album", grants, play_count(100))
    return dcfs


def test_album_license_plays_every_track(fast_world):
    dcfs = publish_album(fast_world)
    fast_world.agent.register(fast_world.ri)
    protected = fast_world.agent.acquire(fast_world.ri, "ro:album")
    assert len(protected.ro.assets) == 3
    fast_world.agent.install(protected, dcfs)
    for index in range(3):
        result = fast_world.agent.consume("cid:track-%d" % index)
        assert result.clear_content == b"tune-%d" % index * 100


def test_album_share_one_count_pool(fast_world):
    """Count constraints are per-RO state: an album with play_count(2)
    allows two plays total across its tracks."""
    from repro.drm.errors import PermissionDeniedError
    dcfs = publish_album(fast_world)
    fast_world.agent.register(fast_world.ri)
    grants = [fast_world.ci.negotiate_license("cid:track-%d" % i)
              for i in range(3)]
    fast_world.ri.add_offer("ro:limited", grants, play_count(2))
    protected = fast_world.agent.acquire(fast_world.ri, "ro:limited")
    fast_world.agent.install(protected, dcfs)
    fast_world.agent.consume("cid:track-0")
    fast_world.agent.consume("cid:track-1")
    with pytest.raises(PermissionDeniedError):
        fast_world.agent.consume("cid:track-2")


def test_install_requires_all_dcfs(fast_world):
    dcfs = publish_album(fast_world)
    fast_world.agent.register(fast_world.ri)
    protected = fast_world.agent.acquire(fast_world.ri, "ro:album")
    with pytest.raises(InstallationError):
        fast_world.agent.install(protected, dcfs[:2])


def test_each_asset_has_its_own_kcek_wrap(fast_world):
    publish_album(fast_world)
    fast_world.agent.register(fast_world.ri)
    protected = fast_world.agent.acquire(fast_world.ri, "ro:album")
    wraps = {a.wrapped_kcek for a in protected.ro.assets}
    assert len(wraps) == 3
    hashes = {a.dcf_hash for a in protected.ro.assets}
    assert len(hashes) == 3


def test_per_asset_dcf_hash_verified(fast_world_factory):
    world = fast_world_factory(verify_dcf_on_install=True)
    dcfs = publish_album(world)
    world.agent.register(world.ri)
    protected = world.agent.acquire(world.ri, "ro:album")
    tampered = dcfs[:2] + [dcfs[2].with_tampered_payload()]
    with pytest.raises(IntegrityError):
        world.agent.install(protected, tampered)


def test_tampering_one_track_blocks_only_that_track(fast_world):
    dcfs = publish_album(fast_world)
    fast_world.agent.register(fast_world.ri)
    protected = fast_world.agent.acquire(fast_world.ri, "ro:album")
    fast_world.agent.install(protected, dcfs)
    fast_world.agent.storage.store_dcf(dcfs[1].with_tampered_payload())
    fast_world.agent.consume("cid:track-0")  # unaffected
    with pytest.raises(IntegrityError):
        fast_world.agent.consume("cid:track-1")
    fast_world.agent.consume("cid:track-2")  # unaffected


def test_rights_object_asset_api():
    ro = RightsObject(
        ro_id="ro:x", rights_issuer_id="ri:x", rights=play_count(1),
        assets=(Asset("cid:a", b"h" * 20, b"w" * 24),
                Asset("cid:b", b"g" * 20, b"v" * 24)),
        issued_at=0,
    )
    assert ro.covers("cid:a") and ro.covers("cid:b")
    assert not ro.covers("cid:c")
    assert ro.asset_for("cid:b").dcf_hash == b"g" * 20
    with pytest.raises(UnknownContentError):
        ro.asset_for("cid:c")


def test_empty_asset_list_rejected():
    with pytest.raises(ValueError):
        RightsObject(ro_id="ro:x", rights_issuer_id="ri:x",
                     rights=play_count(1), assets=(), issued_at=0)
