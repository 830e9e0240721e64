"""Rights Object structures and their invariants."""

import pytest

from repro.crypto.kem import KemCiphertext
from repro.drm.rel import play_count
from repro.drm.ro import (InstalledRightsObject, ProtectedRightsObject,
                          RightsObject)


def make_ro(domain_id=None):
    return RightsObject.single(
        ro_id="ro:1", content_id="cid:1", rights_issuer_id="ri:x",
        rights=play_count(5), dcf_hash=b"h" * 20,
        wrapped_kcek=b"w" * 24, issued_at=1_100_000_000,
        domain_id=domain_id,
    )


def fake_kem():
    return KemCiphertext(c1=b"\x01" * 128, c2=b"\x02" * 40)


def test_payload_bytes_deterministic():
    assert make_ro().payload_bytes() == make_ro().payload_bytes()


def test_payload_bytes_cover_rights():
    a = make_ro()
    b = RightsObject.single(
        ro_id="ro:1", content_id="cid:1", rights_issuer_id="ri:x",
        rights=play_count(6), dcf_hash=b"h" * 20,
        wrapped_kcek=b"w" * 24, issued_at=1_100_000_000,
    )
    assert a.payload_bytes() != b.payload_bytes()


def test_is_domain_ro():
    assert not make_ro().is_domain_ro
    assert make_ro(domain_id="domain:d+000").is_domain_ro


def test_protected_ro_requires_exactly_one_key_channel():
    with pytest.raises(ValueError):
        ProtectedRightsObject(ro=make_ro(), mac=b"m" * 20)
    with pytest.raises(ValueError):
        ProtectedRightsObject(ro=make_ro(), mac=b"m" * 20,
                              kem_ciphertext=fake_kem(),
                              domain_wrapped_keys=b"d" * 40)


def test_domain_ro_requires_signature():
    with pytest.raises(ValueError):
        ProtectedRightsObject(ro=make_ro(domain_id="domain:d+000"),
                              mac=b"m" * 20,
                              domain_wrapped_keys=b"d" * 40)
    # With a signature it is accepted.
    ProtectedRightsObject(ro=make_ro(domain_id="domain:d+000"),
                          mac=b"m" * 20, domain_wrapped_keys=b"d" * 40,
                          signature=b"s" * 128)


def test_device_ro_signature_optional():
    ProtectedRightsObject(ro=make_ro(), mac=b"m" * 20,
                          kem_ciphertext=fake_kem())
    ProtectedRightsObject(ro=make_ro(), mac=b"m" * 20,
                          kem_ciphertext=fake_kem(), signature=b"s" * 128)


def test_protected_ro_transport_bytes():
    protected = ProtectedRightsObject(ro=make_ro(), mac=b"m" * 20,
                                      kem_ciphertext=fake_kem())
    blob = protected.to_bytes()
    assert blob == protected.to_bytes()
    assert make_ro().payload_bytes() in blob


def test_installed_ro_requires_exactly_one_key_form():
    with pytest.raises(ValueError):
        InstalledRightsObject(ro=make_ro(), c2dev=None, mac=b"m" * 20)
    with pytest.raises(ValueError):
        InstalledRightsObject(ro=make_ro(), c2dev=b"c" * 40,
                              mac=b"m" * 20, kem_ciphertext=fake_kem())


def test_installed_ro_accessors():
    installed = InstalledRightsObject(ro=make_ro(), c2dev=b"c" * 40,
                                      mac=b"m" * 20)
    assert installed.ro_id == "ro:1"
    assert installed.covers("cid:1")
