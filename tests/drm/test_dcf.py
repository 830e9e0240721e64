"""DCF packaging and canonical form."""

import pytest

from repro.core.meter import PlainCrypto
from repro.crypto.rng import HmacDrbg
from repro.drm.dcf import DCF, ENCRYPTION_METHOD, package_content


@pytest.fixture()
def crypto():
    return PlainCrypto(HmacDrbg(b"dcf-tests"))


@pytest.fixture()
def dcf(crypto):
    return package_content(
        content_id="cid:song", content_type="audio/mpeg",
        clear_content=b"la" * 500, kcek=b"k" * 16,
        rights_issuer_url="http://ri.example", crypto=crypto,
        metadata={"title": "Song"},
    )


def test_payload_is_encrypted(dcf):
    assert b"lala" not in dcf.encrypted_data
    assert dcf.encryption_method == ENCRYPTION_METHOD


def test_payload_decrypts(crypto, dcf):
    clear = crypto.aes_cbc_decrypt(b"k" * 16, dcf.iv, dcf.encrypted_data)
    assert clear == b"la" * 500


def test_payload_is_padded_block_multiple(dcf):
    assert len(dcf.encrypted_data) % 16 == 0


def test_canonical_bytes_deterministic(dcf):
    assert dcf.to_bytes() == dcf.to_bytes()


def test_canonical_bytes_cover_metadata(crypto):
    a = package_content("cid:x", "audio/mpeg", b"data", b"k" * 16,
                        "http://ri", crypto, metadata={"title": "A"})
    b = package_content("cid:x", "audio/mpeg", b"data", b"k" * 16,
                        "http://ri", crypto, metadata={"title": "B"})
    assert a.to_bytes() != b.to_bytes()


def test_tamper_helper_flips_one_payload_bit(dcf):
    tampered = dcf.with_tampered_payload()
    assert tampered.content_id == dcf.content_id
    assert tampered.encrypted_data != dcf.encrypted_data
    assert len(tampered.encrypted_data) == len(dcf.encrypted_data)
    diff = [i for i, (a, b) in enumerate(
        zip(dcf.encrypted_data, tampered.encrypted_data)) if a != b]
    assert len(diff) == 1


def test_fresh_iv_per_package(crypto):
    a = package_content("cid:x", "t", b"data", b"k" * 16, "u", crypto)
    b = package_content("cid:x", "t", b"data", b"k" * 16, "u", crypto)
    assert a.iv != b.iv
    assert a.encrypted_data != b.encrypted_data


def test_dcf_is_immutable(dcf):
    with pytest.raises(AttributeError):
        dcf.content_id = "cid:other"
