"""The metering provider: every primitive records the right work."""

import pytest

from repro.core.costs import CostOptions
from repro.core.meter import MeteredCrypto, PlainCrypto, units_128
from repro.core.trace import Algorithm, Phase
from repro.crypto.rng import HmacDrbg
from repro.crypto.rsa import generate_keypair


@pytest.fixture()
def meter():
    return MeteredCrypto(HmacDrbg(b"meter-tests"))


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(1024, HmacDrbg(b"meter-keys"))


def only_record(meter):
    assert len(meter.trace) == 1
    return meter.trace.records[0]


def test_units_128():
    assert units_128(0) == 0
    assert units_128(1) == 1
    assert units_128(16) == 1
    assert units_128(17) == 2
    assert units_128(30720) == 1920
    with pytest.raises(ValueError):
        units_128(-1)


def test_sha1_metering(meter):
    meter.sha1(b"x" * 100, label="t")
    rec = only_record(meter)
    assert rec.algorithm is Algorithm.SHA1
    assert rec.invocations == 1
    assert rec.blocks == 7  # ceil(100/16)
    assert rec.label == "t"


def test_hmac_metering(meter):
    meter.hmac_sha1(b"k", b"x" * 32)
    rec = only_record(meter)
    assert rec.algorithm is Algorithm.HMAC_SHA1
    assert (rec.invocations, rec.blocks) == (1, 2)


def test_hmac_verify_metering(meter):
    tag = PlainCrypto(HmacDrbg(b"p")).hmac_sha1(b"k", b"data")
    assert meter.hmac_verify(b"k", b"data", tag)
    assert only_record(meter).algorithm is Algorithm.HMAC_SHA1


def test_cbc_encrypt_metering_counts_padded_blocks(meter):
    meter.aes_cbc_encrypt(b"k" * 16, b"i" * 16, b"x" * 16)
    rec = only_record(meter)
    assert rec.algorithm is Algorithm.AES_ENCRYPT
    assert (rec.invocations, rec.blocks) == (1, 2)  # 16B -> 32B padded


def test_cbc_decrypt_metering(meter):
    ct = PlainCrypto(HmacDrbg(b"p")).aes_cbc_encrypt(b"k" * 16, b"i" * 16,
                                                     b"x" * 100)
    meter.aes_cbc_decrypt(b"k" * 16, b"i" * 16, ct)
    rec = only_record(meter)
    assert rec.algorithm is Algorithm.AES_DECRYPT
    assert (rec.invocations, rec.blocks) == (1, len(ct) // 16)


def test_wrap_metering_is_6n(meter):
    meter.aes_wrap(b"k" * 16, b"d" * 32)  # n = 4 registers
    rec = only_record(meter)
    assert rec.algorithm is Algorithm.AES_ENCRYPT
    assert (rec.invocations, rec.blocks) == (24, 24)


def test_unwrap_metering_is_6n(meter):
    wrapped = PlainCrypto(HmacDrbg(b"p")).aes_wrap(b"k" * 16,
                                                   b"d" * 16)  # n = 2
    meter.aes_unwrap(b"k" * 16, wrapped)
    rec = only_record(meter)
    assert rec.algorithm is Algorithm.AES_DECRYPT
    assert (rec.invocations, rec.blocks) == (12, 12)


def test_pss_sign_metering_paper_approximation(meter, keypair):
    meter.pss_sign(keypair, b"m" * 1600)
    records = meter.trace.records
    assert [r.algorithm for r in records] \
        == [Algorithm.SHA1, Algorithm.RSA_PRIVATE]
    assert records[0].blocks == 100  # the message hash
    assert records[1].blocks == 1


def test_pss_verify_metering(meter, keypair):
    signature = PlainCrypto(HmacDrbg(b"s")).pss_sign(keypair, b"m")
    meter.pss_verify(keypair.public_key, b"m", signature)
    algorithms = [r.algorithm for r in meter.trace.records]
    assert algorithms == [Algorithm.SHA1, Algorithm.RSA_PUBLIC]


def test_pss_mgf1_option_adds_fixed_hashes(keypair):
    meter = MeteredCrypto(HmacDrbg(b"m"),
                          options=CostOptions(count_mgf1=True))
    meter.pss_sign(keypair, b"m")
    algorithms = [r.algorithm for r in meter.trace.records]
    # message hash, M' hash, MGF1 hashes, RSA private.
    assert algorithms == [Algorithm.SHA1, Algorithm.SHA1, Algorithm.SHA1,
                          Algorithm.RSA_PRIVATE]
    mgf1 = meter.trace.records[2]
    assert mgf1.invocations == 6  # 107-octet mask over SHA-1


def test_kem_encrypt_metering(meter, keypair):
    meter.kem_encrypt(keypair.public_key, b"M" * 32)
    by_algorithm = meter.trace.totals_by_algorithm()
    assert by_algorithm[Algorithm.RSA_PUBLIC] == (1, 1)
    assert by_algorithm[Algorithm.AES_ENCRYPT] == (24, 24)
    # KDF2: one hash over Z(128) + counter(4) = 9 blocks.
    assert by_algorithm[Algorithm.SHA1] == (1, 9)


def test_kem_decrypt_metering(meter, keypair):
    ciphertext = PlainCrypto(HmacDrbg(b"e")).kem_encrypt(
        keypair.public_key, b"M" * 32)
    meter.kem_decrypt(keypair, ciphertext)
    by_algorithm = meter.trace.totals_by_algorithm()
    assert by_algorithm[Algorithm.RSA_PRIVATE] == (1, 1)
    assert by_algorithm[Algorithm.AES_DECRYPT] == (24, 24)


def test_phase_tagging(meter):
    meter.sha1(b"outside")
    with meter.in_phase(Phase.CONSUMPTION):
        meter.sha1(b"inside")
        with meter.in_phase(Phase.INSTALLATION):
            meter.sha1(b"nested")
        meter.sha1(b"back")
    phases = [r.phase for r in meter.trace.records]
    assert phases == [Phase.REGISTRATION, Phase.CONSUMPTION,
                      Phase.INSTALLATION, Phase.CONSUMPTION]


def test_phase_restored_on_exception(meter):
    with pytest.raises(RuntimeError):
        with meter.in_phase(Phase.CONSUMPTION):
            raise RuntimeError("boom")
    meter.sha1(b"after")
    assert meter.trace.records[-1].phase is Phase.REGISTRATION


def test_reset_trace(meter):
    meter.sha1(b"one")
    first = meter.reset_trace()
    meter.sha1(b"two")
    assert len(first) == 1
    assert len(meter.trace) == 1


def test_random_bytes_not_metered(meter):
    meter.random_bytes(64)
    assert len(meter.trace) == 0


def test_plain_crypto_in_phase_is_noop():
    plain = PlainCrypto(HmacDrbg(b"p"))
    with plain.in_phase(Phase.CONSUMPTION) as inner:
        assert inner is plain


def test_metered_results_match_plain(keypair):
    """Metering must never change functional results."""
    plain = PlainCrypto(HmacDrbg(b"same"))
    metered = MeteredCrypto(HmacDrbg(b"same"))
    assert plain.sha1(b"x") == metered.sha1(b"x")
    assert plain.hmac_sha1(b"k", b"x") == metered.hmac_sha1(b"k", b"x")
    assert plain.aes_cbc_encrypt(b"k" * 16, b"i" * 16, b"pt") \
        == metered.aes_cbc_encrypt(b"k" * 16, b"i" * 16, b"pt")
    assert plain.aes_wrap(b"k" * 16, b"d" * 16) \
        == metered.aes_wrap(b"k" * 16, b"d" * 16)
    assert plain.pss_sign(keypair, b"m") == metered.pss_sign(keypair,
                                                             b"m")
