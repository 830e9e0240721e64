"""Functional end-to-end runs."""

import pytest

from repro.core.trace import Algorithm, Phase
from repro.usecases.runner import run_functional, synthetic_content
from repro.usecases.scenario import UseCase


def small_case(octets=2048, accesses=2, **kwargs):
    return UseCase(name="test case", content_octets=octets,
                   accesses=accesses, **kwargs)


def test_synthetic_content_properties():
    data = synthetic_content(1000)
    assert len(data) == 1000
    assert synthetic_content(1000) == data  # deterministic
    assert len(synthetic_content(0)) == 0
    assert len(set(synthetic_content(251))) == 251  # full texture


def test_run_covers_all_phases(ringtone_run_small):
    phases = {r.phase for r in ringtone_run_small.trace}
    assert phases == {Phase.REGISTRATION, Phase.ACQUISITION,
                      Phase.INSTALLATION, Phase.CONSUMPTION}


def test_paper_operation_structure(ringtone_run_small):
    """3 RSA private ops and 4 public ops at the terminal, total."""
    totals = ringtone_run_small.trace.totals_by_algorithm()
    assert totals[Algorithm.RSA_PRIVATE] == (3, 3)
    assert totals[Algorithm.RSA_PUBLIC] == (4, 4)


def test_consumption_repeats_per_access(ringtone_run_small):
    consumption = ringtone_run_small.trace.filter(phase=Phase.CONSUMPTION)
    decrypts = [r for r in consumption if r.label == "content-decrypt"]
    assert len(decrypts) == ringtone_run_small.use_case.accesses


def test_sizes_recorded(ringtone_run_small):
    sizes = ringtone_run_small.sizes
    assert sizes["encrypted_payload"] == (4096 // 16 + 1) * 16
    assert sizes["dcf"] > sizes["encrypted_payload"]
    assert sizes["ro_payload"] > 100
    assert len(ringtone_run_small.dcf.to_bytes()) == sizes["dcf"]


def test_consume_times_override():
    run = run_functional(small_case(accesses=5), seed="ct",
                         consume_times=1)
    consumption = run.trace.filter(phase=Phase.CONSUMPTION)
    decrypts = [r for r in consumption if r.label == "content-decrypt"]
    assert len(decrypts) == 1


def test_domain_use_case_runs():
    run = run_functional(small_case(domain=True), seed="dom")
    # Domain flow: register sign + join sign + join KEM-decrypt +
    # acquire sign = 4 private ops; installation needs no RSADP because
    # the Domain RO keys unwrap under the symmetric domain key.
    totals = run.trace.totals_by_algorithm()
    private_invocations = totals[Algorithm.RSA_PRIVATE][0]
    assert private_invocations == 4
    # The mandatory Domain-RO signature adds a 5th public-key operation.
    assert totals[Algorithm.RSA_PUBLIC][0] == 6


def test_rights_exhaust_exactly_at_accesses():
    from repro.drm.errors import PermissionDeniedError
    run = run_functional(small_case(accesses=2), seed="exhaust")
    with pytest.raises(PermissionDeniedError):
        run.world.agent.consume("cid:test-case")


def test_run_is_deterministic():
    a = run_functional(small_case(), seed="det")
    b = run_functional(small_case(), seed="det")
    assert a.trace.canonical() == b.trace.canonical()
    assert a.sizes == b.sizes
