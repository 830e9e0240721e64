"""The Table 1 cost database and linear cost arithmetic."""

import pytest

from repro.core.costs import (CostTable, HARDWARE_COSTS, Implementation,
                              LinearCost, PAPER_TABLE1, SOFTWARE_COSTS)
from repro.core.trace import Algorithm, OperationRecord, Phase


def test_linear_cost_formula():
    cost = LinearCost(offset_cycles=360, cycles_per_block=830)
    assert cost.cycles(0, 0) == 0
    assert cost.cycles(1, 0) == 360
    assert cost.cycles(1, 1) == 1190
    assert cost.cycles(2, 100) == 2 * 360 + 100 * 830


def test_linear_cost_rejects_negative():
    with pytest.raises(ValueError):
        LinearCost(10, 10).cycles(-1, 0)


def test_table1_software_values():
    assert SOFTWARE_COSTS[Algorithm.AES_ENCRYPT] == LinearCost(360, 830)
    assert SOFTWARE_COSTS[Algorithm.AES_DECRYPT] == LinearCost(950, 830)
    assert SOFTWARE_COSTS[Algorithm.SHA1] == LinearCost(0, 400)
    assert SOFTWARE_COSTS[Algorithm.HMAC_SHA1] == LinearCost(1200, 400)
    assert SOFTWARE_COSTS[Algorithm.RSA_PUBLIC].cycles_per_block \
        == 2_160_000
    assert SOFTWARE_COSTS[Algorithm.RSA_PRIVATE].cycles_per_block \
        == 37_740_000


def test_table1_hardware_values():
    assert HARDWARE_COSTS[Algorithm.AES_ENCRYPT] == LinearCost(0, 10)
    assert HARDWARE_COSTS[Algorithm.AES_DECRYPT] == LinearCost(10, 10)
    assert HARDWARE_COSTS[Algorithm.SHA1] == LinearCost(0, 20)
    assert HARDWARE_COSTS[Algorithm.HMAC_SHA1] == LinearCost(240, 20)
    assert HARDWARE_COSTS[Algorithm.RSA_PUBLIC].cycles_per_block == 10_000
    assert HARDWARE_COSTS[Algorithm.RSA_PRIVATE].cycles_per_block \
        == 260_000


def test_rsa_block_unit_is_1024_bits():
    for table in (SOFTWARE_COSTS, HARDWARE_COSTS):
        assert table[Algorithm.RSA_PUBLIC].block_bits == 1024
        assert table[Algorithm.RSA_PRIVATE].block_bits == 1024
        assert table[Algorithm.SHA1].block_bits == 128


def test_cost_lookup_and_pricing():
    record = OperationRecord(Algorithm.SHA1, Phase.CONSUMPTION,
                             invocations=1, blocks=1920)
    assert PAPER_TABLE1.cycles(record, Implementation.SOFTWARE) \
        == 1920 * 400
    assert PAPER_TABLE1.cycles(record, Implementation.HARDWARE) \
        == 1920 * 20


def test_unknown_implementation_rejected():
    with pytest.raises(KeyError):
        PAPER_TABLE1.cost(Algorithm.SHA1, "fpga")


def test_rows_cover_every_algorithm():
    rows = PAPER_TABLE1.rows()
    assert set(rows) == set(Algorithm)
    for sw, hw in rows.values():
        assert sw.cycles(1, 1) > hw.cycles(1, 1)  # hardware always wins


def test_custom_table_overrides():
    custom = CostTable(
        software=dict(SOFTWARE_COSTS),
        hardware={**HARDWARE_COSTS,
                  Algorithm.RSA_PRIVATE: LinearCost(0, 100_000,
                                                    block_bits=1024)},
    )
    record = OperationRecord(Algorithm.RSA_PRIVATE, Phase.REGISTRATION,
                             1, 1)
    assert custom.cycles(record, Implementation.HARDWARE) == 100_000
    assert PAPER_TABLE1.cycles(record, Implementation.HARDWARE) == 260_000


def test_private_public_ratio_sanity():
    """The ~17x CRT ratio that justifies the typo correction."""
    ratio = (SOFTWARE_COSTS[Algorithm.RSA_PRIVATE].cycles_per_block
             / SOFTWARE_COSTS[Algorithm.RSA_PUBLIC].cycles_per_block)
    assert 15 < ratio < 20


def test_override_replaces_one_entry():
    faster = PAPER_TABLE1.override(
        Algorithm.RSA_PRIVATE, Implementation.HARDWARE,
        LinearCost(0, 130_000, block_bits=1024))
    record = OperationRecord(Algorithm.RSA_PRIVATE, Phase.REGISTRATION,
                             1, 1)
    assert faster.cycles(record, Implementation.HARDWARE) == 130_000
    # The original table and the other entries are untouched.
    assert PAPER_TABLE1.cycles(record, Implementation.HARDWARE) \
        == 260_000
    other = OperationRecord(Algorithm.SHA1, Phase.CONSUMPTION, 1, 1)
    assert faster.cycles(other, Implementation.HARDWARE) \
        == PAPER_TABLE1.cycles(other, Implementation.HARDWARE)


def test_override_rejects_unknown_implementation():
    with pytest.raises(KeyError):
        PAPER_TABLE1.override(Algorithm.SHA1, "fpga", LinearCost(0, 1))
