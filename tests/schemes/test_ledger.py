"""Tests for the exchange ledger CAMEO, PoM and HMA keep their moved
data in: random exchanges keep it a bijection, and its check catches
the three ways a hand-edited map can break one."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schemes.base import ExchangeLedger, InvariantViolation
from repro.sim.config import BLOCK_BYTES, SUBBLOCK_BYTES
from repro.xmem.address import AddressSpace

SPACE = AddressSpace(4 * BLOCK_BYTES, 12 * BLOCK_BYTES)


def fail(message):
    raise InvariantViolation(message)


def places(ledger, unit_bytes):
    """Where every unit of the flat space is: ``("nm", slot)`` or
    ``("fm", home)``."""
    total = SPACE.total_bytes // unit_bytes
    where = {unit: ("nm", slot) for slot, unit in enumerate(ledger.present)}
    for unit in range(total):
        if unit not in where:
            where[unit] = ("fm", ledger.home_of.get(unit, unit))
    return where


@pytest.mark.parametrize("unit_bytes", [SUBBLOCK_BYTES, BLOCK_BYTES],
                         ids=["line", "block"])
@pytest.mark.parametrize("direct", [True, False],
                         ids=["congruent", "associative"])
@settings(max_examples=40, deadline=None)
@given(moves=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
                      max_size=60))
def test_random_exchanges_keep_every_unit_in_one_place(unit_bytes, direct,
                                                       moves):
    ledger = ExchangeLedger(SPACE, unit_bytes)
    slots = SPACE.nm_bytes // unit_bytes
    total = SPACE.total_bytes // unit_bytes
    classes = slots if direct else None
    for unit_draw, slot_draw in moves:
        unit = unit_draw % total
        if unit in ledger.present:
            continue  # only a unit in FM can move in
        slot = unit % slots if direct else slot_draw % slots
        leaving = ledger.fm_offset(unit)
        assert ledger.exchange(slot, unit) == leaving
        assert ledger.present[slot] == unit
        assert not set(ledger.home_of) & set(ledger.present)
        where = places(ledger, unit_bytes)
        assert len(set(where.values())) == total  # no two units share one
        for level, index in where.values():
            assert level == "nm" or slots <= index < total
        ledger.check(fail, classes)
        for displaced, home in ledger.home_of.items():
            assert home != displaced  # a unit back home leaves the map
            assert ledger.fm_offset(displaced) == (
                home * unit_bytes - SPACE.nm_bytes)


def _displace_first_native(unit_bytes):
    """Slot 0's native unit moves to the FM home of unit ``slots``."""
    ledger = ExchangeLedger(SPACE, unit_bytes)
    slots = len(ledger.present)
    ledger.exchange(0, slots)
    return ledger, slots


@pytest.mark.parametrize("unit_bytes", [SUBBLOCK_BYTES, BLOCK_BYTES],
                         ids=["line", "block"])
def test_check_catches_two_units_sharing_a_home(unit_bytes):
    ledger, slots = _displace_first_native(unit_bytes)
    ledger.check(fail, slots)
    ledger.home_of[2 * slots] = slots  # unit 0 already lives there
    with pytest.raises(InvariantViolation, match="stores both"):
        ledger.check(fail, slots)
    with pytest.raises(InvariantViolation, match="stores both"):
        ledger.check(fail)


@pytest.mark.parametrize("unit_bytes", [SUBBLOCK_BYTES, BLOCK_BYTES],
                         ids=["line", "block"])
def test_check_catches_a_displaced_unit_that_is_also_resident(unit_bytes):
    ledger, slots = _displace_first_native(unit_bytes)
    ledger.home_of[slots] = 2 * slots  # unit ``slots`` sits in slot 0
    with pytest.raises(InvariantViolation, match="duplication"):
        ledger.check(fail, slots)
    with pytest.raises(InvariantViolation, match="duplication"):
        ledger.check(fail)


@pytest.mark.parametrize("unit_bytes", [SUBBLOCK_BYTES, BLOCK_BYTES],
                         ids=["line", "block"])
def test_check_catches_a_home_its_own_unit_never_left(unit_bytes):
    """The last unit's home entry points at a class-mate's home, whose
    own unit never left it: both live at one FM home, though no other
    displaced unit claims that home."""
    ledger = ExchangeLedger(SPACE, unit_bytes)
    slots = len(ledger.present)
    last = SPACE.total_bytes // unit_bytes - 1
    ledger.home_of[last] = last - slots
    with pytest.raises(InvariantViolation, match="never left"):
        ledger.check(fail, slots)
    with pytest.raises(InvariantViolation, match="never left"):
        ledger.check(fail)


def test_fm_offset_rejects_an_nm_home():
    ledger = ExchangeLedger(SPACE, BLOCK_BYTES)
    with pytest.raises(ValueError, match="NM home"):
        ledger.fm_offset(0)
