"""Tests for the DRAM hash index and the NVM path-hashing index."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, KeyNotFoundError
from repro.index import DRAMHashIndex, PathHashingIndex, stable_hash64


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64(b"hello") == stable_hash64(b"hello")

    def test_seed_gives_independent_functions(self):
        assert stable_hash64(b"hello", seed=1) != stable_hash64(b"hello", seed=2)

    def test_different_keys_differ(self):
        assert stable_hash64(b"a") != stable_hash64(b"b")

    def test_64_bit_range(self):
        for key in (b"", b"x", b"y" * 100):
            assert 0 <= stable_hash64(key) < 2**64


@pytest.fixture(params=["dram", "path"])
def index(request):
    if request.param == "dram":
        return DRAMHashIndex(key_bytes=8)
    return PathHashingIndex(key_bytes=8, levels_exponent=8, reserved_levels=4)


class TestIndexContract:
    """Behaviour both index placements must share."""

    def test_put_get(self, index):
        index.put(b"alpha", 42)
        assert index.get(b"alpha") == 42

    def test_update_existing(self, index):
        index.put(b"alpha", 1)
        index.put(b"alpha", 2)
        assert index.get(b"alpha") == 2
        assert len(index) == 1

    def test_missing_key_raises(self, index):
        with pytest.raises(KeyNotFoundError):
            index.get(b"ghost")
        with pytest.raises(KeyNotFoundError):
            index.delete(b"ghost")

    def test_delete_then_get_raises(self, index):
        index.put(b"alpha", 42)
        assert index.delete(b"alpha") == 42
        with pytest.raises(KeyNotFoundError):
            index.get(b"alpha")
        assert len(index) == 0

    def test_contains(self, index):
        assert b"k" not in index
        index.put(b"k", 5)
        assert b"k" in index

    def test_key_padding_is_canonical(self, index):
        index.put(b"ab", 7)
        assert index.get(b"ab\x00\x00\x00\x00\x00\x00") == 7

    def test_oversized_key_rejected(self, index):
        with pytest.raises(ValueError, match="exceeds"):
            index.put(b"123456789", 1)

    def test_many_keys(self, index):
        for i in range(100):
            index.put(f"k{i}".encode(), i)
        for i in range(100):
            assert index.get(f"k{i}".encode()) == i
        assert len(index) == 100

@pytest.mark.parametrize("make_index", [
    lambda: DRAMHashIndex(key_bytes=8),
    lambda: PathHashingIndex(key_bytes=8, levels_exponent=10, reserved_levels=4),
], ids=["dram", "path"])
@given(ops=st.lists(
    st.tuples(st.binary(min_size=1, max_size=8),
              st.integers(min_value=0, max_value=2**32)),
    max_size=40,
))
@settings(max_examples=25, deadline=None)
def test_model_based_against_dict(make_index, ops):
    """Both index placements behave exactly like a dict under put/get."""
    index = make_index()
    reference: dict[bytes, int] = {}
    for key, addr in ops:
        padded = key.ljust(8, b"\x00")
        index.put(key, addr)
        reference[padded] = addr
    assert len(index) == len(reference)
    for padded, addr in reference.items():
        assert index.get(padded) == addr


class TestPathHashingSpecifics:
    def test_delete_costs_one_bit(self):
        index = PathHashingIndex(key_bytes=8, levels_exponent=6)
        index.put(b"victim", 9)
        before = index.nvm.stats.total_bit_updates
        index.delete(b"victim")
        assert index.nvm.stats.total_bit_updates - before == 1

    def test_capacity_covers_all_levels(self):
        index = PathHashingIndex(key_bytes=8, levels_exponent=4, reserved_levels=3)
        assert index.capacity == 16 + 8 + 4

    def test_collisions_absorbed_by_lower_levels(self):
        # Tiny top level forces path descents.
        index = PathHashingIndex(key_bytes=8, levels_exponent=3, reserved_levels=4)
        inserted = 0
        try:
            for i in range(index.capacity):
                index.put(f"k{i}".encode(), i)
                inserted += 1
        except CapacityError:
            pass
        # A two-choice, multi-level scheme should pack well past the top level.
        assert inserted > 8
        for i in range(inserted):
            assert index.get(f"k{i}".encode()) == i

    def test_full_paths_raise_capacity_error(self):
        index = PathHashingIndex(key_bytes=8, levels_exponent=1, reserved_levels=1)
        with pytest.raises(CapacityError):
            for i in range(10):
                index.put(f"k{i}".encode(), i)

    def test_load_fraction(self):
        index = PathHashingIndex(key_bytes=8, levels_exponent=6)
        assert index.load == 0.0
        index.put(b"a", 1)
        assert index.load > 0.0

    def test_writes_are_accounted(self):
        index = PathHashingIndex(key_bytes=8, levels_exponent=6)
        index.put(b"a", 1)
        assert index.nvm.stats.total_writes == 1
        assert index.nvm.stats.total_bit_updates > 0

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PathHashingIndex(key_bytes=8, levels_exponent=0)
        with pytest.raises(ValueError):
            PathHashingIndex(key_bytes=8, levels_exponent=4, reserved_levels=9)
        with pytest.raises(ValueError):
            PathHashingIndex(key_bytes=0)

    def test_reinsert_after_delete_reuses_slot(self):
        index = PathHashingIndex(key_bytes=8, levels_exponent=6)
        index.put(b"a", 1)
        index.delete(b"a")
        index.put(b"a", 2)
        assert index.get(b"a") == 2
        assert len(index) == 1


class TestDRAMHashSpecifics:
    def test_dram_traffic_accounted(self):
        from repro.nvm import DRAMRegion

        dram = DRAMRegion()
        index = DRAMHashIndex(key_bytes=8, dram=dram)
        index.put(b"a", 1)
        index.get(b"a")
        assert dram.write_ops == 1
        assert dram.read_ops == 1

    def test_items_iteration(self):
        index = DRAMHashIndex(key_bytes=8)
        index.put(b"a", 1)
        index.put(b"b", 2)
        assert dict(index.items()) == {
            b"a".ljust(8, b"\x00"): 1,
            b"b".ljust(8, b"\x00"): 2,
        }

    def test_put_many_equals_put_loop(self):
        from repro.nvm import DRAMRegion
        from repro.nvm.latency import LatencyModel

        rng = np.random.default_rng(4)
        keys = rng.integers(0, 256, size=(300, 8), dtype=np.uint8)
        keys[::3, 5:] = 0  # trailing NUL bytes are part of the key
        keys[7] = keys[2]  # a repeated key: the later address wins
        keys[11] = 0
        addresses = rng.permutation(1000)[:300].tolist()
        # A latency that is not a whole number shows any reordering of
        # the float total.
        latency = LatencyModel(line_write_ns=0.1 + 1e-9, line_read_ns=1.0)
        bulk = DRAMHashIndex(key_bytes=8, dram=DRAMRegion(latency=latency))
        loop = DRAMHashIndex(key_bytes=8, dram=DRAMRegion(latency=latency))
        for index in (bulk, loop):
            index.put(b"old", 5)
        bulk.put_many(keys, addresses)
        for key, address in zip(keys, addresses):
            loop.put(key.tobytes(), address)
        assert list(bulk.items()) == list(loop.items())
        assert len(bulk) == 1 + 300 - 1
        for name in ("bytes_written", "write_ops", "latency_ns"):
            assert getattr(bulk.dram, name) == getattr(loop.dram, name)
        assert bulk.peek(bytes(keys[11])) == addresses[11]
