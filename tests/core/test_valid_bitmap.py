"""``PNWStore._set_valid_many`` against the per-word loop it replaced.

The batch bitmap update is one vectorized read-modify-write of the
touched flag words (and, below its cutoff, the scalar setter per
address).  The loop it replaced — fetch a word, flip its addresses' bits
one by one, program the word — is written out here as the oracle and
driven in lockstep on a twin store: bitmap bytes after every call, and
from the cutoff up the flag region's wear accounting too (one write per
touched word per call, same cells, same order).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PNWConfig, PNWStore
from repro.core.store import _VECTOR_FLAGS_MIN

ZONES = [1, 31, 32, 33, 100, 257, 4096]
SIZES = [1, 3, 4, 5, 32, 200]
BACKINGS = ["private", "dram-mirror"]


def word_loop_set_valid_many(store: PNWStore, addresses, valid: bool) -> None:
    """The oracle: ``_set_valid_many`` as it was before vectorization."""
    addresses = np.asarray(addresses, dtype=np.int64)
    if store._valid_dram is not None:
        for address in addresses:
            store._valid_dram[address] = valid
            store.memory.dram.write(1)
        return
    word_ids, bits = np.divmod(addresses, 32)
    for word_id in np.unique(word_ids):
        word = store.flags_nvm.peek(int(word_id))
        for bit in bits[word_ids == word_id]:
            byte_id, bit_in_byte = divmod(int(bit), 8)
            if valid:
                word[byte_id] |= 1 << bit_in_byte
            else:
                word[byte_id] &= ~(1 << bit_in_byte) & 0xFF
        store.flags_nvm.write(int(word_id), word)


class StorePair:
    """Two empty stores on one config: ``subject`` takes the real calls,
    ``oracle`` the word loop."""

    def __init__(self, num_buckets: int, backing: str) -> None:
        config = PNWConfig(
            num_buckets=num_buckets, value_bytes=24, key_bytes=8,
            n_clusters=1, seed=7, persist_flags=backing != "dram-mirror",
        )
        self.subject = PNWStore(config)
        self.oracle = PNWStore(config)


@pytest.fixture
def pair(request):
    num_buckets, backing = request.param
    return StorePair(num_buckets, backing)


def address_sets(num_buckets: int, sizes: list[int]):
    """``(addresses, valid)`` calls: every size three times over, sets
    and clears alternating, each set of two or more carrying at least
    one duplicated address."""
    rng = np.random.default_rng(num_buckets)
    valid = True
    for _round in range(3):
        for size in sizes:
            addresses = rng.integers(0, num_buckets, size=size)
            if size > 1:
                addresses[-1] = addresses[0]
            yield addresses, valid
            valid = not valid


def bitmap_state(store: PNWStore):
    if store._valid_dram is not None:
        return store._valid_dram.copy()
    return store.flags_nvm.snapshot()


ALL = [(n, b) for n in ZONES for b in BACKINGS]
IDS = [f"{n}-{b}" for n, b in ALL]


@pytest.mark.parametrize("pair", ALL, ids=IDS, indirect=True)
def test_bitmap_bytes_match_the_word_loop_after_every_call(pair):
    subject, oracle = pair.subject, pair.oracle
    num_buckets = subject.config.num_buckets
    for addresses, valid in address_sets(num_buckets, SIZES):
        subject._set_valid_many(addresses, valid)
        word_loop_set_valid_many(oracle, addresses, valid)
        assert np.array_equal(bitmap_state(subject), bitmap_state(oracle))
        mask = subject._valid_mask()
        assert mask.tolist() == [
            subject._is_valid(a) for a in range(num_buckets)
        ]
        assert mask[addresses].all() if valid else not mask[addresses].any()
    dram = subject.memory.dram, oracle.memory.dram
    assert dram[0].write_ops == dram[1].write_ops
    assert dram[0].bytes_written == dram[1].bytes_written


@pytest.mark.parametrize(
    "pair", [(n, b) for n, b in ALL if b != "dram-mirror"],
    ids=[i for i in IDS if "dram" not in i], indirect=True,
)
def test_flag_wear_accounting_matches_the_word_loop_from_the_cutoff_up(pair):
    subject, oracle = pair.subject, pair.oracle
    sizes = [size for size in SIZES if size >= _VECTOR_FLAGS_MIN]
    assert sizes == [4, 5, 32, 200]
    for addresses, valid in address_sets(subject.config.num_buckets, sizes):
        subject._set_valid_many(addresses, valid)
        word_loop_set_valid_many(oracle, addresses, valid)
        assert (
            subject.flags_nvm.stats.summary() == oracle.flags_nvm.stats.summary()
        )
        assert np.array_equal(
            subject.flags_nvm.stats.writes_per_address,
            oracle.flags_nvm.stats.writes_per_address,
        )
    assert np.array_equal(bitmap_state(subject), bitmap_state(oracle))


def test_short_calls_cost_what_the_scalar_setter_costs():
    """Below the cutoff every address is one scalar flag write — the
    sequential path's count, which batching may only ever lower."""
    store = PNWStore(PNWConfig(num_buckets=64, value_bytes=24, key_bytes=8,
                               n_clusters=1, seed=7))
    store._set_valid_many(np.array([3, 4, 40]), True)
    assert store.flags_nvm.stats.total_writes == 3
    assert np.flatnonzero(store._valid_mask()).tolist() == [3, 4, 40]
    store._set_valid_many(np.array([], dtype=np.int64), False)
    assert store.flags_nvm.stats.total_writes == 3
