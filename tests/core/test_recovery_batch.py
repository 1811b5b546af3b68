"""Crash recovery around the batch write pipeline.

``recover()`` rebuilds the DRAM index, model, and pool purely from NVM
state (data zone + persistent validity bitmap).  The batch pipeline
orders a chunk's data writes *before* its flag-bit persistence, so a
crash inside ``put_many`` can only lose whole not-yet-flagged
operations — recovery always lands on a consistent prefix, never on a
bucket whose flag is set but whose data never arrived.

``TestMidBatchCrash`` also tears every mutation kind mid-write: the
power fails after ``N`` rows of the next device write (N = 0, 1, half,
all but the last), then ``crash()`` + ``recover()``.  Every key must come back with its
last acknowledged value or the in-flight one, and never go missing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PNWConfig, PNWStore
from repro.nvm.device import SimulatedNVM
from tests.conftest import clustered_values


def make_store(**overrides) -> PNWStore:
    base = dict(
        num_buckets=256,
        value_bytes=24,
        key_bytes=8,
        n_clusters=4,
        seed=7,
        n_init=1,
        max_iter=20,
    )
    base.update(overrides)
    config = PNWConfig(**base)
    rng = np.random.default_rng(42)
    store = PNWStore(config)
    store.warm_up(clustered_values(rng, config.num_buckets, config.value_bytes))
    return store


def batch_of(rng: np.random.Generator, n: int,
             prefix: str = "b") -> list[tuple[bytes, bytes]]:
    values = clustered_values(rng, n, 24, flip_rate=0.05)
    return [(f"{prefix}{i}".encode(), values[i].tobytes()) for i in range(n)]


class TestRecoveryAfterBatchPuts:
    def test_recover_rebuilds_index_model_pool(self):
        store = make_store()
        pairs = batch_of(np.random.default_rng(1), 100)
        store.put_many(pairs)
        expected = {key: store.get(key) for key, _ in pairs}
        addresses = {
            key: store.index.peek(key.ljust(8, b"\x00")) for key, _ in pairs
        }
        store.crash()
        assert len(store) == 0
        store.recover()
        assert len(store) == 100
        for key, value in expected.items():
            assert store.get(key) == value
        assert store.manager.is_trained
        assert store.pool.total_free == store.config.num_buckets - 100
        for address in addresses.values():
            assert address not in store.pool

    def test_recover_after_batch_updates_and_deletes(self):
        store = make_store()
        rng = np.random.default_rng(2)
        pairs = batch_of(rng, 80)
        store.put_many(pairs)
        new_values = clustered_values(rng, 40, 24, flip_rate=0.1)
        store.update_many(
            [(pairs[i][0], new_values[i].tobytes()) for i in range(40)]
        )
        store.delete_many([key for key, _ in pairs[60:]])
        expected = {key: store.get(key) for key, _ in pairs[:60]}
        store.crash()
        store.recover()
        assert len(store) == 60
        for key, value in expected.items():
            assert store.get(key) == value
        for key, _ in pairs[60:]:
            assert key not in store

    def test_recovered_store_keeps_serving_batches(self):
        store = make_store()
        store.put_many(batch_of(np.random.default_rng(3), 50))
        store.crash()
        store.recover()
        more = batch_of(np.random.default_rng(4), 50, prefix="post")
        store.put_many(more)
        assert len(store) == 100
        for key, value in more:
            assert store.get(key) == value


#: Rows of the torn write that land before the power fails.
TEAR_POINTS = {
    "0": lambda n: 0,
    "1": lambda n: min(1, n),
    "half": lambda n: n // 2,
    "last": lambda n: max(n - 1, 0),
}

#: The mutation under test; deletes tear the flag bitmap (they write no
#: data rows), every other kind tears the data zone.  ``upsert_many`` is
#: ``put_many`` over present keys — a tier flush — which runs as updates.
#: The single-op kinds take the device's one-row ``write``.
TORN_OPS = [
    "put_many", "upsert_many", "update_many", "delete_many",
    "put", "update", "delete",
]

#: ROADMAP item 1: an endurance UPDATE clears the old rows' flags before
#: it writes the new rows, so a tear anywhere in that write loses the key.
ENDURANCE_UPDATE_HOLE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: torn endurance update loses keys"
)
UPDATING_OPS = ("upsert_many", "update_many", "update")


def tear_next_write(monkeypatch, device: SimulatedNVM, rows_landed) -> None:
    """Power fails inside the next ``write``/``write_many`` on ``device``:
    the first ``rows_landed(n)`` of its ``n`` rows land, then it raises.
    Rows are atomic; nothing after the failure point reaches NVM."""
    write, write_many = device.write, device.write_many

    def torn_write_many(addresses, rows, scheme=None):
        landed = rows_landed(len(addresses))
        write_many(addresses[:landed], rows[:landed], scheme)
        raise RuntimeError("simulated power failure mid-write")

    def torn_write(address, row, scheme=None):
        if rows_landed(1):
            write(address, row, scheme)
        raise RuntimeError("simulated power failure mid-write")

    monkeypatch.setattr(device, "write_many", torn_write_many)
    monkeypatch.setattr(device, "write", torn_write)


def torn_cases():
    for mode in ("endurance", "latency"):
        for op in TORN_OPS:
            for point in TEAR_POINTS:
                marks = (
                    [ENDURANCE_UPDATE_HOLE]
                    if mode == "endurance" and op in UPDATING_OPS
                    else []
                )
                yield pytest.param(mode, op, point, marks=marks,
                                   id=f"{mode}-{op}-{point}")


class TestMidBatchCrash:
    @pytest.mark.parametrize("update_mode, op, point", torn_cases())
    def test_torn_write_keeps_acked_or_inflight_value(
        self, monkeypatch, update_mode, op, point
    ):
        store = make_store(update_mode=update_mode)
        rng = np.random.default_rng(11)
        acked = dict(batch_of(rng, 16, prefix="live"))
        bystanders = dict(batch_of(rng, 8, prefix="still"))
        store.put_many(list(acked.items()) + list(bystanders.items()))
        # Per key: (last acknowledged value, in-flight value); None is
        # "absent".
        expect = {key: (value, value) for key, value in bystanders.items()}
        fresh = clustered_values(rng, 16, 24, flip_rate=0.1)
        device = store.flags_nvm if op.startswith("delete") else store.nvm
        tear_next_write(monkeypatch, device, TEAR_POINTS[point])
        with pytest.raises(RuntimeError, match="power failure"):
            if op == "put_many":
                pairs = [(b"new%d" % i, fresh[i].tobytes()) for i in range(16)]
                expect.update((key, (None, value)) for key, value in pairs)
                expect.update((key, (v, v)) for key, v in acked.items())
                store.put_many(pairs)
            elif op in ("upsert_many", "update_many"):
                pairs = [(key, fresh[i].tobytes())
                         for i, key in enumerate(acked)]
                expect.update((key, (acked[key], value)) for key, value in pairs)
                if op == "upsert_many":
                    store.put_many(pairs)
                else:
                    store.update_many(pairs)
            elif op == "delete_many":
                expect.update((key, (value, None)) for key, value in acked.items())
                store.delete_many(list(acked))
            elif op == "put":
                key, value = b"new0", fresh[0].tobytes()
                expect.update((k, (v, v)) for k, v in acked.items())
                expect[key] = (None, value)
                store.put(key, value)
            elif op == "delete":
                key = next(iter(acked))
                expect.update((k, (v, v)) for k, v in acked.items())
                expect[key] = (acked[key], None)
                store.delete(key)
            else:
                key = next(iter(acked))
                expect.update((k, (v, v)) for k, v in acked.items())
                expect[key] = (acked[key], fresh[0].tobytes())
                store.update(key, fresh[0].tobytes())
        monkeypatch.undo()

        store.crash()
        store.recover()
        present = 0
        for key, allowed in expect.items():
            found = store.get(key) if key in store else None
            assert found in allowed, f"{key!r}: {found!r} not in {allowed!r}"
            present += found is not None
        # One flagged row per live key: a key never comes back twice.
        assert len(store) == present

    def test_interrupted_batch_loses_only_the_torn_chunk(self, monkeypatch):
        """A crash during the multi-row flush leaves no flags set for the
        chunk, so recovery resurrects none of its keys."""
        store = make_store()
        committed = batch_of(np.random.default_rng(5), 30, prefix="ok")
        store.put_many(committed)

        original = SimulatedNVM.write_many

        def torn_write_many(self, addresses, rows, scheme=None):
            half = len(addresses) // 2
            original(self, addresses[:half], rows[:half], scheme)
            raise RuntimeError("simulated power failure mid-flush")

        monkeypatch.setattr(SimulatedNVM, "write_many", torn_write_many)
        torn = batch_of(np.random.default_rng(6), 20, prefix="torn")
        with pytest.raises(RuntimeError, match="power failure"):
            store.put_many(torn)
        monkeypatch.setattr(SimulatedNVM, "write_many", original)

        store.crash()
        store.recover()
        assert len(store) == 30
        for key, value in committed:
            assert store.get(key) == value
        for key, _ in torn:
            assert key not in store
        # The torn chunk's addresses were never flagged, so they are all
        # back in the pool and immediately reusable.
        assert store.pool.total_free == store.config.num_buckets - 30
        store.put_many(torn)
        for key, value in torn:
            assert store.get(key) == value

    def test_partial_flag_bitmap(self):
        """Flags that never persisted (crash between flag-word writes)
        lose exactly their operations and nothing else."""
        store = make_store()
        pairs = batch_of(np.random.default_rng(7), 40)
        reports = store.put_many(pairs)
        # Simulate a torn flag flush: the last 15 ops' validity bits never
        # reached NVM.
        for report in reports[25:]:
            store._set_valid(report.address, False)
        store.crash()
        store.recover()
        assert len(store) == 25
        for key, value in pairs[:25]:
            assert store.get(key) == value
        for key, _ in pairs[25:]:
            assert key not in store
        # Unflagged addresses were refiled as free under their contents'
        # clusters.
        for report in reports[25:]:
            assert report.address in store.pool

    def test_recovery_equivalent_to_sequential_crash(self):
        """After identical op streams and a crash, batch-built and
        sequentially-built stores recover to identical state."""
        a = make_store()
        b = make_store()
        pairs = batch_of(np.random.default_rng(8), 60)
        for key, value in pairs:
            a.put(key, value)
        b.put_many(pairs)
        for store in (a, b):
            store.crash()
            store.recover()
        assert np.array_equal(a.nvm.snapshot(), b.nvm.snapshot())
        assert dict(a.index.items()) == dict(b.index.items())
        assert a.pool._free_lists == b.pool._free_lists
        assert len(a) == len(b) == 60


class TestRecoveryGuards:
    def test_recover_requires_persistent_flags(self):
        config = PNWConfig(
            num_buckets=32, value_bytes=24, key_bytes=8, n_clusters=2,
            seed=0, n_init=1, persist_flags=False,
        )
        store = PNWStore(config)
        store.put_many([(b"k", b"v")])
        store.crash()
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="persist_flags"):
            store.recover()
