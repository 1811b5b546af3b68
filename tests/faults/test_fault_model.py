"""FaultModel unit contracts: determinism, stuck-at-current, ageing.

The fault model is the root of the media-robustness story, so its
semantics are pinned directly:

* same ``(geometry, rate, budget, seed)`` ⇒ same weakened-cell map and
  the same stuck mask after the same write history;
* a stuck cell freezes at its *current* value — writes through it lose
  the new bit but never corrupt the data at rest;
* ``filter_many`` is byte-identical to looping ``filter``;
* ``age()`` freezes pending cells without touching stored bytes, which
  is exactly what makes its faults *latent* (scrubber fodder).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nvm import FaultModel

ROWS, COLS = 64, 16


def make_model(**overrides) -> FaultModel:
    base = dict(fault_rate=0.05, fault_budget=0, seed=11)
    base.update(overrides)
    return FaultModel(ROWS, COLS, **base)


def random_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 256, size=(n, COLS), dtype=np.uint8)


class TestDeterminism:
    def test_same_seed_same_media(self):
        a, b = make_model(), make_model()
        rng = np.random.default_rng(3)
        old = random_rows(rng, ROWS)
        new = random_rows(rng, ROWS)
        addresses = np.arange(ROWS, dtype=np.int64)
        out_a = a.filter_many(addresses, old.copy(), new.copy())
        out_b = b.filter_many(addresses, old.copy(), new.copy())
        assert np.array_equal(out_a, out_b)
        assert np.array_equal(a.stuck, b.stuck)
        assert a.stuck_events == b.stuck_events
        assert a.n_faulty == b.n_faulty

    def test_different_seed_different_map(self):
        a = make_model(seed=11)
        b = make_model(seed=12)
        rng = np.random.default_rng(3)
        old, new = random_rows(rng, ROWS), random_rows(rng, ROWS)
        addresses = np.arange(ROWS, dtype=np.int64)
        a.filter_many(addresses, old.copy(), new.copy())
        b.filter_many(addresses, old.copy(), new.copy())
        assert not np.array_equal(a.stuck, b.stuck)

    def test_fault_rate_sizes_the_population(self):
        assert make_model(fault_rate=0.0).n_faulty == 0
        dense = make_model(fault_rate=0.25)
        assert dense.n_faulty == round(0.25 * ROWS * COLS * 8)
        assert dense.pending_cells == dense.n_faulty


class TestStuckAtCurrent:
    def test_depleted_cells_keep_their_old_value(self):
        model = make_model(fault_rate=0.2)  # budget 0: born depleted
        rng = np.random.default_rng(5)
        old = random_rows(rng, 1)[0]
        new = random_rows(rng, 1)[0]
        actual = model.filter(0, old.copy(), new.copy())
        lost = np.unpackbits(actual ^ new)
        stuck = np.unpackbits(model.stuck[0])
        # Every bit that failed to land sits on a stuck cell and holds
        # the OLD value — data at rest is preserved, only the new bit
        # is lost.
        assert lost.sum() > 0
        assert np.all(lost <= stuck)
        assert np.array_equal(
            np.unpackbits(actual) * stuck, np.unpackbits(old) * stuck
        )

    def test_budget_absorbs_flips_before_sticking(self):
        generous = make_model(fault_budget=10_000, seed=21, fault_rate=0.2)
        rng = np.random.default_rng(5)
        old, new = random_rows(rng, 1)[0], random_rows(rng, 1)[0]
        actual = generous.filter(0, old.copy(), new.copy())
        # Budgets this deep mean no cell was driven past exhaustion:
        # the write lands perfectly (draws of 0 are possible but the
        # seed here draws none for row 0).
        assert generous.stuck_events == 0
        assert np.array_equal(actual, new)

    def test_frozen_cell_stays_frozen(self):
        model = make_model(fault_rate=0.2)
        rng = np.random.default_rng(7)
        old = random_rows(rng, 1)[0]
        first = model.filter(0, old.copy(), random_rows(rng, 1)[0].copy())
        stuck_after_first = model.stuck[0].copy()
        second = model.filter(0, first.copy(), random_rows(rng, 1)[0].copy())
        held = np.unpackbits(stuck_after_first)
        assert np.array_equal(
            np.unpackbits(second) * held, np.unpackbits(first) * held
        )


class TestFilterManyEquivalence:
    def test_batch_matches_sequential(self):
        batch = make_model(fault_rate=0.15)
        seq = make_model(fault_rate=0.15)
        rng = np.random.default_rng(9)
        old, new = random_rows(rng, ROWS), random_rows(rng, ROWS)
        addresses = np.arange(ROWS, dtype=np.int64)
        out_batch = batch.filter_many(addresses, old.copy(), new.copy())
        out_seq = np.stack([
            seq.filter(int(a), old[i].copy(), new[i].copy())
            for i, a in enumerate(addresses)
        ])
        assert np.array_equal(out_batch, out_seq)
        assert np.array_equal(batch.stuck, seq.stuck)
        assert batch.stuck_events == seq.stuck_events


class TestAgeing:
    def test_age_freezes_without_touching_data(self):
        model = make_model(fault_rate=0.1, fault_budget=50, seed=31)
        pending = model.pending_cells
        assert pending > 0
        frozen = model.age()
        assert frozen == pending
        assert model.pending_cells == 0
        # Ageing only marks cells stuck; the next write through them
        # keeps the old (preserved) value.
        old = np.zeros(COLS, dtype=np.uint8)
        new = np.full(COLS, 0xFF, dtype=np.uint8)
        rows_with_faults = {int(r) for r in np.flatnonzero(model.stuck.any(axis=1))}
        some_row = next(iter(rows_with_faults))
        actual = model.filter(some_row, old, new.copy())
        held = np.unpackbits(model.stuck[some_row])
        assert np.array_equal(np.unpackbits(actual) * held, np.zeros_like(held) * held)

    def test_age_scoped_to_addresses(self):
        model = make_model(fault_rate=0.1, fault_budget=50, seed=31)
        target = int(model._rows[0])
        frozen = model.age([target])
        assert frozen > 0
        assert model.probe(target) == frozen
        assert model.pending_cells > 0  # other rows untouched


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="fault_rate"):
            make_model(fault_rate=1.0)
        with pytest.raises(ValueError, match="fault_budget"):
            make_model(fault_budget=-1)
