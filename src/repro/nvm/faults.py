"""Seeded wear-out fault model for the simulated NVM device.

The paper's premise is that NVM cells endure a bounded number of bit
flips; everything upstream (K-Means steering, DRAM tiering) exists to
*delay* that exhaustion.  This module makes exhaustion actually happen:
a seeded fraction of the zone's data bits are "weakened" cells, each
with a drawn endurance budget of remaining successful flips.  A flip
attempted past the budget fails silently at the device level — the cell
freezes **stuck-at its current value** — which is how real PCM/ReRAM
wear-out presents (the cell keeps reporting whatever it last held, and
only a write that tries to change it reveals the failure).

Two consequences shape the layers above:

* Data at rest is never corrupted by this model — sticking preserves
  the cell's current value, so every row that verified at write time
  stays readable forever.  That is what makes the store's headline
  claim ("every acknowledged write remains readable") achievable with
  write-verify alone.
* A stuck cell is only *observable* through a write: read-back compare
  after a write (the engine's verify step) or a margin probe of the
  stuck mask (the scrubber's :meth:`FaultModel.probe`).

Determinism: the weakened-cell map and budgets are a pure function of
``(num_buckets, bucket_bytes, fault_rate, fault_budget, seed)``, so two
stores built from one config see identical media.  The dense stuck mask
is the part that depends on write history; like the data it froze, it
survives :meth:`~repro.core.store.PNWStore.crash` (it is media state,
not DRAM).
"""

from __future__ import annotations

import numpy as np

__all__ = ["FaultModel"]


class FaultModel:
    """Stuck-at-current wear-out faults over a ``(rows, cols)`` byte zone.

    Parameters
    ----------
    num_buckets, bucket_bytes:
        Geometry of the data zone the model overlays.
    fault_rate:
        Fraction of all data bits that are weakened cells.
    fault_budget:
        Upper bound of the per-cell budget draw; each weakened cell gets
        ``rng.integers(0, fault_budget + 1)`` remaining successful
        flips.  ``0`` ⇒ every weakened cell is born depleted.
    seed:
        Required; drives both cell selection and budget draws.
    """

    def __init__(
        self,
        num_buckets: int,
        bucket_bytes: int,
        *,
        fault_rate: float,
        fault_budget: int = 0,
        seed: int,
    ) -> None:
        if not 0.0 <= fault_rate < 1.0:
            raise ValueError(f"fault_rate must be in [0, 1), got {fault_rate}")
        if fault_budget < 0:
            raise ValueError(f"fault_budget must be >= 0, got {fault_budget}")
        if seed is None:
            raise ValueError("FaultModel requires a seed")
        self.num_buckets = int(num_buckets)
        self.bucket_bytes = int(bucket_bytes)
        #: Already-stuck bits, one ``uint8`` mask per row.
        self.stuck = np.zeros((num_buckets, bucket_bytes), dtype=np.uint8)
        self.fault_rate = float(fault_rate)
        self.fault_budget = int(fault_budget)
        self.seed = int(seed)

        bits_per_row = bucket_bytes * 8
        total_bits = num_buckets * bits_per_row
        n_faulty = int(round(fault_rate * total_bits))
        rng = np.random.default_rng(seed)
        flat = rng.choice(total_bits, size=n_faulty, replace=False)
        budgets = (
            rng.integers(0, fault_budget + 1, size=n_faulty, dtype=np.int64)
            if fault_budget > 0
            else np.zeros(n_faulty, dtype=np.int64)
        )
        rows = (flat // bits_per_row).astype(np.int64)
        rest = flat % bits_per_row
        cols = (rest // 8).astype(np.int64)
        masks = (np.uint8(1) << (rest % 8).astype(np.uint8)).astype(np.uint8)
        self._rows = rows
        self._cols = cols
        self._masks = masks
        self._budget = budgets
        self._live = np.ones(len(self._rows), dtype=bool)
        by_row: dict[int, list[int]] = {}
        for i, r in enumerate(self._rows):
            by_row.setdefault(int(r), []).append(i)
        self._by_row = {r: np.asarray(ix, dtype=np.int64) for r, ix in by_row.items()}
        self.n_faulty = n_faulty
        self.stuck_events = 0  # cells frozen by a write past their budget

    # ------------------------------------------------------------------
    # Write filtering (the device calls these just before storing bytes)
    # ------------------------------------------------------------------

    def filter(self, address: int, old: np.ndarray, new: np.ndarray) -> np.ndarray:
        """Return the bytes that physically land when ``new`` is written
        over ``old`` at ``address`` — stuck bits keep their old value,
        and pending cells driven past their budget freeze now."""
        s = self.stuck[address]
        actual = (new & ~s) | (old & s)
        idx = self._by_row.get(int(address))
        if idx is not None:
            self._apply_pending(int(address), old, actual)
        return actual

    def filter_many(
        self, addresses: np.ndarray, old: np.ndarray, new: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`filter` for a batch of distinct addresses."""
        s = self.stuck[addresses]
        actual = (new & ~s) | (old & s)
        if self._by_row:
            for i, address in enumerate(addresses):
                if int(address) in self._by_row:
                    self._apply_pending(int(address), old[i], actual[i])
        return actual

    def _apply_pending(self, address: int, old: np.ndarray, actual: np.ndarray) -> None:
        """Charge budget for flips through weakened cells of one row;
        freeze cells whose budget is spent (mutates ``actual`` and the
        stuck mask in place)."""
        idx = self._by_row[address]
        exhausted = 0
        for i in idx:
            if not self._live[i]:
                exhausted += 1
                continue
            col = self._cols[i]
            mask = self._masks[i]
            if (old[col] ^ actual[col]) & mask:
                if self._budget[i] <= 0:
                    # Failed program: the cell keeps its current value.
                    actual[col] = (actual[col] & ~mask) | (old[col] & mask)
                    self.stuck[address, col] |= mask
                    self._live[i] = False
                    self.stuck_events += 1
                    exhausted += 1
                else:
                    self._budget[i] -= 1
        if exhausted == len(idx):
            del self._by_row[address]

    # ------------------------------------------------------------------
    # Observation / ageing
    # ------------------------------------------------------------------

    def probe(self, address: int) -> int:
        """Stuck-bit count of one row — the scrubber's modeled margin
        read (a real controller reads cell resistance margins; we read
        the mask)."""
        return int(np.unpackbits(self.stuck[address]).sum())

    def age(self, addresses: np.ndarray | list[int] | None = None) -> int:
        """Freeze every still-pending weakened cell (optionally only in
        ``addresses``) at its current value, modeling passage of write
        traffic / retention ageing.  Data is preserved — this creates
        *latent* faults for the scrubber to find.  Returns the number of
        cells frozen."""
        wanted = None if addresses is None else {int(a) for a in addresses}
        frozen = 0
        for address in list(self._by_row):
            if wanted is not None and address not in wanted:
                continue
            for i in self._by_row[address]:
                if self._live[i]:
                    self.stuck[address, self._cols[i]] |= self._masks[i]
                    self._live[i] = False
                    frozen += 1
            del self._by_row[address]
        return frozen

    @property
    def pending_cells(self) -> int:
        """Weakened cells that have not yet frozen."""
        return int(self._live.sum())

    @property
    def stuck_cells(self) -> int:
        """Total stuck bits in the zone."""
        return int(np.unpackbits(self.stuck.reshape(-1)).sum())
