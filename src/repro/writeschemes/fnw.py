"""Flip-N-Write (FNW) [Cho & Lee, MICRO 2009].

FNW augments every w-bit word with one *flip bit*.  On a write it compares
the new word against the stored word and, if more than half the bits would
change, stores the bitwise complement instead and toggles the flip bit.
This bounds the programmed cells per word to ⌈(w+1)/2⌉ and halves worst-
case write energy.  On a read, words whose flip bit is set are inverted
back.

Our implementation evaluates both candidates exactly — including the cost
of toggling the flip bit itself — and keeps the flip-bit vector as
per-address ``aux_state``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .._bitops import POPCOUNT_TABLE
from .base import WriteOutcome, WriteScheme

__all__ = ["FlipNWrite"]


class FlipNWrite(WriteScheme):
    """Per-word flip-bit write reduction.

    Parameters
    ----------
    word_bytes:
        Word granularity the flip bits guard.  The paper's synthetic
        experiments use 32-bit words, so the default is 4 bytes.
    """

    name = "FNW"

    def __init__(self, word_bytes: int = 4) -> None:
        if word_bytes <= 0:
            raise ValueError(f"word_bytes must be positive, got {word_bytes}")
        self.word_bytes = word_bytes

    @property
    def state_key(self) -> str:
        """Flip-bit arrays are per-word, so the word size is part of the
        state identity."""
        return f"FNW/{self.word_bytes}"

    def _split_words(self, buf: np.ndarray) -> np.ndarray:
        if buf.size % self.word_bytes != 0:
            raise ValueError(
                f"bucket size {buf.size} is not a multiple of word size "
                f"{self.word_bytes}"
            )
        return buf.reshape(-1, self.word_bytes)

    def prepare(
        self,
        old: np.ndarray,
        new: np.ndarray,
        old_aux: Any = None,
    ) -> WriteOutcome:
        old = np.ascontiguousarray(old, dtype=np.uint8)
        new = np.ascontiguousarray(new, dtype=np.uint8)
        old_words = self._split_words(old)
        new_words = self._split_words(new)
        n_words = old_words.shape[0]

        old_flips = (
            np.asarray(old_aux, dtype=bool)
            if old_aux is not None
            else np.zeros(n_words, dtype=bool)
        )

        # Cost of storing the word verbatim (flip bit must end up 0) versus
        # inverted (flip bit must end up 1), counting the flip-bit toggle.
        plain_xor = np.bitwise_xor(old_words, new_words)
        plain_cost = POPCOUNT_TABLE[plain_xor].sum(axis=1) + old_flips
        inverted = np.bitwise_not(new_words)
        inv_xor = np.bitwise_xor(old_words, inverted)
        inv_cost = POPCOUNT_TABLE[inv_xor].sum(axis=1) + (~old_flips)

        use_inverted = inv_cost < plain_cost
        stored_words = np.where(use_inverted[:, None], inverted, new_words)
        mask_words = np.where(use_inverted[:, None], inv_xor, plain_xor)
        new_flips = use_inverted

        aux_bit_updates = int(np.count_nonzero(new_flips != old_flips))
        return WriteOutcome(
            stored=stored_words.reshape(-1),
            update_mask=mask_words.reshape(-1),
            aux_bit_updates=aux_bit_updates,
            aux_state=new_flips,
        )

    def decode(self, physical: np.ndarray, aux_state: Any) -> np.ndarray:
        physical = np.ascontiguousarray(physical, dtype=np.uint8)
        flips = np.asarray(aux_state, dtype=bool)
        words = self._split_words(physical.copy())
        words[flips] = np.bitwise_not(words[flips])
        return words.reshape(-1)
