"""Exhaustive refutation of non-contextual card-marking models.

A non-contextual model pre-marks cards so that every one of the 40 tetrads
contains exactly one marked card.  The ten rank tetrads partition the deck,
forcing any candidate model to mark exactly one suit per rank: 4**10 =
1048576 candidates, few enough to score them all.  Each of the 1024
markings of five ranks (one half of a candidate) is described by two 40-bit
tetrad masks, "marks no member" and "marks exactly one", so a candidate is
scored by one popcount, 65536 at a time in bounded memory.  None is correct
on all 40 tetrads; the best of these reach 34.  A per-tetrad (contextual)
mark table, by contrast, trivially reproduces the quantum statistics, and
any such complete table necessarily marks some card in one of its tetrads
but not in another.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .configuration import Card, SUITS, WittingConfiguration, check_int

N_MARKINGS = 4**10
_HALF = 4**5  # markings of five ranks: one half of a marking index
_BLOCK = 1 << 16  # markings scored at a time by the exhaustive scan


@dataclass(frozen=True)
class Marking:
    """One marked suit per rank tetrad: a candidate non-contextual model."""

    choice: tuple[int, ...]  # suit index for ranks 1..10

    def __post_init__(self) -> None:
        if len(self.choice) != 10:
            raise ValueError(f"marking needs ten suit indices, got {len(self.choice)}")
        for s in self.choice:
            check_int("suit index", s, 0, 3)

    def cards(self) -> tuple[Card, ...]:
        return tuple(Card(SUITS[s], r + 1) for r, s in enumerate(self.choice))

    def marks(self, card: Card) -> bool:
        return self.choice[card.rank - 1] == SUITS.index(card.suit)

    @classmethod
    def from_index(cls, index: int) -> "Marking":
        check_int("marking index", index, 0, N_MARKINGS - 1)
        return cls(tuple((index >> (2 * r)) & 3 for r in range(10)))

    @property
    def index(self) -> int:
        return sum(s << (2 * r) for r, s in enumerate(self.choice))


ALL_SPADES = Marking((0,) * 10)

# One of the 720 markings attaining the 34-correct-tetrad maximum:
# S1 S2 H3 H4 H5 C6 D7 D8 D9 C10.
MAX_SCORE_EXAMPLE = Marking((0, 0, 1, 1, 1, 3, 2, 2, 2, 3))


@dataclass(frozen=True)
class MarkingScore:
    """Tetrads classified by how many of their members the marking marks."""

    by_count: tuple[int, int, int, int, int]

    @property
    def correct(self) -> int:
        return self.by_count[1]

    @property
    def unmarked(self) -> int:
        return self.by_count[0]

    @property
    def double_marked(self) -> int:
        return self.by_count[2]


def _member_keys(config: WittingConfiguration) -> list[list[tuple[int, int]]]:
    return [
        [(c.rank - 1, SUITS.index(c.suit)) for c in basis.members]
        for basis in config.bases
    ]


def score_marking(config: WittingConfiguration, marking: Marking) -> MarkingScore:
    counts = [0] * 5
    for members in _member_keys(config):
        k = sum(1 for r, s in members if marking.choice[r] == s)
        counts[k] += 1
    return MarkingScore(tuple(counts))  # type: ignore[arg-type]


@dataclass(frozen=True)
class ScanResult:
    """Aggregate statistics over all 4**10 candidate markings."""

    histogram: tuple[int, ...]  # index = number of correct tetrads, 0..40
    max_correct: int
    count_at_max: int
    mean_correct_fraction: Fraction
    frac_above_28: Fraction
    frac_at_max: Fraction
    exists_perfect: bool
    maximizer_indices: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "maxCorrect": self.max_correct,
            "countAtMax": self.count_at_max,
            "mean": float(self.mean_correct_fraction),
            "meanExact": f"{self.mean_correct_fraction.numerator}/{self.mean_correct_fraction.denominator}",
            "fracAbove70pct": float(self.frac_above_28),
            "fracAtMax": float(self.frac_at_max),
            "existsPerfect": self.exists_perfect,
            "histogram": list(self.histogram),
        }


def _half_masks(config: WittingConfiguration) -> np.ndarray:
    """Tetrad bitmasks of every half marking, a (2, 2, 1024) uint64 array.

    Entry [p, k, h] has bit t set when half index h of half p (0: the suits
    of ranks 1-5, 1: ranks 6-10) marks exactly k members of tetrad t, for
    k = 0 ("zero") and k = 1 ("one").
    """
    digits = (np.arange(_HALF)[:, None] >> (2 * np.arange(5))) & 3
    marked = np.zeros((2, _HALF, len(config.bases)), dtype=np.int8)
    for t, members in enumerate(_member_keys(config)):
        for r, s in members:
            marked[r // 5, :, t] += digits[:, r % 5] == s
    bits = np.uint64(1) << np.arange(len(config.bases), dtype=np.uint64)
    return np.stack([(marked == k).astype(np.uint64) @ bits for k in (0, 1)], axis=1)


def _correct_count_blocks(config: WittingConfiguration) -> Iterator[tuple[int, np.ndarray]]:
    """Correct-tetrad counts of all markings, ``_BLOCK`` at a time.

    Yields ``(start, counts)`` in marking-index order: ``counts[j]``, a
    uint8, belongs to ``Marking.from_index(start + j)``.  The index splits
    into a low half (bits 0-9: the suits of ranks 1-5) and a high half
    (bits 10-19: ranks 6-10).  A tetrad is correct when exactly one member
    is marked: one by the low half and none by the high half, or the
    reverse.  So a marking's count is one popcount of
    ``(one_hi & zero_lo) | (zero_hi & one_lo)`` over the masks of
    :func:`_half_masks`.  A block takes ``_BLOCK // 1024`` high halves
    against all 1024 low ones, so the scan holds a few (64, 1024) arrays
    however many markings it scores.
    """
    (zero_lo, one_lo), (zero_hi, one_hi) = _half_masks(config)
    rows = _BLOCK // _HALF
    for hi in range(0, _HALF, rows):
        part = slice(hi, hi + rows)
        mask = one_hi[part, None] & zero_lo
        mask |= zero_hi[part, None] & one_lo
        yield hi * _HALF, np.bitwise_count(mask).ravel()


def exhaustive_scan(config: WittingConfiguration) -> ScanResult:
    """Score every candidate marking; exact counts, no sampling.

    The counts come block by block from :func:`_correct_count_blocks`, in
    marking-index order; each block adds to the histogram and to the
    running maximum and its maximizers, which are therefore listed in
    increasing marking index.  No array of all 4**10 counts is made.
    """
    hist = np.zeros(41, dtype=np.int64)
    max_correct, maximizers = -1, []
    for start, counts in _correct_count_blocks(config):
        hist += np.bincount(counts, minlength=41)
        top = int(counts.max())
        if top > max_correct:
            max_correct, maximizers = top, []
        if top == max_correct:
            maximizers.extend((start + np.flatnonzero(counts == top)).tolist())
    count_at_max = int(hist[max_correct])
    total_correct = int((np.arange(41, dtype=np.int64) * hist).sum())
    return ScanResult(
        histogram=tuple(int(h) for h in hist),
        max_correct=max_correct,
        count_at_max=count_at_max,
        mean_correct_fraction=Fraction(total_correct, N_MARKINGS * 40),
        frac_above_28=Fraction(int(hist[29:].sum()), N_MARKINGS),
        frac_at_max=Fraction(count_at_max, N_MARKINGS),
        exists_perfect=bool(hist[40] > 0),
        maximizer_indices=tuple(maximizers),
    )


# -- contextual (per-tetrad) models ---------------------------------------------


def contextuality_witness(
    config: WittingConfiguration, table: tuple[int, ...]
) -> tuple[Card, int, int] | None:
    """A (card, marked tetrad, unmarked tetrad) triple exhibited by the table.

    The table marks one member position per tetrad, in tetrad-id order.
    Two parties sharing it always pick the same card for any tetrad, which
    reproduces the quantum agreement statistics; the price is
    contextuality.  Every complete per-tetrad table has a witness: were one
    witness-free, its marks would define a global marking correct on all 40
    tetrads, which the exhaustive scan rules out.  A table that is not one
    mark position in 0..3 per tetrad raises ``ValueError``.
    """
    if len(table) != len(config.bases):
        raise ValueError(f"table must have {len(config.bases)} entries, got {len(table)}")
    for position in table:
        check_int("mark position", position, 0, 3)
    marked: dict[Card, list[int]] = {}
    unmarked: dict[Card, list[int]] = {}
    for basis, position in zip(config.bases, table):
        for i, card in enumerate(basis.members):
            (marked if i == position else unmarked).setdefault(card, []).append(
                basis.id
            )
    for card in sorted(marked, key=lambda c: (SUITS.index(c.suit), c.rank)):
        if card in unmarked:
            return (card, marked[card][0], unmarked[card][0])
    return None


def rank_tetrad_partition_ok(config: WittingConfiguration) -> bool:
    """The ten rank tetrads cover each of the 40 cards exactly once."""
    seen: list[Card] = []
    for basis in config.bases:
        if basis.tag == "rank-tetrad":
            seen.extend(basis.members)
    return sorted(seen) == sorted(
        Card(s, r) for s, r in itertools.product(SUITS, range(1, 11))
    )
