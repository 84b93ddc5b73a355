"""Exhaustive refutation of non-contextual card-marking models.

A non-contextual model pre-marks cards so that every one of the 40 tetrads
contains exactly one marked card.  The ten rank tetrads partition the deck,
forcing any candidate model to mark exactly one suit per rank: 4**10 =
1048576 candidates, few enough to score them all.  None is correct on all
40 tetrads; the best of these reach 34.  A per-tetrad (contextual) mark
table, by contrast, trivially reproduces the quantum statistics, and any
such complete table necessarily marks some card in one of its tetrads but
not in another.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from .configuration import Card, SUITS, WittingConfiguration, check_int

N_MARKINGS = 4**10
_HALF = 4**5  # markings of five ranks: one half of a marking index


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


def _correct_counts(config: WittingConfiguration) -> np.ndarray:
    """Correct-tetrad count of every marking, a (4**10,) int8 array.

    Entry i belongs to ``Marking.from_index(i)``.  The index splits into a
    low half (bits 0-9: the suits of ranks 1-5) and a high half (bits
    10-19: ranks 6-10), so a tetrad's number of marked members is a low
    part plus a high part, each a 1024-entry vector read off one (1024, 5)
    half-digit table.  The counts accumulate in a (1024, 1024) grid indexed
    [high, low], whose row-major ravel is marking-index order.
    """
    half = ((np.arange(_HALF)[:, None] >> (2 * np.arange(5))) & 3).astype(np.int8)
    grid = np.zeros((_HALF, _HALF), dtype=np.int8)
    # Grid-sized buffers, reused: a fresh 1 MB temporary per tetrad is a new
    # mapping whose pages fault in each time, which doubles the scan's time.
    marked = np.empty_like(grid)
    correct = np.empty(grid.shape, dtype=bool)
    for members in _member_keys(config):
        parts = np.zeros((2, _HALF), dtype=np.int8)  # the low and the high part
        for r, s in members:
            parts[r // 5] += half[:, r % 5] == s
        np.add(parts[1][:, None], parts[0][None, :], out=marked)
        grid += np.equal(marked, 1, out=correct)
    return grid.ravel()


def exhaustive_scan(config: WittingConfiguration) -> ScanResult:
    """Score every candidate marking; exact counts, no sampling.

    Every marking is scored on one (1024, 1024) int8 grid indexed [suits
    of ranks 6-10, suits of ranks 1-5], whose row-major order is
    marking-index order (:func:`_correct_counts`).  The maximizers are
    therefore listed in increasing marking index.
    """
    correct = _correct_counts(config)
    hist = np.bincount(correct, minlength=41)
    max_correct = int(correct.max())
    maximizers = np.nonzero(correct == max_correct)[0]
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
        maximizer_indices=tuple(int(i) for i in maximizers),
    )


# -- contextual (per-tetrad) models ---------------------------------------------


def build_contextual_deck_model(
    config: WittingConfiguration, seed: int
) -> tuple[int, ...]:
    """Mark one member position in each of the 40 tetrads (seeded, shared).

    Both participants holding the same table always pick the same card for
    any tetrad, reproducing the quantum agreement statistics; the price is
    contextuality, witnessed by :func:`contextuality_witness`.
    """
    rng = Random(seed)
    return tuple(rng.randrange(4) for _ in config.bases)


def contextuality_witness(
    config: WittingConfiguration, table: tuple[int, ...]
) -> tuple[Card, int, int] | None:
    """A (card, marked tetrad, unmarked tetrad) triple exhibited by the table.

    Every complete per-tetrad table has one: were some table witness-free,
    its marks would define a global marking correct on all 40 tetrads,
    which the exhaustive scan rules out.  A table that is not one mark
    position in 0..3 per tetrad raises ``ValueError``.
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
