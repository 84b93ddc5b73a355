import tracemalloc
from fractions import Fraction
from random import Random

import numpy as np
import pytest

from wittingqkd.configuration import Card
from wittingqkd.marking import (
    ALL_SPADES,
    MAX_SCORE_EXAMPLE,
    Marking,
    N_MARKINGS,
    _BLOCK,
    _correct_count_blocks,
    contextuality_witness,
    exhaustive_scan,
    rank_tetrad_partition_ok,
    score_marking,
)


def build_contextual_deck_model(config, seed):
    """Mark one member position in each of the 40 tetrads (seeded, shared)."""
    rng = Random(seed)
    return tuple(rng.randrange(4) for _ in config.bases)


def test_rank_tetrads_partition_the_deck(config):
    assert rank_tetrad_partition_ok(config)


def test_marking_round_trip():
    m = Marking((0, 3, 1, 2, 0, 1, 3, 2, 1, 0))
    assert Marking.from_index(m.index) == m
    assert m.cards()[1] == Card("C", 2)
    assert m.marks(Card("S", 1)) and not m.marks(Card("H", 1))
    with pytest.raises(ValueError):
        Marking((0,) * 9)
    with pytest.raises(ValueError):
        Marking((0,) * 9 + (4,))


@pytest.mark.parametrize("choice", [(0.5,) * 10, (True,) * 10, (0,) * 9 + (1.0,), ("0",) * 10])
def test_marking_rejects_non_int_suit_indices(choice):
    with pytest.raises(ValueError):
        Marking(choice)


@pytest.mark.parametrize("index", [-1, N_MARKINGS, 2**64, True, 2.0])
def test_marking_index_out_of_range_raises(index):
    with pytest.raises(ValueError):
        Marking.from_index(index)
    assert Marking.from_index(N_MARKINGS - 1).choice == (3,) * 10


def test_rank_tetrads_always_correct(config):
    # every marking marks exactly one card in each rank tetrad
    for marking in (ALL_SPADES, MAX_SCORE_EXAMPLE, Marking.from_index(987_654)):
        score = score_marking(config, marking)
        assert score.correct >= 10
        assert sum(score.by_count) == 40


def test_all_spades_scores_28(config):
    score = score_marking(config, ALL_SPADES)
    assert score.correct == 28
    # the 12 mono-suit tetrads are all-or-nothing: 3 spade tetrads fully
    # marked, the other 9 empty
    assert score.by_count == (9, 28, 0, 0, 3)


def test_example_marking_scores_34_3_3(config):
    assert MAX_SCORE_EXAMPLE.cards() == (
        Card("S", 1),
        Card("S", 2),
        Card("H", 3),
        Card("H", 4),
        Card("H", 5),
        Card("C", 6),
        Card("D", 7),
        Card("D", 8),
        Card("D", 9),
        Card("C", 10),
    )
    score = score_marking(config, MAX_SCORE_EXAMPLE)
    assert score.correct == 34
    assert score.double_marked == 3
    assert score.unmarked == 3


def test_scan_headline_numbers(scan):
    assert not scan.exists_perfect
    assert scan.max_correct == 34
    assert scan.count_at_max == 720
    assert Fraction(56, 100) < scan.mean_correct_fraction < Fraction(58, 100)
    assert scan.frac_above_28 < Fraction(4, 100)
    assert scan.frac_at_max < Fraction(7, 10000)
    assert scan.frac_at_max == Fraction(720, N_MARKINGS)


def test_scan_histogram_sums_and_support(scan):
    assert sum(scan.histogram) == N_MARKINGS
    support = [i for i, h in enumerate(scan.histogram) if h]
    assert min(support) >= 10
    assert max(support) == 34
    assert scan.histogram[40] == 0


def test_scan_mean_matches_histogram(scan):
    total = sum(i * h for i, h in enumerate(scan.histogram))
    assert scan.mean_correct_fraction == Fraction(total, N_MARKINGS * 40)


def test_scan_maximizers(config, scan):
    assert len(scan.maximizer_indices) == 720
    assert list(scan.maximizer_indices) == sorted(scan.maximizer_indices)
    assert MAX_SCORE_EXAMPLE.index in scan.maximizer_indices
    for idx in scan.maximizer_indices[:5]:
        assert score_marking(config, Marking.from_index(idx)).correct == 34


def test_correct_counts_equal_scalar_scores(config, scan):
    # the tetrad masks must give every marking exactly the scalar score;
    # 0, 1023, 1024 and 4**10 - 1 sit on the seams between the two halves,
    # and each block's first and last index on the seams between blocks
    blocks = list(_correct_count_blocks(config))
    starts = [start for start, _ in blocks]
    assert starts == list(range(0, N_MARKINGS, _BLOCK))
    for _, counts in blocks:
        assert counts.shape == (_BLOCK,) and counts.dtype == np.uint8
    counts = np.concatenate([counts for _, counts in blocks])
    rng = Random(2024)
    indices = {rng.randrange(N_MARKINGS) for _ in range(2000)}
    indices |= set(scan.maximizer_indices) | {0, 1023, 1024, N_MARKINGS - 1}
    indices |= set(starts) | {start + _BLOCK - 1 for start in starts}
    for idx in sorted(indices):
        assert counts[idx] == score_marking(config, Marking.from_index(idx)).correct


def test_scan_mean_is_exact(scan):
    assert scan.mean_correct_fraction == Fraction(145, 256)


def test_scan_memory_is_bounded(config):
    exhaustive_scan(config)  # warm caches so only the scan itself is traced
    tracemalloc.start()
    try:
        exhaustive_scan(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 1.3 MB: one block's masks and counts; an array of all 4**10
    # counts, with the intp copy np.bincount makes of it, takes 9 MB
    assert peak < 2 * 2**20


def test_contextual_deck_model(config):
    table = build_contextual_deck_model(config, seed=42)
    assert table == build_contextual_deck_model(config, seed=42)
    assert table != build_contextual_deck_model(config, seed=43)
    assert len(table) == 40
    # both participants share the table, so agreement over all 40 tetrad
    # selections is 40/40 by construction
    picks_alice = [basis.members[i] for basis, i in zip(config.bases, table)]
    picks_bob = [basis.members[i] for basis, i in zip(config.bases, table)]
    assert picks_alice == picks_bob


def test_contextuality_witness_exists_for_any_complete_table(config):
    for seed in range(12):
        table = build_contextual_deck_model(config, seed=seed)
        witness = contextuality_witness(config, table)
        assert witness is not None
        card, marked_id, unmarked_id = witness
        marked_basis = config.bases[marked_id]
        unmarked_basis = config.bases[unmarked_id]
        assert card in marked_basis.members
        assert card in unmarked_basis.members
        assert marked_basis.members.index(card) == table[marked_id]
        assert unmarked_basis.members.index(card) != table[unmarked_id]


@pytest.mark.parametrize("table", [(0,) * 3, (), (9,) * 40], ids=["short", "empty", "position-9"])
def test_contextuality_witness_rejects_malformed_tables(config, table):
    # None would claim the table is witness-free, that is non-contextual
    with pytest.raises(ValueError):
        contextuality_witness(config, table)


def test_rank_tetrads_alone_need_no_witness(config):
    # Restricted to the ten rank tetrads, marking is consistent: any global
    # marking realises it, since each card appears in exactly one of them.
    marking = Marking((2, 0, 3, 1, 1, 0, 2, 3, 0, 1))
    rank_bases = [b for b in config.bases if b.tag == "rank-tetrad"]
    seen_marked: set[Card] = set()
    seen_unmarked: set[Card] = set()
    for basis in rank_bases:
        for card in basis.members:
            (seen_marked if marking.marks(card) else seen_unmarked).add(card)
    assert not (seen_marked & seen_unmarked)
    assert len(seen_marked) == 10 and len(seen_unmarked) == 30
