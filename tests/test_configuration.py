import cmath
import hashlib
import itertools
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from wittingqkd import WittingConfiguration, configuration
from wittingqkd.configuration import (
    Card,
    ConfigurationError,
    SUITS,
    canonical_phase,
    canonical_rows,
    ring_conj,
    ring_mul,
)
from wittingqkd.eisenstein import Eisenstein, I_SQRT3, MAGNITUDE_BOUND, ONE, UNITS, ZERO, pair_inner

W = cmath.exp(2j * cmath.pi / 3)


def embed(vec):
    return tuple(x.a + x.b * W for x in vec)


def float_inner(u, v):
    return sum(a.conjugate() * b for a, b in zip(u, v))


# -- states and numbering -------------------------------------------------------


def test_forty_distinct_states(config):
    assert len(config.states) == 40
    assert len({s.vector for s in config.states}) == 40
    for s in config.states:
        assert sum(x.norm_sq() for x in s.vector) == 3


def test_block_card_bijection(config):
    blocks = {s.block for s in config.states}
    assert blocks == {(c, r) for c in range(4) for r in range(10)}
    # suit <-> block column is fixed
    for s in config.states:
        assert s.block[0] == SUITS.index(s.card.suit)


def test_card_parse_reads_every_label(config):
    for s in config.states:
        assert Card.parse(s.card.label) == s.card
    assert Card.parse("h10") == Card("H", 10)


@pytest.mark.parametrize("text", ["", "S", "Sx", "S11", "X1", " S1"])
def test_card_parse_rejects_malformed_labels(text):
    with pytest.raises(ValueError, match=f"^not a card label: {text!r}$"):
        Card.parse(text)


def test_card_imports_without_numpy():
    script = """
import sys
from wittingqkd import Card
assert "numpy" not in sys.modules, "numpy loaded"
assert Card.parse("D7") == ("D", 7) and Card("H", 10).label == "H10"
from wittingqkd.configuration import Card as configuration_card
assert configuration_card is Card
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_table_anchor_rows(config):
    # S1 is projectively (sqrt(3),0,0,0): the unit orbit of (1+2w) e0.
    s1 = config.state_of(Card("S", 1))
    assert s1.vector == canonical_phase((I_SQRT3, ZERO, ZERO, ZERO))
    assert s1.block == (0, 0)

    c2 = config.state_of(Card("C", 2))
    one = Eisenstein(1, 0)
    assert c2.vector == canonical_phase((one, one, one, ZERO))
    assert c2.block == (3, 1)

    h10 = config.state_of(Card("H", 10))
    assert h10.vector == canonical_phase(
        (one, ZERO, Eisenstein(-1, 0), Eisenstein(0, -1))
    )
    assert h10.block == (1, 4)


def test_canonicalisation_idempotent_and_phase_free(config):
    for s in config.states:
        assert canonical_phase(s.vector) == s.vector
        for u in UNITS:
            assert canonical_phase(tuple(u * x for x in s.vector)) == s.vector


def test_vertex_expansion_matches_direct_enumeration(config):
    vertices = config.expand_vertices()
    assert len(vertices) == 240
    got = {tuple(x.key() for x in v) for v in vertices}

    # Independent oracle: enumerate the polytope's vertex families directly.
    w_pow = [Eisenstein(1, 0), Eisenstein(0, 1), Eisenstein(-1, -1)]
    expected = set()
    for m, n, l in itertools.product(range(3), repeat=3):
        families = [
            (ZERO, w_pow[m], -w_pow[n], w_pow[l]),
            (w_pow[m], ZERO, -w_pow[n], -w_pow[l]),
            (w_pow[m], -w_pow[n], ZERO, w_pow[l]),
            (w_pow[m], w_pow[n], w_pow[l], ZERO),
        ]
        for fam in families:
            expected.add(tuple(x.key() for x in fam))
            expected.add(tuple((-x).key() for x in fam))
    for pos in range(4):
        for l in range(3):
            for sign in (1, -1):
                vec = [ZERO] * 4
                vec[pos] = I_SQRT3 * w_pow[l] * sign
                expected.add(tuple(x.key() for x in vec))
    assert len(expected) == 240
    assert got == expected


def test_axis_vertex_present(config):
    keys = {tuple(x.key() for x in v) for v in config.expand_vertices()}
    assert ((1, 2), (0, 0), (0, 0), (0, 0)) in keys


# -- inner products --------------------------------------------------------------


def _keys(vector):
    return tuple(x.key() for x in vector)


def test_pair_inner_examples(config):
    s1 = config.state_of(Card("S", 1))
    h1 = config.state_of(Card("H", 1))
    assert Eisenstein(*pair_inner(s1.pairs, s1.pairs)).norm_sq() == 9
    assert pair_inner(s1.pairs, h1.pairs) == (0, 0)
    # S2 and C2 share the rank-2 tetrad, hence are orthogonal.
    s2 = config.state_of(Card("S", 2))
    c2 = config.state_of(Card("C", 2))
    assert Eisenstein(*pair_inner(s2.pairs, c2.pairs)).norm_sq() == 0


def test_pair_inner_rejects_boxed_vectors(config):
    """Its one input format is (a, b) int pairs; a boxed vector is a TypeError."""
    s = config.states[0]
    with pytest.raises(TypeError):
        pair_inner(s.vector, s.pairs)
    with pytest.raises(TypeError):
        pair_inner(s.pairs, s.vector)


def boxed_fold(s, t):
    """The inner product as a fold of boxed values: each conjugate, product
    and running sum is an Eisenstein, so each is held to the magnitude bound."""
    acc = ZERO
    for x, y in zip(s, t):
        acc = acc + x.conj() * y
    return acc


def test_pair_inner_matches_the_boxed_fold(config):
    """All 1600 ordered state pairs and every (vertex, state) pair, both ways."""
    states = config.states
    for u in states:
        for v in states:
            assert pair_inner(u.pairs, v.pairs) == boxed_fold(u.vector, v.vector).key()
    for w in config.expand_vertices():
        for v in states:
            assert pair_inner(_keys(w), v.pairs) == boxed_fold(w, v.vector).key()
            assert pair_inner(v.pairs, _keys(w)) == boxed_fold(v.vector, w).key()


B = MAGNITUDE_BOUND
# Components small, near sqrt(B) (products near B) or near +-B, and whole
# terms often zero, so that both outcomes of the bound check are common
# (about a quarter of the draws stay inside it).
_component = st.one_of(
    st.integers(-2, 2),
    st.integers(-1100, 1100),
    st.integers(B - 2, B),
    st.integers(-B, -B + 2),
)
_term = st.one_of(st.just(ZERO), st.builds(Eisenstein, _component, _component))
_vector = st.tuples(*[_term] * 4)


def _pad(*pairs):
    return tuple(Eisenstein(*p) for p in pairs) + (ZERO,) * (4 - len(pairs))


@given(_vector, _vector)
@example(_pad((B, -1)), _pad((0, 0)))  # conjugate B + 1 - w
@example(_pad((B, 0)), _pad((1, 0)))  # product exactly B: no error
@example(_pad((B, 0), (B, 0)), _pad((-1, 0), (2, 0)))  # product 2B, running sum B
@example(_pad((1, 0), (1, 0)), _pad((0, B), (0, B)))  # running sum 2Bw
@example(_pad((B, 0), (B, 0), (-B, 0)), _pad((1, 0), (1, 0), (1, 0)))  # sum 2B, then back to B
def test_pair_inner_overflows_exactly_where_the_boxed_fold_does(s, t):
    try:
        expected = boxed_fold(s, t)
    except OverflowError:
        with pytest.raises(OverflowError):
            pair_inner(_keys(s), _keys(t))
    else:
        assert pair_inner(_keys(s), _keys(t)) == expected.key()


H = B // 2
# Each pair (s, t) puts one product term or one running sum at the bound
# (passes) or one past it (raises); 2**20 + 1 = 17 * 61681.
_AT_THE_BOUND = [
    (_pad((1024, 0)), _pad((1024, 0)), True),  # real part of the product, B
    (_pad((1024, 0)), _pad((0, -1024)), True),  # w part of the product, -B
    (_pad((17, 0)), _pad((61681, 0)), False),  # real part of the product, B + 1
    (_pad((17, 0)), _pad((0, -61681)), False),  # w part of the product, -(B + 1)
    (_pad((H, -H)), _pad((1, 0)), True),  # conjugate (a - b), B
    (_pad((-H, H + 1)), _pad((0, 0)), False),  # conjugate (a - b), -(B + 1)
    (_pad((1, 0), (1, 0)), _pad((H, 0), (H, 0)), True),  # real running sum, B
    (_pad((1, 0), (1, 0)), _pad((-H, 0), (-H, 0)), True),  # real running sum, -B
    (_pad((1, 0), (1, 0)), _pad((H, 0), (H + 1, 0)), False),  # real running sum, B + 1
    (_pad((1, 0), (1, 0)), _pad((0, -H), (0, -H - 1)), False),  # w running sum, -(B + 1)
    (_pad((1, 0), (1, 0)), _pad((0, H), (0, H)), True),  # w running sum, B
]


@pytest.mark.parametrize("s, t, inside", _AT_THE_BOUND)
def test_pair_inner_at_the_bound_matches_the_boxed_fold(s, t, inside):
    """The bound is inclusive: a product term or running sum of magnitude
    exactly 2**20 passes, and 2**20 + 1 raises, in both kernels alike."""
    if inside:
        assert pair_inner(_keys(s), _keys(t)) == boxed_fold(s, t).key()
    else:
        with pytest.raises(OverflowError):
            boxed_fold(s, t)
        with pytest.raises(OverflowError):
            pair_inner(_keys(s), _keys(t))


def test_transition_spectrum_exact_and_vs_float(config):
    third = Fraction(1, 3)
    for s, t in itertools.combinations(config.states, 2):
        p = config.transition_prob(s, t)
        assert p in (0, third)
        f = abs(float_inner(embed(s.vector), embed(t.vector))) ** 2 / 9
        assert abs(float(p) - f) < 1e-9
    for s in config.states:
        assert config.transition_prob(s, s) == 1


# -- the orthogonality graph and its tetrads -------------------------------------


def test_graph_regularity(config):
    assert all(len(a) == 12 for a in config.adjacency)
    assert sum(len(a) for a in config.adjacency) // 2 == 240
    s1 = config.state_of(Card("S", 1))
    h1 = config.state_of(Card("H", 1))
    assert h1.index in config.adjacency[s1.index]


def test_adjacency_is_built_on_first_access():
    """Construction leaves the orthogonality graph unbuilt; the first read
    builds it from the transition table, and later reads return that value."""
    fresh = WittingConfiguration()
    assert "adjacency" not in vars(fresh)
    graph = fresh.adjacency
    assert fresh.adjacency is graph
    table = fresh.transition_array.tolist()
    assert graph == tuple(frozenset(j for j, n in enumerate(r) if n == 0) for r in table)
    assert all(type(j) is int for row in graph for j in row)


def test_bases_against_networkx_oracle(config):
    g = nx.Graph()
    g.add_nodes_from(range(40))
    for i, nbrs in enumerate(config.adjacency):
        g.add_edges_from((i, j) for j in nbrs if j > i)
    oracle = {frozenset(c) for c in nx.find_cliques(g)}
    assert all(len(c) == 4 for c in oracle)
    assert len(oracle) == 40
    ours = {
        frozenset(config.state_of(c).index for c in basis.members)
        for basis in config.bases
    }
    assert ours == oracle


def test_every_state_in_four_bases(config):
    for s in config.states:
        assert len(config.bases_of(s.card)) == 4


def test_tags_and_counts(config):
    tags = [b.tag for b in config.bases]
    assert tags.count("rank-tetrad") == 10
    assert tags.count("mixed-suit") == 18
    assert tags.count("mono-suit") == 12
    # one card of each suit in 28 tetrads total
    one_per_suit = sum(
        1 for b in config.bases if len({c.suit for c in b.members}) == 4
    )
    assert one_per_suit == 28


def test_basis_ordering_rules(config):
    for b in config.bases:
        if b.tag == "mono-suit":
            ranks = [c.rank for c in b.members]
            assert ranks == sorted(ranks)
            assert len({c.suit for c in b.members}) == 1
        else:
            assert [c.suit for c in b.members] == list(SUITS)
    # canonical id layout: rank tetrads 0..9 in rank order, then mixed, then mono
    for i in range(10):
        assert config.bases[i].tag == "rank-tetrad"
        assert config.bases[i].members[0].rank == i + 1
    assert all(config.bases[i].tag == "mixed-suit" for i in range(10, 28))
    assert all(config.bases[i].tag == "mono-suit" for i in range(28, 40))


def test_members_mutually_orthogonal(config):
    for b in config.bases:
        for x, y in itertools.combinations(b.members, 2):
            assert config.transition_prob(x, y) == 0


def test_orthogonal_pair_has_unique_basis(config):
    for s, t in itertools.combinations(config.states, 2):
        common = [
            b.id
            for b in config.bases
            if s.card in b.members and t.card in b.members
        ]
        if pair_inner(s.pairs, t.pairs) == (0, 0):
            assert len(common) == 1
            assert config.common_tetrad[s.index, t.index] == common[0]
        else:
            assert not common
            assert config.common_tetrad[s.index, t.index] == -1


def test_common_basis_tie_break_for_equal_cards(config):
    for s in config.states:
        assert config.common_tetrad[s.index, s.index] == min(config.bases_of(s.card))


def test_common_basis_examples(config):
    # S2 and C2 share the rank-2 tetrad (canonical id 1)
    s2, c2, d3 = (config.state_of(Card(*c)).index for c in (("S", 2), ("C", 2), ("D", 3)))
    rank2 = config.common_tetrad[s2, c2]
    assert rank2 == 1
    assert config.bases[rank2].tag == "rank-tetrad"
    assert {c.rank for c in config.bases[rank2].members} == {2}
    # a non-orthogonal pair shares nothing
    assert config.transition_prob(
        config.state_of(Card("S", 2)), config.state_of(Card("D", 3))
    ) != 0
    assert config.common_tetrad[s2, d3] == -1


# -- conjugation -----------------------------------------------------------------


def test_conjugate_card_examples(config):
    assert config.conjugate_card(Card("S", 3)) == Card("S", 4)
    assert config.conjugate_card(Card("D", 1)) == Card("D", 1)
    assert config.conjugate_card(Card("H", 6)) == Card("H", 10)


def test_conjugate_card_involution_and_vectors(config):
    for s in config.states:
        image = config.conjugate_card(s.card)
        assert config.conjugate_card(image) == s.card
        assert image.suit == s.card.suit
        conj_vec = canonical_phase(x.conj() for x in s.vector)
        assert conj_vec == config.state_of(image).vector


# -- MUB slices ------------------------------------------------------------------


@pytest.mark.parametrize("k", range(4))
def test_mub_triads(config, k):
    triads = config.mub_triads(k)
    assert len(triads) == 4
    cards = [c for t in triads for c in t]
    assert len(cards) == 12
    assert set(cards) == {s.card for s in config.states if s.vector[k].is_zero()}
    third = Fraction(1, 3)
    for t1, t2 in itertools.combinations(triads, 2):
        for a in t1:
            for b in t2:
                assert config.transition_prob(a, b) == third
    for t in triads:
        for a, b in itertools.combinations(t, 2):
            assert config.transition_prob(a, b) == 0
    # Order: cards ascend by state index in a triad, triads by their first card.
    indices = [[config.state_of(c).index for c in t] for t in triads]
    assert all(row == sorted(row) for row in indices)
    assert [row[0] for row in indices] == sorted(row[0] for row in indices)


@pytest.mark.parametrize("k", [-1, 4, True, 1.0])
def test_mub_triads_rejects_coordinates_outside_0_to_3(config, k):
    with pytest.raises(ValueError, match="coordinate must be an int in 0..3"):
        config.mub_triads(k)


def test_mub_triads_last_slice_blocks(config):
    # The coordinate-3 slice consists of the first three axis states plus the
    # last block column, grouped as rows {1,2,3}, {4,5,6}, {7,8,9}.
    triads = config.mub_triads(3)
    blocks = [{config.state_of(c).block for c in t} for t in triads]
    assert {(0, 0), (1, 0), (2, 0)} in blocks
    assert {(3, 1), (3, 2), (3, 3)} in blocks
    assert {(3, 4), (3, 5), (3, 6)} in blocks
    assert {(3, 7), (3, 8), (3, 9)} in blocks


# -- block column structure ------------------------------------------------------


def test_columns_monomially_equivalent(config):
    columns = {c: set() for c in range(4)}
    for s in config.states:
        columns[s.block[0]].add(s.vector)

    def attempt(c1, c2):
        source = columns[c1]
        for k in range(1, 4):
            for phases in itertools.product(range(6), repeat=3):
                us = (Eisenstein(1, 0),) + tuple(UNITS[p] for p in phases)
                image = {
                    canonical_phase(
                        tuple(
                            u * v[(i - k) % 4] for i, u in enumerate(us)
                        )
                    )
                    for v in source
                }
                if image == columns[c2]:
                    return True
        return False

    for c1, c2 in itertools.permutations(range(4), 2):
        assert attempt(c1, c2), (c1, c2)


# -- the integer-array kernel ----------------------------------------------------


def _random_elements(rng, n):
    return [Eisenstein(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n)]


def test_ring_ops_match_boxed_arithmetic():
    rng = Random(1)
    xs, ys = _random_elements(rng, 500), _random_elements(rng, 500)
    x, y = np.array([e.key() for e in xs]), np.array([e.key() for e in ys])
    assert ring_mul(x, y).tolist() == [list((p * q).key()) for p, q in zip(xs, ys)]
    assert ring_conj(x).tolist() == [list(p.conj().key()) for p in xs]


def _boxed_canonical(vec):
    """The canonical-phase convention stated with boxed products: the unit
    whose product with the leading coordinate has the smallest (a, b)."""
    lead = next(x for x in vec if not x.is_zero())
    best = min(UNITS, key=lambda u: (u * lead).key())
    return tuple(best * x for x in vec)


def test_canonical_phase_matches_boxed_definition(config):
    rng = Random(2)
    vectors = [tuple(u * x for x in v) for v in config.expand_vertices() for u in UNITS]
    vectors += [tuple(_random_elements(rng, 4)) for _ in range(300)]
    vectors += [(ZERO, ZERO, Eisenstein(-3, 4), ZERO), (ZERO, Eisenstein(0, -2), ZERO, ONE)]
    vectors = [v for v in vectors if any(not x.is_zero() for x in v)]
    expected = [_boxed_canonical(v) for v in vectors]
    assert [canonical_phase(v) for v in vectors] == expected
    array = np.array([[x.key() for x in v] for v in vectors])
    assert canonical_rows(array).tolist() == [[list(x.key()) for x in v] for v in expected]
    with pytest.raises(ValueError):
        canonical_phase((ZERO,) * 4)
    with pytest.raises(ValueError):
        canonical_rows(np.zeros((1, 4, 2), np.int64))


def test_vector_array_holds_the_state_vectors(config):
    assert config.vector_array.shape == (40, 4, 2)
    for s in config.states:
        assert config.vector_array[s.index].tolist() == [list(x.key()) for x in s.vector]
        assert all(type(x) is Eisenstein for x in s.vector)


@pytest.fixture
def eisenstein_count(monkeypatch):
    """Counts Eisenstein constructions through a patched ``__post_init__``."""
    made = []
    post_init = Eisenstein.__post_init__
    monkeypatch.setattr(Eisenstein, "__post_init__", lambda x: made.append(1) or post_init(x))
    return made


# sha256 of repr([s.vector for s in config.states]), the boxed vectors the
# build stored before it held the states as int pairs.
BOXED_VECTORS_SHA256 = "887eadfb525a3a0edf4f4bbb7cd3b29f1d8b101baa07cb6e7810fca10520ef19"


def test_build_and_a_simulate_op_box_no_eisenstein_values(eisenstein_count, capsys):
    from wittingqkd.cli import main

    fresh = WittingConfiguration()
    main(["simulate", "--protocol", "naive", "--rounds", "2000", "--seed", "7", "--eve", "3"])
    assert capsys.readouterr().out
    assert eisenstein_count == []
    # The boxed view is built on first access, 160 values, and then kept.
    vectors = [s.vector for s in fresh.states]
    assert len(eisenstein_count) == 160
    assert [s.vector for s in fresh.states] == vectors and len(eisenstein_count) == 160
    assert all(type(x) is Eisenstein for v in vectors for x in v)
    assert [tuple(x.key() for x in v) for v in vectors] == [s.pairs for s in fresh.states]
    assert hashlib.sha256(repr(vectors).encode()).hexdigest() == BOXED_VECTORS_SHA256


def test_transition_table_matches_boxed_overlaps(config):
    """The Gram-product table against the boxed fold, all 1600 ordered pairs."""
    assert config.transition_array.shape == (40, 40)
    for s in config.states:
        for t in config.states:
            n = boxed_fold(s.vector, t.vector).norm_sq()
            assert config.transition_array[s.index, t.index] == n
            assert config.transition_prob(s, t) == Fraction(n, 9)


def test_session_tables_match_card_queries(config):
    """The arrays against the card queries and against the tetrads' members."""
    for s in config.states:
        holding = [b.id for b in config.bases if s.card in b.members]
        assert list(config.bases_of(s.card)) == holding
        assert config.tetrads_of_state[s.index].tolist() == holding
        for t in config.states:
            shared = [b for b in holding if t.card in config.bases[b].members]
            assert config.common_tetrad[s.index, t.index] == min(shared, default=-1)


def test_arrays_are_read_only(config):
    for array in (config.vector_array, config.transition_array,
                  config.tetrads_of_state, config.common_tetrad):
        with pytest.raises(ValueError):
            array[0, 0] = 0


# -- build self-checks -----------------------------------------------------------


def _set_vector(monkeypatch, suit_index, rank, text):
    """Give one card a new vector in both tables, so that they still agree."""
    cards = dict(configuration._CARD_TABLE)
    entries = list(cards[rank])
    row = entries[suit_index][1]
    entries[suit_index] = (text, row)
    cards[rank] = tuple(entries)
    blocks = [list(column) for column in configuration._BLOCK_TABLE]
    blocks[suit_index][row] = text
    monkeypatch.setattr(configuration, "_CARD_TABLE", cards)
    monkeypatch.setattr(configuration, "_BLOCK_TABLE", tuple(map(tuple, blocks)))


def test_build_rejects_card_block_disagreement(monkeypatch):
    cards = dict(configuration._CARD_TABLE)
    cards[3] = (("0 1 -w W", 3),) + cards[3][1:]  # S3's vector is block row 2
    monkeypatch.setattr(configuration, "_CARD_TABLE", cards)
    with pytest.raises(ConfigurationError, match=r"S3 disagrees with block \(0,3\)"):
        WittingConfiguration()


def test_build_rejects_wrong_norm(monkeypatch):
    _set_vector(monkeypatch, 0, 2, "0 1 -1 0")
    with pytest.raises(ConfigurationError, match=r"S2 has norm\^2 != 3"):
        WittingConfiguration()


def test_build_rejects_overlap_outside_spectrum(monkeypatch):
    # The family check pins every vector, so it is bypassed to reach the
    # overlap check: (1, 1, -1, 0) has norm 3 but overlap 1 with C2.
    monkeypatch.setattr(WittingConfiguration, "_check_families", lambda self: None)
    _set_vector(monkeypatch, 0, 2, "1 1 -1 0")
    with pytest.raises(ConfigurationError, match=r"outside \{0, 3\}: 1$"):
        WittingConfiguration()


def test_build_rejects_family_mismatch(monkeypatch):
    _set_vector(monkeypatch, 0, 2, "0 1 -1 -1")  # norm 3, but -1 is no power of w
    with pytest.raises(ConfigurationError, match="block column 0 mismatches its family"):
        WittingConfiguration()


def test_build_rejects_table_without_tetrad_structure(config, monkeypatch):
    # An edge switch keeps the graph 12-regular: S1-S2 and H2-H5 stop being
    # orthogonal, S1-H2 and S2-H5 become so.  The first pair to fail, in
    # row order, is (S1, S3): S4 is now their only common orthogonal state.
    table = config.transition_array.copy()
    for i, j, before, after in ((0, 1, 0, 3), (11, 14, 0, 3), (0, 11, 3, 0), (1, 14, 3, 0)):
        assert table[i, j] == before
        table[i, j] = table[j, i] = after
    assert set((table == 0).sum(axis=1).tolist()) == {12}
    monkeypatch.setattr(WittingConfiguration, "_build_table", lambda self: table)
    with pytest.raises(ConfigurationError, match=r"pair S1, S3: common orthogonal states are not"):
        WittingConfiguration()


def test_build_rejects_table_with_non_orthogonal_common_states(monkeypatch):
    # A circulant graph: i and j are orthogonal when i - j = +-5, 7, 15, 16,
    # 18 or 19 mod 40.  It is 12-regular and every orthogonal pair has exactly
    # two common orthogonal states, but some such two are not orthogonal.
    gap = (np.arange(40)[:, None] - np.arange(40)) % 40
    table = np.where(np.isin(gap, [5, 7, 15, 16, 18, 19, 21, 22, 24, 25, 33, 35]), 0, 3)
    np.fill_diagonal(table, 9)
    zero = (table == 0).astype(int)
    assert set(zero.sum(axis=1).tolist()) == {12}
    assert set((zero @ zero)[zero == 1].tolist()) == {2}
    monkeypatch.setattr(WittingConfiguration, "_build_table", lambda self: table)
    with pytest.raises(ConfigurationError, match="common orthogonal states are not one orthogonal"):
        WittingConfiguration()


def test_build_rejects_conjugation_mismatch(monkeypatch):
    # Swapping whole ranks keeps every tetrad's shape, but conj(S3) is S4.
    cards = dict(configuration._CARD_TABLE)
    cards[3], cards[5] = cards[5], cards[3]
    monkeypatch.setattr(configuration, "_CARD_TABLE", cards)
    with pytest.raises(ConfigurationError, match="conjugate of S3 is not S4"):
        WittingConfiguration()


def test_build_rejects_projectively_equal_states(monkeypatch):
    _set_vector(monkeypatch, 0, 3, "0 -1 1 -1")  # -1 times S2
    with pytest.raises(ConfigurationError, match="states are not projectively distinct"):
        WittingConfiguration()


@pytest.mark.parametrize("orphan", ["0 0 0 0", "0 1 x 1"])
def test_build_rejects_cards_sharing_a_block_entry(monkeypatch, orphan):
    # S4 takes S3's entry (0, 2), so no card holds entry (0, 3).  What that
    # entry holds is never reached: the duplicate state fails first.
    cards = dict(configuration._CARD_TABLE)
    cards[4] = (cards[3][0], *cards[4][1:])
    blocks = [list(column) for column in configuration._BLOCK_TABLE]
    blocks[0][3] = orphan
    monkeypatch.setattr(configuration, "_CARD_TABLE", cards)
    monkeypatch.setattr(configuration, "_BLOCK_TABLE", tuple(map(tuple, blocks)))
    with pytest.raises(ConfigurationError, match="states are not projectively distinct"):
        WittingConfiguration()


def test_build_rejects_block_row_0_off_the_axis(monkeypatch):
    # (1, -1, 1, 0) has norm 3 and is no configuration state, so the family
    # check is the first to fail, and columns 0 and 1 pass it first.
    _set_vector(monkeypatch, 2, 1, "1 -1 1 0")
    with pytest.raises(ConfigurationError, match=r"block \(2,0\) is not the axis state"):
        WittingConfiguration()


def test_build_rejects_irregular_orthogonality_graph(monkeypatch):
    # No table reaches this check: each of the 108 norm-3 vectors outside the
    # configuration has an overlap outside {0, 3} with 27 of its states.  So
    # the Gram product is patched: S1 and S2, orthogonal, get an overlap of
    # norm 3, which leaves both with 11 orthogonal states.
    gram = configuration.ring_matmul

    def patched(x, y):
        out = gram(x, y).copy()
        out[0, 1] = out[1, 0] = (1, 2)
        return out

    monkeypatch.setattr(configuration, "ring_matmul", patched)
    with pytest.raises(ConfigurationError, match=r"not 12-regular: \{11, 12\}$"):
        WittingConfiguration()


def _relabelled_table(config, i, j):
    """The transition table with states i and j swapped."""
    order = np.arange(40)
    order[[i, j]] = j, i
    return config.transition_array[np.ix_(order, order)]


def test_build_rejects_tetrad_with_two_suits(config, monkeypatch):
    # Swapping S2 and H2 moves H2 into S2's mono-suit tetrads.
    table = _relabelled_table(config, 1, 11)
    monkeypatch.setattr(WittingConfiguration, "_build_table", lambda self: table)
    with pytest.raises(
        ConfigurationError,
        match=re.escape(
            "tetrad with 2 suits: (Card(suit='S', rank=1), Card(suit='S', rank=3), "
            "Card(suit='S', rank=4), Card(suit='H', rank=2))"
        ),
    ):
        WittingConfiguration()


def test_build_rejects_tetrad_tag_counts(config, monkeypatch):
    # Swapping S2 and S3 keeps every tetrad's suits, but the rank tetrads of
    # 2 and 3 become mixed-suit ones.
    table = _relabelled_table(config, 1, 2)
    monkeypatch.setattr(WittingConfiguration, "_build_table", lambda self: table)
    with pytest.raises(ConfigurationError, match="tetrad tags off: 8/20/12$"):
        WittingConfiguration()


def build_digest(config):
    """sha256 over every public field the build sets."""
    h = hashlib.sha256()
    for name in ("vector_array", "transition_array", "tetrads_of_state", "common_tetrad"):
        array = getattr(config, name)
        h.update(f"{name} {array.dtype.str} {array.shape} {array.flags.writeable}\n".encode())
        h.update(array.tobytes())
    h.update(repr([(s.pairs, s.card, s.block) for s in config.states]).encode())
    h.update(repr([(b.id, b.tag, [c.label for c in b.members]) for b in config.bases]).encode())
    h.update(repr(config.basis_states).encode())
    return h.hexdigest()


# build_digest(WittingConfiguration()) of the build that parsed and
# canonicalised each table on its own.
BUILD_SHA256 = "d2fe0d7c9ecd4fde498f566840c69a9a10a3c89cca8cdec50ef08f51bed99ca8"


def test_build_fields_are_pinned():
    assert build_digest(WittingConfiguration()) == BUILD_SHA256
