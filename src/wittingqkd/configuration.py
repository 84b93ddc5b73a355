"""The 40-state configuration in C^4: states, numbering schemes, and bases.

The configuration consists of 40 projective states whose sqrt(3)-scaled
coordinates are Eisenstein integers.  Two numbering schemes coexist:

* ``block`` numbering, (column 0..3, row 0..9): row 0 holds the four axis
  states, and each column's rows 1..9 run through one of the four
  nine-state families ``(0,1,-w^m,w^n)``, ``(1,0,-w^m,-w^n)``,
  ``(1,-w^m,0,w^n)``, ``(1,w^m,w^n,0)``.
* ``card`` numbering, (suit in S,H,D,C; rank 1..10): rows are arranged so
  that the four cards of each rank are mutually orthogonal.

Both tables are embedded below as literal constants and cross-validated on
construction: against each other (the bracketed block index carried by the
card table) and against the generative families.  Any mismatch raises
:class:`ConfigurationError` — the data is a load-bearing part of the build,
not documentation.

Projective equivalence throughout means equality up to the six units of
Z[w]; the canonical representative of a state is the unit multiple whose
first nonzero coordinate has the lexicographically smallest (a, b) pair.
The axis states are stored via the in-ring multiple i*sqrt(3) = 1 + 2w, so
e.g. (sqrt(3),0,0,0) is represented by the class of ((1,2),0,0,0).

The build parses the states and the family templates in one token pass,
canonicalises them and the states' conjugates in one :func:`canonical_rows`
call, compares vector sets as integer keys and takes the transition table
as one Gram product (:func:`ring_matmul`).  Everything else is read off
that table: the orthogonality graph, the 40 tetrads (each orthogonal pair
and its two common orthogonal states), the session tables, and the MUB
slices (the tetrads through an axis state).  The symmetry group computes
with the same functions.  Each ``ProjectiveState`` holds its vector as
``pairs``, the (a, b) int rows of ``vector_array`` that the Z[w] reference
in ``measurement`` reads.  Boxed :class:`Eisenstein` vectors appear only
at the API edge (``ProjectiveState.vector``, built on first access,
:func:`canonical_phase`, ``expand_vertices``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable

import numpy as np

from .cards import RANKS, SUITS, Card
from .eisenstein import Eisenstein, UNITS

# Complex conjugation maps each state to another configuration state with the
# same suit and the rank swapped by this involution (ranks 1 and 2 are real).
RANK_CONJUGATION = {1: 1, 2: 2, 3: 4, 4: 3, 5: 8, 8: 5, 7: 9, 9: 7, 6: 10, 10: 6}


class ConfigurationError(RuntimeError):
    """Raised when the embedded tables fail a structural self-check."""


# Vector tokens (w = omega, W = omega^2, R = i*sqrt(3) = 1 + 2w) as rows of _TOKEN_PAIRS.
_TOKENS = dict(zip("0 1 -1 w -w W -W R".split(), range(8)))
_TOKEN_PAIRS = np.array([(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1), (1, 2)])

# Block numbering: per column, rows 0..9 (sqrt(3)-scaled coordinates).
_BLOCK_TABLE = (
    ("R 0 0 0", "0 1 -1 1", "0 1 -w W", "0 1 -W w", "0 1 -w 1",
     "0 1 -W W", "0 1 -1 w", "0 1 -W 1", "0 1 -1 W", "0 1 -w w"),
    ("0 R 0 0", "1 0 -1 -1", "1 0 -w -W", "1 0 -W -w", "1 0 -1 -w",
     "1 0 -w -1", "1 0 -W -W", "1 0 -1 -W", "1 0 -w -w", "1 0 -W -1"),
    ("0 0 R 0", "1 -1 0 1", "1 -w 0 W", "1 -W 0 w", "1 -W 0 W",
     "1 -1 0 w", "1 -w 0 1", "1 -w 0 w", "1 -W 0 1", "1 -1 0 W"),
    ("0 0 0 R", "1 1 1 0", "1 w W 0", "1 W w 0", "1 w 1 0",
     "1 W W 0", "1 1 w 0", "1 W 1 0", "1 1 W 0", "1 w w 0"),
)

# Card numbering: rank -> per-suit (vector, block row within the suit's
# column).  Suit S maps to block column 0, H to 1, D to 2, C to 3.
_CARD_TABLE = {
    1: (("R 0 0 0", 0), ("0 R 0 0", 0), ("0 0 R 0", 0), ("0 0 0 R", 0)),
    2: (("0 1 -1 1", 1), ("1 0 -1 -1", 1), ("1 -1 0 1", 1), ("1 1 1 0", 1)),
    3: (("0 1 -w W", 2), ("1 0 -W -1", 9), ("1 -w 0 1", 6), ("1 w W 0", 2)),
    4: (("0 1 -W w", 3), ("1 0 -w -1", 5), ("1 -W 0 1", 8), ("1 W w 0", 3)),
    5: (("0 1 -1 w", 6), ("1 0 -w -W", 2), ("1 -w 0 W", 2), ("1 w w 0", 9)),
    6: (("0 1 -w 1", 4), ("1 0 -1 -W", 7), ("1 -W 0 W", 4), ("1 W 1 0", 7)),
    7: (("0 1 -W W", 5), ("1 0 -W -W", 6), ("1 -1 0 W", 9), ("1 1 W 0", 8)),
    8: (("0 1 -1 W", 8), ("1 0 -W -w", 3), ("1 -W 0 w", 3), ("1 W W 0", 5)),
    9: (("0 1 -w w", 9), ("1 0 -w -w", 8), ("1 -1 0 w", 5), ("1 1 w 0", 6)),
    10: (("0 1 -W 1", 7), ("1 0 -1 -w", 4), ("1 -w 0 w", 7), ("1 w 1 0", 4)),
}

Vector = tuple[Eisenstein, Eisenstein, Eisenstein, Eisenstein]
_Table = tuple[tuple[int, ...], ...]


def check_int(name: str, value: object, low: int, high: int | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an int, not a bool, in low..high.

    ``high`` None means no upper bound.  Floats and bools are refused even
    where they would index the same entry: 2.0 is not a tetrad id.
    """
    if (
        not isinstance(value, int) or isinstance(value, bool)
        or value < low or (high is not None and value > high)
    ):
        bound = f">= {low}" if high is None else f"in {low}..{high}"
        raise ValueError(f"{name} must be an int {bound}, got {value!r}")


_FAMILIES = tuple(  # of block columns 0..3, with w^m, w^n (m, n in 0..2) as tokens
    f.format(m, n) for f in ("0 1 -{} {}", "1 0 -{} -{}", "1 -{} 0 {}", "1 {} {} 0")
    for m in "1wW" for n in "1wW"
)
_CARDS = tuple(Card(suit, rank) for suit in SUITS for rank in RANKS)  # by state index
_DIGITS = np.array([8**k for k in range(8)])
_CONJUGATE = np.array([_CARDS.index((c.suit, RANK_CONJUGATION[c.rank])) for c in _CARDS])


# -- Z[w] on integer arrays: the last axis holds the (a, b) of a + b*w ----------

UNIT_PAIRS = np.array([u.key() for u in UNITS])  # UNITS as (a, b) rows


def ring_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise (broadcast) product; same rule as ``Eisenstein.__mul__``."""
    a, b, c, d = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    bd = b * d
    return np.stack((a * c - bd, a * d + b * c - bd), axis=-1)


def ring_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matrix product of (..., n, k, 2) and (..., k, m, 2) arrays; rule of :func:`ring_mul`."""
    a, b, c, d = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    bd = b @ d
    return np.stack((a @ c - bd, a @ d + b @ c - bd), axis=-1)


def ring_conj(x: np.ndarray) -> np.ndarray:
    """Elementwise complex conjugate: a + b*w -> (a - b) - b*w."""
    return np.stack((x[..., 0] - x[..., 1], -x[..., 1]), axis=-1)


def ring_norm(x: np.ndarray) -> np.ndarray:
    """Elementwise a**2 - a*b + b**2, as ``Eisenstein.norm_sq``."""
    a, b = x[..., 0], x[..., 1]
    return a * a - a * b + b * b


def canonical_rows(vectors: np.ndarray) -> np.ndarray:
    """:func:`canonical_phase` of every vector in a (..., n, 2) integer array."""
    nonzero = vectors.any(axis=-1)
    if not nonzero.any(axis=-1).all():
        raise ValueError("cannot canonicalise the zero vector")
    lead_at = nonzero.argmax(axis=-1)[..., None, None]
    lead = np.take_along_axis(vectors, lead_at, axis=-2)[..., 0, :]
    return ring_mul(UNIT_PAIRS[_best_unit(lead)][..., None, :], vectors)


def _best_unit(lead: np.ndarray) -> np.ndarray:
    """Index into ``UNITS`` of the unit u minimising (u * lead) as an (a, b) pair.

    Only the leading coordinate's six unit multiples are compared; the
    winning unit then scales the whole vector.  The minimum is unique, as
    the units act freely on nonzero elements.
    """
    multiples = ring_mul(UNIT_PAIRS, lead[..., None, :])  # (..., 6, 2)
    a, b = multiples[..., 0], multiples[..., 1]
    b_where_a_least = np.where(a == a.min(axis=-1, keepdims=True), b, np.iinfo(b.dtype).max)
    return b_where_a_least.argmin(axis=-1)


def vector_keys(vectors: np.ndarray) -> np.ndarray:
    """One int per (4, 2) vector, its entries + 3 as base-8 digits: exact for norms <= 3."""
    return (vectors.reshape(*vectors.shape[:-2], 8) + 3) @ _DIGITS


def canonical_phase(vector: Iterable[Eisenstein]) -> Vector:
    """Canonical representative among the six unit multiples of ``vector``."""
    vec = tuple(vector)
    lead = next((x for x in vec if not x.is_zero()), None)
    if lead is None:
        raise ValueError("cannot canonicalise the zero vector")
    unit = UNITS[int(_best_unit(np.array(lead.key())))]  # the unit canonical_rows picks
    return tuple(unit * x for x in vec)  # type: ignore[return-value]


@dataclass(frozen=True)
class ProjectiveState:
    """One configuration state: canonical vector as (a, b) int pairs, both index schemes."""

    pairs: tuple[tuple[int, int], ...]
    card: Card
    block: tuple[int, int]  # (column, row)

    @property
    def index(self) -> int:
        return SUITS.index(self.card.suit) * 10 + self.card.rank - 1

    @cached_property
    def vector(self) -> Vector:
        """The vector boxed as :class:`Eisenstein` values, built on first access."""
        return tuple(Eisenstein(a, b) for a, b in self.pairs)  # type: ignore[return-value]


@dataclass(frozen=True)
class Basis:
    """An orthogonal tetrad of configuration states.

    ``members`` is ordered: by suit for tetrads with one card per suit
    (rank tetrads included), by ascending rank for mono-suit tetrads.  The
    position of a card inside ``members`` is the outcome index announced by
    the protocols.
    """

    id: int
    tag: str  # "rank-tetrad" | "mixed-suit" | "mono-suit"
    members: tuple[Card, Card, Card, Card]


_TAGS = ("rank-tetrad", "mixed-suit", "mono-suit")  # in tetrad id order


class WittingConfiguration:
    """The full 40-state configuration, verified on construction.

    Construction parses both embedded tables, cross-checks them against each
    other, the generative families and conjugation, checks the orthogonality
    graph, enumerates the 40 orthogonal tetrads and checks every structural
    count.  The object is immutable and safe to share between threads; its
    ``adjacency`` is built on first access, so a race can only build it twice.

    Integer arrays, all read-only and indexed by state index:
    ``vector_array`` (40, 4, 2) int64, the canonical vectors as (a, b) pairs;
    ``transition_array`` (40, 40) int64, 9 |<s|t>|^2 in {0, 3, 9};
    ``tetrads_of_state`` (40, 4) uint8, the four tetrad ids of each state in
    ascending order (``bases_of``); ``common_tetrad`` (40, 40) int8, the
    tetrad shared by two states or -1.  Distinct orthogonal states share
    exactly one tetrad; a state paired with itself takes the lowest of its
    four (a public tie-break both protocol parties can apply without
    communicating); non-orthogonal pairs share none.
    """

    def __init__(self) -> None:
        # (text, block row) by state index: suit i // 10, rank i % 10 + 1.
        placed = [_CARD_TABLE[rank][si] for si in range(4) for rank in RANKS]
        for i, (text, row) in enumerate(placed):
            if _BLOCK_TABLE[i // 10][row] != text:
                raise ConfigurationError(
                    f"card table {_CARDS[i].label} disagrees with block ({i // 10},{row})"
                )
        # Rows 0..39 the states, 40..75 the families.
        texts = " ".join([text for text, _ in placed] + [*_FAMILIES])
        raw = _TOKEN_PAIRS[[_TOKENS[t] for t in texts.split()]].reshape(76, 4, 2)
        bad = ring_norm(raw[:40]).sum(axis=1) != 3
        if bad.any():
            raise ConfigurationError(f"state {_CARDS[bad.argmax()].label} has norm^2 != 3")
        # Rows 76..115 the states' conjugates; _check_families reads the keys.
        canonical = canonical_rows(np.concatenate((raw, ring_conj(raw[:40]))))
        self._keys = vector_keys(canonical)
        self.vector_array = _frozen(canonical[:40])
        self.states: tuple[ProjectiveState, ...] = tuple(
            ProjectiveState(tuple(map(tuple, vec)), card, (i // 10, row))
            for i, (vec, card, (_, row)) in enumerate(zip(canonical[:40].tolist(), _CARDS, placed))
        )
        self._by_card = dict(zip(_CARDS, self.states))
        if len(set(self._keys[:40].tolist())) != 40:
            raise ConfigurationError("states are not projectively distinct")
        self._check_families()

        # transition_array[i, j] = 9 |<s_i|s_j>|^2 in {0, 3, 9}, by state
        # index: every Born probability between states is an entry over 9.
        self.transition_array = _frozen(self._build_table())
        members, tags = self._tetrads()
        # Member state indices of each tetrad, in announcement order.
        self.basis_states: _Table = tuple(map(tuple, members.tolist()))
        self.bases: tuple[Basis, ...] = tuple(
            Basis(i, _TAGS[tag], itemgetter(*m)(_CARDS))
            for i, (tag, m) in enumerate(zip(tags.tolist(), self.basis_states))
        )
        by_state = members.ravel().argsort(kind="stable") // 4  # entry k is in tetrad k // 4
        self.tetrads_of_state = _frozen(by_state.astype(np.uint8).reshape(40, 4))
        # Each tetrad's 16 ordered pairs of members; the diagonal is refilled.
        common = np.full((40, 40), -1, np.int8)
        common[members[:, :, None], members[:, None, :]] = np.arange(40)[:, None, None]
        np.fill_diagonal(common, self.tetrads_of_state[:, 0])  # the lowest of four
        self.common_tetrad = _frozen(common)
        bad = self._keys[76:] != self._keys[_CONJUGATE]
        if bad.any():
            i = bad.argmax()
            raise ConfigurationError(
                f"conjugate of {_CARDS[i].label} is not {_CARDS[_CONJUGATE[i]].label}"
            )
        del self._keys

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        """The orthogonality graph: the states orthogonal to each state, by index."""
        return tuple(frozenset(np.flatnonzero(r == 0).tolist()) for r in self.transition_array)

    # -- construction helpers -------------------------------------------------

    def _check_families(self) -> None:
        """Block columns must reproduce the four generative nine-state families.

        The states are distinct here, so each block entry is one state's text.
        """
        at = sorted(range(40), key=lambda i: self.states[i].block)  # state by block entry
        block, family = self._keys[at].reshape(4, 10), self._keys[40:76].reshape(4, 9)
        for col, column in enumerate(_BLOCK_TABLE):
            if column[0].split() != ["R" if k == col else "0" for k in range(4)]:
                raise ConfigurationError(f"block ({col},0) is not the axis state")
            if set(block[col, 1:].tolist()) != set(family[col].tolist()):
                raise ConfigurationError(f"block column {col} mismatches its family")

    def _build_table(self) -> np.ndarray:
        """9 |<s|t>|^2 for all pairs, as one integer Gram product over Z[w]."""
        v = self.vector_array
        table = ring_norm(ring_matmul(ring_conj(v), v.transpose(1, 0, 2)))
        if (np.diagonal(table) != 9).any():
            raise ConfigurationError("some state has |<s|s>|^2 != 9")
        off = np.triu((table != 0) & (table != 3), k=1)
        if off.any():
            i, j = np.unravel_index(off.argmax(), off.shape)  # first pair in row order
            s, t = self.states[i].card.label, self.states[j].card.label
            raise ConfigurationError(f"|<{s}|{t}>|^2 outside {{0, 3}}: {table[i, j]}")
        degrees = set((table == 0).sum(axis=1).tolist())
        if degrees != {12}:
            raise ConfigurationError(f"orthogonality graph not 12-regular: {degrees}")
        return table

    def _tetrads(self) -> tuple[np.ndarray, np.ndarray]:
        """The 40 orthogonal tetrads off the table: members and tags, in id order.

        Every orthogonal pair s < t must have exactly two common orthogonal
        states u < v, and they must be orthogonal to each other.  Then
        {s, t, u, v} is the only tetrad through the pair, and no five states
        are mutually orthogonal, as a fifth would be a third common state.
        With the 12-regularity that :meth:`_build_table` checks, this one
        condition gives 240 / 6 = 40 tetrads, 12 / 3 = 4 tetrads per state
        and each of the 480 ordered orthogonal pairs in exactly one tetrad,
        so none of those is counted again.  Each tetrad is kept once, from
        its two lowest members (t < u).  Ascending state indices are the
        (suit, rank) order of ``Basis.members``; ids run by tag, then by the
        suit of the first member, then by ranks.
        """
        zero = self.transition_array == 0
        s, t = np.nonzero(np.triu(zero, 1))
        pair, common = np.nonzero(zero[s] & zero[t])
        # bincount, not a sum over axis 1: that sum casts through a 64 KB buffer.
        ok = np.bincount(pair, minlength=len(s)) == 2
        if ok.all():
            u, v = common.reshape(-1, 2).T
            ok = zero[u, v]
        if not ok.all():
            i = ok.argmin()
            a, b = self.states[s[i]].card.label, self.states[t[i]].card.label
            raise ConfigurationError(
                f"orthogonal pair {a}, {b}: common orthogonal states are not one orthogonal pair"
            )
        quads = np.stack((s, t, u, v), axis=1)[t < u]
        suits, ranks = np.divmod(quads, 10)
        steps = (np.diff(suits) != 0).sum(axis=1)  # suits - 1, as suits ascend
        split = (steps != 0) & (steps != 3)
        if split.any():
            i = split.argmax()
            members = itemgetter(*quads[i])(_CARDS)
            raise ConfigurationError(f"tetrad with {steps[i] + 1} suits: {members}")
        tags = np.where(steps == 0, 2, (ranks != ranks[:, :1]).any(axis=1))  # as in _TAGS
        order = np.lexsort((*ranks.T[::-1], suits[:, 0], tags))
        counts = np.bincount(tags, minlength=3).tolist()
        if counts != [10, 18, 12]:
            raise ConfigurationError(f"tetrad tags off: {counts[0]}/{counts[1]}/{counts[2]}")
        return quads[order], tags[order]

    # -- queries ---------------------------------------------------------------

    def state_of(self, card: Card) -> ProjectiveState:
        return self._by_card[card]

    def transition_prob(self, s: ProjectiveState | Card, t: ProjectiveState | Card) -> Fraction:
        """Born probability |<s|t>|^2: exactly 0, 1/3, or 1."""
        i, j = (x if isinstance(x, ProjectiveState) else self._by_card[x] for x in (s, t))
        return Fraction(int(self.transition_array[i.index, j.index]), 9)

    def conjugate_card(self, card: Card) -> Card:
        return Card(card.suit, RANK_CONJUGATION[card.rank])

    def bases_of(self, card: Card) -> tuple[int, ...]:
        return tuple(self.tetrads_of_state[self._by_card[card].index].tolist())

    def vertex_array(self) -> np.ndarray:
        """The 240 polytope vertices, (240, 4, 2): vertex 6 s + u is UNITS[u] times state s."""
        vertices = ring_mul(UNIT_PAIRS[:, None], self.vector_array[:, None]).reshape(-1, 4, 2)
        if len(set(vector_keys(vertices).tolist())) != 240:
            raise ConfigurationError("the unit multiples of the states are not 240 vertices")
        return vertices

    def expand_vertices(self) -> list[Vector]:
        """The rows of :meth:`vertex_array` as boxed vectors, in its order."""
        return [tuple(Eisenstein(*x) for x in vec) for vec in self.vertex_array().tolist()]

    def mub_triads(self, zero_coordinate: int) -> tuple[tuple[Card, ...], ...]:
        """The 12 states with a zero at the given coordinate, as 4 orthogonal triads.

        Restricted to such a slice the configuration is a set of four
        mutually unbiased bases of the 3-dimensional subspace: triads are
        internally orthogonal and cross-triad transition probabilities all
        equal 1/3.  As <e_k|s> = s_k, the slice is the set of states
        orthogonal to the axis state of coordinate k (card ``SUITS[k]`` 1),
        and the triads are that state's four tetrads without it, ordered by
        the state index of their first card.
        """
        check_int("coordinate", zero_coordinate, 0, 3)
        axis = Card(SUITS[zero_coordinate], 1)
        triads = (
            tuple(c for c in self.bases[b].members if c != axis) for b in self.bases_of(axis)
        )
        return tuple(sorted(triads, key=lambda t: self._by_card[t[0]].index))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


# -- serialisation -------------------------------------------------------------


def states_payload(config: WittingConfiguration) -> list[dict]:
    return [
        {
            "card": s.card.label,
            "block": list(s.block),
            "vector": [list(x) for x in s.pairs],
        }
        for s in config.states
    ]


def bases_payload(config: WittingConfiguration) -> list[dict]:
    return [
        {"id": b.id, "tag": b.tag, "members": [c.label for c in b.members]}
        for b in config.bases
    ]
