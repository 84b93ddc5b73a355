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

The build runs on one integer array: the 40 canonical vectors as a
(40, 4, 2) array of (a, b) pairs, with Z[w] products, conjugates and
canonical phases computed elementwise (:func:`ring_mul`, :func:`ring_conj`,
:func:`canonical_rows`) and the transition table as one integer Gram
product (:func:`ring_matmul`).  The symmetry group computes with the
same functions.  Boxed :class:`Eisenstein` vectors appear only at the API
edge (``ProjectiveState.vector``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from .eisenstein import Eisenstein, UNITS, ZERO

SUITS = ("S", "H", "D", "C")  # spades, hearts, diamonds, clubs: ascending order
RANKS = tuple(range(1, 11))

# Complex conjugation maps each state to another configuration state with the
# same suit and the rank swapped by this involution (ranks 1 and 2 are real).
RANK_CONJUGATION = {1: 1, 2: 2, 3: 4, 4: 3, 5: 8, 8: 5, 7: 9, 9: 7, 6: 10, 10: 6}


class ConfigurationError(RuntimeError):
    """Raised when the embedded tables fail a structural self-check."""


class Card(NamedTuple):
    suit: str
    rank: int

    @property
    def label(self) -> str:
        return f"{self.suit}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "Card":
        suit, rank = text[0].upper(), int(text[1:])
        if suit not in SUITS or rank not in RANKS:
            raise ValueError(f"not a card label: {text!r}")
        return cls(suit, rank)


# Vector tokens: w = omega, W = conj(omega) = omega^2, R = i*sqrt(3) = 1 + 2w.
_TOKENS = {
    "0": (0, 0),
    "1": (1, 0),
    "-1": (-1, 0),
    "w": (0, 1),
    "-w": (0, -1),
    "W": (-1, -1),
    "-W": (1, 1),
    "R": (1, 2),
}

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


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    return [_TOKENS[t] for t in text.split()]


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


def vector_set(vectors: np.ndarray) -> set[tuple[int, ...]]:
    """The vectors of a (..., n, 2) integer array as a set of flat int tuples."""
    flat = vectors.reshape(-1, vectors.shape[-2] * 2)
    return set(map(tuple, flat.tolist()))


def canonical_phase(vector: Iterable[Eisenstein]) -> Vector:
    """Canonical representative among the six unit multiples of ``vector``.

    The chosen multiple is the one whose first nonzero coordinate has the
    smallest (a, b) pair; the unit group acts freely on nonzero ring
    elements, so the minimum is unique.
    """
    vec = tuple(vector)
    lead = next((x for x in vec if not x.is_zero()), None)
    if lead is None:
        raise ValueError("cannot canonicalise the zero vector")
    unit = UNITS[int(_best_unit(np.array(lead.key())))]  # the unit canonical_rows picks
    return tuple(unit * x for x in vec)  # type: ignore[return-value]


def scaled_inner(s: Iterable[Eisenstein], t: Iterable[Eisenstein]) -> Eisenstein:
    """Hermitian inner product sum(conj(s_i) * t_i) of sqrt(3)-scaled vectors."""
    acc = ZERO
    for x, y in zip(s, t):
        acc = acc + x.conj() * y
    return acc


@dataclass(frozen=True)
class ProjectiveState:
    """One configuration state: canonical vector plus both index schemes."""

    vector: Vector
    card: Card
    block: tuple[int, int]  # (column, row)

    @property
    def index(self) -> int:
        return SUITS.index(self.card.suit) * 10 + self.card.rank - 1


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


def _sorted_members(cards: Iterable[Card]) -> tuple[Card, ...]:
    # (suit, rank) ordering covers both rules: one-card-per-suit tetrads sort
    # by suit, mono-suit tetrads by rank.
    return tuple(sorted(cards, key=lambda c: (SUITS.index(c.suit), c.rank)))


def _tag_of(cards: tuple[Card, ...]) -> str:
    nsuits = len({c.suit for c in cards})
    if nsuits == 1:
        return "mono-suit"
    if nsuits == 4:
        if len({c.rank for c in cards}) == 1:
            return "rank-tetrad"
        return "mixed-suit"
    raise ConfigurationError(f"tetrad with {nsuits} suits: {cards}")


class WittingConfiguration:
    """The full 40-state configuration, verified on construction.

    Construction parses both embedded tables, cross-checks them against each
    other and the generative families, builds the orthogonality graph,
    enumerates the 40 orthogonal tetrads and checks every structural count.
    The resulting object is immutable and safe to share between threads.

    Integer arrays, all read-only and indexed by state index:
    ``vector_array`` (40, 4, 2), the canonical vectors as (a, b) pairs;
    ``transition_array`` (40, 40), 9 |<s|t>|^2 in {0, 3, 9};
    ``tetrads_of_state`` (40, 4), the four tetrad ids of each state in
    ascending order (``bases_of``); ``common_tetrad`` (40, 40), the tetrad
    shared by two states or -1 (``common_basis``).
    """

    def __init__(self) -> None:
        placed: list[tuple[Card, tuple[int, int]]] = []
        rows = []
        for si, suit in enumerate(SUITS):
            for rank in RANKS:
                text, row = _CARD_TABLE[rank][si]
                if _BLOCK_TABLE[si][row] != text:
                    raise ConfigurationError(
                        f"card table {suit}{rank} disagrees with block ({si},{row})"
                    )
                placed.append((Card(suit, rank), (si, row)))
                rows.append(_parse_pairs(text))
        raw = np.array(rows, dtype=np.int64)
        bad = ring_norm(raw).sum(axis=1) != 3
        if bad.any():
            raise ConfigurationError(f"state {placed[bad.argmax()][0].label} has norm^2 != 3")
        self.vector_array = _frozen(canonical_rows(raw))
        boxed = (tuple(Eisenstein(*x) for x in vec) for vec in self.vector_array.tolist())
        self.states: tuple[ProjectiveState, ...] = tuple(
            ProjectiveState(vec, card, block)  # type: ignore[arg-type]
            for vec, (card, block) in zip(boxed, placed)
        )
        self._by_card = {s.card: s for s in self.states}
        if len(vector_set(self.vector_array)) != 40:
            raise ConfigurationError("states are not projectively distinct")
        self._check_families()

        # transition_array[i, j] = 9 |<s_i|s_j>|^2 in {0, 3, 9}, by state
        # index: every Born probability between states is an entry over 9.
        self.transition_array = _frozen(self._build_table())
        self.adjacency = tuple(
            frozenset(j for j, n in enumerate(r) if n == 0)
            for r in self.transition_array.tolist()
        )
        self.bases: tuple[Basis, ...] = self._enumerate_bases()
        # Member state indices of each tetrad, in announcement order.
        self.basis_states: _Table = tuple(
            tuple(self._by_card[c].index for c in b.members) for b in self.bases
        )
        members = np.array(self.basis_states)
        if (np.bincount(members.ravel(), minlength=40) != 4).any():
            raise ConfigurationError("some state is not in exactly 4 tetrads")
        owner = np.repeat(np.arange(40), 4)  # tetrad id of each entry of members
        by_state = members.ravel().argsort(kind="stable")
        self.tetrads_of_state = _frozen(owner[by_state].reshape(40, 4))
        # Each tetrad's 12 ordered pairs of distinct members.  The 40 tetrads
        # hold 480 such pairs, so fewer than 480 entries set means that some
        # pair lies in two tetrads.
        s, t, tetrad = np.broadcast_arrays(
            members[:, :, None], members[:, None, :], np.arange(40)[:, None, None]
        )
        distinct = s != t
        common = np.full((40, 40), -1)
        common[s[distinct], t[distinct]] = tetrad[distinct]
        if (common >= 0).sum() != 480:
            raise ConfigurationError("some orthogonal pair lies in two tetrads")
        np.fill_diagonal(common, self.tetrads_of_state[:, 0])  # the lowest of four
        self.common_tetrad = _frozen(common)
        self._check_conjugation()

    # -- construction helpers -------------------------------------------------

    def _check_families(self) -> None:
        """Block columns must reproduce the four generative nine-state families."""
        block = np.array([[_parse_pairs(t) for t in column] for column in _BLOCK_TABLE])
        axes = np.eye(4, dtype=np.int64)[:, :, None] * np.array((1, 2))
        w_pow = np.array([(1, 0), (0, 1), (-1, -1)])
        m, n = np.divmod(np.arange(9), 3)
        wm, wn = w_pow[m], w_pow[n]
        one, zero = np.broadcast_to(w_pow[0], (9, 2)), np.zeros((9, 2), np.int64)
        families = np.stack([
            np.stack((zero, one, -wm, wn), axis=1),
            np.stack((one, zero, -wm, -wn), axis=1),
            np.stack((one, -wm, zero, wn), axis=1),
            np.stack((one, wm, wn, zero), axis=1),
        ])
        expected, got = canonical_rows(families), canonical_rows(block[:, 1:])
        for col in range(4):
            if not (block[col, 0] == axes[col]).all():
                raise ConfigurationError(f"block ({col},0) is not the axis state")
            if vector_set(got[col]) != vector_set(expected[col]):
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

    def _enumerate_bases(self) -> tuple[Basis, ...]:
        masks = [sum(1 << j for j in adj) for adj in self.adjacency]
        quads: list[tuple[Card, ...]] = []
        for a in range(40):
            for b in _bits_above(masks[a], a):
                mab = masks[a] & masks[b]
                for c in _bits_above(mab, b):
                    mabc = mab & masks[c]
                    for d in _bits_above(mabc, c):
                        if masks[a] & masks[b] & masks[c] & masks[d]:
                            raise ConfigurationError("5-clique found; not maximal")
                        quads.append(_sorted_members(self.states[i].card for i in (a, b, c, d)))
        if len(quads) != 40:
            raise ConfigurationError(f"expected 40 tetrads, found {len(quads)}")

        tagged = [(_tag_of(q), q) for q in quads]
        rank_tetrads = sorted(
            (m for t, m in tagged if t == "rank-tetrad"), key=lambda m: m[0].rank
        )
        mixed = sorted(
            (m for t, m in tagged if t == "mixed-suit"),
            key=lambda m: tuple(c.rank for c in m),
        )
        mono = sorted(
            (m for t, m in tagged if t == "mono-suit"),
            key=lambda m: (SUITS.index(m[0].suit), tuple(c.rank for c in m)),
        )
        if (len(rank_tetrads), len(mixed), len(mono)) != (10, 18, 12):
            raise ConfigurationError(
                f"tetrad tags off: {len(rank_tetrads)}/{len(mixed)}/{len(mono)}"
            )
        bases = []
        for members in rank_tetrads:
            bases.append(Basis(len(bases), "rank-tetrad", members))
        for members in mixed:
            bases.append(Basis(len(bases), "mixed-suit", members))
        for members in mono:
            bases.append(Basis(len(bases), "mono-suit", members))
        return tuple(bases)

    def _check_conjugation(self) -> None:
        v = self.vector_array
        images = [self._by_card[self.conjugate_card(s.card)] for s in self.states]
        bad = (canonical_rows(ring_conj(v)) != v[[t.index for t in images]]).any(axis=(1, 2))
        if bad.any():
            i = bad.argmax()
            raise ConfigurationError(
                f"conjugate of {self.states[i].card.label} is not {images[i].card.label}"
            )

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

    def common_basis(self, a: Card, b: Card) -> int | None:
        """The tetrad shared by two cards.

        Distinct orthogonal cards lie in exactly one common tetrad; equal
        cards resolve to the lowest of their four tetrad ids (a public
        tie-break both protocol parties can apply without communicating);
        non-orthogonal pairs share none.
        """
        shared = int(self.common_tetrad[self._by_card[a].index, self._by_card[b].index])
        return None if shared < 0 else shared

    def vertex_array(self) -> np.ndarray:
        """The 240 polytope vertices, (240, 4, 2): vertex 6 s + u is UNITS[u] times state s."""
        vertices = ring_mul(UNIT_PAIRS[:, None], self.vector_array[:, None]).reshape(-1, 4, 2)
        if len(vector_set(vertices)) != 240:
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
        equal 1/3.
        """
        slice_states = [
            s for s in self.states if s.vector[zero_coordinate].is_zero()
        ]
        if len(slice_states) != 12:
            raise ConfigurationError(
                f"coordinate {zero_coordinate} slice has {len(slice_states)} states"
            )
        cards = [s.card for s in slice_states]
        index = {c: i for i, c in enumerate(cards)}
        neighbours: dict[Card, set[Card]] = {c: set() for c in cards}
        for s, t in itertools.combinations(slice_states, 2):
            if scaled_inner(s.vector, t.vector).is_zero():
                neighbours[s.card].add(t.card)
                neighbours[t.card].add(s.card)
        triads: list[tuple[Card, ...]] = []
        unused = set(cards)
        while unused:
            seed = min(unused, key=lambda c: index[c])
            group = {seed} | neighbours[seed]
            if len(group) != 3 or not group <= unused:
                raise ConfigurationError("slice does not split into triads")
            for x, y in itertools.combinations(group, 2):
                if y not in neighbours[x]:
                    raise ConfigurationError("triad is not mutually orthogonal")
            triads.append(_sorted_members(group))
            unused -= group
        triads.sort(key=lambda t: index[t[0]])
        return tuple(triads)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _bits_above(mask: int, threshold: int) -> list[int]:
    out = []
    mask >>= threshold + 1
    i = threshold + 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


# -- serialisation -------------------------------------------------------------


def states_payload(config: WittingConfiguration) -> list[dict]:
    return [
        {
            "card": s.card.label,
            "block": list(s.block),
            "vector": [[x.a, x.b] for x in s.vector],
        }
        for s in config.states
    ]


def bases_payload(config: WittingConfiguration) -> list[dict]:
    return [
        {"id": b.id, "tag": b.tag, "members": [c.label for c in b.members]}
        for b in config.bases
    ]
