"""Triflection generators and the exact symmetry group of the configuration.

A group element is a unitary U held as m = (1 + 2w) U, integral for every
U that permutes the 240 Witting vertices: column j is the image of the axis
vertex (1 + 2w) e_j.  The form is unique, so equality and hashing are
exact.  A product or an image divides once by 1 + 2w and raises if the
result leaves Z[w].

Matrices are (4, 4, 2) int64 arrays in the layout of
``config.vector_array``: the last axis holds the (a, b) of a + b*w.  All
their arithmetic goes through the array kernel of :mod:`.configuration`
(:func:`ring_mul`, :func:`ring_matmul`, :func:`ring_conj`).  The group
itself is closed over permutations of the 240 Witting vertices: those
vertices span C^4, so each element is exactly one permutation, and it is
fixed by the images of the four axis vertices, packed into one uint32 key.
Closure walks a stabiliser chain along the four axis vertices (Sims 1970;
Seress, *Permutation Group Algorithms*, 2003).  At each level a
breadth-first search finds a transversal t_v of the next axis vertex's
orbit under the stabiliser of those before it, and the Schreier generators
t_w^-1 g t_v, w = g(v), generate that vertex's stabiliser for the next
level.  Each element is one product of a row from every level, and its key
is that product's images of the axes: one gather per level and one sort.
The order is the product of the transversals' lengths, so
:func:`reflection_group_order` reads |G32| off the chain without listing it.
Duplicate products are dropped by a stable argsort and membership is
tested by binary search, never by ``np.unique`` or ``np.isin``: from numpy
2.3 ``np.unique`` goes through a hash table, about 100 times slower than
``np.sort`` on these uint32 keys.  The closure is a
:class:`GroupTable`: the sorted keys (about 200 KB) and the vertex index
they refer to.  An element's m is the vertex rows at its key's bytes, and
the orders and the action on the 40 states are read off the same two.
Vertex 6 s + u is UNITS[u] times state s, so state s goes to entry 6 s of
an element's vertex permutation divided by 6, and the orbit of state 0 is
byte 0 of every key divided by 6.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .eisenstein import MAGNITUDE_BOUND, Eisenstein, UNITS
from .configuration import (
    UNIT_PAIRS,
    Card,
    ProjectiveState,
    WittingConfiguration,
    check_int,
    ring_conj,
    ring_matmul,
    ring_mul,
)

_CLOSURE_BOUND = 200_000  # above |G32| = 155520, the largest closure here
_IDENTITY = np.eye(4, dtype=np.int64)[:, :, None] * UNIT_PAIRS[0]  # (4, 4, 2)
_AXES = np.eye(4, dtype=np.int64)[:, :, None] * np.array((1, 2))  # (1 + 2w) I
_R_CONJ = np.array((-1, -2))  # conj(1 + 2w)
_PERMS = np.array(list(itertools.permutations(range(4))))  # (24, 4)
_PERM_SIGNS = 1 - 2 * (  # parity of each permutation's inversion count
    np.triu(_PERMS[:, :, None] > _PERMS[:, None, :], 1).sum(axis=(1, 2)) % 2
)


class SymmetryError(RuntimeError):
    """Internal failure while generating or applying symmetries."""


class NotASymmetryError(ValueError):
    """The given unitary does not map the 40-state set to itself."""


def _over_r(x: np.ndarray) -> np.ndarray:
    """x / (1 + 2w) = x (-1 - 2w) / 3 elementwise; NotASymmetryError outside Z[w]."""
    y = ring_mul(_R_CONJ, x)
    if (y % 3).any():
        raise NotASymmetryError("not divisible by 1 + 2w in Z[w]")
    return y // 3


@dataclass(frozen=True)
class SymmetryElement:
    """A unitary U held as m = (1 + 2w) U over Z[w]: column j of m is the image
    of the axis vertex (1 + 2w) e_j.  Construction freezes a copy of m."""

    m: np.ndarray  # shape (4, 4, 2), int64; treated as immutable

    def __post_init__(self) -> None:
        m = np.array(self.m, dtype=np.int64)  # never freeze the caller's array
        if np.abs(m).max() > MAGNITUDE_BOUND:
            raise SymmetryError("matrix entries exceed the magnitude bound")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    @classmethod
    def identity(cls) -> "SymmetryElement":
        return cls(_AXES)

    def key(self) -> bytes:
        return self.m.tobytes()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymmetryElement) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __matmul__(self, other: "SymmetryElement") -> "SymmetryElement":
        return SymmetryElement(_over_r(ring_matmul(self.m, other.m)))

    def entry(self, i: int, j: int) -> Eisenstein:
        """Entry (i, j) of m, that is (1 + 2w) times the unitary's entry."""
        return Eisenstein(*self.m[i, j].tolist())

    def scaled_by_unit(self, unit_index: int) -> "SymmetryElement":
        """Multiply by UNITS[unit_index]."""
        check_int("unit index", unit_index, 0, len(UNITS) - 1)
        return SymmetryElement(ring_mul(UNIT_PAIRS[unit_index], self.m))

    def is_unitary(self) -> bool:
        """m^dag m = 3 I, as |1 + 2w|^2 = 3."""
        prod = ring_matmul(ring_conj(self.m).transpose(1, 0, 2), self.m)
        return bool((prod == 3 * _IDENTITY).all())

    def determinant_unit(self) -> Eisenstein:
        """det(m) / 9, which must be one of the six units: (1 + 2w)^4 = 9.

        The determinant is the Leibniz sum over the 24 permutations of the
        four columns.
        """
        factors = self.m[np.arange(4), _PERMS]  # (24, 4, 2): m[i, p(i)]
        terms = functools.reduce(ring_mul, factors.transpose(1, 0, 2))
        det = (_PERM_SIGNS[:, None] * terms).sum(axis=0)
        match = (det == 9 * UNIT_PAIRS).all(axis=1)
        if not match.any():
            raise SymmetryError(f"determinant {det.tolist()} is not 9 times a unit")
        return UNITS[int(match.argmax())]

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """Exact images U v of a (..., 4, 2) array of vectors, same shape.

        Raises :class:`NotASymmetryError` if an image leaves Z[w]^4, that is
        if m v is not divisible by 1 + 2w.
        """
        return _over_r(ring_matmul(self.m, vectors[..., None, :])[..., 0, :])


def triflection(state: ProjectiveState) -> SymmetryElement:
    """Order-3 complex reflection about a configuration state.

    For a sqrt(3)-scaled vector v this is 1 + (w - 1) v v^dag / 3; it fixes
    the orthogonal complement and multiplies the state itself by w, so its
    cube is the identity.  Held as (1 + 2w) I + w^2 v v^dag, since
    (1 + 2w)(w - 1) = 3 w^2.  The projector v v^dag is phase-invariant,
    making the construction independent of the canonical representative.
    """
    v = np.array(state.pairs)
    projector = ring_mul(v[:, None], ring_conj(v))  # v v^dag, scaled by 3
    return SymmetryElement(_AXES + ring_mul(UNIT_PAIRS[4], projector))


GENERATOR_CARDS = (Card("S", 1), Card("C", 2), Card("D", 1), Card("S", 2))


def generators(config: WittingConfiguration) -> tuple[SymmetryElement, ...]:
    """The four determinant-1 triflection generators (w^2 times the raw ones)."""
    gens = []
    for card in GENERATOR_CARDS:
        raw = triflection(config.state_of(card))
        g = raw.scaled_by_unit(4)  # * w^2 makes det exactly 1
        if g.determinant_unit() != UNITS[0]:
            raise SymmetryError(f"generator at {card.label} has det != 1")
        if not g.is_unitary():
            raise SymmetryError(f"generator at {card.label} is not unitary")
        gens.append(g)
    return tuple(gens)


class _Vertices:
    """The 240 polytope vertices, ``m = config.vertex_array()``, with lookups."""

    def __init__(self, config: WittingConfiguration):
        self.m = config.vertex_array()
        self._index = {row.tobytes(): i for i, row in enumerate(self.m)}
        self.axes = self.lookup(_AXES)  # (1 + 2w) e_j

    def lookup(self, images: np.ndarray) -> np.ndarray:
        """Vertex indices of the rows of a (k, 4, 2) array, as uint8."""
        found = [self._index.get(row.tobytes()) for row in images]
        if None in found:
            raise NotASymmetryError("a vertex image is not a polytope vertex")
        return np.array(found, dtype=np.uint8)

    def permutation(self, g: SymmetryElement) -> np.ndarray:
        """The vertex permutation g induces, as a (240,) uint8 array.

        Raises :class:`NotASymmetryError` if an image leaves Z[w]^4 or the
        polytope, and :class:`SymmetryError` if two vertices share an image.
        """
        perm = self.lookup(g.apply(self.m))
        if len(set(perm.tolist())) != len(perm):
            raise SymmetryError("vertex images do not form a permutation")
        return perm


def _pack(images: np.ndarray) -> np.ndarray:
    """Pack (..., 4) uint8 axis images into (...) uint32 keys, one per element."""
    return np.ascontiguousarray(images).view(np.uint32)[..., 0]


def _member(keys: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Whether each candidate is one of the sorted keys, by binary search.

    A candidate past the last key clips to it, which is smaller: absent.
    """
    return keys.take(np.searchsorted(keys, cand), mode="clip") == cand


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Index of the first occurrence of each distinct value, in value order.

    A stable argsort keeps equal values in their original order, so the
    head of each run is its first occurrence: np.unique's ``return_index``
    without its hash table.
    """
    order = np.argsort(values, kind="stable")
    runs = values[order]
    head = np.ones(len(order), dtype=bool)
    head[1:] = runs[1:] != runs[:-1]
    return order[head]


def _transversal(gens: np.ndarray, point: int) -> np.ndarray:
    """One permutation mapping ``point`` to each point of its orbit.

    Breadth first from the identity over (n, size) uint8 rows: each level
    reads the images g(t(point)) for every generator g and frontier row t,
    keeps the first product for each point not reached before, and builds
    the whole row g t only for those.
    """
    size = gens.shape[1]
    trans = frontier = np.arange(size, dtype=np.uint8)[None, :]
    reached = np.zeros(size, dtype=bool)
    reached[point] = True
    while len(frontier):
        images = gens[:, frontier[:, point]].ravel()  # (k n,): g[t[point]]
        first = _first_occurrences(images)
        g, t = np.divmod(first[~reached[images[first]]], len(frontier))
        frontier = gens.ravel().take(g[:, None] * size + frontier[t])  # g[t[x]] = (g t)(x)
        reached[frontier[:, point]] = True
        trans = np.concatenate((trans, frontier))
    return trans


def _schreier_generators(
    gens: np.ndarray, trans: np.ndarray, base: np.ndarray, point: int
) -> np.ndarray:
    """Schreier generators t_w^-1 g t_v of the stabiliser of ``point``, deduplicated.

    For every generator g and transversal row t_v, w is the image
    g(t_v(point)) and t_w its row.  The keys of t_w^-1 g t_v, its images of
    ``base``, come first, read through the inverse rows; only one pair per
    distinct key, the identity left out, is built as a whole (m, size) row.
    A pair with the identity's key is dropped, so t_w^-1 g must equal t_v^-1
    on every point: else the base's pointwise stabiliser is not trivial, and
    :class:`SymmetryError` is raised.
    """
    n, size = trans.shape
    inverse = trans.argsort(axis=1, kind="stable").astype(np.uint8)  # radix sort
    row_of = np.zeros(size, dtype=np.intp)
    row_of[trans[:, point]] = np.arange(n)
    w = row_of[gens[:, trans[:, point]]]  # (k, n): the row of t_w
    keys = _pack(inverse[w[..., None], gens[:, trans[:, base]]])
    trivial = keys == _pack(base)
    for gen, wg, tg in zip(gens, w, trivial):
        if (inverse[wg[tg]].take(gen, axis=1) != inverse[tg]).any():
            raise SymmetryError("a Schreier generator fixes the base but is not the identity")
    kept = _first_occurrences(keys.ravel())
    kept = kept[~trivial.ravel()[kept]]
    g, v = np.divmod(kept, n)
    return inverse[w.ravel()[kept, None], gens.ravel().take(g[:, None] * size + trans[v])]


def _chain(gens: np.ndarray, base: np.ndarray) -> list[np.ndarray]:
    """Transversals of the stabiliser chain along the four points ``base`` of
    the group that the (k, size) uint8 permutation rows ``gens`` generate:
    level i takes a transversal of b_i's orbit under the stabiliser of
    b_0 .. b_i-1, and Schreier generators of b_i's stabiliser for the next
    level.  More than ``_CLOSURE_BOUND`` elements raise."""
    chain, order = [], 1
    for point in base:
        trans = _transversal(gens, point)
        order *= len(trans)
        if order > _CLOSURE_BOUND:
            raise SymmetryError(f"closure exceeded {_CLOSURE_BOUND} elements")
        gens = _schreier_generators(gens, trans, base, point)
        chain.append(trans)
    return chain


@functools.lru_cache(maxsize=1)
def _shared(config: WittingConfiguration) -> tuple[_Vertices, tuple[SymmetryElement, ...]]:
    """The last configuration's vertex index and checked generators."""
    return _Vertices(config), generators(config)


def _closure(
    config: WittingConfiguration, elements: Iterable[SymmetryElement]
) -> GroupTable:
    """The group the given elements generate: the products t_0 t_1 t_2 t_3 of
    a row per level of their chain on the axes, which only the identity fixes."""
    vertices = _shared(config)[0]
    gens = np.array([vertices.permutation(g) for g in elements])  # (k, 240) uint8
    images = vertices.axes[None, :]
    for trans in reversed(_chain(gens, vertices.axes)):
        images = trans[:, images].reshape(-1, 4)
    return GroupTable(np.sort(_pack(images)), vertices)


@dataclass(eq=False, repr=False)
class GroupTable:
    """A closed group of vertex permutations, as sorted axis-image keys.

    ``_keys`` packs each element's four axis images into one sorted uint32
    (about 200 KB); elements are numbered in that order, and ``_vertices``
    is the vertex index the keys refer to.  Orders are reported for three
    identifications: none, mod {+1,-1}, and mod all six unit scalars.
    Scalars are central, so each class of elements that differ by a unit
    scalar has as many members as the table holds scalars.  The generators
    give 51840, 25920 and 25920: the only scalars they reach are +1 and -1.
    """

    _keys: np.ndarray  # sorted uint32 axis-image keys
    _vertices: _Vertices

    def __len__(self) -> int:
        return len(self._keys)

    raw_order = property(__len__)

    @property
    def order_mod_pm1(self) -> int:
        return self.raw_order // self._scalars_held(2)

    @property
    def projective_order(self) -> int:
        return self.raw_order // self._scalars_held(6)

    def _scalars_held(self, n: int) -> int:
        """How many of the scalars UNITS[u] times I, u < n, the table holds."""
        identity = SymmetryElement.identity()
        return sum(identity.scaled_by_unit(u) in self for u in range(n))

    def element(self, i: int) -> SymmetryElement:
        """Element i, gathered from its axis images: column j of m is vertex
        byte j of the key.

        i indexes the sorted keys as numpy does: element 0 is not in general
        the identity, -1 is the last, and out of range raises IndexError.
        """
        columns = self._vertices.m[self._keys[[i]].view(np.uint8)]
        return SymmetryElement(columns.transpose(1, 0, 2))

    def __contains__(self, elem: SymmetryElement) -> bool:
        """Whether m's four columns are vertices whose packed indices are a key."""
        try:
            images = self._vertices.lookup(elem.m.transpose(1, 0, 2))
        except NotASymmetryError:
            return False
        return bool(_member(self._keys, _pack(images)))

    def state_permutation(self, g: SymmetryElement) -> tuple[int, ...]:
        """The permutation of the 40 states induced by g, in or out of the table.

        State s goes to the state of the image of vertex 6 s.  Raises
        :class:`NotASymmetryError` if g moves any state off the configuration.
        """
        return tuple((self._vertices.permutation(g)[::6] // 6).tolist())


def generate_group(config: WittingConfiguration) -> GroupTable:
    """Closure of the four generators, by a stabiliser chain on the axes."""
    return _closure(config, _shared(config)[1])


def reflection_group_order(config: WittingConfiguration) -> int:
    """Order of the group the four raw triflections generate (no det scaling)."""
    vertices = _shared(config)[0]
    raw = [vertices.permutation(triflection(config.state_of(c))) for c in GENERATOR_CARDS]
    return math.prod(map(len, _chain(np.array(raw), vertices.axes)))


def orbit_of_first_basis_state(
    config: WittingConfiguration, table: GroupTable
) -> frozenset[Card]:
    """Orbit of the first axis state (card S1) under the generated group.

    Byte 0 of every key is the image of the axis vertex (1 + 2w) e_0, a unit
    times state 0, so its vertex index over 6 is the image of S1.  The orbit
    must be the whole 40-state set; anything else raises.
    """
    seen = np.flatnonzero(np.bincount(table._keys.view(np.uint8)[::4] // 6))
    if len(seen) != 40:
        raise SymmetryError(f"orbit has {len(seen)} states, expected 40")
    return frozenset(config.states[i].card for i in seen)


def group_payload(config: WittingConfiguration, table: GroupTable) -> dict:
    orbit = orbit_of_first_basis_state(config, table)
    return {
        "rawOrder": table.raw_order,
        "orderModPm1": table.order_mod_pm1,
        "projectiveOrder": table.projective_order,
        "orbitSize": len(orbit),
    }
