"""Triflection generators and the exact symmetry group of the configuration.

A group element is a 4x4 matrix over Z[w] together with a power-of-3
denominator: the pair (m, d) represents m / 3**d and is kept reduced (some
entry of m not divisible by 3 whenever d > 0).  Reduced pairs are unique,
so equality and hashing of elements are exact: no tolerance.

Matrices are numpy int64 arrays of shape (2, 4, 4) holding the a- and
b-components of each entry; they serve the generators' det and unitarity
checks and the per-element API.  The group itself is closed over
permutations of the 240 Witting vertices: those vertices span C^4, so each
element is exactly one permutation, and it is fixed by the images of the
four axis vertices.  Closure composes whole frontiers of uint8 permutation
arrays with numpy fancy indexing and takes well under a second.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .eisenstein import Eisenstein, OMEGA, UNITS
from .configuration import (
    Card,
    ProjectiveState,
    Vector,
    WittingConfiguration,
    canonical_phase,
)

_ENTRY_BOUND = 1 << 20  # matches the Eisenstein component bound
MIN_MAX_ELEMENTS = 60_000  # smallest closure bound generate_group accepts


class SymmetryError(RuntimeError):
    """Internal failure while generating or applying symmetries."""


class NotASymmetryError(ValueError):
    """The given unitary does not map the 40-state set to itself."""


def _reduce(m: np.ndarray, d: int) -> tuple[np.ndarray, int]:
    while d > 0 and not (m % 3).any():
        m = m // 3
        d -= 1
    if np.abs(m).max() > _ENTRY_BOUND:
        raise SymmetryError("matrix entries exceed the magnitude bound")
    return m, d


def _matmul(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    a1, b1 = m1
    a2, b2 = m2
    bb = b1 @ b2
    return np.stack((a1 @ a2 - bb, a1 @ b2 + b1 @ a2 - bb))


def _unit_scaled(m: np.ndarray, unit_index: int) -> np.ndarray:
    """Scale by UNITS[unit_index]; index order matches eisenstein.UNITS."""
    a, b = m
    if unit_index == 0:
        return m
    if unit_index == 1:
        return np.stack((-a, -b))
    if unit_index == 2:  # * w
        return np.stack((-b, a - b))
    if unit_index == 3:  # * -w
        return np.stack((b, b - a))
    if unit_index == 4:  # * w^2
        return np.stack((b - a, -a))
    if unit_index == 5:  # * -w^2
        return np.stack((a - b, a))
    raise IndexError(unit_index)


def _conj_transpose(m: np.ndarray) -> np.ndarray:
    a, b = m
    return np.stack(((a - b).T, -b.T))


def _key(m: np.ndarray, d: int) -> bytes:
    return bytes((d,)) + m.tobytes()


@dataclass(frozen=True)
class SymmetryElement:
    """A unitary m / 3**denom_exp with entries in Z[w], reduced."""

    m: np.ndarray  # shape (2, 4, 4), int64; treated as immutable
    denom_exp: int

    def __post_init__(self) -> None:
        self.m.setflags(write=False)

    @classmethod
    def from_parts(cls, m: np.ndarray, d: int) -> "SymmetryElement":
        return cls(*_reduce(np.ascontiguousarray(m, dtype=np.int64), d))

    @classmethod
    def identity(cls) -> "SymmetryElement":
        return cls.from_parts(
            np.stack((np.eye(4, dtype=np.int64), np.zeros((4, 4), np.int64))), 0
        )

    def key(self) -> bytes:
        return _key(self.m, self.denom_exp)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymmetryElement) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __matmul__(self, other: "SymmetryElement") -> "SymmetryElement":
        return SymmetryElement.from_parts(
            _matmul(self.m, other.m), self.denom_exp + other.denom_exp
        )

    def entry(self, i: int, j: int) -> Eisenstein:
        return Eisenstein(int(self.m[0, i, j]), int(self.m[1, i, j]))

    def scaled_by_unit(self, unit_index: int) -> "SymmetryElement":
        return SymmetryElement.from_parts(
            _unit_scaled(self.m, unit_index), self.denom_exp
        )

    def is_unitary(self) -> bool:
        prod = _matmul(_conj_transpose(self.m), self.m)
        scale = 3 ** (2 * self.denom_exp)
        expect_a = scale * np.eye(4, dtype=np.int64)
        return (prod[0] == expect_a).all() and not prod[1].any()

    def determinant_unit(self) -> Eisenstein:
        """det(m) / 3**(4 d), which must be one of the six units."""
        det = _det4(self.m)
        scale = 3 ** (4 * self.denom_exp)
        for u in UNITS:
            if det == u * scale:
                return u
        raise SymmetryError(f"determinant {det} is not a unit times 3^(4d)")

    def apply(self, vector: Vector) -> tuple[np.ndarray, int]:
        """Image of a sqrt(3)-scaled vector, as ((2,4) int array, denom_exp)."""
        va = np.array([x.a for x in vector], dtype=np.int64)
        vb = np.array([x.b for x in vector], dtype=np.int64)
        a, b = self.m
        bvb = b @ vb
        wa = a @ va - bvb
        wb = a @ vb + b @ va - bvb
        return np.stack((wa, wb)), self.denom_exp


def _det4(m: np.ndarray) -> Eisenstein:
    entries = [[Eisenstein(int(m[0, i, j]), int(m[1, i, j])) for j in range(4)] for i in range(4)]
    total = Eisenstein(0, 0)
    for perm in itertools.permutations(range(4)):
        sign = _perm_sign(perm)
        term = entries[0][perm[0]]
        for i in range(1, 4):
            term = term * entries[i][perm[i]]
        total = total + term * sign
    return total


def _perm_sign(perm: tuple[int, ...]) -> int:
    sign = 1
    for i, j in itertools.combinations(range(len(perm)), 2):
        if perm[i] > perm[j]:
            sign = -sign
    return sign


def triflection(state: ProjectiveState) -> SymmetryElement:
    """Order-3 complex reflection about a configuration state.

    For a sqrt(3)-scaled vector v this is 1 + (w - 1) v v^dag / 3; it fixes
    the orthogonal complement and multiplies the state itself by w, so its
    cube is the identity.  The projector v v^dag is phase-invariant, making
    the construction independent of the canonical representative.
    """
    v = state.vector
    w_minus_1 = Eisenstein(-1, 1)
    m = np.zeros((2, 4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            e = w_minus_1 * (v[i] * v[j].conj())
            m[0, i, j] = e.a
            m[1, i, j] = e.b
        m[0, i, i] += 3
    return SymmetryElement.from_parts(m, 1)


GENERATOR_CARDS = (Card("S", 1), Card("C", 2), Card("D", 1), Card("S", 2))


def generators(config: WittingConfiguration) -> tuple[SymmetryElement, ...]:
    """The four determinant-1 triflection generators (w^2 times the raw ones)."""
    gens = []
    for card in GENERATOR_CARDS:
        raw = triflection(config.state_of(card))
        g = raw.scaled_by_unit(4)  # * w^2 makes det exactly 1
        if g.determinant_unit() != Eisenstein(1, 0):
            raise SymmetryError(f"generator at {card.label} has det != 1")
        if not g.is_unitary():
            raise SymmetryError(f"generator at {card.label} is not unitary")
        gens.append(g)
    return tuple(gens)


class _Vertices:
    """The 240 polytope vertices as one integer array, with lookups.

    ``m`` holds the a- and b-components of the sqrt(3)-scaled vertices as
    columns, shape (2, 4, 240).  ``config.expand_vertices()`` lists the six
    unit multiples of each state in turn, so vertex v lies on state v // 6.
    """

    def __init__(self, config: WittingConfiguration):
        vectors = config.expand_vertices()
        self.m = np.array(
            [[x.key() for x in v] for v in vectors], dtype=np.int64
        ).transpose(2, 1, 0)
        self._index = {
            col.tobytes(): i for i, col in enumerate(self.m.transpose(2, 0, 1))
        }
        axes = np.stack((np.eye(4, dtype=np.int64), 2 * np.eye(4, dtype=np.int64)))
        self.axes = np.array(self._lookup(axes), dtype=np.intp)  # (1 + 2w) e_j
        identity = SymmetryElement.identity()
        self.scalars = np.stack(
            [self.permutation(identity.scaled_by_unit(u)) for u in range(6)]
        )

    def _lookup(self, images: np.ndarray) -> list[int]:
        """Vertex indices of the columns of a (2, 4, k) array."""
        found = [self._index.get(col.tobytes()) for col in images.transpose(2, 0, 1)]
        if None in found:
            raise SymmetryError("a vertex image is not a polytope vertex")
        return found  # type: ignore[return-value]

    def permutation(self, g: SymmetryElement) -> np.ndarray:
        """The vertex permutation g induces, as a (240,) uint8 array.

        Raises :class:`SymmetryError` if g moves a vertex off the polytope.
        """
        images = _matmul(g.m, self.m)
        scale = 3**g.denom_exp
        if (images % scale).any():
            raise SymmetryError("a vertex image is not a polytope vertex")
        perm = self._lookup(images // scale)
        if len(set(perm)) != len(perm):
            raise SymmetryError("vertex images do not form a permutation")
        return np.array(perm, dtype=np.uint8)

    def keys(self, perms: np.ndarray) -> np.ndarray:
        """One exact key per permutation: the images of the four axes.

        A linear map is fixed by the images of a basis, so equal keys mean
        equal group elements.
        """
        return _pack(perms[:, self.axes])


def _pack(images: np.ndarray) -> np.ndarray:
    """Pack (..., 4) uint8 vertex indices into (...) uint32 keys."""
    return np.ascontiguousarray(images).view(np.uint32)[..., 0]


def _closure(
    vertices: _Vertices, gens: list[np.ndarray], max_elements: int, keep: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """Breadth-first closure of vertex permutations, a whole frontier at a time.

    Returns the sorted keys of all elements and, when ``keep`` is set, the
    (n, 240) uint8 permutations in discovery order (identity first).
    """
    if max_elements < MIN_MAX_ELEMENTS:
        raise ValueError(f"max_elements must be at least {MIN_MAX_ELEMENTS}")
    frontier = np.arange(240, dtype=np.uint8)[None, :]
    keys = vertices.keys(frontier)
    levels = [frontier]
    while len(frontier):
        # The key of f*g depends only on f at the images g[axes].
        cand = np.concatenate(
            [_pack(frontier[:, g[vertices.axes]]) for g in gens]
        )
        cand, first = np.unique(cand, return_index=True)
        fresh = ~np.isin(cand, keys, assume_unique=True)
        if len(keys) + fresh.sum() > max_elements:
            raise SymmetryError(f"closure exceeded {max_elements} elements")
        keys = np.insert(keys, np.searchsorted(keys, cand[fresh]), cand[fresh])
        gen_of, row = np.divmod(first[fresh], len(frontier))
        frontier = np.concatenate(
            [frontier[row[gen_of == k]][:, g] for k, g in enumerate(gens)]
        )
        if keep:
            levels.append(frontier)
    return keys, (np.concatenate(levels) if keep else None)


@dataclass
class GroupTable:
    """Closure of the generators, stored as permutations of the 240 vertices.

    The 240 vertices span C^4, so each element is exactly one permutation;
    ``permutations`` is an (n, 240) uint8 array, about 12 MB.  Orders are
    reported for three identifications: none, mod {+1,-1}, and mod all six
    unit scalars.  The measured values are 51840, 25920 and 25920: scalars
    present in the closure are exactly {+1,-1}, so both quotients coincide.
    """

    raw_order: int
    order_mod_pm1: int
    projective_order: int
    permutations: np.ndarray = field(repr=False)  # (n, 240) uint8
    _keys: np.ndarray = field(repr=False)  # sorted uint32 axis-image keys
    _vertices: _Vertices = field(repr=False)

    def __len__(self) -> int:
        return self.raw_order

    def element(self, i: int) -> SymmetryElement:
        """The matrix of element i, rebuilt from its axis images.

        Column j is the image of the axis vertex (1 + 2w) e_j divided by
        (1 + 2w), that is multiplied by (-1 - 2w) / 3.
        """
        a, b = self._vertices.m[:, :, self.permutations[i, self._vertices.axes]]
        return SymmetryElement.from_parts(np.stack((2 * b - a, b - 2 * a)), 1)

    def __contains__(self, elem: SymmetryElement) -> bool:
        try:
            perm = self._vertices.permutation(elem)
        except SymmetryError:
            return False
        key = self._vertices.keys(perm[None, :])[0]
        pos = np.searchsorted(self._keys, key)
        return pos < len(self._keys) and self._keys[pos] == key


def _quotient_order(vertices: _Vertices, keys4: np.ndarray, units: range) -> int:
    """Number of classes of elements that differ by the given unit scalars."""
    scaled = np.stack([vertices.scalars[u][keys4] for u in units])
    return len(np.unique(_pack(scaled).min(axis=0)))


def generate_group(
    config: WittingConfiguration, max_elements: int = 200_000
) -> GroupTable:
    """Breadth-first closure of the four generators as vertex permutations."""
    vertices = _Vertices(config)
    gens = [vertices.permutation(g) for g in generators(config)]
    keys, perms = _closure(vertices, gens, max_elements, keep=True)
    keys4 = perms[:, vertices.axes]
    return GroupTable(
        raw_order=len(perms),
        order_mod_pm1=_quotient_order(vertices, keys4, range(2)),
        projective_order=_quotient_order(vertices, keys4, range(6)),
        permutations=perms,
        _keys=keys,
        _vertices=vertices,
    )


def reflection_group_order(config: WittingConfiguration) -> int:
    """Order of the group the four raw triflections generate (no det scaling).

    Only the frontier and the keys are held, never every element.
    """
    vertices = _Vertices(config)
    gens = [vertices.permutation(triflection(config.state_of(c))) for c in GENERATOR_CARDS]
    keys, _ = _closure(vertices, gens, 200_000, keep=False)
    return len(keys)


def _image_state(
    config: WittingConfiguration, w: np.ndarray, d: int
) -> ProjectiveState | None:
    """Match m v / 3^d to a configuration state, or None if it leaves the set."""
    for _ in range(d):
        if (w % 3).any():
            return None
        w = w // 3
    vec = tuple(Eisenstein(int(w[0, i]), int(w[1, i])) for i in range(4))
    if all(x.is_zero() for x in vec):
        return None
    return config.state_by_vector(canonical_phase(vec))


def configuration_permutation(
    config: WittingConfiguration, g: SymmetryElement
) -> tuple[int, ...]:
    """The permutation of the 40 states induced by g.

    Raises :class:`NotASymmetryError` if g moves any state off the
    configuration, and :class:`SymmetryError` if the images fail to form a
    permutation (which a unitary cannot cause; it would be an internal bug).
    """
    images = []
    for state in config.states:
        w, d = g.apply(state.vector)
        image = _image_state(config, w, d)
        if image is None:
            raise NotASymmetryError(
                f"state {state.card.label} is mapped outside the configuration"
            )
        images.append(image.index)
    if len(set(images)) != 40:
        raise SymmetryError("state images do not form a permutation")
    return tuple(images)


def orbit_of_first_basis_state(
    config: WittingConfiguration, gens: tuple[SymmetryElement, ...] | None = None
) -> frozenset[Card]:
    """Orbit of the first axis state (card S1) under the generated group.

    The four generators already suffice: the orbit must be the whole
    40-state set, and anything else raises.
    """
    if gens is None:
        gens = generators(config)
    start = config.state_of(Card("S", 1))
    seen: dict[Vector, ProjectiveState] = {start.vector: start}
    frontier = [start]
    while frontier:
        new = []
        for state in frontier:
            for g in gens:
                w, d = g.apply(state.vector)
                image = _image_state(config, w, d)
                if image is None:
                    raise SymmetryError(
                        "generator moved an orbit point off the configuration"
                    )
                if image.vector not in seen:
                    seen[image.vector] = image
                    new.append(image)
        frontier = new
    if len(seen) != 40:
        raise SymmetryError(f"orbit has {len(seen)} states, expected 40")
    return frozenset(s.card for s in seen.values())


def group_payload(config: WittingConfiguration, table: GroupTable) -> dict:
    orbit = orbit_of_first_basis_state(config)
    return {
        "rawOrder": table.raw_order,
        "orderModPm1": table.order_mod_pm1,
        "projectiveOrder": table.projective_order,
        "orbitSize": len(orbit),
    }
