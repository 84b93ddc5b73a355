"""Triflection generators and the exact symmetry group of the configuration.

A group element is a 4x4 matrix over Z[w] together with a power-of-3
denominator: the pair (m, d) represents m / 3**d and is kept reduced (some
entry of m not divisible by 3 whenever d > 0).  Reduced pairs are unique,
so hash-based closure is exact: no tolerance, no near-duplicates.

Internally matrices are numpy int64 arrays of shape (2, 4, 4) holding the
a- and b-components of each entry; closure over ~5e4 elements then costs a
few seconds instead of minutes of boxed arithmetic.
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


@dataclass
class GroupTable:
    """Closure of the generators with exact deduplication.

    Orders are reported for three identifications: none (raw reduced
    matrices), mod {+1,-1}, and mod all six unit scalars.  The measured
    values are 51840, 25920 and 25920: scalars present in the closure are
    exactly {+1,-1}, so both quotients coincide.
    """

    raw_order: int
    order_mod_pm1: int
    projective_order: int
    matrices: np.ndarray = field(repr=False)  # (n, 2, 4, 4) int64
    denom_exps: np.ndarray = field(repr=False)  # (n,) int64
    _keys: frozenset[bytes] = field(repr=False)

    def __len__(self) -> int:
        return self.raw_order

    def element(self, i: int) -> SymmetryElement:
        return SymmetryElement.from_parts(self.matrices[i], int(self.denom_exps[i]))

    def __contains__(self, elem: SymmetryElement) -> bool:
        return elem.key() in self._keys


def generate_group(
    config: WittingConfiguration, max_elements: int = 200_000
) -> GroupTable:
    """Breadth-first closure of the four generators under exact products."""
    if max_elements < MIN_MAX_ELEMENTS:
        raise ValueError(f"max_elements must be at least {MIN_MAX_ELEMENTS}")
    gens = [(g.m, g.denom_exp) for g in generators(config)]
    identity = SymmetryElement.identity()
    table: dict[bytes, tuple[np.ndarray, int]] = {
        identity.key(): (identity.m, identity.denom_exp)
    }
    frontier: list[tuple[np.ndarray, int]] = [(identity.m, identity.denom_exp)]
    while frontier:
        new: list[tuple[np.ndarray, int]] = []
        for m, d in frontier:
            for gm, gd in gens:
                pm, pd = _reduce(_matmul(m, gm), d + gd)
                k = _key(pm, pd)
                if k not in table:
                    if len(table) >= max_elements:
                        raise SymmetryError(
                            f"closure exceeded {max_elements} elements"
                        )
                    table[k] = (pm, pd)
                    new.append((pm, pd))
        frontier = new

    mod_pm1: set[bytes] = set()
    projective: set[bytes] = set()
    for m, d in table.values():
        ks = [_key(_unit_scaled(m, u), d) for u in range(6)]
        mod_pm1.add(min(ks[0], ks[1]))
        projective.add(min(ks))
    matrices = np.stack([m for m, _ in table.values()])
    denom_exps = np.array([d for _, d in table.values()], dtype=np.int64)
    return GroupTable(
        raw_order=len(table),
        order_mod_pm1=len(mod_pm1),
        projective_order=len(projective),
        matrices=matrices,
        denom_exps=denom_exps,
        _keys=frozenset(table),
    )


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
