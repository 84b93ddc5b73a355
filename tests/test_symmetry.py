import itertools
import math
import sys
import tracemalloc
from random import Random

import numpy as np
import pytest

from test_configuration import _boxed_canonical
from wittingqkd.configuration import Card, canonical_phase, canonical_rows, ring_conj, ring_mul
from wittingqkd.eisenstein import Eisenstein, I_SQRT3, OMEGA, UNITS, ZERO
from wittingqkd import symmetry
from wittingqkd.symmetry import (
    GENERATOR_CARDS,
    NotASymmetryError,
    SymmetryElement,
    SymmetryError,
    generate_group,
    generators,
    orbit_of_first_basis_state,
    reflection_group_order,
    triflection,
)


def test_triflection_of_axis_state_is_diagonal(config):
    # Entries are held scaled by 1 + 2w: diag(w, 1, 1, 1) times I_SQRT3.
    t = triflection(config.state_of(Card("S", 1)))
    diag = [t.entry(i, i) for i in range(4)]
    assert diag == [I_SQRT3 * OMEGA, I_SQRT3, I_SQRT3, I_SQRT3]
    for i, j in itertools.permutations(range(4), 2):
        assert t.entry(i, j).is_zero()


def test_triflection_cubes_to_identity(config):
    for state in config.states[::7]:
        t = triflection(state)
        assert t @ t @ t == SymmetryElement.identity()
        assert t.is_unitary()


def test_triflection_fixes_its_state_projectively(config):
    for state in config.states[::5]:
        v = config.vector_array[state.index]
        image = triflection(state).apply(v)
        assert (canonical_rows(image) == v).all()
        # eigenvalue is w itself: t v = w v exactly
        assert (image == ring_mul(np.array(OMEGA.key()), v)).all()


def test_generator_cards_and_vectors(config):
    assert GENERATOR_CARDS == (
        Card("S", 1),
        Card("C", 2),
        Card("D", 1),
        Card("S", 2),
    )
    one = Eisenstein(1)
    zero = Eisenstein(0)
    expected_vectors = [
        canonical_phase((Eisenstein(1, 2), zero, zero, zero)),
        canonical_phase((one, one, one, zero)),
        canonical_phase((zero, zero, Eisenstein(1, 2), zero)),
        canonical_phase((zero, one, -one, one)),
    ]
    got = [config.state_of(c).vector for c in GENERATOR_CARDS]
    assert got == expected_vectors


def test_generators_unit_determinant_and_order_three(config):
    for g in generators(config):
        assert g.determinant_unit() == Eisenstein(1)
        assert g.is_unitary()
        assert g @ g @ g == SymmetryElement.identity()
        assert g @ g != SymmetryElement.identity()


def test_group_orders(config, group):
    assert len(generate_group(config)) == 51840
    assert group.raw_order == 51840
    assert group.order_mod_pm1 == 25920
    assert group.projective_order == 25920


def test_identity_and_inverses_in_group(group):
    assert SymmetryElement.identity() in group
    rng = Random(4)
    for _ in range(20):
        g = group.element(rng.randrange(len(group)))
        # inverse of a unitary: its conj-transpose; conj(1 + 2w) = -(1 + 2w)
        inv = SymmetryElement(-ring_conj(g.m).transpose(1, 0, 2))
        assert inv in group
        assert g @ inv == SymmetryElement.identity()


def test_group_elements_unitary_and_unit_determinant(group):
    rng = Random(11)
    for _ in range(50):
        g = group.element(rng.randrange(len(group)))
        assert g.is_unitary()
        assert g.determinant_unit() == Eisenstein(1)


def test_orbit_is_all_forty_states(config, group):
    orbit = orbit_of_first_basis_state(config, group)
    assert len(orbit) == 40
    assert Card("C", 2) in orbit


def test_orbit_closed_under_generators(config, group):
    gens = generators(config)
    for g in gens:
        perm = group.state_permutation(g)
        assert sorted(perm) == list(range(40))


def test_identity_permutation(group):
    assert group.state_permutation(SymmetryElement.identity()) == tuple(range(40))


def test_group_elements_permute_states_and_bases(config, group):
    basis_sets = {
        frozenset(config.state_of(c).index for c in b.members)
        for b in config.bases
    }
    rng = Random(23)
    for _ in range(25):
        g = group.element(rng.randrange(len(group)))
        perm = group.state_permutation(g)
        mapped = {frozenset(perm[i] for i in bs) for bs in basis_sets}
        assert mapped == basis_sets


def _coordinate_swap() -> SymmetryElement:
    """Swaps the last two coordinates: unitary, but moves states off the
    configuration, as (1,0,-1,1)-type patterns are not states."""
    m = np.zeros((4, 4, 2), dtype=np.int64)
    m[0, 0] = m[1, 1] = m[2, 3] = m[3, 2] = I_SQRT3.key()  # held scaled by 1 + 2w
    return SymmetryElement(m)


def test_non_symmetry_is_rejected(config, group):
    swap = _coordinate_swap()
    assert swap.is_unitary()
    with pytest.raises(NotASymmetryError):
        group.state_permutation(swap)
    # m = I is the identity over 1 + 2w: it maps every state but the axes
    # out of Z[w]^4, and its columns are not vertices
    third = SymmetryElement(np.eye(4, dtype=np.int64)[:, :, None] * np.array((1, 0)))
    with pytest.raises(NotASymmetryError):
        group.state_permutation(third)
    assert third not in group


def test_construction_leaves_the_callers_array_writable():
    m = np.zeros((4, 4, 2), np.int64)
    element = SymmetryElement(m)
    m[0, 0, 0] = 2
    assert not element.m.flags.writeable
    assert (element.m == 0).all()


def test_scalar_content_of_group(group):
    # -1 times the identity is in the closure; w times it is not.
    minus = SymmetryElement.identity().scaled_by_unit(1)
    omega_id = SymmetryElement.identity().scaled_by_unit(2)
    assert minus in group
    assert omega_id not in group


@pytest.mark.parametrize("unit", [-1, 6, True, 1.0])
def test_scaled_by_unit_takes_only_an_int_unit_index(unit):
    with pytest.raises(ValueError, match="unit index must be an int in 0..5"):
        SymmetryElement.identity().scaled_by_unit(unit)


@pytest.fixture(scope="module")
def boxed_vertices(config):
    """The 240 vertices from ``expand_vertices()``, as an array and a lookup."""
    array = np.array([[x.key() for x in v] for v in config.expand_vertices()])
    return array, {row.tobytes(): k for k, row in enumerate(array)}


def _vertex_permutation(boxed_vertices, g: SymmetryElement) -> np.ndarray:
    """The permutation of the 240 vertices that g's matrix induces."""
    array, index = boxed_vertices
    perm = np.array([index[row.tobytes()] for row in g.apply(array)], dtype=np.uint8)
    assert sorted(perm.tolist()) == list(range(240))
    return perm


def _key(boxed_vertices, perm: np.ndarray) -> int:
    """The images of the four axis vertices (1 + 2w) e_j, packed as one uint32."""
    _, index = boxed_vertices
    axes = np.eye(4, dtype=np.int64)[:, :, None] * np.array((1, 2))
    return int(perm[[index[a.tobytes()] for a in axes]].view(np.uint32)[0])


def _checked_permutation(config, group, boxed_vertices, i: int) -> np.ndarray:
    """Vertex permutation of element(i), checked against the stored keys.

    Its axis images must be key i, and composing it with each generator
    must land on a stored key (closure).
    """
    perm = _vertex_permutation(boxed_vertices, group.element(i))
    assert _key(boxed_vertices, perm) == group._keys[i]
    for gen in generators(config):
        composed = _key(boxed_vertices, perm[_vertex_permutation(boxed_vertices, gen)])
        assert np.isin(composed, group._keys)
    return perm


def test_rebuilt_elements_match_stored_permutations(config, group, boxed_vertices):
    # element(i) is rebuilt from four axis images only; the matrix path of
    # state_permutation must agree with its whole vertex permutation.
    rng = Random(31)
    for i in [0, len(group) - 1] + [rng.randrange(len(group)) for _ in range(23)]:
        g = group.element(i)
        assert g.is_unitary()
        assert g.determinant_unit() == Eisenstein(1)
        perm = _checked_permutation(config, group, boxed_vertices, i)
        assert group.state_permutation(g) == tuple((perm[::6] // 6).tolist())


def test_element_indexing_follows_numpy(group):
    assert group.element(-1) == group.element(len(group) - 1)
    with pytest.raises(IndexError):
        group.element(len(group))


def test_elements_are_gathered_vertex_columns(config, group, monkeypatch):
    # element(i).m is the vertex rows at key i's bytes, as columns, read
    # without any Z[w] arithmetic.
    vertices = config.vertex_array()
    for name in ("ring_mul", "ring_matmul", "ring_conj"):
        monkeypatch.setattr(symmetry, name, None)
    rng = Random(47)
    for i in [0, -1] + [rng.randrange(len(group)) for _ in range(20)]:
        images = int(group._keys[i]).to_bytes(4, sys.byteorder)
        expected = [[vertices[v, row].tolist() for v in images] for row in range(4)]
        assert group.element(i).m.tolist() == expected


def test_membership_reads_the_four_columns(group, monkeypatch):
    # -g is a stored element; w g has vertex columns but no stored key.
    # No membership test here builds a 240-vertex permutation.
    elements = [group.element(i) for i in Random(53).sample(range(len(group)), 20)]

    def refuse(*args):
        raise AssertionError("membership built a vertex permutation")

    monkeypatch.setattr(symmetry._Vertices, "permutation", refuse)
    for g in elements:
        assert g in group
        assert g.scaled_by_unit(1) in group
        assert g.scaled_by_unit(2) not in group
        group._vertices.lookup(g.scaled_by_unit(2).m.transpose(1, 0, 2))  # raises if not vertices


def test_non_symmetry_is_not_in_group(group):
    assert _coordinate_swap() not in group


def test_raw_triflections_generate_g32(config):
    # Shephard-Todd G32, the symmetry group of the Witting polytope.
    assert reflection_group_order(config) == 155520


def test_raw_triflection_closure_holds_all_six_scalars(config):
    # The centre of G32 is the six unit scalars, so both quotients divide.
    table = symmetry._closure(config, (triflection(config.state_of(c)) for c in GENERATOR_CARDS))
    identity = SymmetryElement.identity()
    assert all(identity.scaled_by_unit(u) in table for u in range(6))
    assert (table.raw_order, table.order_mod_pm1, table.projective_order) == (155520, 77760, 25920)


def test_state_permutation_reads_the_tables_vertex_index(config, group, monkeypatch):
    gens = generators(config)
    calls = []
    vertex_array = type(config).vertex_array
    monkeypatch.setattr(
        type(config), "vertex_array", lambda self: calls.append(1) or vertex_array(self)
    )
    perms = [group.state_permutation(g) for g in gens]
    assert calls == [] and all(sorted(p) == list(range(40)) for p in perms)
    symmetry._Vertices(config)  # the counter sees a fresh vertex index
    assert calls == [1]


def _set_closure(boxed_vertices, elements) -> set[bytes]:
    """An independent closure: a Python set, no numpy set operations.

    An element is the 4 bytes of its axis images; left multiplication by g
    maps each image x to g[x], a bytes.translate with g as the table.
    """
    _, index = boxed_vertices
    pad = bytes(16)  # translate tables have 256 entries; only 240 are read
    gens = [bytes(_vertex_permutation(boxed_vertices, g)) + pad for g in elements]
    axes = np.eye(4, dtype=np.int64)[:, :, None] * np.array((1, 2))
    frontier = seen = {bytes(index[a.tobytes()] for a in axes)}
    while frontier:
        frontier = {h.translate(g) for h in frontier for g in gens} - seen
        seen = seen | frontier
    return seen


def _sorted_keys(seen: set[bytes]) -> bytes:
    """The elements joined in the order of their uint32 keys, as ``_keys`` holds them."""
    return b"".join(sorted(seen, key=lambda h: int.from_bytes(h, sys.byteorder)))


def _raw_triflections(config) -> tuple[SymmetryElement, ...]:
    return tuple(triflection(config.state_of(c)) for c in GENERATOR_CARDS)


def test_closure_matches_python_set_breadth_first_search(config, group, boxed_vertices):
    _, index = boxed_vertices
    seen = _set_closure(boxed_vertices, generators(config))
    assert _sorted_keys(seen) == group._keys.tobytes()
    # Quotient orders: classes of elements that differ by a unit scalar,
    # each named by the least key over its unit multiples.
    pad = bytes(16)
    vertices = config.expand_vertices()
    scalars = [
        bytes(index[np.array([(u * x).key() for x in v]).tobytes()] for v in vertices) + pad
        for u in UNITS
    ]
    for units, order in ((scalars[:2], group.order_mod_pm1), (scalars, group.projective_order)):
        classes = {min(int.from_bytes(h.translate(s), sys.byteorder) for s in units) for h in seen}
        assert len(classes) == order == 25920


def _chain_order(config, elements) -> int:
    """The order read off the stabiliser chain alone, no element listed."""
    vertices = symmetry._Vertices(config)
    gens = np.array([vertices.permutation(g) for g in elements])
    return math.prod(map(len, symmetry._chain(gens, vertices.axes)))


def test_raw_closure_matches_python_set_breadth_first_search(config, boxed_vertices):
    raw = _raw_triflections(config)
    table = symmetry._closure(config, raw)
    assert _sorted_keys(_set_closure(boxed_vertices, raw)) == table._keys.tobytes()
    assert reflection_group_order(config) == _chain_order(config, raw) == len(table)


@pytest.mark.parametrize("family", [generators, _raw_triflections], ids=["det-1", "raw"])
def test_closure_of_each_generator_subset_matches_python_set_search(
    config, boxed_vertices, family
):
    # The proper subsets; the two tests above take the whole sets, so the
    # 30 nonempty subsets are covered.  Their groups have orbits of the
    # first axis vertex smaller than 240, and some a trivial stabiliser.
    gens = family(config)
    orders = []
    for r in range(1, len(gens)):
        for subset in itertools.combinations(gens, r):
            table = symmetry._closure(config, subset)
            assert _sorted_keys(_set_closure(boxed_vertices, subset)) == table._keys.tobytes()
            assert _chain_order(config, subset) == len(table)
            orders.append(len(table))
    assert sorted(orders) == [3] * 4 + [9] * 3 + [24] * 3 + [72] * 2 + [648] * 2


def _state_chain(config, group, base):
    """The chain of the four generators' permutations of the 40 states."""
    gens = np.array([group.state_permutation(g) for g in generators(config)], dtype=np.uint8)
    return symmetry._chain(gens, np.array(base, dtype=np.uint8))


def _state_group(config, group) -> np.ndarray:
    """Every product of one row per level of the chain along (0, 1, 4, 11)."""
    chain = _state_chain(config, group, (0, 1, 4, 11))
    assert [len(t) for t in chain] == [40, 12, 9, 6]
    elements = chain[-1]
    for trans in reversed(chain[:-1]):
        elements = trans[:, elements].reshape(-1, 40)  # t[e[x]]: t after e
    return elements


def test_state_chain_on_a_base_lists_the_state_group(config, group):
    """25,920 distinct state permutations, each preserving the transition table."""
    elements = _state_group(config, group)
    assert len(np.unique(elements, axis=0)) == len(elements) == 25920
    table = config.transition_array
    assert all((table[p][:, p] == table).all() for p in elements[::97])


def test_schreier_generator_that_fixes_the_base_but_moves_a_state_raises(config, group):
    """Three state permutations fix states 0, 1, 2 and 4, so those four do
    not tell the group's elements apart.  The walk drops Schreier generators
    that fix the base; without the check on their whole rows it would read
    the order as 8,640."""
    fixing = (_state_group(config, group)[:, [0, 1, 2, 4]] == [0, 1, 2, 4]).all(axis=1)
    assert fixing.sum() == 3
    with pytest.raises(SymmetryError, match="fixes the base but is not the identity"):
        _state_chain(config, group, (0, 1, 2, 4))


def test_first_occurrences_matches_a_python_reference():
    rng = np.random.default_rng(25)
    for n in (0, 1, 7, 500):
        values = rng.integers(0, 40, n).astype(np.uint32)
        first: dict[int, int] = {}
        for i, x in enumerate(values.tolist()):
            first.setdefault(x, i)
        expected = [first[x] for x in sorted(first)]
        assert symmetry._first_occurrences(values).tolist() == expected


def test_member_matches_a_python_reference():
    rng = np.random.default_rng(26)
    keys = np.sort(rng.integers(10, 1000, 60).astype(np.uint32))  # repeats
    # below the first key, between and on keys, past the last key (clipped)
    cand = np.concatenate((
        np.arange(10, dtype=np.uint32), rng.integers(10, 1000, 200).astype(np.uint32),
        keys, np.array([keys[-1] + 1, 2**32 - 1], dtype=np.uint32),
    ))
    held = set(keys.tolist())
    assert symmetry._member(keys, cand).tolist() == [x in held for x in cand.tolist()]
    assert symmetry._member(keys, cand[:0]).tolist() == []


def test_closure_over_its_bound_raises(config, monkeypatch):
    monkeypatch.setattr(symmetry, "_CLOSURE_BOUND", 60_000)
    with pytest.raises(SymmetryError):
        reflection_group_order(config)
    monkeypatch.setattr(symmetry, "_CLOSURE_BOUND", 51_839)
    with pytest.raises(SymmetryError):
        generate_group(config)


def test_group_memory_is_bounded(config, group):
    # Mirrors test_scan_memory_is_bounded: both walks hold four
    # (orbit, 240) transversals of at most 240 + 72 + 3 + 3 rows and a few
    # dozen Schreier generators; the closure then makes its last gather of
    # at most (240, 216, 4) axis images and their sorted keys, while the
    # G32 order lists nothing; never (n, 240) vertex permutations of the
    # whole group.
    for closure in (generate_group, reflection_group_order):
        tracemalloc.start()
        try:
            closure(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, closure.__name__


def test_rebuilt_elements_induce_stored_vertex_permutations(config, group, boxed_vertices):
    # Stronger than the state permutation: -g permutes the states as g does
    # but moves every vertex to its negative, so its key is another one.
    rng = Random(37)
    for i in [rng.randrange(len(group)) for _ in range(10)]:
        perm = _checked_permutation(config, group, boxed_vertices, i)
        minus_g = group.element(i).scaled_by_unit(1)
        minus_perm = _vertex_permutation(boxed_vertices, minus_g)
        assert (minus_perm // 6 == perm // 6).all() and (minus_perm != perm).all()
        minus_key = _key(boxed_vertices, minus_perm)
        assert minus_key != group._keys[i] and np.isin(minus_key, group._keys)


def test_boxed_reference_matches_array_kernel(config, group, boxed_vertices):
    # A reference that bypasses the array kernel: each entry(i, j) applied
    # with Eisenstein arithmetic, canonicalised by the boxed phase rule.
    index = {s.vector: s.index for s in config.states}
    rng = Random(43)
    for i in [rng.randrange(len(group)) for _ in range(25)]:
        g = group.element(i)
        perm = []
        for state in config.states:
            # m v over 1 + 2w: times conj(1 + 2w) = -1 - 2w, over 3
            image = [
                sum((g.entry(r, c) * state.vector[c] for c in range(4)), ZERO)
                * Eisenstein(-1, -2)
                for r in range(4)
            ]
            assert all(x.a % 3 == 0 and x.b % 3 == 0 for x in image)
            image = tuple(Eisenstein(x.a // 3, x.b // 3) for x in image)
            perm.append(index[_boxed_canonical(image)])
        assert tuple(perm) == group.state_permutation(g)
        vertex_perm = _checked_permutation(config, group, boxed_vertices, i)
        assert tuple(perm) == tuple((vertex_perm[::6] // 6).tolist())
        assert g.determinant_unit() == Eisenstein(1)
    # Known determinants: a raw triflection has det w, as does w times the
    # identity (w^4 = w); the generators have det 1.
    for state in config.states:
        assert triflection(state).determinant_unit() == OMEGA
    assert SymmetryElement.identity().scaled_by_unit(2).determinant_unit() == OMEGA
    for g in generators(config):
        assert g.determinant_unit() == Eisenstein(1)
