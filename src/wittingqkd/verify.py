"""Invariant suite behind the ``verify`` subcommand.

Each check recomputes one family of structural claims and returns a short
human-readable detail string; any exception or failed predicate marks the
check failed.  The predicates are ``assert`` statements,
so :func:`run_checks` refuses to run when ``python -O`` strips them.
``quick=True`` skips the three checks flagged in ``CHECKS``: the two group
closures and the exhaustive marking scan, the checks that walk a whole
group or search space rather than the 40 states and their tetrads.

The configuration builds its transition table on an integer array
(``config.vector_array``, one Gram product over Z[w]), and the symmetry
group's matrices run on the same array kernel.  ``transition-spectrum``,
``mub-embedding`` and ``pair-bases`` assert only on :func:`_overlaps`, the
table of 9 |<s|t>|^2 recomputed from the state vectors with the pure-int
:func:`~wittingqkd.eisenstein.pair_inner` once per run and shared; the
first compares it with ``config.transition_array`` entry by entry, so a
fault in the array kernel shows there.  ``deferred-measurement`` and ``joint-two-step`` take the Z[w]
vector reference's integer recomposition of its branches
(``TwoStepBreakdown.composed_counts``, :func:`compose_branch_counts`) and
compare it with the direct weights by one cross-multiplication, :func:`_equal`.
Both share the reference's per-configuration caches: 80 queries serve 320 calls.
``column-shifts``, ``symmetry-group`` and ``reflection-group`` run on the
array; the group orders they assert are known values, so a fault in the
kernel still shows.
"""

from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .configuration import (
    WittingConfiguration,
    canonical_rows,
    ring_conj,
    ring_mul,
    ring_norm,
    vector_set,
)
from .eisenstein import pair_inner
from .marking import (
    ALL_SPADES,
    MAX_SCORE_EXAMPLE,
    exhaustive_scan,
    rank_tetrad_partition_ok,
    score_marking,
)
from .measurement import (
    Counts,
    QuquartState,
    compose_branch_counts,
    joint_distribution,
    one_step_counts,
    toffoli_report,
    two_step_distribution,
    two_step_joint_branches,
)
from .protocol import announcement_leakage_free
from .symmetry import (
    generate_group,
    orbit_of_first_basis_state,
    reflection_group_order,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_counts(config: WittingConfiguration) -> str:
    assert len(config.states) == 40
    assert len(config.vertex_array()) == 240
    degrees = {len(a) for a in config.adjacency}
    assert degrees == {12}, degrees
    edges = sum(len(a) for a in config.adjacency) // 2
    assert edges == 240, edges
    assert len(config.bases) == 40
    per_state = {len(config.bases_of(s.card)) for s in config.states}
    assert per_state == {4}, per_state
    return "40 states, 240 vertices, 12-regular graph, 40 tetrads, 4 per state"


@functools.lru_cache(maxsize=1)
def _overlaps(config: WittingConfiguration) -> tuple[tuple[int, ...], ...]:
    """The 40x40 table of 9 |<s|t>|^2, recomputed from the state vectors: one
    :func:`pair_inner` per pair s <= t, mirrored, as |<t|s>| = |<s|t>|; no
    numpy, and nothing read from ``config.transition_array``.  Cached for the
    last configuration, so its rows are tuples that no check can change."""
    vectors = [s.pairs for s in config.states]
    table = [[0] * len(vectors) for _ in vectors]
    for i, v in enumerate(vectors):
        for j in range(i, len(vectors)):
            a, b = pair_inner(v, vectors[j])
            table[i][j] = table[j][i] = a * a - a * b + b * b
    return tuple(map(tuple, table))


def _check_spectrum(config: WittingConfiguration) -> str:
    table = _overlaps(config)
    assert table == tuple(map(tuple, config.transition_array.tolist()))
    for i, row in enumerate(table):
        assert row[i] == 9 and set(row[:i] + row[i + 1 :]) <= {0, 3}, row
    return "all 780 off-diagonal pairs in {0, 1/3}; diagonal exactly 1"


def _check_basis_structure(config: WittingConfiguration) -> str:
    tags = {"rank-tetrad": 0, "mixed-suit": 0, "mono-suit": 0}
    for basis in config.bases:
        tags[basis.tag] += 1
    assert tags == {"rank-tetrad": 10, "mixed-suit": 18, "mono-suit": 12}, tags
    assert rank_tetrad_partition_ok(config)
    return "10 rank tetrads + 18 other one-per-suit (28 total) + 12 mono-suit"


def _check_mub_slices(config: WittingConfiguration) -> str:
    table = _overlaps(config)
    for k in range(4):
        triads = [[config.state_of(c).index for c in t] for t in config.mub_triads(k)]
        assert len(triads) == 4
        for t1, t2 in itertools.combinations(triads, 2):
            assert all(table[a][b] == 3 for a in t1 for b in t2)
    return "each coordinate slice splits into 4 triads, cross-probability 1/3"


def _check_conjugate_coordination(config: WittingConfiguration) -> str:
    for basis in config.bases:
        assert joint_distribution(config, basis.id, basis.id).is_quarter_diagonal()
    return "joint distribution is (1/4)I for all 40 conjugate-coordinated tetrads"


def _block_columns(config: WittingConfiguration) -> np.ndarray:
    """The canonical vectors by block column, (4, 10, 4, 2); row 0 is the axis."""
    order = sorted(range(40), key=lambda i: config.states[i].block)
    return config.vector_array[order].reshape(4, 10, 4, 2)


def _check_column_shifts(config: WittingConfiguration) -> str:
    return _check_columns(_block_columns(config))


def _check_columns(columns: np.ndarray) -> str:
    """Every block column maps onto every other by a monomial map: a cyclic
    coordinate shift composed with per-coordinate unit phases.

    Column c's axis state is its only vector supported on coordinate c
    alone, and a monomial map keeps supports' sizes, so mapping column c1
    onto c2 fixes the shift k = c2 - c1 (mod 4).  The phases then follow
    from one family vector f: its shifted image must be a unit multiple of
    a target vector g with the same support, so u_i = g_i conj(f_i) up to a
    common unit, which canonicalisation removes (u_i = 1 where f_i = 0; that
    coordinate only scales the axis state).  Each candidate g gives one
    phase vector, and the pair passes when one of them maps the whole
    column onto the target column.
    """
    one = np.array((1, 0))
    for c1, c2 in itertools.permutations(range(4), 2):
        source = np.roll(columns[c1], (c2 - c1) % 4, axis=1)  # v[(i - k) % 4] at i
        target = columns[c2]
        f = source[1]
        support = f.any(axis=-1)
        candidates = target[(target.any(axis=-1) == support).all(axis=1)]
        phases = np.where(support[:, None], ring_mul(candidates, ring_conj(f)), one)
        units = (ring_norm(phases) == 1).all(axis=1)
        images = canonical_rows(ring_mul(phases[units][:, None], source))
        wanted = vector_set(target)
        found = any(vector_set(image) == wanted for image in images)
        assert found, f"no monomial shift maps column {c1} to column {c2}"
    return "block columns related by shift + per-coordinate unit phases"


def _check_pair_bases(config: WittingConfiguration) -> str:
    common = config.common_tetrad.tolist()
    zero = [(i, j) for i, row in enumerate(_overlaps(config)) for j in range(i) if row[j] == 0]
    assert len(zero) == 240
    assert all(common[i][j] >= 0 for i, j in zero)
    agree = sum(n >= 0 for row in common for n in row)
    assert Fraction(agree, 1600) == Fraction(13, 40), agree
    return "each orthogonal pair in exactly 1 tetrad; common-tetrad rate 13/40"


def _equal(p: Counts, q: Counts) -> bool:
    """Whether weights a over b equal weights c over d entry by entry, by one
    cross-multiplication: a/b = c/d exactly when ad = cb, for b, d > 0.
    Weight vectors of different lengths raise ``ValueError``."""
    (a, b), (c, d) = p, q
    assert b > 0 and d > 0, (b, d)
    return all(x * d == y * b for x, y in zip(a, c, strict=True))


def _check_deferred_measurement(config: WittingConfiguration) -> str:
    inputs = [QuquartState.from_state(config.states[i]) for i in (0, 17)]
    checked = 0
    for basis in config.bases:
        # The direct measurement depends only on the tetrad and the input.
        direct = [one_step_counts(config, basis.id, x) for x in inputs]
        for card in basis.members:
            for probe_input, counts in zip(inputs, direct):
                q = two_step_distribution(config, card, basis.id, probe_input)
                assert _equal(q.composed_counts(), counts)
            checked += 1
    assert checked == 160
    return "two-step branches recompose to one-step exactly for all 160 pairs"


def _check_joint_two_step(config: WittingConfiguration) -> str:
    basis = config.bases[2]
    quarter = ([int(x == y) for x in range(4) for y in range(4)], 4)
    for pa in basis.members:
        for pb in basis.members:
            branches = two_step_joint_branches(config, pa, basis.id, pb, basis.id)
            assert _equal(compose_branch_counts(branches), quarter)
    return "joint two-step branches compose to (1/4)I on a shared tetrad"


def _check_toffoli(config: WittingConfiguration) -> str:
    report = toffoli_report()
    assert report["is_toffoli"] and report["involutive"] and report["probe0_differs"]
    return "query gate at probe |3> is exactly the Toffoli permutation"


def _check_leakage(config: WittingConfiguration) -> str:
    assert announcement_leakage_free(config)
    return "announcement transcripts leave outcomes exactly uniform"


def _check_group(config: WittingConfiguration) -> str:
    table = generate_group(config)
    assert table.raw_order == 51840, table.raw_order
    assert table.order_mod_pm1 == 25920
    assert table.projective_order == 25920
    orbit = orbit_of_first_basis_state(config, table)
    assert len(orbit) == 40
    return "closure 51840; mod {+-1} and mod units both 25920; orbit 40"


def _check_reflection_group(config: WittingConfiguration) -> str:
    order = reflection_group_order(config)
    assert order == 155520, order
    return "raw triflections close to 155520 = |G32| (Shephard-Todd)"


def _check_scan(config: WittingConfiguration) -> str:
    result = exhaustive_scan(config)
    assert not result.exists_perfect
    assert result.max_correct == 34
    assert result.count_at_max == 720
    assert Fraction(56, 100) < result.mean_correct_fraction < Fraction(58, 100)
    assert result.frac_above_28 < Fraction(4, 100)
    assert result.frac_at_max < Fraction(7, 10000)
    assert score_marking(config, ALL_SPADES).correct == 28
    example = score_marking(config, MAX_SCORE_EXAMPLE)
    assert (example.correct, example.double_marked, example.unmarked) == (34, 3, 3)
    return "no perfect marking; max 34 (720 markings); mean ~57%; >28 under 4%"


CHECKS: tuple[tuple[str, Callable[[WittingConfiguration], str], bool], ...] = (
    ("configuration-counts", _check_counts, False),
    ("transition-spectrum", _check_spectrum, False),
    ("basis-structure", _check_basis_structure, False),
    ("mub-embedding", _check_mub_slices, False),
    ("conjugate-coordination", _check_conjugate_coordination, False),
    ("column-shifts", _check_column_shifts, False),
    ("pair-bases", _check_pair_bases, False),
    ("deferred-measurement", _check_deferred_measurement, False),
    ("joint-two-step", _check_joint_two_step, False),
    ("toffoli-gate", _check_toffoli, False),
    ("announcement-leakage", _check_leakage, False),
    ("symmetry-group", _check_group, True),
    ("classical-scan", _check_scan, True),
    ("reflection-group", _check_reflection_group, True),
)


def run_checks(quick: bool = False) -> list[CheckResult]:
    if sys.flags.optimize:
        raise RuntimeError("verify needs assert statements; run it without -O or PYTHONOPTIMIZE")
    config = WittingConfiguration()
    results = []
    for name, fn, slow in CHECKS:
        if quick and slow:
            continue
        try:
            detail = fn(config)
            results.append(CheckResult(name, True, detail))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
