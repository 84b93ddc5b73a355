from fractions import Fraction

import numpy as np
import pytest

from wittingqkd import WittingConfiguration, measurement, symmetry, verify
from wittingqkd.configuration import ring_mul
from wittingqkd.eisenstein import Eisenstein

OMEGA = np.array((0, 1))


def test_column_check_passes_on_the_configuration(config):
    detail = verify._check_column_shifts(config)
    assert detail == "block columns related by shift + per-coordinate unit phases"


def test_column_check_fails_when_one_coordinate_is_turned_by_w(config):
    """Multiplying one coordinate of one family vector by w leaves the
    configuration, so no monomial map relates that column to the others."""
    columns = verify._block_columns(config)
    for col in range(4):
        for row in range(1, 10):
            for coord in np.flatnonzero(columns[col, row].any(axis=-1)):
                broken = columns.copy()
                broken[col, row, coord] = ring_mul(broken[col, row, coord], OMEGA)
                with pytest.raises(AssertionError, match="no monomial shift maps column"):
                    verify._check_columns(broken)


@pytest.mark.parametrize("pair", [(0, 1), (3, 7), (7, 3)])
def test_spectrum_check_catches_a_faulty_transition_array(pair):
    """One off-diagonal entry of the array, above or below the diagonal,
    flipped between 0 and 3: the boxed overlaps still read the vectors, so
    the spectrum check fails."""
    config = WittingConfiguration()
    faulty = config.transition_array.copy()
    faulty[pair] = 3 - faulty[pair]
    config.transition_array = faulty
    with pytest.raises(AssertionError):
        verify._check_spectrum(config)


def test_suite_builds_few_boxed_values(monkeypatch):
    """Boxed Z[w] values stay at the API edge: the inner products of the
    checks run on plain ints, and each direct distribution is computed once
    per tetrad and input.  The full suite built 97,348 of them when each
    inner product boxed its every term, and 13,792 while the vector
    reference still boxed its branch states, and 164 while the configuration
    boxed its own state vectors; it now builds none."""
    built = []
    original = Eisenstein.__post_init__

    def counted(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(Eisenstein, "__post_init__", counted)
    results = verify.run_checks()
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert built == [], len(built)
    Eisenstein(1, 2)  # the counter itself counts
    assert built == [1]


def test_suite_computes_the_overlap_table_once(monkeypatch):
    """``transition-spectrum``, ``mub-embedding`` and ``pair-bases`` share one
    overlap table per run: 820 inner products, one per pair s <= t, where
    each check building its own made 2,460, and at most 4,916 in the whole
    suite where there were 6,844, and 5,204 before the vector reference
    shared its queries (:func:`measurement.two_step_distribution`) and
    Alice's split of the pair."""
    calls = {verify: 0, measurement: 0}
    for module in calls:
        def counted(s, t, module=module, original=module.pair_inner):
            calls[module] += 1
            return original(s, t)

        monkeypatch.setattr(module, "pair_inner", counted)
    results = verify.run_checks()
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert calls[verify] == 820
    assert sum(calls.values()) <= 4916, calls


def test_suite_builds_the_vertex_index_and_generators_once(monkeypatch):
    """The two closures, ``symmetry-group`` and ``reflection-group``, share
    one vertex index and one check of the four generators per run; each
    built its own before."""
    calls = {"_Vertices": 0, "generators": 0}
    init, generators = symmetry._Vertices.__init__, symmetry.generators

    def counted_init(self, config):
        calls["_Vertices"] += 1
        init(self, config)

    def counted_generators(config):
        calls["generators"] += 1
        return generators(config)

    monkeypatch.setattr(symmetry._Vertices, "__init__", counted_init)
    monkeypatch.setattr(symmetry, "generators", counted_generators)
    results = verify.run_checks()
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert calls == {"_Vertices": 1, "generators": 1}


def test_overlap_table_is_shared_and_read_only(config):
    """One table per configuration, its rows tuples: a check cannot change
    what the next one reads."""
    table = verify._overlaps(config)
    assert verify._overlaps(config) is table
    assert type(table) is tuple and all(type(row) is tuple for row in table)
    fresh = verify._overlaps(WittingConfiguration())
    assert fresh is not table and fresh == table


def _built(monkeypatch, cls, method, check, config):
    """How many ``cls`` objects ``check(config)`` builds, counted at ``method``."""
    built = []
    original = getattr(cls, method)

    def counted(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, method, counted)
    check(config)
    monkeypatch.undo()
    return len(built)


@pytest.mark.parametrize(
    "check", [verify._check_deferred_measurement, verify._check_joint_two_step]
)
def test_reference_checks_build_no_boxed_values(config, monkeypatch, check):
    """The Z[w] vector reference runs on (a, b) int pairs and the checks
    compare integer weights, so neither builds an ``Eisenstein`` or a
    ``Fraction``.  While the reference boxed its branch states and Born
    weights, the two built 6,944 and 4,224 ``Eisenstein`` values."""
    assert _built(monkeypatch, Eisenstein, "__post_init__", check, config) == 0
    assert _built(monkeypatch, Fraction, "__new__", check, config) == 0


def test_reference_checks_do_not_read_the_transition_array():
    """One entry of the array changed: the spectrum check sees it, while the
    two checks on the vector reference still pass, as they never read the
    array."""
    config = WittingConfiguration()
    faulty = config.transition_array.copy()
    faulty[0, 1] = 3 - faulty[0, 1]
    config.transition_array = faulty
    with pytest.raises(AssertionError):
        verify._check_spectrum(config)
    assert verify._check_deferred_measurement(config).startswith("two-step branches")
    assert verify._check_joint_two_step(config).startswith("joint two-step branches")


@pytest.mark.parametrize(
    "p, q, expected",
    [
        (([1, 1], 2), ([2, 2], 4), True),
        (([1, 0, 3], 4), ([2, 0, 6], 8), True),
        (([1, 2], 3), ([1, 2], 4), False),
        (([1, 2], 4), ([2, 1], 4), False),
    ],
)
def test_equal_compares_by_cross_multiplication(p, q, expected):
    assert verify._equal(p, q) is expected


def test_equal_rejects_weights_of_another_length():
    """A shorter weight vector is an error, not a match on its prefix."""
    with pytest.raises(ValueError):
        verify._equal(([1, 1], 2), ([1, 1, 0], 2))
