import numpy as np
import pytest

from wittingqkd import WittingConfiguration, verify
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
    inner product boxed its every term; it now builds about 13,800."""
    built = []
    original = Eisenstein.__post_init__

    def counted(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(Eisenstein, "__post_init__", counted)
    results = verify.run_checks()
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert 0 < len(built) < 15_000, len(built)
