import numpy as np
import pytest

from wittingqkd import verify
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


def test_suite_builds_few_boxed_values(monkeypatch):
    """Boxed Z[w] values stay at the API edge: the inner products of the
    checks run on plain ints, and each direct distribution is computed once
    per tetrad and input.  The full suite built 97,348 of them when each
    inner product boxed its every term; it now builds about 14,100."""
    built = []
    original = Eisenstein.__post_init__

    def counted(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(Eisenstein, "__post_init__", counted)
    results = verify.run_checks()
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    assert 0 < len(built) < 20_000, len(built)
