import cmath
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wittingqkd.eisenstein import (
    Eisenstein,
    I_SQRT3,
    MAGNITUDE_BOUND,
    OMEGA,
    OMEGA2,
    ONE,
    UNITS,
    ZERO,
)

W_FLOAT = cmath.exp(2j * cmath.pi / 3)

# Bounded so that products of three factors stay inside the magnitude bound.
small = st.builds(
    Eisenstein, st.integers(min_value=-50, max_value=50), st.integers(-50, 50)
)


def embed(x: Eisenstein) -> complex:
    return x.a + x.b * W_FLOAT


def test_omega_squared():
    assert OMEGA * OMEGA == Eisenstein(-1, -1)


def test_multiplicative_identity():
    x = Eisenstein(7, -3)
    assert ONE * x == x
    assert x * ONE == x


def test_i_sqrt3_squares_to_minus_three():
    # |i sqrt(3)|^2 via the float oracle: (1 + 2w)^2 = -3.
    assert I_SQRT3 * I_SQRT3 == Eisenstein(-3, 0)
    assert abs(embed(I_SQRT3) ** 2 - (-3)) < 1e-9


def test_conjugation_examples():
    assert OMEGA.conj() == OMEGA2
    assert Eisenstein(5, 0).conj() == Eisenstein(5, 0)
    # conj(i sqrt(3)) = -i sqrt(3), frozen from the float oracle.
    assert I_SQRT3.conj() == Eisenstein(-1, -2)
    assert abs(embed(I_SQRT3.conj()) - embed(I_SQRT3).conjugate()) < 1e-9


def test_norm_examples():
    assert OMEGA.norm_sq() == 1
    assert I_SQRT3.norm_sq() == 3
    assert ZERO.norm_sq() == 0


def test_units_fixed_order():
    assert UNITS == (
        Eisenstein(1, 0),
        Eisenstein(-1, 0),
        Eisenstein(0, 1),
        Eisenstein(0, -1),
        Eisenstein(-1, -1),
        Eisenstein(1, 1),
    )
    assert all(u.norm_sq() == 1 for u in UNITS)


def test_units_are_all_norm_one_elements():
    norm_one = {
        Eisenstein(a, b)
        for a in range(-2, 3)
        for b in range(-2, 3)
        if Eisenstein(a, b).norm_sq() == 1
    }
    assert norm_one == set(UNITS)


def test_unit_product():
    # Frozen from direct multiplication: the six units multiply to -1.
    prod = ONE
    for u in UNITS:
        prod = prod * u
    assert prod == Eisenstein(-1, 0)


def test_overflow_is_loud():
    big = MAGNITUDE_BOUND - 1
    with pytest.raises(OverflowError):
        Eisenstein(big, 0) * Eisenstein(big, 0)


def test_str_rendering():
    assert str(Eisenstein(1, 2)) == "1+2w"
    assert str(Eisenstein(0, -1)) == "-w"
    assert str(Eisenstein(-2, 0)) == "-2"


@given(small, small)
def test_commutativity(x, y):
    assert x * y == y * x
    assert x + y == y + x


@given(small, small, small)
def test_associativity_and_distributivity(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(small, small)
def test_conj_is_ring_homomorphism(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x


@given(small, small)
def test_norm_is_multiplicative(x, y):
    assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()


@given(small)
def test_norm_nonnegative_and_definite(x):
    n = x.norm_sq()
    assert n >= 0
    assert (n == 0) == x.is_zero()


@given(small, small)
def test_float_embedding_commutes(x, y):
    assert abs(embed(x * y) - embed(x) * embed(y)) < 1e-9
    assert abs(embed(x + y) - (embed(x) + embed(y))) < 1e-9
    assert abs(embed(x.conj()) - embed(x).conjugate()) < 1e-9
    assert abs(x.norm_sq() - abs(embed(x)) ** 2) < 1e-9


def test_eisenstein_imports_without_numpy():
    # The configuration names of the package load numpy lazily (PEP 562).
    script = """
import sys
from wittingqkd import Eisenstein, UNITS
assert "numpy" not in sys.modules, "numpy loaded"
import wittingqkd
assert wittingqkd.WittingConfiguration.__module__ == "wittingqkd.configuration"
for name in wittingqkd.__all__:
    getattr(wittingqkd, name)
from wittingqkd import *
assert "numpy" in sys.modules
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
