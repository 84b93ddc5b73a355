"""Exact arithmetic over the Eisenstein integers Z[w], w = exp(2*pi*i/3).

Once state vectors are scaled by sqrt(3), every amplitude appearing in the
40-state configuration is an Eisenstein integer, so the whole package can
compute with pairs of Python ints instead of floats: boxed as
:class:`Eisenstein` at the API edges, and as plain (a, b) int pairs in
:func:`pair_inner`.  Exact probabilities are integer norms over integer
denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# Everything in this package stays tiny; a breach means a reduction step was
# skipped upstream, so fail loudly instead of letting values grow.
MAGNITUDE_BOUND = 1 << 20


@dataclass(frozen=True, slots=True)
class Eisenstein:
    """The element a + b*w of Z[w]; w satisfies w**2 = -1 - w."""

    a: int
    b: int = 0

    def __post_init__(self) -> None:
        if abs(self.a) > MAGNITUDE_BOUND or abs(self.b) > MAGNITUDE_BOUND:
            raise OverflowError(
                f"Eisenstein component exceeds 2**20: ({self.a}, {self.b})"
            )

    def __add__(self, other: "Eisenstein") -> "Eisenstein":
        return Eisenstein(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "Eisenstein") -> "Eisenstein":
        return Eisenstein(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "Eisenstein":
        return Eisenstein(-self.a, -self.b)

    def __mul__(self, other: "Eisenstein | int") -> "Eisenstein":
        if isinstance(other, int):
            return Eisenstein(self.a * other, self.b * other)
        # (a + b w)(c + d w) = ac - bd + (ad + bc - bd) w, using w^2 = -1 - w.
        a, b, c, d = self.a, self.b, other.a, other.b
        bd = b * d
        return Eisenstein(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def conj(self) -> "Eisenstein":
        """Complex conjugate: conj(w) = w**2, so a + b*w -> (a - b) - b*w."""
        return Eisenstein(self.a - self.b, -self.b)

    def norm_sq(self) -> int:
        """x * conj(x) = a**2 - a*b + b**2; zero only for x = 0."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def key(self) -> tuple[int, int]:
        """Lexicographic sort key; fixes the canonical-phase convention."""
        return (self.a, self.b)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        wpart = "w" if abs(self.b) == 1 else f"{abs(self.b)}w"
        sign = "-" if self.b < 0 else ("+" if self.a != 0 else "")
        if self.a == 0:
            return f"{sign}{wpart}"
        return f"{self.a}{sign}{wpart}"


ZERO = Eisenstein(0, 0)
ONE = Eisenstein(1, 0)
OMEGA = Eisenstein(0, 1)
OMEGA2 = Eisenstein(-1, -1)
# i*sqrt(3) = 1 + 2w; the in-ring stand-in for the sqrt(3) scale of axis states.
I_SQRT3 = Eisenstein(1, 2)

# The six elements of norm 1, in the fixed public order (1, -1, w, -w, w^2, -w^2).
# Canonicalisation and serialisation depend on this order; do not reorder.
UNITS = (ONE, -ONE, OMEGA, -OMEGA, OMEGA2, -OMEGA2)


def pair_inner(s: Sequence[tuple[int, int]], t: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Hermitian inner product sum(conj(s_i) * t_i) of sqrt(3)-scaled vectors of
    (a, b) int pairs: the pure-Python Z[w] kernel, independent of the array one
    in ``configuration``.  Vectors of different lengths raise ``ValueError``.
    Every conjugate, product and running sum is held to :data:`MAGNITUDE_BOUND`,
    so it raises ``OverflowError`` exactly where the boxed fold
    ``acc + x.conj() * y`` would.  The bound is a power of two, so the OR of
    the magnitudes reaches it exactly when one does; only then are they compared.
    """
    if len(s) != len(t):  # the error zip(s, t, strict=True) raises, without its cost
        which = "shorter" if len(t) < len(s) else "longer"
        raise ValueError(f"zip() argument 2 is {which} than argument 1")
    # conj(a + bw)(c + dw) = (a - b)c + bd + (ad - bc)w; of conj(a + bw) only a - b can grow.
    re = im = 0
    bound = MAGNITUDE_BOUND
    for (a, b), (c, d) in zip(s, t):
        p = a - b
        pr = p * c + b * d
        pw = a * d - b * c
        re += pr
        im += pw
        if abs(p) | abs(pr) | abs(pw) | abs(re) | abs(im) >= bound and not (
            -bound <= p <= bound and -bound <= pr <= bound and -bound <= pw <= bound
            and -bound <= re <= bound and -bound <= im <= bound
        ):
            raise OverflowError(f"Z[w] inner product exceeds 2**20: {(p, pr, pw, re, im)}")
    return re, im
