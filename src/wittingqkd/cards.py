"""Card labels of the 40 states: suits, ranks and :class:`Card`.

Kept free of numpy, so ``from wittingqkd import Card`` loads neither numpy
nor the configuration.
"""

from __future__ import annotations

from typing import NamedTuple

SUITS = ("S", "H", "D", "C")  # spades, hearts, diamonds, clubs: ascending order
RANKS = tuple(range(1, 11))


class Card(NamedTuple):
    suit: str
    rank: int

    @property
    def label(self) -> str:
        return f"{self.suit}{self.rank}"

    @classmethod
    def parse(cls, text: str) -> "Card":
        suit, rank = text[:1].upper(), text[1:]
        if suit not in SUITS or rank not in [str(r) for r in RANKS]:
            raise ValueError(f"not a card label: {text!r}")
        return cls(suit, int(rank))
