"""Tour of the classical marking models: why no non-contextual one works.

Run:  python3 demos/classical_models_tour.py   (takes a second or two)
"""

from random import Random

from wittingqkd import WittingConfiguration
from wittingqkd.marking import (
    ALL_SPADES,
    MAX_SCORE_EXAMPLE,
    N_MARKINGS,
    contextuality_witness,
    exhaustive_scan,
    score_marking,
)


def build_contextual_deck_model(config, seed):
    """Mark one member position in each of the 40 tetrads (seeded, shared)."""
    rng = Random(seed)
    return tuple(rng.randrange(4) for _ in config.bases)


config = WittingConfiguration()

print("A classical imitation of the protocol would pre-mark cards so that")
print("every tetrad contains exactly one marked card.  The ten rank tetrads")
print("partition the deck, so a candidate model is a choice of one suit per")
print(f"rank: 4^10 = {N_MARKINGS} candidates.")
print()

print("Marking every rank's spade gets 28 of 40 tetrads right:")
score = score_marking(config, ALL_SPADES)
print(f"  correct {score.correct}, empty {score.unmarked}, "
      f"fully marked {score.by_count[4]} (the three all-spade tetrads)")
print()

print("The best one-suit-per-rank marking gets 34, e.g.")
print("  ", " ".join(c.label for c in MAX_SCORE_EXAMPLE.cards()))
score = score_marking(config, MAX_SCORE_EXAMPLE)
print(f"  correct {score.correct}, double-marked {score.double_marked}, "
      f"empty {score.unmarked}")
print()

print("Scanning all candidates (exact, vectorised):")
result = exhaustive_scan(config)
print(f"  perfect marking exists: {result.exists_perfect}")
print(f"  maximum correct tetrads: {result.max_correct}")
print(f"  markings attaining it: {result.count_at_max} "
      f"({float(result.frac_at_max) * 100:.3f}% of all candidates)")
print(f"  mean correct fraction: {float(result.mean_correct_fraction):.3f}")
print(f"  fraction scoring above 70%: {float(result.frac_above_28) * 100:.2f}%")
print()

print("A contextual model dodges the obstruction: mark one member per tetrad")
print("(both parties share the table) and agreement is perfect by fiat.")
table = build_contextual_deck_model(config, seed=2024)
witness = contextuality_witness(config, table)
card, marked_id, unmarked_id = witness
print("The price is contextuality. Witness in this table:")
print(f"  card {card.label} is the marked card of tetrad {marked_id}")
print(f"  but not the marked card of tetrad {unmarked_id}")
print("No complete table avoids this: a witness-free table would be a")
print("perfect global marking, which the scan just ruled out.")
