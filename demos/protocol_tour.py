"""Tour of the key-distribution protocols and the intercept-resend attacker.

Run:  python3 demos/protocol_tour.py   (takes about a second)
"""

from fractions import Fraction

from wittingqkd import WittingConfiguration
from wittingqkd.measurement import intercept_resend_distribution, joint_distribution
from wittingqkd.protocol import PartyPolicy, run_key_agreement, run_naive_session, run_two_step_session

config = WittingConfiguration()
alice = PartyPolicy("uniform", 101)
bob = PartyPolicy("uniform", 202)

print("Both parties measure halves of a maximally entangled ququart pair.")
print("Bob always measures the conjugated copies of the announced tetrad;")
print("the joint distribution is then (1/4)I, e.g. for tetrad 5:")
for row in joint_distribution(config, 5, 5).as_strings():
    print("  ", row)
print()

print("Naive protocol: both draw one of the 40 tetrads at random.")
tr = run_naive_session(config, 100_000, alice, bob, seed=1)
print(f"  sift rate {float(tr.sift_rate):.4f}  (expected 1/40 = 0.025)")
print(f"  matches within sifted: {tr.n_matched}/{tr.n_sifted}")
print()

print("Pre-agreed choices lift the efficiency to 100%:")
shared = PartyPolicy("agreed", 777)
tr = run_naive_session(config, 10_000, shared, shared, seed=2)
print(f"  sift rate {float(tr.sift_rate):.4f}, matches {tr.n_matched}/{tr.n_sifted}")
print()

print("Two-step protocol: pick a state, query it, then one of its 4 tetrads.")
tr = run_two_step_session(config, 400_000, alice, bob, seed=3)
print(f"  same state and tetrad: {float(tr.extras['sameStateAndBasisRate']):.5f} (1/160 = 0.00625)")
print(f"  same tetrad:           {float(tr.extras['sameBasisRate']):.5f} (1/40 = 0.025)")
print("  every sifted round still matches:", tr.n_matched == tr.n_sifted)
print()

print("Key agreement: announce chosen states, then measure in a common")
print("tetrad when there is one (13/40 of the time).")
tr = run_key_agreement(config, 400_000, alice, bob, seed=4)
print(f"  sift rate {float(tr.sift_rate):.4f}  (13/40 = 0.325)")
print(f"    same state:          {float(tr.extras['sameStateRate']):.4f}  (1/40)")
print(f"    distinct orthogonal: {float(tr.extras['distinctOrthogonalRate']):.4f}  (12/40)")
print()

print("Intercept-resend attacker measuring the computational tetrad:")
print("  invisible when the parties also use it:",
      intercept_resend_distribution(config, 0, 0, 0).is_quarter_diagonal())
d = intercept_resend_distribution(config, 2, 2, 0)
print("  but on the rank-3 tetrad the mismatch probability is",
      d.mismatch_probability(), "=", float(d.mismatch_probability()))
tr = run_naive_session(config, 100_000, alice, bob, eve_basis=0, seed=5)
print(f"  sampled over random tetrads: {tr.n_mismatched}/{tr.n_sifted} sifted rounds mismatch")
print("  (exact class values: 0 computational, 2/3 rank and mixed, 1/2 mono-suit;")
print("   averaged over the 40 tetrads that is 3/5)")
expected = Fraction(3, 5)
print(f"  observed {tr.n_mismatched / tr.n_sifted:.3f} vs {float(expected):.3f}")
tr = run_key_agreement(config, 100_000, alice, bob, eve_basis=0, seed=6)
print("  key agreement under the same attacker: exactly 3/5 as well;")
print(f"  observed {tr.n_mismatched}/{tr.n_sifted} = {tr.n_mismatched / tr.n_sifted:.3f}")
