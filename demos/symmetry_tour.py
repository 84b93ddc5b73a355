"""Tour of the symmetry group: four triflections generate 51840 unitaries.

Run:  python3 demos/symmetry_tour.py   (takes about a second)
"""

import time

from wittingqkd import WittingConfiguration
from wittingqkd.symmetry import (
    GENERATOR_CARDS,
    SymmetryElement,
    generate_group,
    generators,
    orbit_of_first_basis_state,
    triflection,
)
from wittingqkd.configuration import Card

config = WittingConfiguration()

print("A triflection is an order-3 complex reflection about one state.")
t = triflection(config.state_of(Card("S", 1)))
print("About the first axis state it is diagonal.  Its entries are held")
print("scaled by 1 + 2w (= i sqrt(3)), so they stay in Z[w]; unscaled it is")
print("diag(w, 1, 1, 1):")
for i in range(4):
    print("  ", [str(t.entry(i, j)) for j in range(4)])
print("cubed:", "identity" if t @ t @ t == SymmetryElement.identity() else "NOT identity")
print()

print("Four such reflections, rescaled by w^2 to have determinant one,")
print("generate every symmetry.  Their states, in card notation:")
print("  ", " ".join(c.label for c in GENERATOR_CARDS))
gens = generators(config)
print("  determinants:", [str(g.determinant_unit()) for g in gens])
print()

print("Each generator permutes the 240 polytope vertices exactly; the closure")
print("walks a chain of stabilisers, one axis vertex after another, and each")
print("element is kept as the images of the four axis vertices:")
t0 = time.time()
table = generate_group(config)
print(f"  raw order:            {table.raw_order}   ({time.time() - t0:.1f}s)")
print(f"  mod {{+1,-1}}:          {table.order_mod_pm1}")
print(f"  mod all six units:    {table.projective_order}")
print("  (the only scalars in the closure are +1 and -1, so the last two agree)")
print()

print("The orbit of the first axis state under the generators is the whole")
print("configuration:")
orbit = orbit_of_first_basis_state(config, table)
print("  orbit size:", len(orbit))
print()

print("Each group element permutes the 40 states; the induced action also")
print("permutes the 40 tetrads.  The permutation of the first generator:")
perm = table.state_permutation(gens[0])
moved = sum(1 for i, j in enumerate(perm) if i != j)
print(f"  moves {moved} of 40 states")
