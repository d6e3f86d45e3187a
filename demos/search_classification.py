#!/usr/bin/env python3
"""Classify particle statistics by integer linear algebra, then turn
an abstract statistics class back into a runnable process.

Phase symbols theta(s, a) — "hop across s while the rest of the state
is a" — generate a free abelian group.  Quotienting by the relations
that every bilinear realization satisfies (disjoint-support
commutators) leaves a finitely presented group whose torsion
classifies the possible statistics.  For mod-2 particles on the
boundary of the 3-simplex the answer is Z_4: the semion family.
"""

import random
from itertools import combinations

from chainphase.actions import get_action
from chainphase.process import evaluate
from chainphase.search import (build_model, classify, expand_theta,
                               lift_halved_expression)
from chainphase.simplicial import Phase

model = build_model(2, 0, 2)
print(f"Model: mod-{model.modulus} point charges on the boundary of "
      f"the {model.d + 1}-simplex")
print(f"  {len(model.generators)} hop generators, "
      f"{len(model.configurations)} charge configurations")

factors, residual, log = classify(model, 3)
rows, cols = residual.shape
print(f"  identity relations eliminated: {len(log)} pivots, "
      f"residual {rows} x {cols}")
print(f"  torsion of the expression group: {factors}  (Z_4)")

print()
print("Every relation really does kill every bilinear realization:")
# A local realization theta(s, a) = <lam_s, a>/N: lam_s pairs only with
# the state on the faces of s, so disjoint supports never interact.
rng = random.Random(5)
lam = {s: {t: rng.randrange(model.modulus)
           for t in combinations(s, model.p + 1)}
       for s in model.generators}
word = [(1, (0, 1)), (1, (1, 2)), (-1, (0, 1)), (-1, (1, 2))]
vacuum = ()
comm = expand_theta(word + word, vacuum, model)
phase = Phase(0, 1)
for (s, a_key), coeff in comm.items():
    phase += coeff * Phase(sum(lam[s].get(t, 0) * c for t, c in a_key),
                           model.modulus)
print("  a doubled commutator expression evaluates to", phase,
      "under a random realization")

print()
print("Reconstructing a runnable word from an order-2 class of the")
print("residual (the square inside the Z_4):")
steps = lift_halved_expression(residual, model)
if steps is None:
    print("  no halvable residual expression found")
else:
    print(f"  {len(steps)} steps:", " ".join(
        f"{'+' if s > 0 else '-'}{''.join(map(str, c))}"
        for s, c in steps))
    action = get_action("particle-quad-even", 2)
    print("  its phase under the semion action:",
          evaluate(steps, action), "(order 2, as the square must be)")
