"""Slow reference evaluators shared by the tests.

They read every value through the validated ``Cochain.value`` and
``on_boundary`` and build each prism afresh, so they share no code
with the compiled term trees and hop geometry they check.
"""

from chainphase.simplicial import (Cochain, Phase, StandardComplex,
                                   cylinder_project)


def positional_density(action, B, s):
    """The term list read factor by factor through the validated
    ``Cochain.value`` and ``on_boundary``, with no index tables."""
    total = 0
    for coef, factors in action.terms:
        prod = coef
        for use_delta, positions in factors:
            sub = tuple(s[i] for i in positions)
            prod *= B.on_boundary(sub) if use_delta else B.value(sub)
            if not prod:
                break
        total += prod
    return total


def per_hop_cylinder_theta(action, B, h, s):
    """Theta with the prism, its simplices and the coboundary of h all
    built afresh for this one call, integrated with
    ``positional_density``."""
    cyl = StandardComplex.cylinder(action.spacetime - 1)
    pos = {v: i for i, v in enumerate(s)}
    bottom = {tuple(2 * pos[v] for v in t): c for t, c in h.items()
              if all(v in pos for v in t)}
    delta_h = Cochain(h.degree, bottom).coboundary(cyl)
    values = {}
    for t in cyl.simplices(action.degree):
        v = delta_h.value(t)
        base = cylinder_project(t)
        if base is not None:
            v += B.value(tuple(s[i] for i in base))
        values[t] = v
    prism = Cochain(action.degree, values)
    total = sum(sign * positional_density(action, prism, cell)
                for cell, sign in cyl.top_cells)
    # The prism's orientation is (-1)^D times the cylinder's.
    return Phase(-total if action.spacetime % 2 else total, action.divisor)
