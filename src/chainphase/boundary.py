"""Boundary terms of a bulk action: cones, cylinders, local densities.

The two geometric constructions both extend data given on a spatial
simplex s into one extra dimension and evaluate a bulk action there:

* ``cone_phi``: extend the boundary configuration b by zero to the
  cone over s (apex appended as a new largest vertex) and evaluate the
  action of its coboundary on the cone.
* ``cylinder_theta``: pull a bulk cochain B back to the prism s x I,
  add the coboundary of the hopping cochain h placed on the bottom
  copy of s, and integrate the action over the prism's top cells.

Orientation convention: both constructions are oriented so that the
copy of s carrying the data (the cone's base, the prism's bottom)
enters the boundary with sign +1.  The densities are still evaluated
in the vertex order above (apex last; bottom copy of each vertex
before its top copy), which is the order the cup products see; only
the orientation differs from that order's, by the sign (-1)^D of the
D-dimensional bulk face.  With it the derivative identities hold as
usually written, in every spacetime dimension D:

    delta Phi_cone[b] = T[delta b]
    delta Theta[B, h] = T[B + delta h] - T[B]    (B closed)

The local densities ``boundary_symmetry_phase`` and
``explicit_hopping_phase`` are specific to the six-dimensional cubic
theory, where the boundary degrees of freedom have degree one.
"""

from __future__ import annotations

from itertools import combinations

from .actions import ActionFunctional
from .simplicial import (Cochain, Phase, StandardComplex, check_simplex,
                         cylinder_project)


def delta_on(b: Cochain, s) -> Cochain:
    """Coboundary of b on the faces of one simplex, over the integers.

    The result has modulus 0 regardless of b's modulus: it is the
    coboundary of the canonical integer lift, which is what every bulk
    functional consumes.
    """
    s = check_simplex(s)
    return b.with_modulus(0).coboundary(
        StandardComplex("simplex", len(s) - 1, [(s, 1)]))


def cone_phi(action: ActionFunctional, b: Cochain, s) -> Phase:
    """Action of delta(b extended by zero) on the cone over s.

    The cone is the simplex (s, apex) with the orientation of
    (apex, s), so its base enters the boundary with sign +1; for a
    spacetime dimension D that is (-1)^D times the action evaluated on
    (s, apex).  Then delta Phi_cone[b] = T[delta b] in every D.
    """
    s = check_simplex(s)
    if len(s) != action.spacetime:
        raise ValueError(
            f"cone base must be a {action.spacetime - 1}-simplex, got {s}")
    if b.degree != action.degree - 1:
        raise ValueError(
            f"boundary configuration must have degree {action.degree - 1}")
    # Only b's values on s extend to the cone: the apex label may also
    # be a vertex of b's domain.
    on_s = Cochain(b.degree, {t: c for t, c in b.items() if set(t) <= set(s)})
    cone = s + (s[-1] + 1,)
    phase = action.phase(delta_on(on_s, cone), cone)
    return -phase if action.spacetime % 2 else phase


def cylinder_theta(action: ActionFunctional, B: Cochain, h: Cochain,
                   s) -> Phase:
    """Action of (pullback of B) + delta(h on the bottom) over s x I.

    The prism is oriented so that its bottom copy of s, the one
    carrying h, enters the boundary with sign +1: the top cell
    <0..i, i'..k'> counts with sign (-1)^(i+1), which is (-1)^D times
    the sign ``StandardComplex.cylinder`` gives it.  Then
    delta Theta[B, h] = T[B + delta h] - T[B] for closed B in every D.
    """
    s = check_simplex(s)
    k = action.spacetime - 1
    if len(s) != k + 1:
        raise ValueError(f"cylinder base must be a {k}-simplex, got {s}")
    if B.degree != action.degree or h.degree != action.degree - 1:
        raise ValueError("cochain degrees do not match the action")
    n = action.degree
    cyl, lifts, columns = _prism(k, n)
    base = B.values_on(combinations(s, n + 1))
    values = {t: base[i] for t, i in lifts if base[i]}
    pos = {v: i for i, v in enumerate(s)}
    for t, c in h.items():
        if all(v in pos for v in t):
            for u, sign in columns[tuple(pos[v] for v in t)]:
                values[u] = values.get(u, 0) + sign * c
    phase = action.integral(Cochain(n, values, 0), cyl)
    return -phase if action.spacetime % 2 else phase


_PRISMS: dict[tuple[int, int], tuple] = {}


def _prism(k: int, n: int):
    """The prism Delta_k x I with its per-hop geometry, built once.

    Returns (cyl, lifts, columns).  ``lifts`` pairs every degree-n
    prism simplex that does not degenerate under ``cylinder_project``
    with the index of its image among the degree-n faces of Delta_k in
    ascending (``combinations``) order, so one read of B on the faces
    of the base serves every lift.  ``columns`` maps each (n-1)-face
    of Delta_k to the prism coboundary of its bottom copy, as
    (simplex, sign) pairs.
    """
    if (k, n) not in _PRISMS:
        cyl = StandardComplex.cylinder(k)
        index = {f: i for i, f in
                 enumerate(combinations(range(k + 1), n + 1))}
        lifts = []
        for t in cyl.simplices(n):
            base = cylinder_project(t)
            if base is not None:
                lifts.append((t, index[base]))
        columns = {}
        for f in combinations(range(k + 1), n):
            bottom = Cochain(n - 1, {tuple(2 * v for v in f): 1})
            columns[f] = tuple(bottom.coboundary(cyl).items())
        _PRISMS[k, n] = cyl, tuple(lifts), columns
    return _PRISMS[k, n]


def modified_excitation_phase(action: ActionFunctional, b: Cochain,
                              h: Cochain, s) -> Phase:
    """Phase attached to one hop: minus Theta of (coboundary of b, h)."""
    return -cylinder_theta(action, delta_on(b, s), h, s)


def boundary_action_phase(b: Cochain, N: int, s) -> Phase:
    """Density of the cubic theory's explicit boundary action on a
    5-simplex: (1/N) b cup delta(b) cup delta(b)."""
    s = check_simplex(s)
    if len(s) != 6:
        raise ValueError(f"expected a 5-simplex, got {s}")
    v = (b.value((s[0], s[1]))
         * b.on_boundary((s[1], s[2], s[3]))
         * b.on_boundary((s[3], s[4], s[5])))
    return Phase(v, N)


def boundary_symmetry_phase(b: Cochain, eps: Cochain, N: int, s) -> Phase:
    """Density of the cubic theory's boundary symmetry defect on a
    4-simplex: (1/N) eps cup delta(b) cup delta(b)."""
    s = check_simplex(s)
    if len(s) != 5:
        raise ValueError(f"expected a 4-simplex, got {s}")
    v = (eps.value(s[:1])
         * b.on_boundary((s[0], s[1], s[2]))
         * b.on_boundary((s[2], s[3], s[4])))
    return Phase(v, N)


def explicit_hopping_phase(b: Cochain, h: Cochain, N: int, s) -> Phase:
    """Density of the cubic theory's hopping counterterm on a 4-simplex:
    (1/N) b cup (h cup delta(b) + delta(b) cup h + h cup delta(h))."""
    s = check_simplex(s)
    if len(s) != 5:
        raise ValueError(f"expected a 4-simplex, got {s}")
    inner = (h.value((s[1], s[2])) * b.on_boundary((s[2], s[3], s[4]))
             + b.on_boundary((s[1], s[2], s[3])) * h.value((s[3], s[4]))
             + h.value((s[1], s[2])) * h.on_boundary((s[2], s[3], s[4])))
    return Phase(b.value((s[0], s[1])) * inner, N)


def coboundary_phase(density, s) -> Phase:
    """Alternating sum of a 4-simplex density over the faces of s.

    ``density`` maps a simplex to a Phase; this evaluates its formal
    coboundary on the simplex s one degree up.
    """
    s = check_simplex(s)
    total = Phase(0, 1)
    for i in range(len(s)):
        face = s[:i] + s[i + 1:]
        p = density(face)
        total = total + p if i % 2 == 0 else total - p
    return total
