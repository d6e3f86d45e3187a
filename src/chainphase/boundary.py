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

A hop (``modified_excitation_phase``, and ``cylinder_theta``) is index
arithmetic over one geometry compiled per (k, n), ``_HopGeometry``:
it checks its arguments once, reads b (or B) and h on the faces of
s, fills a dense prism vector and sums the action's factor tree over
the prism's top cells, building no ``Cochain`` on the way.

The local densities ``boundary_symmetry_phase`` and
``explicit_hopping_phase`` are specific to the six-dimensional cubic
theory, where the boundary degrees of freedom have degree one.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter

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
    s, hop = _hop_args(action, s, B.degree, h)
    base = B.values_on(combinations(s, action.degree + 1))
    return Phase(hop.theta(action, base, h.values_on(
        combinations(s, action.degree))), action.divisor)


def modified_excitation_phase(action: ActionFunctional, b: Cochain,
                              h: Cochain, s) -> Phase:
    """Phase attached to one hop: minus Theta of (coboundary of b, h)."""
    s, hop = _hop_args(action, s, b.degree + 1, h)
    faces = list(combinations(s, action.degree))
    base = [0] * len(hop.lifts)
    for x, cofaces in zip(b.values_on(faces), hop.cofaces):
        if x:
            for i, sign in cofaces:
                base[i] += sign * x
    return Phase(-hop.theta(action, base, h.values_on(faces)),
                 action.divisor)


def _hop_args(action: ActionFunctional, s, degree: int, h: Cochain):
    """Check one hop's arguments; return s and the compiled geometry."""
    s = check_simplex(s)
    k = action.spacetime - 1
    if len(s) != k + 1:
        raise ValueError(f"cylinder base must be a {k}-simplex, got {s}")
    if degree != action.degree or h.degree != action.degree - 1:
        raise ValueError("cochain degrees do not match the action")
    key = (k, action.degree)
    if key not in _HOPS:
        _HOPS[key] = _HopGeometry(*key)
    return s, _HOPS[key]


class _HopGeometry:
    """Index tables of a hop over the prism Delta_k x I for degree-n
    actions, built once per (k, n).

    Faces of Delta_k are numbered in ascending (``combinations``)
    order, and the prism's degree-n simplices in ``simplices`` order,
    which numbers the entries of a dense prism vector.

    * ``cofaces[j]``: the coboundary of the j-th (n-1)-face, as
      (n-face index, sign) pairs;
    * ``lifts[i]``: the prism simplices that project onto the i-th
      n-face without degenerating;
    * ``columns[j]``: the prism coboundary of the bottom copy of the
      j-th (n-1)-face, as (prism index, sign) pairs;
    * ``cells``: per top cell of the prism, its orientation sign and a
      getter of its n-faces from the prism vector, in ascending order.
    """

    __slots__ = ("size", "cofaces", "lifts", "columns", "cells")

    def __init__(self, k: int, n: int):
        cyl = StandardComplex.cylinder(k)
        prism = {t: u for u, t in enumerate(cyl.simplices(n))}
        index = {f: i for i, f in
                 enumerate(combinations(range(k + 1), n + 1))}
        lifts = [[] for _ in index]
        for t, u in prism.items():
            base = cylinder_project(t)
            if base is not None:
                lifts[index[base]].append(u)
        simplex = StandardComplex.simplex(k)
        self.size = len(prism)
        self.cofaces = []
        self.columns = []
        for f in combinations(range(k + 1), n):
            self.cofaces.append(tuple(
                (index[t], sign) for t, sign in
                Cochain(n - 1, {f: 1}).coboundary(simplex).items()))
            bottom = Cochain(n - 1, {tuple(2 * v for v in f): 1})
            self.columns.append(tuple(
                (prism[t], sign)
                for t, sign in bottom.coboundary(cyl).items()))
        self.lifts = [tuple(us) for us in lifts]
        # The prism's orientation differs from the cylinder's by (-1)^D.
        flip = -1 if (k + 1) % 2 else 1
        self.cells = [(flip * sign, itemgetter(*(
            prism[t] for t in combinations(cell, n + 1))))
            for cell, sign in cyl.top_cells]

    def theta(self, action: ActionFunctional, base, hvals) -> int:
        """Integer total of Theta from B on the n-faces of the base
        and h on its (n-1)-faces, both in ascending order."""
        vec = [0] * self.size
        for x, us in zip(base, self.lifts):
            if x:
                for u in us:
                    vec[u] = x
        for c, column in zip(hvals, self.columns):
            if c:
                for u, sign in column:
                    vec[u] += sign * c
        density = action.face_density
        return sum(sign * density(faces(vec)) for sign, faces in self.cells)


_HOPS: dict[tuple[int, int], _HopGeometry] = {}


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
