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

The prism s x I carries each vertex v of s twice, v on the bottom
copy and v' on the top, in the order 0 < 0' < 1 < 1' < ...  Its top
cells are the standard prism triangulation <0..i, i'..k'>, i = 0..k,
and the cell <0..i, i'..k'> counts with sign (-1)^(i+1), which puts
the bottom copy into the boundary with sign +1.

A hop (``modified_excitation_phase``, and ``cylinder_theta``) never
forms the prism.  An n-face of a top cell with bottom vertices a and
top vertices b (the max of an empty a counting as -1) takes the value
of the pullback of B plus the coboundary of h on the bottom copy,
which reads off B on the n-faces of s, h on its (n-1)-faces and the
coboundary delta of s:

    b empty                       (B + delta h)(a)
    b = {y}, y > max a            B(a + y) + (-1)^n h(a)
    b = {y}, y = max a            (-1)^n h(a)
    |b| >= 2, min b > max a       B(a + b)
    |b| >= 2, min b = max a       0

``_HopGeometry`` compiles these cases into index tables once per
(k, n).  A hop checks its arguments once, fills one vector with the
five columns and sums the action's factor tree over the top cells,
building no ``Cochain`` on the way.

The local densities ``boundary_symmetry_phase`` and
``explicit_hopping_phase`` are specific to the six-dimensional cubic
theory, where the boundary degrees of freedom have degree one.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from math import comb
from operator import itemgetter

from .actions import ActionFunctional
from .simplicial import Cochain, Phase, StandardComplex, check_simplex


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
    <0..i, i'..k'> counts with sign (-1)^(i+1).  Then
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
    base = [0] * hop.faces
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
    actions, built once per (k, n) by index arithmetic on the face
    numbering of Delta_k, which is ascending (``combinations``) order.

    A hop never forms the prism.  With F n-faces and R (n-1)-faces of
    Delta_k, it fills one vector W of 3F + R + 1 entries,

        [B | B + delta h | B(g) + (-1)^n h(g minus its top vertex)
           | (-1)^n h | 0],

    the first three blocks numbered by n-faces g, the fourth by
    (n-1)-faces.  Each n-face of a top cell reads its prism value,
    one of the cases of the module docstring, from one entry.

    * ``cofaces[j]``: the coboundary of the j-th (n-1)-face a, as
      (n-face index, sign) pairs in ascending order of the added
      vertex; from ``tops[j]`` on they add a vertex above max a;
    * ``cells``: per top cell of the prism, its orientation sign and a
      getter of its n-faces from W, in ascending order.
    """

    __slots__ = ("faces", "size", "sign", "cofaces", "tops", "cells")

    def __init__(self, k: int, n: int):
        F, R = comb(k + 1, n + 1), comb(k + 1, n)
        self.faces = F
        self.size = 3 * F + R + 1
        self.sign = -1 if n % 2 else 1
        rank_n, rank_r = _ranker(k, n + 1), _ranker(k, n)
        cofaces = [[] for _ in range(R)]
        for g, face in enumerate(combinations(range(k + 1), n + 1)):
            pair = ((g, 1), (g, -1))
            for p in range(n + 1):
                cofaces[rank_r(face[:p] + face[p + 1:])].append(pair[p % 2])
        self.tops = [len(pairs) - (k - face[-1]) for pairs, face in
                     zip(cofaces, combinations(range(k + 1), n))]
        self.cofaces = [tuple(pairs) for pairs in cofaces]
        # Position p of the cell <0..i, i'..k'> holds the bottom vertex
        # p when p <= i, else the top vertex p - 1, so a face t of
        # positions has s = bisect_right(t, i) bottom vertices.  One
        # int object per entry of W keeps the getters small.
        block = [0] * n + [2 * F, F]  # by s: |b| >= 2, b = {y}, b empty
        entry = list(range(self.size))
        self.cells = []
        for i in range(k + 1):
            column = []
            for t in combinations(range(k + 2), n + 1):
                s = bisect_right(t, i)
                if 0 < s <= n and t[s] - 1 == t[s - 1]:
                    # Vertex i lies on both copies: (-1)^n h(a) for
                    # b = {i}, else the closing 0 of W.
                    u = 3 * F + rank_r(t[:n]) if s == n else -1
                else:
                    u = block[s] + rank_n(t, s)
                column.append(entry[u])
            self.cells.append((1 if i % 2 else -1, itemgetter(*column)))

    def theta(self, action: ActionFunctional, base, hvals) -> int:
        """Integer total of Theta from B on the n-faces of the base
        and h on its (n-1)-faces, both in ascending order."""
        F = self.faces
        vec = [0] * self.size
        for g, x in enumerate(base):
            if x:
                vec[g] = vec[F + g] = vec[2 * F + g] = x
        for j, c in enumerate(hvals):
            if c:
                cofaces = self.cofaces[j]
                for g, sign in cofaces:
                    vec[F + g] += sign * c
                c *= self.sign
                for g, _ in cofaces[self.tops[j]:]:
                    vec[2 * F + g] += c
                vec[3 * F + j] = c
        density = action.face_density
        return sum(sign * density(faces(vec)) for sign, faces in self.cells)


def _ranker(k: int, m: int):
    """Numbering of the m-vertex faces of Delta_k in ``combinations``
    order: C(k+1, m) - 1 - sum_j C(k - c_j, m - j) for ascending c.
    ``rank(t, s)`` numbers the face t[:s] + (t[s] - 1, ..., t[-1] - 1).

    >>> rank = _ranker(3, 2)
    >>> [rank(c) for c in combinations(range(4), 2)]
    [0, 1, 2, 3, 4, 5]
    >>> rank((1, 3), 1)
    3
    """
    last = comb(k + 1, m) - 1
    weights = [[comb(k - v, m - j) for v in range(k + 1)] for j in range(m)]

    def rank(t, s=m) -> int:
        total = last
        for j, v in enumerate(t):
            total -= weights[j][v - 1 if j >= s else v]
        return total
    return rank


_HOPS: dict[tuple[int, int], _HopGeometry] = {}


def hop_geometries_built() -> int:
    """How many hop geometries this process has built, one per (k, n)."""
    return len(_HOPS)


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
