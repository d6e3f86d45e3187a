"""Topological action functionals on a single top simplex.

Every action here is a local density: a rational multiple of a sum of
products of cochain values on sub-simplices of one top cell.  A term
list encodes the sum positionally, so the same list evaluates the
action on any simplex of the right dimension.  Each factor is a pair
``(use_delta, positions)``: look up the input cochain (or its
coboundary) on the sub-simplex picked out by ``positions`` inside the
top cell.  All products are taken over the integer lifts of the input
and only the final total is divided down to a phase.

Term lists come from the operad, never written out by hand: the cube
is phi of the word 123, the particle quadratic phi of 12, the cup-1
terms are ``cup_k_terms``, and the reduced powers are ``p1_terms`` or
the frozen D^3 listings times ``p1_sign``.  Only ``cs-b3`` (c cup dc)
and the outer cups into which ``pontryagin9`` splices its cup-1 terms
place their faces directly.

The first density an action computes compiles its term list into a
factor tree (``_compile_terms``): each factor becomes an index into a
value vector holding the input on the top cell's degree-n faces, in
ascending order, followed by its coboundary on the faces the
delta-factors name, and the terms become a prefix tree over those
indices, so terms that share leading factors share one multiplication
and one zero test.  ``face_density`` evaluates the tree on a plain list
of face values; ``density`` and every hop of ``boundary`` call it.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations, groupby

from .fileio import load_term_file
from .operad import cup_k_terms, p1_sign, p1_terms, phi_terms
from .simplicial import Cochain, Phase, check_simplex, simplex_faces


def _plain_terms(raw) -> tuple:
    """Action terms of (coefficient, slots) pairs, every factor read
    from the input itself.  Equal slots share one factor tuple."""
    factors: dict[tuple[int, ...], tuple] = {}
    return tuple((coef, tuple(factors.setdefault(slot, (False, slot))
                              for slot in slots))
                 for coef, slots in raw)


def _cup_k_action_terms(p: int, q: int, k: int, delta: bool) -> tuple:
    """Terms of c cup_k d, with d = delta(c) when ``delta``."""
    return tuple((sign, ((False, left), (delta, right)))
                 for sign, left, right in cup_k_terms(p, q, k))


def _pontryagin9_terms() -> tuple:
    """Terms of the nine-dimensional quadratic refinement of the cube.

    The sum is c cup c cup c, plus (c cup_1 dc) cup c, minus
    c cup (c cup_1 dc), with the inner cup-1 terms spliced into the
    front (vertices 0..4) or back (vertices 2..6) face of the 6-simplex.
    """
    terms = list(_terms("cube3"))
    cup1_delta = _cup_k_action_terms(2, 3, 1, delta=True)
    for sign, factors in cup1_delta:
        terms.append((sign, factors + ((False, (4, 5, 6)),)))
    for sign, factors in cup1_delta:
        shifted = tuple((d, tuple(v + 2 for v in pos)) for d, pos in factors)
        terms.append((-sign, ((False, (0, 1, 2)),) + shifted))
    return tuple(terms)


def _p1_action_terms(q: int) -> tuple:
    """Signed slot triples of the degree-q first fractional power."""
    name = {4: "d3_4_q4.txt", 5: "d3_6_q5.txt"}.get(q)
    if name is None:
        return _plain_terms(p1_terms(q))
    # q = 3 is cheap to generate; the two big lists ship frozen.
    return _plain_terms((p1_sign(q) * coef, slots)
                        for coef, slots in load_term_file(name))


def _compile_terms(terms, degree: int, spacetime: int):
    """Index form (delta_rows, tree) of a positional term list.

    Face i < C(D+1, n+1) is the i-th degree-n face of the top simplex
    <0..D> in ascending order; entry C(D+1, n+1) + j of the value
    vector is the coboundary on the (n+1)-face of ``delta_rows[j]``,
    stored as the (sign, face index) pairs of its facets.  The terms
    become a prefix tree over their factors' value-vector indices:
    each node is a tuple of (index, coefficient of the terms that end
    there, subtree of the terms that go on), so terms sharing leading
    factors share their multiplications and zero tests.

    >>> _compile_terms(((1, ((False, (0, 1)), (True, (1, 2, 3)))),
    ...                 (2, ((False, (0, 1)), (False, (2, 3))))), 1, 3)
    ((((1, 5), (-1, 4), (1, 3)),), ((0, 0, ((5, 2, ()), (6, 1, ()))),))
    """
    index = {f: i for i, f in
             enumerate(combinations(range(spacetime + 1), degree + 1))}
    delta_at: dict[tuple[int, ...], int] = {}
    delta_rows = []

    def compile_factor(factor) -> int:
        use_delta, positions = factor
        positions = check_simplex(positions)
        if not use_delta:
            return index[positions]
        if positions not in delta_at:
            delta_at[positions] = len(index) + len(delta_rows)
            delta_rows.append(tuple(
                (sign, index[face])
                for face, sign in simplex_faces(positions)))
        return delta_at[positions]

    # Term lists share their factor objects, so each object is compiled
    # once and found again by its id (``terms`` keeps every one alive).
    terms = tuple(terms)
    at: dict[int, int] = {}
    rows = []
    for coef, factors in terms:
        idx = []
        for factor in factors:
            i = at.get(id(factor))
            if i is None:
                i = at[id(factor)] = compile_factor(factor)
            idx.append(i)
        rows.append((tuple(idx), coef))
    rows.sort()
    return tuple(delta_rows), _tree(rows)


def _tree(rows) -> tuple:
    """Prefix tree of (indices, coefficient) rows sorted by indices."""
    tree = []
    for i, group in groupby(rows, key=lambda row: row[0][0]):
        coef, rest = 0, []
        for idx, c in group:
            if len(idx) == 1:
                coef += c
            else:
                rest.append((idx[1:], c))
        tree.append((i, coef, _tree(rest)))
    return tuple(tree)


def _tree_sum(tree, v) -> int:
    """Sum of coefficient times factor product over a term tree."""
    total = 0
    for i, coef, sub in tree:
        x = v[i]
        if x:
            total += x * (coef + _tree_sum(sub, v)) if sub else x * coef
    return total


class ActionFunctional:
    """A local action evaluating a degree-n cochain on one top simplex.

    Attributes: ``name``, ``degree`` (of the input cochain), ``spacetime``
    (dimension of the top simplex), ``modulus`` (coefficient modulus N of
    the theory), ``divisor`` (denominator of the phase).
    """

    __slots__ = ("name", "degree", "spacetime", "modulus", "divisor",
                 "terms", "_compiled")

    def __init__(self, name: str, degree: int, spacetime: int,
                 modulus: int, divisor: int, terms):
        self.name = name
        self.degree = degree
        self.spacetime = spacetime
        self.modulus = modulus
        self.divisor = divisor
        self.terms = terms
        self._compiled = None

    def __repr__(self):
        return (f"ActionFunctional({self.name!r}, degree={self.degree}, "
                f"spacetime={self.spacetime}, modulus={self.modulus})")

    def density(self, B: Cochain, s) -> int:
        """Integer numerator of the action density on top simplex s."""
        s = check_simplex(s)
        if len(s) != self.spacetime + 1:
            raise ValueError(
                f"{self.name} wants a {self.spacetime}-simplex, got {s}")
        if B.degree != self.degree:
            raise ValueError(
                f"{self.name} wants a degree-{self.degree} cochain, "
                f"got degree {B.degree}")
        return self.face_density(
            B.values_on(combinations(s, self.degree + 1)))

    def face_density(self, values) -> int:
        """Density from the input's values on the degree-n faces of a
        top simplex, in ascending order, with no validation: the
        vector kernel behind ``density`` and every hop."""
        if self._compiled is None:
            self._compiled = _compile_terms(self.terms, self.degree,
                                           self.spacetime)
        delta_rows, tree = self._compiled
        if delta_rows:
            values = list(values)
            values += [sum(sign * values[i] for sign, i in row)
                       for row in delta_rows]
        return _tree_sum(tree, values)

    def phase(self, B: Cochain, s) -> Phase:
        """Action phase on one top simplex, exact in Q/Z."""
        return Phase(self.density(B, s), self.divisor)


_BY_3 = (lambda N: N % 3 == 0, "N divisible by 3")
_EVEN = (lambda N: N % 2 == 0, "even N")
_ODD = (lambda N: N % 2 == 1, "odd N")
_ANY = (lambda N: N >= 2, "N >= 2")

_ACTIONS = {
    # name: (degree n, spacetime D, default N, divisor(N),
    #        (modulus rule(N), the rule in words), term list builder)
    "cube3": (2, 6, 2, lambda N: N, _ANY,
              lambda: _plain_terms(phi_terms((1, 2, 3), (2, 2, 2)))),
    "pontryagin9": (2, 6, 3, lambda N: 3 * N, _BY_3, _pontryagin9_terms),
    **{f"p1b{q}": (q, q + 4, 3, lambda N: 3, _BY_3,
                   partial(_p1_action_terms, q)) for q in (3, 4, 5)},
    "cs-b3": (3, 7, 2, lambda N: N * N, _ANY, lambda: (
        (1, ((False, (0, 1, 2, 3)), (True, (3, 4, 5, 6, 7)))),)),
    "sq4-b5": (5, 9, 2, lambda N: 2, _EVEN,
               partial(_cup_k_action_terms, 5, 5, 1, delta=False)),
    "particle-quad": (2, 4, 3, lambda N: N, _ODD,
                      lambda: _plain_terms(phi_terms((1, 2), (2, 2)))),
    "particle-quad-even": (2, 4, 2, lambda N: 2 * N, _EVEN, lambda: (
        _terms("particle-quad") + _cup_k_action_terms(2, 3, 1, delta=True))),
}


@cache
def _terms(name: str) -> tuple:
    """The term list of a registry action, built on first use."""
    return _ACTIONS[name][-1]()


def action_names() -> list[str]:
    return sorted(_ACTIONS)


def get_action(name: str, N: int | None = None) -> ActionFunctional:
    """Look up an action by name, binding the coefficient modulus N."""
    if name not in _ACTIONS:
        raise KeyError(f"unknown action {name!r}; "
                       f"known: {', '.join(action_names())}")
    degree, spacetime, default_N, divisor, (ok, why), _ = _ACTIONS[name]
    if N is None:
        N = default_N
    if N <= 0 or not ok(N):
        raise ValueError(f"action {name} needs "
                         f"{'N > 0' if N <= 0 else why}, got N={N}")
    return ActionFunctional(name, degree, spacetime, N, divisor(N),
                            _terms(name))
