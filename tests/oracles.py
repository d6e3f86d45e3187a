"""Slow reference evaluators shared by the tests.

The hop oracles read every value through the validated
``Cochain.value`` and ``on_boundary`` and build each prism afresh, so
they share no code with the compiled term trees and hop geometry they
check; ``cylinder_complex`` and ``cylinder_project`` give them the
prism as a complex on encoded vertices.  ``recursive_tree`` builds a
term tree by one ``groupby`` per node, the reference for
``actions._tree``.  The cup-k evaluators feed
``operad.cup_k_terms`` to whole cochains, the reference for the
Leibniz rule; ``shuffle_cup_k_terms`` derives the same term lists
independently, by shuffle parity.
``per_configuration_identities`` expands every identity word at every
configuration, the reference for the translated rows of
``gen_identities``.  ``breadth_first_model`` finds the configurations
and their moves by closure under Chain addition, the reference for the
digit numbering of ``build_model``.  ``torsion`` reads the invariant
factors > 1 off a residual, as ``classify`` does.
``random_bilinear_realization`` draws a local Pauli-style phase
assignment and ``evaluate_expression`` reads an expression under it:
the realizations every identity row must kill.
"""

from itertools import chain, combinations, groupby

from chainphase.operad import cup_k_terms
from chainphase.search import (_expand_numbered, _numbered_word,
                               identity_words, invariant_factors)
from chainphase.simplicial import (Chain, Cochain, Phase, StandardComplex,
                                   check_simplex)


def cylinder_complex(k: int) -> StandardComplex:
    """Delta_k x I with the standard prism triangulation, as a complex.

    Vertex v on the bottom copy is encoded as 2v and the top (barred)
    copy of v as 2v+1, which realizes the global order
    0 < 0' < 1 < 1' < ...; the top cells are <0,...,i, i',...,k'> with
    sign (-1)**(k-i).
    """
    cells = []
    for i in range(k + 1):
        bottom = tuple(2 * v for v in range(i + 1))
        top = tuple(2 * v + 1 for v in range(i, k + 1))
        cells.append((bottom + top, -1 if (k - i) % 2 else 1))
    return StandardComplex("cylinder", k, cells)


def cylinder_project(t: tuple[int, ...]):
    """Project a cylinder simplex to the base, or None when degenerate."""
    imgs = tuple(v // 2 for v in t)
    if any(a == b for a, b in zip(imgs, imgs[1:])):
        return None
    return imgs


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


def recursive_tree(rows) -> tuple:
    """Prefix tree of (indices, coefficient) rows sorted by indices:
    group on the leading index, recurse on every group's remainders."""
    tree = []
    for i, group in groupby(rows, key=lambda row: row[0][0]):
        coef, rest = 0, []
        for idx, c in group:
            if len(idx) == 1:
                coef += c
            else:
                rest.append((idx[1:], c))
        tree.append((i, coef, recursive_tree(rest)))
    return tuple(tree)


def per_hop_cylinder_theta(action, B, h, s):
    """Theta with the prism, its simplices and the coboundary of h all
    built afresh for this one call, integrated with
    ``positional_density``."""
    cyl = cylinder_complex(action.spacetime - 1)
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


def _inversion_parity(seq) -> int:
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return -1 if inv % 2 else 1


def shuffle_cup_k_terms(p: int, q: int, k: int):
    """The (sign, left, right) terms of cup-k by the verbal rule.

    A term is a strictly increasing tuple of k+1 alternation points
    j_1 < ... < j_{k+1} inside <0..p+q-k>; the closed segments [0,j_1],
    [j_1,j_2], ..., [j_{k+1}, n] go alternately to the first and second
    argument, adjacent segments sharing their endpoint, and only
    decompositions giving them p+1 and q+1 vertices count.  The sign is
    the parity of the shuffle taking "the first argument's intervals,
    then the second's with the shared endpoints removed" to 0..n.
    Terms come in lexicographic order of the alternation points.
    """
    n = p + q - k
    terms = []
    for pts in combinations(range(n + 1), k + 1):
        cuts = (0,) + tuple(pts) + (n,)
        left, right, shaved = [], [], []
        for t in range(k + 2):
            a, b = cuts[t], cuts[t + 1]
            if t % 2 == 0:
                left.extend(range(a, b + 1))
            else:
                right.extend(range(a, b + 1))
                # Shared endpoints stay with the left intervals; the
                # final segment keeps its free right end.
                hi = b - 1 if t + 1 < k + 2 else b
                shaved.extend(range(a + 1, hi + 1))
        if (len(left), len(right)) == (p + 1, q + 1):
            terms.append((_inversion_parity(left + shaved),
                          tuple(left), tuple(right)))
    return tuple(terms)


def cup_k_value(c: Cochain, d: Cochain, k: int, s) -> int:
    """Value of (c cup_k d) on the simplex s, as an integer lift."""
    s = check_simplex(s)
    p, q = c.degree, d.degree
    if len(s) != p + q - k + 1:
        raise ValueError(f"simplex {s} has wrong size for cup-{k} "
                         f"of degrees ({p}, {q})")
    return _cup_k_sum(c, d, cup_k_terms(p, q, k), s)


def _cup_k_sum(c: Cochain, d: Cochain, terms, s) -> int:
    # Position subsequences of a valid s are ascending simplices, so
    # the factors are read without validating them again: the same
    # unchecked dict.get as Cochain.values_on, one face at a time so
    # that d is read only where c is nonzero.
    at = s.__getitem__
    cget, dget = c._data.get, d._data.get
    total = 0
    for sign, left, right in terms:
        cv = cget(tuple(map(at, left)), 0)
        if cv:
            total += sign * cv * dget(tuple(map(at, right)), 0)
    return total


def cup_value(c: Cochain, d: Cochain, s) -> int:
    """Front-face times back-face; the plain cup product on s."""
    return cup_k_value(c, d, 0, s)


def cup_k_cochain(c: Cochain, d: Cochain, k: int,
                  complex: StandardComplex) -> Cochain:
    """(c cup_k d) as a cochain on every admissible simplex of complex."""
    if c.modulus != d.modulus:
        raise ValueError("modulus mismatch")
    degree = c.degree + d.degree - k
    terms = cup_k_terms(c.degree, d.degree, k)
    values = {}
    # cup_k_terms rejects an undefined k, and the complex's simplices
    # are valid and of the right size.
    for s in complex.simplices(degree):
        v = _cup_k_sum(c, d, terms, s)
        if v:
            values[s] = v
    return Cochain._from_valid(degree, values, c.modulus)


def cup_cochain(c: Cochain, d: Cochain, complex: StandardComplex) -> Cochain:
    return cup_k_cochain(c, d, 0, complex)


def leibniz_defect(c: Cochain, d: Cochain, i: int,
                   complex: StandardComplex) -> Cochain:
    """Defect of the coboundary recursion for cup-i; identically zero.

    delta(c cup_i d) - delta c cup_i d - (-1)^p c cup_i delta d
    - (-1)^(p+q-i) c cup_(i-1) d - (-1)^(pq+p+q) d cup_(i-1) c,
    where cup_(-1) is the zero operation.
    """
    if i < 0:
        raise ValueError("cup index must be non-negative")
    p, q = c.degree, d.degree
    dc = c.coboundary(complex)
    dd = d.coboundary(complex)
    out = cup_k_cochain(c, d, i, complex).coboundary(complex)
    out = out - cup_k_cochain(dc, d, i, complex)
    out = out - cup_k_cochain(c, dd, i, complex).scale(-1 if p % 2 else 1)
    if i >= 1 and i - 1 <= min(p, q):
        sign = -1 if (p + q - i) % 2 else 1
        out = out - cup_k_cochain(c, d, i - 1, complex).scale(sign)
        sign = -1 if (p * q + p + q) % 2 else 1
        out = out - cup_k_cochain(d, c, i - 1, complex).scale(sign)
    return out


def per_configuration_identities(model, max_depth=3):
    """The identity rows with each word walked afresh at every
    configuration, deduplicated up to sign on sorted (term,
    coefficient) fingerprints."""
    out = []
    seen = set()
    for word in identity_words(model, max_depth):
        word = _numbered_word(word, model)
        for a in range(len(model.configurations)):
            expr = _expand_numbered(word, a, model)
            if not expr:
                continue
            items = sorted(expr.items())
            if items[0][1] < 0:
                items = [(k, -v) for k, v in items]
            fingerprint = tuple(chain.from_iterable(items))
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            out.append(expr)
    return out


def breadth_first_model(modulus, p, d):
    """The configurations of the (N, p, d) model by breadth-first
    closure of the vacuum under every move, and each move of each
    configuration recorded both ways: (sorted configuration keys,
    {(sign, generator): {key: key after the step}})."""
    generators = list(combinations(range(d + 2), p + 2))
    moves = {s: Chain(p + 1, {s: 1}, modulus).boundary() for s in generators}
    steps = {(sign, s): {} for s in generators for sign in (1, -1)}
    seen = {()}
    frontier = [((), Chain(p, {}, modulus))]
    while frontier:
        nxt = []
        for key, state in frontier:
            for s, move in moves.items():
                new = state + move
                new_key = tuple(sorted(new.items()))
                if new_key not in seen:
                    seen.add(new_key)
                    nxt.append((new_key, new))
                steps[1, s][key] = new_key
                steps[-1, s][new_key] = key
        frontier = nxt
    return tuple(sorted(seen)), steps


def torsion(residual):
    """Invariant factors > 1 of the cokernel a residual presents."""
    return [f for f in invariant_factors(residual) if f > 1]


def random_bilinear_realization(model, rng):
    """A random Pauli-style phase assignment theta(s, a) = <lam_s, a>/N.

    Locality makes the commutator axioms hold: lam_s pairs only with
    the state restricted to the faces of s, so operators with disjoint
    supports accumulate no cross terms and every identity expression
    evaluates to zero.
    """
    lam = {}
    for s in model.generators:
        entries = {}
        for t in combinations(s, model.p + 1):
            v = rng.randrange(model.modulus)
            if v:
                entries[t] = v
        lam[s] = entries
    return lam


def evaluate_expression(expr, lam, model):
    """The phase of an expression under a realization from
    ``random_bilinear_realization``."""
    total = Phase(0, 1)
    for (s, a_key), coeff in expr.items():
        pairing = sum(lam[s].get(t, 0) * c for t, c in a_key)
        total += coeff * Phase(pairing, model.modulus)
    return total
