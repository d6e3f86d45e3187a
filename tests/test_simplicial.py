import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainphase.simplicial import (
    Chain,
    Cochain,
    Phase,
    StandardComplex,
    cylinder_project,
    dualize,
    insert_vertex,
)


def random_chain(rng, degree, k, modulus=0, span=4):
    terms = {}
    for t in itertools.combinations(range(k + 1), degree + 1):
        terms[t] = rng.randint(-span, span)
    return Chain(degree, terms, modulus)


def random_cochain(rng, degree, k, modulus=0, span=4):
    values = {}
    for t in itertools.combinations(range(k + 1), degree + 1):
        values[t] = rng.randint(-span, span)
    return Cochain(degree, values, modulus)


class TestSimplexBasics:
    def test_boundary_of_triangle(self):
        c = Chain(2, {(0, 1, 2): 1})
        assert c.boundary() == Chain(1, {(1, 2): 1, (0, 2): -1, (0, 1): 1})

    def test_boundary_squares_to_zero(self):
        c = Chain(3, {(0, 1, 2, 3): 1})
        assert not c.boundary().boundary()

    def test_boundary_is_linear(self):
        c = Chain(1, {(0, 1): 2})
        assert c.boundary() == Chain(0, {(1,): 2, (0,): -2})

    def test_boundary_of_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            Chain(0, {(0,): 1}).boundary()

    def test_bad_simplices_rejected(self):
        with pytest.raises(ValueError):
            Chain(1, {(1, 0): 1})
        with pytest.raises(ValueError):
            Chain(0, {(): 1})
        with pytest.raises(ValueError):
            Chain(1, {(0, 0): 1})

    def test_modulus_canonicalizes(self):
        c = Chain(0, {(0,): 5, (1,): -1}, modulus=3)
        assert c.coefficient((0,)) == 2
        assert c.coefficient((1,)) == 2


class TestCochain:
    def test_vertex_dual_coboundary(self):
        # delta of the dual of vertex 1 on Delta_2, expanded by hand.
        v1 = Cochain(0, {(1,): 1})
        d = v1.coboundary(StandardComplex.simplex(2))
        assert d.value((0, 1)) == 1
        assert d.value((1, 2)) == -1
        assert d.value((0, 2)) == 0

    def test_coboundary_squares_to_zero(self):
        rng = random.Random(1)
        for k in (3, 5):
            cx = StandardComplex.simplex(k)
            c = random_cochain(rng, 1, k)
            assert not c.coboundary(cx).coboundary(cx)

    def test_evaluate_duality_pairing(self):
        f = Cochain(1, {(0, 2): 1})
        assert f.evaluate(Chain(1, {(0, 2): 1})) == 1
        assert f.evaluate(Chain(1, {(1, 2): 1})) == 0

    def test_evaluate_zero_chain(self):
        f = Cochain(1, {(0, 2): 1})
        assert f.evaluate(Chain(1, {})) == 0

    def test_evaluate_reduces_mod_n(self):
        f = Cochain(0, {(4,): 1}, modulus=2)
        assert f.evaluate(Chain(0, {(4,): 3})) == 1

    def test_evaluate_degree_mismatch(self):
        with pytest.raises(ValueError):
            Cochain(1, {(0, 1): 1}).evaluate(Chain(0, {(0,): 1}))

    def test_adjointness_of_boundary_and_coboundary(self):
        rng = random.Random(7)
        for cx, k in [(StandardComplex.boundary(5), 5),
                      (StandardComplex.simplex(8), 8)]:
            for degree in range(1, cx.dimension + 1):
                for _ in range(25):
                    c = random_cochain(rng, degree - 1, k)
                    a = random_chain(rng, degree, k)
                    if cx.kind == "boundary":
                        a = Chain(degree, {t: v for t, v in a.items()
                                           if cx.has_simplex(t)})
                    assert c.coboundary(cx).evaluate(a) == c.evaluate(a.boundary())


class TestPhase:
    def test_canonical_range(self):
        assert Phase(5, 3) == Phase(2, 3)
        assert Phase(-1, 4) == Phase(3, 4)
        assert Phase(6, 3) == Phase(0)

    def test_arithmetic(self):
        assert Phase(1, 4) + Phase(3, 4) == Phase(0)
        assert Phase(1, 6) - Phase(1, 2) == Phase(2, 3)
        assert -Phase(1, 3) == Phase(2, 3)
        assert 3 * Phase(1, 3) == Phase(0)

    @given(st.integers(-50, 50), st.integers(1, 30),
           st.integers(-50, 50), st.integers(1, 30),
           st.integers(-50, 50), st.integers(1, 30))
    def test_associative_commutative(self, a, b, c, d, e, f):
        x, y, z = Phase(a, b), Phase(c, d), Phase(e, f)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x + (-x) == Phase(0)

    @given(st.integers(-100, 100), st.integers(1, 40))
    def test_always_canonical(self, n, d):
        p = Phase(n, d)
        assert 0 <= p.num < p.den
        from math import gcd
        assert gcd(p.num, p.den) == 1

    @given(st.integers(-10 ** 30, 10 ** 30),
           st.integers(-10 ** 12, 10 ** 12).filter(bool))
    def test_reduces_as_fraction_mod_one(self, n, d):
        # The library reduces with math.gcd alone; Fraction is only the
        # reference here.
        from fractions import Fraction
        want = Fraction(n, d) % 1
        p = Phase(n, d)
        assert (p.num, p.den) == (want.numerator, want.denominator)

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_zero_denominator_raises(self, n):
        with pytest.raises(ZeroDivisionError):
            Phase(n, 0)


class TestDualize:
    def test_sign_examples(self):
        assert dualize((0, 1, 2, 3), 5) == Cochain(1, {(4, 5): 1})
        assert dualize((1, 2, 3, 4), 5) == Cochain(1, {(0, 5): 1})

    def test_odd_sign(self):
        # Vertex sum 0+1+2+4 = 7 is odd.
        assert dualize((0, 1, 2, 4), 5) == Cochain(1, {(3, 5): -1})

    def test_rejects_outside_simplex(self):
        with pytest.raises(ValueError, match="not inside Delta_5"):
            dualize((6,), 5)

    def test_rejects_the_whole_simplex(self):
        with pytest.raises(ValueError, match="no complement"):
            dualize(tuple(range(6)), 5)

    def test_intertwines_boundary_and_coboundary(self):
        # Summed over its faces, the dual of a cell's boundary is the
        # coboundary of the cell's dual, for every cell of degree 1-3.
        cx = StandardComplex.simplex(5)
        for p in (1, 2, 3):
            for cell in itertools.combinations(range(6), p + 1):
                lhs = Cochain(5 - p, {})
                for face, sign in Chain(p, {cell: 1}).boundary().items():
                    lhs = lhs + dualize(face, 5).scale(sign)
                assert lhs == dualize(cell, 5).coboundary(cx)


class TestStandardComplex:
    def test_full_simplex(self):
        cx = StandardComplex.simplex(4)
        assert cx.top_cells == [((0, 1, 2, 3, 4), 1)]
        assert cx.dimension == 4

    def test_boundary_cells_alternate(self):
        cx = StandardComplex.boundary(3)
        assert cx.top_cells == [((1, 2, 3), 1), ((0, 2, 3), -1),
                                ((0, 1, 3), 1), ((0, 1, 2), -1)]

    def test_cylinder_cells(self):
        cx = StandardComplex.cylinder(2)
        # <0,0',1',2'>, <0,1,1',2'>, <0,1,2,2'> with signs +,-,+ read
        # from the i=2 end; encoded vertices are 2v and 2v+1.
        assert cx.top_cells == [((0, 1, 3, 5), 1),
                                ((0, 2, 3, 5), -1),
                                ((0, 2, 4, 5), 1)]

    def test_cylinder_membership(self):
        cx = StandardComplex.cylinder(5)
        assert cx.has_simplex((0, 1))        # 0 with its own bar
        assert cx.has_simplex((2, 3))
        assert not cx.has_simplex((1, 2))    # bar of 0 before vertex 1
        assert cx.has_simplex((0, 2, 4, 5, 7))
        assert not cx.has_simplex((0, 3, 4))

    def test_simplices_enumeration(self):
        cx = StandardComplex.boundary(3)
        assert list(cx.simplices(2)) == [(0, 1, 2), (0, 1, 3),
                                         (0, 2, 3), (1, 2, 3)]
        full = StandardComplex.simplex(3)
        assert len(list(full.simplices(3))) == 1

    def test_boundary_of_top_chain_of_cylinder(self):
        # The prism triangulation is a genuine chain-level cylinder:
        # its boundary consists of top copy - bottom copy - side faces.
        cx = StandardComplex.cylinder(2)
        b = Chain(cx.dimension, cx.top_cells).boundary()
        assert b.coefficient((0, 2, 4)) == -1   # bottom copy of <0,1,2>
        assert b.coefficient((1, 3, 5)) == 1    # top copy


def membership_oracle(cx, t):
    """Per-kind membership rule for the three constructors, written
    independently of their top cells."""
    k = cx.k
    if cx.kind == "simplex":
        return all(v <= k for v in t)
    if cx.kind == "boundary":
        return all(v <= k for v in t) and len(t) <= k
    # Cylinder: a face of <0..i, i'..k'> needs every bottom vertex at
    # most i and every top vertex at least i, for some i.
    bottom = [v // 2 for v in t if v % 2 == 0]
    top = [v // 2 for v in t if v % 2 == 1]
    return (max(bottom, default=0) <= min(top, default=k)
            and all(v <= 2 * k + 1 for v in t))


@pytest.mark.parametrize("kind", ["simplex", "boundary", "cylinder"])
@pytest.mark.parametrize("k", range(1, 7))
def test_top_cells_match_membership_oracle(kind, k):
    cx = getattr(StandardComplex, kind)(k)
    verts = range(2 * k + 2 if kind == "cylinder" else k + 1)
    for n in range(1, len(verts) + 1):
        subsets = list(itertools.combinations(verts, n))
        for t in subsets:
            assert cx.has_simplex(t) == membership_oracle(cx, t), t
        assert list(cx.simplices(n - 1)) == [
            t for t in subsets if membership_oracle(cx, t)]


def vertex_scan_coboundary(c, cx):
    """Oracle: insert every vertex of the complex and keep the cofaces
    that ``has_simplex`` accepts, as coboundary used to."""
    out = {}
    vertices = sorted({v for cell, _ in cx.top_cells for v in cell})
    for t, value in c.items():
        for v in vertices:
            if v not in t:
                coface, sign = insert_vertex(t, v)
                if cx.has_simplex(coface):
                    out[coface] = out.get(coface, 0) + sign * value
    return Cochain(c.degree + 1, out, c.modulus)


@pytest.mark.parametrize("kind", ["simplex", "boundary", "cylinder"])
@pytest.mark.parametrize("k", range(2, 6))
def test_coboundary_matches_vertex_scan(kind, k):
    # Same cofaces, values and insertion order as the oracle.
    cx = getattr(StandardComplex, kind)(k)
    top = 2 * k + 1 if kind == "cylinder" else k
    rng = random.Random(f"cob:{kind}:{k}")
    for degree in range(cx.dimension):
        for modulus in (0, 3):
            c = random_cochain(rng, degree, top, modulus)
            got = c.coboundary(cx)
            want = vertex_scan_coboundary(c, cx)
            assert got == want
            assert list(got.items()) == list(want.items())


def test_arithmetic_results_stay_canonical():
    # Results built from valid maps skip the key checks, but still
    # reduce mod N and drop zeros.
    a = Cochain(1, {(0, 1): 2, (1, 2): 1}, 3)
    b = Cochain(1, {(0, 1): 1, (0, 2): 2}, 3)
    assert dict((a + b).items()) == {(1, 2): 1, (0, 2): 2}
    assert dict((a - b).items()) == {(0, 1): 1, (1, 2): 1, (0, 2): 1}
    assert dict((-a).items()) == {(0, 1): 1, (1, 2): 2}
    assert dict(a.scale(3).items()) == {}
    assert dict(Cochain(1, {(0, 1): 5}).with_modulus(5).items()) == {}
    assert dict(Chain(1, {(0, 1): 1, (1, 2): 1}, 2).boundary().items()) \
        == {(0,): 1, (2,): 1}
    with pytest.raises(ValueError, match="modulus"):
        a.with_modulus(-1)


class TestProjectionHelpers:
    def test_project(self):
        assert cylinder_project((0, 2, 4)) == (0, 1, 2)
        assert cylinder_project((0, 1, 3)) is None
        assert cylinder_project((0, 3, 5)) == (0, 1, 2)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-6, 6)), max_size=8),
       st.integers(0, 7))
def test_chain_addition_matches_coefficientwise(pairs, modulus):
    terms = {}
    for v, c in pairs:
        terms[(v,)] = terms.get((v,), 0) + c
    a = Chain(0, terms, modulus)
    total = a + a
    for t in terms:
        expect = 2 * terms[t]
        if modulus:
            expect %= modulus
        assert total.coefficient(t) == expect % modulus if modulus else total.coefficient(t) == expect
