import itertools
import random

import pytest

from chainphase.operad import cup_k_terms
from chainphase.simplicial import Cochain, StandardComplex
from oracles import (
    cup_cochain,
    cup_k_cochain,
    cup_k_value,
    cup_value,
    leibniz_defect,
    shuffle_cup_k_terms,
)


def cup1_terms_closed(p, q):
    """Printed closed form of cup-1: independent term-list oracle."""
    n = p + q - 1
    out = []
    for i in range(p):
        sign = -1 if ((p - i) * (q + 1)) % 2 else 1
        cpart = tuple(range(i + 1)) + tuple(range(q + i, n + 1))
        dpart = tuple(range(i, q + i + 1))
        out.append((sign, cpart, dpart))
    return out


def cup2_terms_closed(p, q):
    """Printed closed form of cup-2: independent term-list oracle."""
    n = p + q - 2
    out = []
    for i1, i2 in itertools.combinations(range(n + 1), 2):
        j3 = p + i2 - i1 - 1
        if not (i2 < j3 <= n):
            continue
        sign = -1 if ((p - i1) * (i2 - i1 - 1)) % 2 else 1
        cpart = tuple(range(i1 + 1)) + tuple(range(i2, j3 + 1))
        dpart = tuple(range(i1, i2 + 1)) + tuple(range(j3, n + 1))
        out.append((sign, cpart, dpart))
    return out


def rand_cochain(rng, deg, k, span=3, density=1.0):
    vals = {}
    for t in itertools.combinations(range(k + 1), deg + 1):
        if rng.random() <= density:
            vals[t] = rng.randint(-span, span)
    return Cochain(deg, vals)


class TestCup:
    def test_front_back_faces(self):
        c = Cochain(1, {(0, 1): 3})
        d = Cochain(1, {(1, 2): 5})
        assert cup_value(c, d, (0, 1, 2)) == 15
        assert cup_value(d, c, (0, 1, 2)) == 0

    def test_zero_cochain(self):
        c = Cochain(2, {(0, 1, 2): 9})
        z = Cochain(1, {})
        assert cup_value(c, z, (0, 1, 2, 3)) == 0

    def test_relative_to_simplex_vertices(self):
        # Evaluation uses positions inside s, not absolute ids.
        c = Cochain(1, {(2, 5): 1})
        d = Cochain(1, {(5, 9): 4})
        assert cup_value(c, d, (2, 5, 9)) == 4

    def test_size_mismatch_rejected(self):
        c = Cochain(1, {(0, 1): 1})
        with pytest.raises(ValueError):
            cup_value(c, c, (0, 1, 2, 3))

    def test_k_out_of_range(self):
        c = Cochain(1, {(0, 1): 1})
        with pytest.raises(ValueError):
            cup_k_terms(1, 1, 2)
        with pytest.raises(ValueError):
            cup_k_value(c, c, -1, (0, 1, 2))


class TestCupKTerms:
    def test_single_edge_square(self):
        # p = q = k = 1 on an edge: one positive diagonal term.
        assert cup_k_terms(1, 1, 1) == ((1, (0, 1), (0, 1)),)

    def test_k0_is_front_back(self):
        for p in range(4):
            for q in range(4):
                n = p + q
                assert cup_k_terms(p, q, 0) == (
                    (1, tuple(range(p + 1)), tuple(range(p, n + 1))),)

    def test_cup1_matches_closed_form_exhaustively(self):
        for p in range(1, 8):
            for q in range(1, 8):
                if p + q - 1 > 8:
                    continue
                mine = sorted(cup_k_terms(p, q, 1))
                oracle = sorted(cup1_terms_closed(p, q))
                assert mine == oracle, (p, q)

    def test_cup2_matches_closed_form_exhaustively(self):
        for p in range(2, 8):
            for q in range(2, 8):
                if p + q - 2 > 8:
                    continue
                mine = sorted(cup_k_terms(p, q, 2))
                oracle = sorted(cup2_terms_closed(p, q))
                assert mine == oracle, (p, q)

    def test_matches_shuffle_parity_oracle(self):
        # cup-k is phi of the alternating word with a global sign; the
        # shuffle-parity rule must give the same tuples in the same order.
        for p in range(7):
            for q in range(7):
                for k in range(min(p, q) + 1):
                    assert cup_k_terms(p, q, k) \
                        == shuffle_cup_k_terms(p, q, k), (p, q, k)

    def test_terms_partition_vertices(self):
        for p, q, k in [(2, 2, 1), (3, 2, 2), (3, 3, 3), (4, 4, 2)]:
            n = p + q - k
            for sign, left, right in cup_k_terms(p, q, k):
                assert sign in (1, -1)
                assert len(left) == p + 1 and len(right) == q + 1
                assert set(left) | set(right) == set(range(n + 1))


class TestBilinearity:
    def test_random_bilinear(self):
        rng = random.Random(5)
        for _ in range(100):
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            k = rng.randint(0, min(p, q))
            n = p + q - k
            s = tuple(range(n + 1))
            c1 = rand_cochain(rng, p, n)
            c2 = rand_cochain(rng, p, n)
            d = rand_cochain(rng, q, n)
            a = rng.randint(-4, 4)
            lhs = cup_k_value(c1.scale(a) + c2, d, k, s)
            rhs = a * cup_k_value(c1, d, k, s) + cup_k_value(c2, d, k, s)
            assert lhs == rhs
            lhs = cup_k_value(c1, d.scale(a) + d, k, s)
            rhs = (a + 1) * cup_k_value(c1, d, k, s)
            assert lhs == rhs


class TestLeibniz:
    def test_plain_leibniz_rule(self):
        rng = random.Random(9)
        cx = StandardComplex.simplex(3)
        for _ in range(20):
            c = rand_cochain(rng, 1, 3)
            d = rand_cochain(rng, 1, 3)
            assert not leibniz_defect(c, d, 0, cx)

    def test_cup1_defect_on_delta4(self):
        rng = random.Random(13)
        cx = StandardComplex.simplex(4)
        for _ in range(20):
            c = rand_cochain(rng, 1, 4)
            d = rand_cochain(rng, 1, 4)
            assert not leibniz_defect(c, d, 1, cx)

    def test_zero_inputs(self):
        cx = StandardComplex.simplex(4)
        z = Cochain(1, {})
        assert not leibniz_defect(z, z, 1, cx)

    def test_defect_vanishes_all_degrees(self):
        # Every (p, q) with p + q <= 7 and every admissible i, on
        # Delta_8, 50 random draws each.
        rng = random.Random(17)
        cx = StandardComplex.simplex(8)
        for p in range(1, 7):
            for q in range(1, 8 - p):
                for i in range(0, min(p, q) + 1):
                    for _ in range(50):
                        c = rand_cochain(rng, p, 8, span=2, density=0.3)
                        d = rand_cochain(rng, q, 8, span=2, density=0.3)
                        assert not leibniz_defect(c, d, i, cx), (p, q, i)


class TestCupCochain:
    def test_builds_on_complex(self):
        cx = StandardComplex.simplex(2)
        c = Cochain(1, {(0, 1): 2})
        d = Cochain(1, {(1, 2): 3})
        out = cup_cochain(c, d, cx)
        assert out == Cochain(2, {(0, 1, 2): 6})

    def test_modulus_respected(self):
        cx = StandardComplex.simplex(2)
        c = Cochain(1, {(0, 1): 2}, modulus=5)
        d = Cochain(1, {(1, 2): 3}, modulus=5)
        assert cup_cochain(c, d, cx) == Cochain(2, {(0, 1, 2): 1}, modulus=5)

    def test_modulus_mismatch_rejected(self):
        cx = StandardComplex.simplex(2)
        c = Cochain(1, {(0, 1): 2}, modulus=5)
        d = Cochain(1, {(1, 2): 3})
        with pytest.raises(ValueError):
            cup_k_cochain(c, d, 0, cx)
