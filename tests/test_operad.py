import itertools
import random

import pytest

from chainphase.fileio import load_psi3, load_term_file
from chainphase.operad import (
    check_surjection,
    d_terms,
    p1_terms,
    phi_terms,
    psi,
)
from chainphase.simplicial import Cochain
from oracles import cup_k_value, cup_value


def rand_cochain(rng, deg, k, span=3):
    return Cochain(deg, {t: rng.randint(-span, span)
                         for t in itertools.combinations(range(k + 1),
                                                         deg + 1)})


def term_sum(terms, inputs, s):
    """Value on the simplex s of a positional term list fed `inputs`."""
    total = 0
    for sign, slots in terms:
        prod = sign
        for c, slot in zip(inputs, slots):
            prod *= c.value(tuple(s[i] for i in slot))
        total += prod
    return total


def brute_force_phi_terms(u, degrees):
    """Oracle: phi_terms by scanning every weakly increasing cut tuple
    and dropping those whose slots do not fit."""
    k, r = len(u), max(u)
    n = sum(d + 1 for d in degrees) - k
    final = [u[t] not in u[t + 1:] for t in range(k)]
    terms = []
    for interior in itertools.combinations_with_replacement(range(n + 1),
                                                            k - 1):
        cuts = (0,) + interior + (n,)
        slots = [[] for _ in range(r)]
        for t in range(k):
            slots[u[t] - 1].extend(range(cuts[t], cuts[t + 1] + 1))
        if any(len(slot) != d + 1 for slot, d in zip(slots, degrees)):
            continue
        if any(a >= b for slot in slots for a, b in zip(slot, slot[1:])):
            continue
        weights = [cuts[t + 1] - cuts[t] + (0 if final[t] else 1)
                   for t in range(k)]
        exp = sum(weights[t1] * weights[t2]
                  for t1, t2 in itertools.combinations(range(k), 2)
                  if u[t1] > u[t2])
        exp += sum(cuts[t + 1] for t in range(k) if not final[t])
        terms.append((-1 if exp % 2 else 1,
                      tuple(tuple(slot) for slot in slots)))
    return terms


def overfill_phi_terms(u, degrees):
    """Oracle: the depth-first cut walk that tries every end of each
    interval and cuts a branch only once a slot overfills."""
    k, r = len(u), max(u)
    n = sum(d + 1 for d in degrees) - k
    final = [u[t] not in u[t + 1:] for t in range(k)]
    room = [d + 1 for d in degrees]
    last = [-1] * r
    cuts = [0] * (k + 1)
    terms = []

    def emit():
        slots = [[] for _ in range(r)]
        for t in range(k):
            slots[u[t] - 1].extend(range(cuts[t], cuts[t + 1] + 1))
        weights = [cuts[t + 1] - cuts[t] + (0 if final[t] else 1)
                   for t in range(k)]
        exp = sum(weights[t1] * weights[t2]
                  for t1, t2 in itertools.combinations(range(k), 2)
                  if u[t1] > u[t2])
        exp += sum(cuts[t + 1] for t in range(k) if not final[t])
        terms.append((-1 if exp % 2 else 1,
                      tuple(tuple(slot) for slot in slots)))

    def place(t):
        slot, start = u[t] - 1, cuts[t]
        if start <= last[slot]:
            return
        for end in (n,) if t == k - 1 else range(start, n + 1):
            size = end - start + 1
            if size > room[slot]:
                return
            cuts[t + 1] = end
            room[slot] -= size
            prev, last[slot] = last[slot], end
            if t == k - 1:
                emit()
            else:
                place(t + 1)
            room[slot] += size
            last[slot] = prev

    place(0)
    return terms


def phi_value(u, inputs, s):
    """phi(u)(inputs...) on s, as an integer lift."""
    return term_sum(phi_terms(u, tuple(c.degree for c in inputs)), inputs, s)


def d_value(r, i, B, s):
    """D^r_i(B)(s) = phi(psi(r)(e_i))(B, ..., B)(s), as an integer lift."""
    return term_sum(d_terms(r, i, B.degree), (B,) * r, s)


class TestCheckSurjection:
    def test_valid_word(self):
        assert check_surjection([1, 2, 1]) == (1, 2, 1)

    def test_not_surjective(self):
        with pytest.raises(ValueError):
            check_surjection((1, 3))

    def test_degenerate(self):
        with pytest.raises(ValueError):
            check_surjection((1, 1, 2))

    def test_empty(self):
        with pytest.raises(ValueError):
            check_surjection(())


class TestPsi:
    def test_r2_is_alternating_cup_words(self):
        # At r = 2 the recursion collapses to the single classical
        # alternating word for every degree, coefficient +1.
        for n in range(9):
            want = tuple(1 + (i % 2) for i in range(n + 2))
            assert psi(2, n) == {want: 1}

    def test_r3_matches_golden_listings(self):
        golden = load_psi3()
        assert set(golden) == {0, 1, 2, 4, 6}
        for n, table in golden.items():
            assert psi(3, n) == table, n

    def test_words_are_nondegenerate_surjections(self):
        for r, n in [(3, 3), (3, 5), (5, 2)]:
            for u in psi(r, n):
                assert check_surjection(u) == u
                assert max(u) == r

    def test_base_case(self):
        assert psi(5, 0) == {(1, 2, 3, 4, 5): 1}

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            psi(1, 0)
        with pytest.raises(ValueError):
            psi(3, -1)


class TestPhi:
    def test_12_is_cup_product(self):
        rng = random.Random(4)
        for p in (1, 2):
            for q in (1, 2):
                s = tuple(range(p + q + 1))
                c = rand_cochain(rng, p, p + q)
                d = rand_cochain(rng, q, p + q)
                assert phi_value((1, 2), (c, d), s) == cup_value(c, d, s)

    def test_121_is_signed_cup1(self):
        # The operad convention differs from the closed-form cup-1 by
        # exactly (-1)**(p+q).
        rng = random.Random(6)
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                n = p + q - 1
                s = tuple(range(n + 1))
                sign = -1 if (p + q) % 2 else 1
                for _ in range(10):
                    c = rand_cochain(rng, p, n)
                    d = rand_cochain(rng, q, n)
                    assert phi_value((1, 2, 1), (c, d), s) \
                        == sign * cup_k_value(c, d, 1, s)

    def test_12312_golden_term_list(self):
        got = phi_terms((1, 2, 3, 1, 2), (3, 3, 3))
        assert got == load_term_file("phi_12312_deg3.txt")
        assert len(got) == 9

    def test_terms_respect_degrees(self):
        for sign, slots in phi_terms((1, 2, 1, 3), (2, 3, 1)):
            assert sign in (1, -1)
            assert tuple(len(s) for s in slots) == (3, 4, 2)

    def test_positions_are_relative(self):
        # Same positional expansion applied at shifted vertex labels.
        rng = random.Random(8)
        c = rand_cochain(rng, 1, 6)
        d = rand_cochain(rng, 1, 6)
        lo = phi_value((1, 2, 1), (c, d), (0, 1, 2))
        hi = phi_value((1, 2, 1), (c, d), (4, 5, 6))
        terms = phi_terms((1, 2, 1), (1, 1))
        want_hi = sum(
            sign * c.value(tuple((4, 5, 6)[i] for i in slots[0]))
            * d.value(tuple((4, 5, 6)[i] for i in slots[1]))
            for sign, slots in terms)
        assert hi == want_hi
        assert isinstance(lo, int)

    def test_wrong_input_count(self):
        with pytest.raises(ValueError):
            phi_terms((1, 2, 1), (1, 1, 1))


class TestPhiTermsSearch:
    def test_matches_brute_force_on_psi3_words(self):
        # Every word of psi(3)(e_i), i <= 4, on every degree triple up
        # to 3 with a non-negative output degree; many of these admit
        # no cut tuple at all.
        empty = full = 0
        for u in sorted(w for i in range(5) for w in psi(3, i)):
            for degrees in itertools.product(range(4), repeat=3):
                if sum(d + 1 for d in degrees) < len(u):
                    continue
                want = brute_force_phi_terms(u, degrees)
                assert phi_terms(u, degrees) == want, (u, degrees)
                empty += not want
                full += bool(want)
        assert empty and full


    @pytest.mark.parametrize("r,top", [(3, 8), (2, 5)])
    def test_matches_overfill_walk_on_psi_words(self, r, top):
        # The pruned walk lists the same terms, in the same order, as
        # the walk that waits for a slot to overfill.
        for u in sorted(w for i in range(top + 1) for w in psi(r, i)):
            for q in range(2, 7):
                degrees = (q,) * r
                if r * (q + 1) < len(u):
                    continue
                assert phi_terms(u, degrees) \
                    == overfill_phi_terms(u, degrees), (u, q)

    def test_equal_slots_share_one_tuple(self):
        # Within one listing every distinct slot is one object, and the
        # listing is still the overfill walk's, term for term.
        for u in sorted(psi(3, 6)):
            terms = phi_terms(u, (5, 5, 5))
            assert terms == overfill_phi_terms(u, (5, 5, 5)), u
            slots = [slot for _, term in terms for slot in term]
            assert len({id(slot) for slot in slots}) == len(set(slots)), u


class TestDTerms:
    def test_counts(self):
        assert len(d_terms(3, 4, 4)) == 177
        assert len(d_terms(3, 6, 5)) == 1110

    def test_frozen_files_match_regeneration(self):
        assert load_term_file("d3_4_q4.txt") == d_terms(3, 4, 4)
        assert load_term_file("d3_6_q5.txt") == d_terms(3, 6, 5)

    def test_composite_r_rejected(self):
        with pytest.raises(ValueError):
            d_terms(4, 2, 2)

    def test_product_is_cubic_diagonal(self):
        # D^3_0(B) is the triple cup product of B with itself.
        rng = random.Random(10)
        for _ in range(10):
            B = rand_cochain(rng, 2, 6)
            s = tuple(range(7))
            triple = cup_value(Cochain(4, {
                t: cup_value(B, B, t)
                for t in itertools.combinations(range(7), 5)}), B, s)
            assert d_value(3, 0, B, s) == triple


class TestP1Terms:
    def test_degree2_is_signed_triple_cup(self):
        assert p1_terms(2) == [(1, ((0, 1, 2), (2, 3, 4), (4, 5, 6)))]

    def test_degree3_has_19_terms(self):
        terms = p1_terms(3)
        assert len(terms) == 19
        assert all(abs(c) == 1 for c, _ in terms)

    def test_degree3_matches_frozen_listing(self):
        # The frozen file keeps the original listing order; the
        # generator orders by word, so compare as multisets.
        assert sorted(p1_terms(3)) == sorted(load_term_file("p1_b3.txt"))

    def test_degree3_slot_shape(self):
        for _, slots in p1_terms(3):
            assert len(slots) == 3
            assert all(len(s) == 4 for s in slots)
            assert all(0 <= v <= 7 for s in slots for v in s)

    def test_low_degree_rejected(self):
        with pytest.raises(ValueError):
            p1_terms(1)
