import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainphase.actions import (ActionFunctional, _terms, _tree,
                                action_names, get_action)
from chainphase.boundary import delta_on
from chainphase.fileio import load_term_file
from chainphase.operad import p1_sign
from chainphase.simplicial import Cochain, Phase, StandardComplex
from oracles import positional_density, recursive_tree


def rand_cochain(rng, deg, verts, span=3):
    return Cochain(deg, {t: rng.randint(-span, span)
                         for t in itertools.combinations(verts, deg + 1)})


def integral(action, B, complex):
    """Signed sum of the action phase over the complex's top cells."""
    return Phase(sum(sign * action.density(B, cell)
                     for cell, sign in complex.top_cells), action.divisor)


class TestRegistry:
    # name -> (degree, spacetime, default N, divisor at default N)
    TABLE = {
        "cube3": (2, 6, 2, 2),
        "pontryagin9": (2, 6, 3, 9),
        "p1b3": (3, 7, 3, 3),
        "p1b4": (4, 8, 3, 3),
        "p1b5": (5, 9, 3, 3),
        "cs-b3": (3, 7, 2, 4),
        "sq4-b5": (5, 9, 2, 2),
        "particle-quad": (2, 4, 3, 3),
        "particle-quad-even": (2, 4, 2, 4),
    }

    def test_names(self):
        assert action_names() == sorted(self.TABLE)

    @pytest.mark.parametrize("name", sorted(TABLE))
    def test_metadata(self, name):
        degree, spacetime, default_n, divisor = self.TABLE[name]
        action = get_action(name)
        assert isinstance(action, ActionFunctional)
        assert action.name == name
        assert action.degree == degree
        assert action.spacetime == spacetime
        assert action.modulus == default_n
        assert action.divisor == divisor

    def test_divisor_scales_with_modulus(self):
        assert get_action("cube3", 5).divisor == 5
        assert get_action("pontryagin9", 6).divisor == 18
        assert get_action("cs-b3", 3).divisor == 9
        assert get_action("particle-quad-even", 4).divisor == 8
        assert get_action("p1b3", 6).divisor == 3  # fixed order 3
        assert get_action("sq4-b5", 4).divisor == 2  # fixed order 2

    def test_unknown_action(self):
        with pytest.raises(KeyError, match="cube3"):
            get_action("nope")

    @pytest.mark.parametrize("name,bad_n", [
        ("cube3", 1),
        ("pontryagin9", 2),
        ("p1b3", 2),
        ("p1b4", 4),
        ("p1b5", 5),
        ("sq4-b5", 3),
        ("particle-quad", 2),
        ("particle-quad-even", 3),
    ])
    def test_modulus_constraints(self, name, bad_n):
        with pytest.raises(ValueError, match=name):
            get_action(name, bad_n)

    @pytest.mark.parametrize("bad_n", [0, -3])
    @pytest.mark.parametrize("name", action_names())
    def test_nonpositive_modulus_rejected(self, name, bad_n):
        with pytest.raises(ValueError,
                           match=f"action {name} needs .*got N={bad_n}$"):
            get_action(name, bad_n)

    def test_terms_are_cached(self):
        assert get_action("cube3", 2).terms is get_action("cube3", 5).terms


class TestTermSharing:
    def test_p1b5_holds_each_factor_once(self):
        terms = _terms("p1b5")
        factors = [f for _coef, fs in terms for f in fs]
        # One factor tuple, and one slot tuple, per distinct position.
        assert len({id(f) for f in factors}) == len(set(factors)) == 184
        assert len({id(slot) for _d, slot in factors}) == 184
        assert all(not use_delta for use_delta, _slot in factors)
        assert terms == tuple(
            (p1_sign(5) * coef, tuple((False, slot) for slot in slots))
            for coef, slots in load_term_file("d3_6_q5.txt"))


class TestDensityValidation:
    def test_wrong_simplex_dimension(self):
        action = get_action("cube3", 2)
        with pytest.raises(ValueError, match="6-simplex"):
            action.density(Cochain(2, {}), (0, 1, 2))

    def test_wrong_cochain_degree(self):
        action = get_action("cube3", 2)
        with pytest.raises(ValueError, match="degree-2"):
            action.density(Cochain(1, {}), tuple(range(7)))


class TestCompiledDensity:
    @pytest.mark.parametrize("name", action_names())
    def test_matches_positional_evaluator(self, name):
        # Integer cochains with negative values and mod-N ones, on top
        # simplices with gaps, carrying values off the simplex too.
        action = get_action(name)
        D = action.spacetime
        rng = random.Random(f"compiled:{name}")
        seen = []
        for modulus in (0, action.modulus):
            for _ in range(3):
                verts = sorted(rng.sample(range(D + 6), D + 3))
                s = tuple(sorted(rng.sample(verts, D + 1)))
                B = rand_cochain(rng, action.degree, verts, span=4)
                B = B.with_modulus(modulus)
                got = action.density(B, s)
                assert got == positional_density(action, B, s)
                seen.append(got)
        assert any(seen)

    def test_factor_tree_with_shared_prefixes(self):
        # Terms of different lengths sharing leading factors, a term
        # that is a prefix of others, a repeated term and a delta-factor:
        # the registry's term lists have none of these shapes.
        terms = ((2, ((False, (0, 1, 2)),)),
                 (3, ((False, (0, 1, 2)), (False, (2, 3, 4)))),
                 (-1, ((False, (0, 1, 2)), (False, (2, 3, 4)),
                       (True, (0, 1, 3, 4)))),
                 (5, ((False, (0, 1, 2)), (False, (2, 3, 4)))),
                 (1, ((True, (1, 2, 3, 4)), (False, (0, 1, 2)))))
        action = ActionFunctional("toy", 2, 4, 3, 3, terms)
        rng = random.Random("tree")
        seen = []
        for _ in range(20):
            s = tuple(sorted(rng.sample(range(8), 5)))
            B = rand_cochain(rng, 2, range(8))
            got = action.density(B, s)
            assert got == positional_density(action, B, s)
            seen.append(got)
        assert any(seen)


# Short index tuples over few values, so that rows share prefixes, end
# at inner nodes of longer rows and repeat whole.
tree_rows = st.lists(st.tuples(
    st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
    st.integers(-3, 3)), max_size=30).map(sorted)


@settings(max_examples=200, deadline=None)
@given(tree_rows)
def test_tree_matches_recursive_grouping(rows):
    assert _tree(rows) == recursive_tree(rows)


class TestClosedForms:
    # Independent closed-form oracles for the hand-sized densities.
    def test_cubic_is_triple_product(self):
        rng = random.Random("cube3")
        action = get_action("cube3", 3)
        for _ in range(20):
            s = tuple(sorted(rng.sample(range(12), 7)))
            b = rand_cochain(rng, 2, s)
            want = (b.value(s[0:3]) * b.value(s[2:5]) * b.value(s[4:7]))
            assert action.density(b, s) == want

    def test_particle_quadratic_is_double_product(self):
        rng = random.Random("pquad")
        action = get_action("particle-quad", 3)
        for _ in range(20):
            s = tuple(sorted(rng.sample(range(9), 5)))
            b = rand_cochain(rng, 2, s)
            assert action.density(b, s) == b.value(s[0:3]) * b.value(s[2:5])

    def test_cs_is_front_times_back_coboundary(self):
        rng = random.Random("cs")
        action = get_action("cs-b3", 2)
        for _ in range(20):
            s = tuple(sorted(rng.sample(range(10), 8)))
            b = rand_cochain(rng, 3, s)
            assert action.density(b, s) \
                == b.value(s[0:4]) * b.on_boundary(s[3:8])

    def test_density_works_positionally(self):
        # The same term list evaluates on any 6-simplex; relabelling
        # the vertices relabels the lookups.
        action = get_action("cube3", 2)
        b = Cochain(2, {(10, 20, 30): 2, (30, 40, 50): 3, (50, 60, 70): 5})
        assert action.density(b, (10, 20, 30, 40, 50, 60, 70)) == 30


class TestQuadraticRefinements:
    # On integrally closed inputs every coboundary factor vanishes and
    # the refined densities collapse to their base products.
    def test_nine_dimensional_refines_cube(self):
        rng = random.Random("refine9")
        u = tuple(range(7))
        p9 = get_action("pontryagin9", 3)
        cube = get_action("cube3", 3)
        for _ in range(10):
            B = delta_on(rand_cochain(rng, 1, u), u)
            assert p9.density(B, u) == cube.density(B, u)

    def test_even_particle_refines_odd(self):
        rng = random.Random("refine4")
        u = tuple(range(5))
        even = get_action("particle-quad-even", 2)
        base = get_action("particle-quad", 3)
        for _ in range(10):
            B = delta_on(rand_cochain(rng, 1, u), u)
            assert even.density(B, u) == base.density(B, u)


class TestIntegral:
    def test_matches_manual_sum_over_top_cells(self):
        rng = random.Random("integral")
        complex = StandardComplex.boundary(7)
        action = get_action("cube3", 3)
        for _ in range(5):
            B = rand_cochain(rng, 2, range(8), span=2)
            manual = sum(sign * positional_density(action, B, cell)
                         for cell, sign in complex.top_cells)
            assert integral(action, B, complex) == Phase(manual, 3)

    def test_exact_input_integrates_to_zero(self):
        # Stokes check on the boundary sphere: the cubic action of an
        # exact configuration sums to zero over the facets.
        rng = random.Random("stokes")
        complex = StandardComplex.boundary(7)
        action = get_action("cube3", 5)
        for _ in range(5):
            B = delta_on(rand_cochain(rng, 1, range(8)), tuple(range(8)))
            assert integral(action, B, complex) == Phase(0, 1)
