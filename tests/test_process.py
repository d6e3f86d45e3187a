import itertools
import random

import pytest

from chainphase.actions import action_names, get_action
from chainphase.boundary import delta_on
from chainphase.fileio import load_golden_trace
from chainphase.process import (
    MU56,
    TJUNCTION,
    builtin,
    check_cancellation,
    check_steps,
    dual_hop,
    evaluate,
    golden_trace_diff,
    is_closed,
    pauli_triviality_check,
    random_closed_configuration,
    step_cell_sum,
    trace,
    walk,
)
from chainphase.simplicial import Chain, Cochain, Phase
from oracles import per_hop_cylinder_theta


def inverse_word(steps):
    return tuple((-sign, cell) for sign, cell in reversed(steps))


class TestWords:
    def test_builtin_words(self):
        assert builtin("mu56") is MU56
        assert builtin("tjunction") is TJUNCTION
        assert len(MU56) == 56
        assert len(TJUNCTION) == 6
        with pytest.raises(KeyError):
            builtin("nope")

    def test_check_steps_validates(self):
        assert check_steps([(1, (0, 1))]) == ((1, (0, 1)),)
        with pytest.raises(ValueError):
            check_steps([(2, (0, 1))])
        with pytest.raises(ValueError):
            check_steps([(1, (1, 0))])
        with pytest.raises(ValueError):
            check_steps([(1, (0, 0))])
        with pytest.raises(ValueError, match="step 2 has dimension 2, but "
                                             "step 0 has dimension 1"):
            check_steps([(1, (0, 1)), (-1, (1, 2)), (1, (0, 1, 2))])
        with pytest.raises(ValueError, match="step 1 moves the one-vertex"):
            check_steps([(1, (0, 1)), (1, (2,))])
        with pytest.raises(ValueError, match="no steps"):
            check_steps([])

    def test_builtin_words_are_closed(self):
        assert is_closed(MU56)
        assert is_closed(TJUNCTION)
        assert not step_cell_sum(MU56)
        assert not is_closed(MU56[:-1])

    def test_step_cell_sum_counts_multiplicity(self):
        word = [(1, (0, 1)), (1, (0, 1)), (-1, (0, 2))]
        total = step_cell_sum(word)
        assert dict(total.items()) == {(0, 1): 2, (0, 2): -1}


def cell_boundary(cell):
    return Chain(len(cell) - 1, {cell: 1}).boundary()


def boundary_shift(a, sign, cell):
    return a + cell_boundary(cell) if sign > 0 else a - cell_boundary(cell)


class TestWalk:
    def test_inverse_pair_acts_twice_at_start(self):
        # +U then -U on the same cell: both act at the starting state
        # (the inverse undoes the forward operator applied there), and
        # the walk ends where it began.
        start = Chain(0, {(1,): 1})
        cell = (0, 1)
        rows = list(walk([(1, cell), (-1, cell)], start, boundary_shift))
        assert [(sign, c) for sign, c, _, _ in rows] == [(1, cell),
                                                         (-1, cell)]
        assert [acting for _, _, acting, _ in rows] == [start, start]
        assert rows[0][3] == start + cell_boundary(cell)
        assert rows[1][3] == start

    def test_after_states_are_the_trace(self):
        initial = Chain(2, {(0, 1, 2): 1})
        rows = list(walk(MU56, initial, boundary_shift))
        states = trace(MU56, initial)
        assert len(rows) == 56
        assert rows[-1][3] == states[-1]
        assert [after for _, _, _, after in rows] == states[1:]


class TestTrace:
    def test_reproduces_golden_rows(self):
        assert golden_trace_diff(MU56, load_golden_trace()) == []

    def test_word_returns_to_start(self):
        states = trace(MU56, Chain(2, {}))
        assert len(states) == 57
        assert states[0] == states[-1] == Chain(2, {})
        states = trace(TJUNCTION, Chain(0, {}))
        assert states[0] == states[-1]

    def test_default_start_is_vacuum(self):
        assert trace(TJUNCTION) == trace(TJUNCTION, Chain(0, {}))

    def test_wrong_cell_degree(self):
        with pytest.raises(ValueError):
            trace(TJUNCTION, Chain(2, {}))

    def test_diff_reports_state_mismatch(self):
        rows = load_golden_trace()
        sign, cell, state = rows[9]
        rows[9] = (sign, cell, state + Chain(2, {(0, 1, 2): 1}))
        problems = golden_trace_diff(MU56, rows)
        assert len(problems) == 1 and "step 10" in problems[0]

    def test_diff_reports_step_mismatch(self):
        rows = load_golden_trace()
        sign, cell, state = rows[0]
        rows[0] = (-sign, cell, state)
        problems = golden_trace_diff(MU56, rows)
        assert "step 1" in problems[0]

    def test_diff_reports_length_mismatch(self):
        problems = golden_trace_diff(MU56, load_golden_trace()[:-1])
        assert problems == ["step count 56 != golden 55"]


class TestDualHop:
    def test_sign_pins(self):
        assert dict(dual_hop((0, 1, 4, 5), 5).items()) == {(2, 3): 1}
        assert dict(dual_hop((0, 2), 3).items()) == {(1, 3): 1}
        assert dict(dual_hop((1, 2), 3).items()) == {(0, 3): -1}

    def test_degree_is_complementary(self):
        assert dual_hop((0, 1, 2), 5).degree == 2
        assert dual_hop((0,), 3).degree == 2


class TestEvaluateMembraneWord:
    # Vacuum phases of the 56-step membrane word under each action.
    def test_cubic_gives_one_over_n(self):
        for N in (2, 3, 5, 997):
            action = get_action("cube3", N)
            assert evaluate(MU56, action) == Phase(1, N)

    def test_cubic_pontryagin_gives_one_ninth(self):
        assert evaluate(MU56, get_action("pontryagin9", 3)) == Phase(1, 9)

    def test_reduced_power_values(self):
        # The three reduced-power actions, in bulk dimensions 7, 8 and
        # 9, all give 1/3: the potentials carry no orientation sign
        # that depends on the parity of the dimension.
        assert evaluate(MU56, get_action("p1b3", 3)) == Phase(1, 3)
        assert evaluate(MU56, get_action("p1b4", 3)) == Phase(1, 3)
        assert evaluate(MU56, get_action("p1b5", 3)) == Phase(1, 3)

    def test_undetecting_actions_give_zero(self):
        assert evaluate(MU56, get_action("cs-b3", 2)) == Phase(0, 1)
        assert evaluate(MU56, get_action("sq4-b5", 2)) == Phase(0, 1)

    def test_inverse_word_negates(self):
        action = get_action("cube3", 5)
        assert evaluate(inverse_word(MU56), action) \
            == -evaluate(MU56, action)

    def test_phase_is_additive_under_repetition(self):
        action = get_action("cube3", 3)
        once = evaluate(MU56, action)
        assert evaluate(MU56 * 2, action) == once + once
        assert evaluate(MU56 * 3, action) == Phase(0, 1)


class TestEvaluateExchangeWord:
    def test_quadratic_odd_values(self):
        # The six-step exchange measures 1/N from the vacuum.
        assert evaluate(TJUNCTION, get_action("particle-quad", 3)) \
            == Phase(1, 3)
        assert evaluate(TJUNCTION, get_action("particle-quad", 5)) \
            == Phase(1, 5)

    def test_quadratic_even_values(self):
        # The even variant measures 1/2N; at N=2 that is the semion
        # value 1/4.
        assert evaluate(TJUNCTION, get_action("particle-quad-even", 2)) \
            == Phase(1, 4)
        assert evaluate(TJUNCTION, get_action("particle-quad-even", 4)) \
            == Phase(1, 8)

    def test_inverse_exchange_negates(self):
        action = get_action("particle-quad-even", 2)
        assert evaluate(inverse_word(TJUNCTION), action) == Phase(-1, 4)


def oracle_evaluate(steps, action, initial):
    """evaluate's phase with Cochain arithmetic for the state and, for
    every hop, the coboundary from delta_on and Theta from the per-hop
    prism oracle."""
    S = tuple(range(action.spacetime))
    N = initial.modulus
    hops = {cell: dual_hop(cell, action.spacetime - 1) for _, cell in steps}

    def shift(a, sign, cell):
        h = hops[cell].with_modulus(N)
        return a + h if sign > 0 else a - h

    total = Phase(0, 1)
    for sign, cell, acting, b in walk(steps, initial, shift):
        theta = per_hop_cylinder_theta(action, delta_on(acting, S),
                                       hops[cell], S)
        total -= sign * theta
    assert b == initial
    return total


class TestEvaluateMatchesOracle:
    # Bit for bit against the oracle for every registry action, from
    # the vacuum and from a seeded closed state carried mod N and as
    # its integer lift.
    @pytest.mark.parametrize("name", action_names())
    def test_every_action(self, name):
        action = get_action(name)
        word = TJUNCTION if action.spacetime == 4 else MU56
        degree, k = action.degree - 1, action.spacetime - 1
        rng = random.Random(f"oracle:{name}")
        state = random_closed_configuration(degree, k, action.modulus, rng)
        starts = [Cochain(degree, {}, action.modulus), state,
                  state.with_modulus(0)]
        for initial in starts:
            assert evaluate(word, action, initial=initial) \
                == oracle_evaluate(word, action, initial)


class TestEvaluateValidation:
    def test_open_word_rejected(self):
        with pytest.raises(ValueError, match="return"):
            evaluate(MU56[:-1], get_action("cube3", 2))

    def test_cell_dimension_mismatch(self):
        with pytest.raises(ValueError, match="degree"):
            evaluate(TJUNCTION, get_action("cube3", 2))

    def test_cell_outside_boundary_complex(self):
        word = [(1, (0, 5)), (-1, (0, 5))]
        with pytest.raises(ValueError, match="fit"):
            evaluate(word, get_action("particle-quad", 3))

    def test_initial_degree_checked(self):
        with pytest.raises(ValueError, match="degree"):
            evaluate(MU56, get_action("cube3", 2),
                     initial=Cochain(2, {}, 2))


class TestStatisticality:
    # The membrane phase must not depend on the closed state the word
    # is dragged across.
    def test_cubic_phase_is_state_independent(self):
        action = get_action("cube3", 3)
        rng = random.Random("stat:cube3")
        for _ in range(4):
            b = random_closed_configuration(1, 5, 3, rng)
            assert evaluate(MU56, action, initial=b) == Phase(1, 3)

    def test_reduced_power_phase_is_state_independent(self):
        action = get_action("p1b3", 3)
        rng = random.Random("stat:p1b3")
        for _ in range(2):
            b = random_closed_configuration(2, 6, 3, rng)
            assert evaluate(MU56, action, initial=b) == Phase(1, 3)

    def test_pontryagin_phase_depends_on_state_mod_third(self):
        # The divisor 3N exceeds the fusion order N, so the phase sees
        # the integer lift of the state: constant only mod 1/3, with
        # the vacuum at 1/9.
        action = get_action("pontryagin9", 3)
        rng = random.Random("stat:pontryagin9")
        values = {evaluate(MU56, action)}
        for _ in range(5):
            b = random_closed_configuration(1, 5, 3, rng)
            values.add(evaluate(MU56, action, initial=b))
        assert values <= {Phase(1, 9), Phase(4, 9), Phase(7, 9)}
        assert len(values) > 1

    def test_random_closed_configuration_is_closed(self):
        rng = random.Random("closedcfg")
        for degree, k, N in [(1, 5, 3), (2, 6, 3), (1, 3, 4)]:
            b = random_closed_configuration(degree, k, N, rng)
            assert b.degree == degree and b.modulus == N
            for t in itertools.combinations(range(k + 1), degree + 2):
                assert b.on_boundary(t) % N == 0

    def test_random_closed_configuration_needs_degree(self):
        with pytest.raises(ValueError):
            random_closed_configuration(0, 3, 2, random.Random(0))


class TestCancellation:
    def test_membrane_word_cancels_exactly(self):
        report = check_cancellation(MU56)
        assert report.ok
        assert report.pairs  # the books were not empty

    def test_membrane_word_cancels_mod_two(self):
        assert check_cancellation(MU56, modulus=2).ok

    def test_exchange_word_cancels(self):
        assert check_cancellation(TJUNCTION).ok

    def test_truncated_word_fails(self):
        # Dropping the final inverse leaves unmatched records exactly
        # at the vertices of its cell.
        report = check_cancellation(MU56[:-1])
        assert not report.ok
        assert {cell for _v, cell in report.residues} == {(0, 2, 3, 5)}

    def test_report_repr(self):
        assert "pass" in repr(check_cancellation(MU56))
        assert "fail" in repr(check_cancellation(MU56[:2]))


class TestPauliTriviality:
    def test_closed_word_accumulates_nothing(self):
        rng = random.Random("pauli")
        cells = {cell for _sign, cell in MU56}
        for _ in range(3):
            assignment = {
                cell: Cochain(2, {t: rng.randint(-3, 3)
                                  for t in itertools.combinations(
                                      range(6), 3)})
                for cell in cells
            }
            assert pauli_triviality_check(MU56, assignment, 5) \
                == Phase(0, 1)

    def test_from_nonvacuum_state(self):
        rng = random.Random("pauli2")
        cells = {cell for _sign, cell in MU56}
        assignment = {
            cell: Cochain(2, {t: rng.randint(-2, 2)
                              for t in itertools.combinations(range(6), 3)})
            for cell in cells
        }
        initial = Chain(2, {(0, 1, 2): 1, (1, 2, 3): 2})
        assert pauli_triviality_check(MU56, assignment, 7,
                                      initial=initial) == Phase(0, 1)
