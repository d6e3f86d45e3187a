import itertools
import json
import random
import re
from functools import partial

import pytest

from chainphase.intmat import SparseIntMatrix, smith_invariant_factors
from chainphase.process import TJUNCTION, walk
from chainphase.search import (
    VACUUM_KEY,
    ReconstructError,
    build_model,
    classify,
    expand_theta,
    gen_identities,
    identity_matrix,
    identity_words,
    inverse_word,
    is_legal_term,
    legality_attempt,
    legality_search,
    random_sign_function,
    reconstruct_process,
)
from chainphase import search
from chainphase.simplicial import Chain, Phase, simplex_faces
from oracles import (breadth_first_model, evaluate_expression,
                     per_configuration_identities,
                     random_bilinear_realization, torsion)


@pytest.fixture(scope="module")
def particle():
    return build_model(2, 0, 2)


@pytest.fixture(scope="module")
def particle3():
    return build_model(3, 0, 2)


#: (N, p, d): the Z2 and Z3 particle models in d=2, the Z2 loop model.
MODEL_SHAPES = [(2, 0, 2), (3, 0, 2), (2, 1, 3)]

#: The four models whose classification is pinned: MODEL_SHAPES and
#: the Z2 particle model in d=3.
PINNED_SHAPES = MODEL_SHAPES[:2] + [(2, 0, 3), (2, 1, 3)]

#: Each model's torsion and free rank at depth 3: the pinned models
#: and the Z4 particle model in d=2.
CLASSES = {(2, 0, 2): ([4], 21), (3, 0, 2): ([3], 48), (2, 0, 3): ([2], 40),
           (2, 1, 3): ([2], 238), (4, 0, 2): ([8], 93)}

#: The pinned models, the Z3 loop model and the Z2 membrane model in d=4.
NUMBERED_SHAPES = PINNED_SHAPES + [(3, 1, 3), (2, 2, 4)]


def shape_id(shape):
    return "Z{}-p{}-d{}".format(*shape)


def state_key(state):
    return tuple(sorted(state.items()))


def state(model, key):
    """The validated Chain a configuration key names."""
    return Chain(model.p, dict(key), model.modulus)


def shift(model, a, sign, s):
    """Chain a moved one step (sign +-1) by generator s: plus or minus
    the boundary of s."""
    move = Chain(model.p, dict(simplex_faces(s)), model.modulus)
    return a + move if sign > 0 else a - move


def labelled(expr, model):
    """A term-numbered expression keyed by (generator, configuration)."""
    return {model.terms[k]: v for k, v in expr.items()}


def chain_expand_theta(word, a_key, model):
    """Oracle: expand_theta stepping validated Chains by their moves."""
    expr = {}
    for sign, s, acting, _ in walk(word, state(model, a_key),
                                   partial(shift, model)):
        key = (s, state_key(acting))
        expr[key] = expr.get(key, 0) + sign
    return {k: v for k, v in expr.items() if v}


def key_expansions(model, max_depth=3):
    """Oracle: every nonempty (word, configuration) expansion, on
    configuration keys through ``model.step``, in generation order."""
    for word in identity_words(model, max_depth):
        for a_key in model.configurations:
            expr = {}
            for sign, s, acting, _ in walk(word, a_key, model.step):
                expr[s, acting] = expr.get((s, acting), 0) + sign
            expr = {k: v for k, v in expr.items() if v}
            if expr:
                yield expr


def key_gen_identities(model, max_depth=3):
    """Oracle: ``key_expansions`` deduplicated up to sign on label-keyed
    fingerprints, each row checked against itself and its negative."""
    out, seen = [], set()
    for expr in key_expansions(model, max_depth):
        fingerprint = frozenset(expr.items())
        negated = frozenset((k, -v) for k, v in expr.items())
        if fingerprint not in seen and negated not in seen:
            seen.add(fingerprint)
            out.append(expr)
    return out


def random_word(model, rng, length):
    return tuple((rng.choice((1, -1)), rng.choice(model.generators))
                 for _ in range(length))


def path_between(model, src_key, dst_key):
    """Shortest generator word moving the state src -> dst."""
    if src_key == dst_key:
        return ()
    seen = {src_key: ()}
    frontier = [src_key]
    while frontier:
        nxt = []
        for key in frontier:
            a = state(model, key)
            for s in model.generators:
                for sign in (1, -1):
                    nk = state_key(shift(model, a, sign, s))
                    if nk not in seen:
                        seen[nk] = seen[key] + ((sign, s),)
                        if nk == dst_key:
                            return seen[nk]
                        nxt.append(nk)
        frontier = nxt
    raise AssertionError("configuration space is connected by moves")


class TestBuildModel:
    def test_particle_counts(self, particle):
        # Six edges of the 3-simplex; eight even vertex subsets.
        assert len(particle.generators) == 6
        assert len(particle.configurations) == 8
        assert particle.is_configuration(VACUUM_KEY)

    def test_particle_mod3_counts(self, particle3):
        # Charge assignments on 4 vertices summing to 0 mod 3.
        assert len(particle3.configurations) == 27

    def test_loop_counts(self):
        m = build_model(2, 1, 3)
        assert len(m.generators) == 10
        assert len(m.configurations) == 64

    def test_configurations_are_closed(self, particle3):
        # Degree 0: boundaries of edge chains carry zero total charge.
        for key in particle3.configurations:
            assert sum(c for _, c in key) % 3 == 0

    def test_loop_configurations_are_cycles(self):
        m = build_model(2, 1, 3)
        for key in m.configurations:
            assert not state(m, key).boundary()

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            build_model(2, 2, 2)

    @pytest.mark.parametrize("shape", MODEL_SHAPES, ids=shape_id)
    def test_step_table_is_move_arithmetic(self, shape):
        model = build_model(*shape)
        for a in model.configurations:
            for s in model.generators:
                for sign in (1, -1):
                    assert model.step(a, sign, s) \
                        == state_key(shift(model, state(model, a), sign, s))

    @pytest.mark.parametrize("shape", MODEL_SHAPES, ids=shape_id)
    def test_terms_are_numbered_generator_major(self, shape):
        model = build_model(*shape)
        size = len(model.configurations)
        for g, s in enumerate(model.generators):
            for i, a in enumerate(model.configurations):
                assert model.terms[g * size + i] == (s, a)
        assert len(model.terms) == len(model.generators) * size

    @pytest.mark.parametrize("shape", NUMBERED_SHAPES, ids=shape_id)
    def test_matches_breadth_first_closure(self, shape):
        # The same configurations, the vacuum numbered 0, and the same
        # key -> key step for every generator and sign.
        model = build_model(*shape)
        keys, steps = breadth_first_model(*shape)
        assert sorted(model.configurations) == list(keys)
        assert model.configurations[0] == VACUUM_KEY
        for (sign, s), moves in steps.items():
            assert len(moves) == len(keys)
            for key, moved in moves.items():
                assert model.step(key, sign, s) == moved

    @pytest.mark.parametrize("shape", NUMBERED_SHAPES, ids=shape_id)
    def test_configurations_are_numbered_by_digits(self, shape):
        # Configuration n holds n's base-N digits on the cells that
        # miss vertex 0, the i-th cell in combinations order at N^i.
        N, p, d = shape
        model = build_model(*shape)
        cells = list(itertools.combinations(range(1, d + 2), p + 1))
        assert len(model.configurations) == N ** len(cells)
        for n, key in enumerate(model.configurations):
            values = dict(key)
            assert [values.get(t, 0) for t in cells] \
                == [n // N ** i % N for i in range(len(cells))]

    def test_integer_group_rejected(self):
        with pytest.raises(ValueError):
            build_model(0, 0, 2)
        with pytest.raises(ValueError):
            build_model(1, 0, 2)


class TestExpandTheta:
    def test_non_configuration_rejected(self, particle):
        # A lone particle is not a boundary, hence not a configuration.
        bad = (((0,), 1),)
        with pytest.raises(ValueError, match=re.escape(f"{bad} is not")):
            expand_theta(((1, particle.generators[0]),), bad, particle)

    @pytest.mark.parametrize("shape", MODEL_SHAPES, ids=shape_id)
    def test_matches_chain_walk_on_identity_words(self, shape):
        # Every identity word at every configuration: same terms, same
        # coefficients, same dict order as stepping validated Chains.
        model = build_model(*shape)
        for word in identity_words(model, 3):
            for a in model.configurations:
                got = expand_theta(word, a, model)
                want = chain_expand_theta(word, a, model)
                assert list(got.items()) == list(want.items())

    def test_single_forward_step(self, particle):
        s = particle.generators[0]
        assert expand_theta(((1, s),), VACUUM_KEY, particle) == {
            (s, VACUUM_KEY): 1}

    def test_word_times_inverse_cancels(self, particle):
        rng = random.Random(2)
        for _ in range(50):
            w = random_word(particle, rng, rng.randint(1, 6))
            assert expand_theta(w + inverse_word(w), VACUUM_KEY,
                                particle) == {}

    def test_composition_rule(self, particle3):
        # theta(g2 g1, a) = theta(g1, a) + theta(g2, a + dg1).
        rng = random.Random(3)
        for _ in range(50):
            w1 = random_word(particle3, rng, rng.randint(1, 5))
            w2 = random_word(particle3, rng, rng.randint(1, 5))
            a = rng.choice(particle3.configurations)
            chain = state(particle3, a)
            for sign, s in w1:
                chain = shift(particle3, chain, sign, s)
            mid = state_key(chain)
            merged = dict(expand_theta(w1, a, particle3))
            for k, v in expand_theta(w2, mid, particle3).items():
                merged[k] = merged.get(k, 0) + v
            merged = {k: v for k, v in merged.items() if v}
            assert expand_theta(w1 + w2, a, particle3) == merged


class TestIdentityWords:
    def test_depth_below_two_rejected(self, particle):
        with pytest.raises(ValueError):
            identity_words(particle, 1)

    def test_words_return_the_state(self, particle3):
        # Moves commute, so every commutator word is the identity move.
        rng = random.Random(5)
        for word in identity_words(particle3, 3):
            a = rng.choice(particle3.configurations)
            chain = state(particle3, a)
            for sign, s in word:
                chain = shift(particle3, chain, sign, s)
            assert state_key(chain) == a

    def test_depth2_words_have_disjoint_supports(self, particle):
        for word in identity_words(particle, 2):
            cells = {s for _, s in word}
            assert len(cells) == 2
            a, b = cells
            assert not set(a) & set(b)

    def test_particle_identity_count(self, particle):
        # 312 expansions, none repeated exactly; 144 of them are the
        # negative of an earlier one.
        assert len(list(key_expansions(particle, 3))) == 312
        assert len(gen_identities(particle, 3)) == 168

    @pytest.mark.parametrize("shape,depth", [
        *((shape, 3) for shape in PINNED_SHAPES),
        ((3, 0, 2), 4), ((2, 1, 3), 4)],
        ids=lambda v: shape_id(v) if isinstance(v, tuple) else f"depth{v}")
    def test_translated_rows_match_every_expansion(self, shape, depth):
        # Same rows, same order, same item order as walking each word
        # at every configuration.
        model = build_model(*shape)
        got = gen_identities(model, depth)
        want = per_configuration_identities(model, depth)
        assert [list(row.items()) for row in got] \
            == [list(row.items()) for row in want]

    @pytest.mark.parametrize("shape", MODEL_SHAPES, ids=shape_id)
    def test_translation_tables_are_chain_addition(self, shape):
        model = build_model(*shape)
        size = len(model.configurations)
        number = {key: i for i, key in enumerate(model.configurations)}
        for i, a in enumerate(model.configurations):
            table = search._adder(i, model.modulus, size)
            for b, moved in zip(model.configurations, table):
                assert moved == number[state_key(state(model, a)
                                                 + state(model, b))]

    @pytest.mark.parametrize("shape", PINNED_SHAPES, ids=shape_id)
    def test_rows_match_expansion_on_keys(self, shape):
        # The same rows, in the same order, each in the same dict order,
        # once each term number is read as its label.
        model = build_model(*shape)
        got = gen_identities(model, 3)
        want = key_gen_identities(model, 3)
        assert [list(labelled(row, model).items()) for row in got] \
            == [list(row.items()) for row in want]


class TestBilinearRealizations:
    def test_identities_evaluate_to_zero(self, particle):
        # Local bilinear phases satisfy every exchange axiom, so each
        # identity expression must evaluate to exactly 0 mod 1.
        rows = gen_identities(particle, 3)
        rng = random.Random(7)
        for _ in range(25):
            lam = random_bilinear_realization(particle, rng)
            for expr in rows:
                assert evaluate_expression(labelled(expr, particle), lam,
                                           particle) == Phase(0, 1)

    def test_mod3_identities_evaluate_to_zero(self, particle3):
        rows = gen_identities(particle3, 3)
        rng = random.Random(11)
        for _ in range(5):
            lam = random_bilinear_realization(particle3, rng)
            for expr in rows:
                assert evaluate_expression(labelled(expr, particle3), lam,
                                           particle3) == Phase(0, 1)

    def test_lambda_is_local(self, particle):
        lam = random_bilinear_realization(particle, random.Random(1))
        for s, entries in lam.items():
            for t in entries:
                assert set(t) <= set(s)


class TestClassify:
    def test_particle_torsion_is_z4(self, particle):
        factors, residual, log = classify(particle, 3)
        assert factors == [4]
        assert residual.shape[0] > 0
        assert log

    def test_loop_torsion_is_z2(self):
        factors, _, _ = classify(build_model(2, 1, 3), 3)
        assert factors == [2]

    @pytest.mark.parametrize("shape,factors", zip(PINNED_SHAPES,
                                                  ([4], [3], [2], [2])),
                             ids=map(shape_id, PINNED_SHAPES))
    def test_torsion_matches_every_expansion(self, shape, factors):
        # The deduplicated rows present the same group as all of them.
        model = build_model(*shape)
        number = {term: i for i, term in enumerate(model.terms)}
        every = SparseIntMatrix({number[k]: v for k, v in expr.items()}
                                for expr in key_expansions(model, 3))
        every.eliminate()
        assert torsion(every) == factors
        assert classify(model, 3)[0] == factors

    @pytest.mark.parametrize("modulus,free,factors", [
        (2, 21, [4]), (3, 48, [3]), (4, 93, [8])])
    def test_tjunction_generates_the_particle_torsion(self, modulus, free,
                                                      factors):
        # One more row, the T-junction's vacuum expansion, kills the
        # torsion and leaves the free rank |S||A| - rank alone.  The
        # rank is the pivots plus the residual's Smith factors.
        model = build_model(modulus, 0, 2)
        number = {term: i for i, term in enumerate(model.terms)}
        tjunction = {number[k]: v for k, v in
                     expand_theta(TJUNCTION, VACUUM_KEY, model).items()}
        rows = gen_identities(model, 3)
        for extra, want in (([], factors), ([tjunction], [])):
            matrix = SparseIntMatrix(rows + extra)
            pivots = len(matrix.eliminate())
            smith = smith_invariant_factors(matrix.to_dense()[0])
            assert len(model.terms) - pivots - len(smith) == free
            assert [f for f in smith if f > 1] == want

    @pytest.mark.parametrize("shape", PINNED_SHAPES + [(4, 0, 2)],
                             ids=shape_id)
    def test_streaming_matches_batch_elimination(self, shape):
        # The oracle: the whole identity matrix, eliminated at once.
        # Both give the same torsion and the same rank, counted as
        # pivots plus the residual's Smith rank, so the same free rank.
        model = build_model(*shape)
        stats = {}
        factors, residual, log = classify(model, 3, stats)
        batch = identity_matrix(model, 3)
        batch_log = batch.eliminate()
        smith = smith_invariant_factors(batch.to_dense()[0])
        want, free = CLASSES[shape]
        assert factors == torsion(batch) == [f for f in smith if f > 1] \
            == want
        assert stats["rank"] == len(batch_log) + len(smith)
        assert len(model.terms) - stats["rank"] == free
        assert stats["rank"] == len(log) + len(
            smith_invariant_factors(residual.to_dense()[0]))
        assert stats["pivots"] == len(log)
        assert stats["residual_shape"] == residual.shape

    @pytest.mark.parametrize("shape", PINNED_SHAPES, ids=shape_id)
    def test_copy_classifies_as_the_original(self, shape):
        # legality_attempt eliminates a copy of its base matrix, so a
        # copy must eliminate exactly as the original does.
        model = build_model(*shape)
        original = identity_matrix(model, 3)
        copy = original.copy()
        copy_log = copy.eliminate()
        assert original.eliminate() == copy_log
        assert list(copy.rows.items()) == list(original.rows.items())
        assert torsion(copy) == torsion(original) == classify(model, 3)[0]


class TestReconstruct:
    def test_empty_expression(self, particle):
        assert reconstruct_process({}, particle) == ()

    def test_tjunction_roundtrip(self, particle):
        expr = expand_theta(TJUNCTION, VACUUM_KEY, particle)
        word = reconstruct_process(expr, particle)
        assert expand_theta(word, VACUUM_KEY, particle) == expr

    def test_doubled_expression_roundtrip(self, particle):
        expr = {k: 2 * v for k, v in
                expand_theta(TJUNCTION, VACUUM_KEY, particle).items()}
        word = reconstruct_process(expr, particle)
        assert expand_theta(word, VACUUM_KEY, particle) == expr

    def test_far_component_needs_bridge(self, particle):
        # A loop based at a nonvacuum configuration forces stitching
        # through a bridge whose contributions cancel; every such base
        # is tried.
        s = particle.generators[0]
        # Mod 2 a double hop is a loop with two distinct terms.
        word = ((1, s), (1, s))
        for base in particle.configurations[1:]:
            expr = expand_theta(word, base, particle)
            assert len(expr) == 2
            got = reconstruct_process(expr, particle)
            assert expand_theta(got, VACUUM_KEY, particle) == expr

    def test_random_words_roundtrip(self, particle3):
        # Random loops: walk anywhere, then BFS a path home so the
        # expression is balanced and reconstructible.
        rng = random.Random(13)
        hits = 0
        for _ in range(60):
            base = rng.choice(particle3.configurations)
            w = random_word(particle3, rng, rng.randint(2, 8))
            chain = state(particle3, base)
            for sign, s in w:
                chain = shift(particle3, chain, sign, s)
            closed = w + path_between(particle3, state_key(chain), base)
            expr = expand_theta(closed, base, particle3)
            if not expr:
                continue
            hits += 1
            got = reconstruct_process(expr, particle3)
            assert expand_theta(got, VACUUM_KEY, particle3) == expr
        assert hits >= 30

    def test_unbalanced_rejected(self, particle):
        s = particle.generators[0]
        with pytest.raises(ReconstructError):
            reconstruct_process({(s, VACUUM_KEY): 1}, particle)

    def test_bad_state_rejected(self, particle):
        # A lone particle is not a boundary, hence not a configuration.
        s = particle.generators[0]
        bad = (((0,), 1),)
        with pytest.raises(ReconstructError):
            reconstruct_process({(s, bad): 2}, particle)


def chain_is_legal_term(s, a_key, f, model):
    """Oracle: term legality on validated integer Chains, the mod-2
    configuration lifted through the signs of f."""
    if 0 not in s:
        return False
    lifted = Chain(model.p, {t: f[t] * c for t, c in a_key}, 0)
    moved = lifted + Chain(model.p, dict(simplex_faces(s)), 0)
    return all(v == f[t] for t, v in moved.items())


def scan_base(model, max_depth=3):
    """The identity matrix with every column whose cell lacks vertex 0
    (illegal under any sign function) eliminated."""
    base = identity_matrix(model, max_depth)
    base.eliminate({col for col in base.columns()
                    if 0 not in model.terms[col][0]})
    return base


def oracle_legality_search(model, attempts, seed, max_depth=3):
    """Oracle: the scan with one legality_attempt per trial, each on
    ``scan_base``, and no outcome table; returns (result, final
    checkpoint document without its ``scan`` key)."""
    base = scan_base(model, max_depth)
    rng = random.Random(seed)
    successes = []
    for trial in range(1, attempts + 1):
        f = random_sign_function(model, rng)
        ok, residual = legality_attempt(base, f, model)
        if ok:
            successes.append({
                "trial": trial,
                "f": {"".join(map(str, t)): v for t, v in sorted(f.items())},
                "residual_shape": list(residual.shape),
            })
    state = rng.getstate()
    return ({"attempts": attempts, "successes": successes},
            {"done": attempts, "successes": successes,
             "rng": [state[0], list(state[1]), state[2]]})


class Killed(Exception):
    """A scan stopped at a checkpoint write."""


def distinct_sign_vectors(model, attempts, seed):
    rng = random.Random(seed)
    return {tuple(random_sign_function(model, rng).values())
            for _ in range(attempts)}


class TestLegality:
    def test_term_legality_semantics(self, particle):
        f = {(v,): 1 for v in range(4)}
        # Moving 01 from the vacuum drives vertex 0 to -1: illegal.
        assert not is_legal_term((0, 1), VACUUM_KEY, f)
        # From a particle already sitting at vertex 0 it is a clean hop.
        occupied = (((0,), 1),)
        assert is_legal_term((0, 1), occupied, f)
        # Vertex-0 restriction knocks out cells away from the basepoint.
        assert not is_legal_term((1, 2), occupied, f)
        # Hopping 0 -> 2 via the 02 edge stays within f everywhere.
        assert is_legal_term((0, 2), occupied, f)
        # With f(0) = -1 the particle at 0 lifts to -1, and the same
        # hop drives vertex 0 to -2.
        assert not is_legal_term((0, 1), occupied, {**f, (0,): -1})

    @pytest.mark.parametrize("shape", [(2, 0, 2), (2, 0, 3), (2, 1, 3)],
                             ids=shape_id)
    def test_matches_chain_oracle(self, shape):
        # Every identity-matrix column, under ten fixed-seed f.
        model = build_model(*shape)
        columns = identity_matrix(model, 3).columns()
        rng = random.Random(17)
        for _ in range(10):
            f = random_sign_function(model, rng)
            for col in columns:
                s, a_key = model.terms[col]
                assert is_legal_term(s, a_key, f) \
                    == chain_is_legal_term(s, a_key, f, model)

    def test_sign_function_domain(self, particle):
        f = random_sign_function(particle, random.Random(1))
        assert set(f) == {(v,) for v in range(4)}
        assert set(f.values()) <= {1, -1}

    def test_attempt_reports_leftover_columns(self, particle):
        base = identity_matrix(particle, 3)
        f = random_sign_function(particle, random.Random(3))
        ok, residual = legality_attempt(base, f, particle)
        assert isinstance(ok, bool)
        # The base matrix is untouched either way.
        assert base.shape == identity_matrix(particle, 3).shape

    @pytest.mark.parametrize("shape,outcomes", [
        ((2, 0, 2), "1001011001101001"),
        ((2, 0, 3), "1" * 32),
    ], ids=["Z2-p0-d2", "Z2-p0-d3"])
    def test_which_trials_succeed(self, shape, outcomes):
        # Every sign vector, in product order over the vertices, from
        # the whole identity matrix and from the scan's base.
        model = build_model(*shape)
        vertices = [(v,) for v in range(model.d + 2)]
        for base in (identity_matrix(model, 3), scan_base(model)):
            got = "".join(
                "1" if legality_attempt(base, dict(zip(vertices, signs)),
                                        model)[0] else "0"
                for signs in itertools.product((1, -1),
                                               repeat=len(vertices)))
            assert got == outcomes

    def test_scan_base_keeps_loop_model_outcomes(self):
        model = build_model(2, 1, 3)
        full, reduced = identity_matrix(model, 3), scan_base(model)
        rng = random.Random(19)
        for _ in range(16):
            f = random_sign_function(model, rng)
            assert legality_attempt(reduced, f, model)[0] \
                == legality_attempt(full, f, model)[0]

    def test_finished_scan_resumes_without_the_matrix(
            self, particle, tmp_path, monkeypatch):
        ck = tmp_path / "scan.json"
        want = legality_search(particle, attempts=6, checkpoint=ck, seed=2)
        before = ck.read_bytes()

        def unreachable(*args):
            raise AssertionError("identity matrix built")

        monkeypatch.setattr(search, "identity_matrix", unreachable)
        assert legality_search(particle, 6, checkpoint=ck, seed=2) == want
        assert legality_search(particle, 4, checkpoint=ck, seed=2) == want
        assert ck.read_bytes() == before

    def test_unwritable_checkpoint_fails_before_the_matrix(
            self, particle, tmp_path, monkeypatch):
        def unreachable(*args):
            raise AssertionError("identity matrix built")

        monkeypatch.setattr(search, "identity_matrix", unreachable)
        ck = tmp_path / "no" / "such" / "scan.json"
        with pytest.raises(OSError, match=re.escape(str(ck))):
            legality_search(particle, attempts=2, checkpoint=ck)
        assert not (tmp_path / "no").exists()

    def test_search_requires_mod2(self, particle3):
        with pytest.raises(ValueError):
            legality_search(particle3, attempts=1)

    def test_search_checkpoint_resumes(self, particle, tmp_path):
        ck = tmp_path / "scan.json"
        first = legality_search(particle, attempts=2, checkpoint=ck, seed=9)
        assert first["attempts"] == 2
        again = legality_search(particle, attempts=2, checkpoint=ck, seed=9)
        assert again == first
        more = legality_search(particle, attempts=3, checkpoint=ck, seed=9)
        fresh = legality_search(particle, attempts=3, seed=9)
        assert more["attempts"] == 3
        assert more["successes"] == fresh["successes"]

    @pytest.mark.parametrize("shape,attempts,seed",
                             [((2, 0, 2), 40, 4), ((2, 0, 3), 12, 3)],
                             ids=["Z2-p0-d2", "Z2-p0-d3"])
    def test_matches_one_attempt_per_trial(self, shape, attempts, seed,
                                           tmp_path):
        model = build_model(*shape)
        # Both scans repeat some sign functions.
        assert len(distinct_sign_vectors(model, attempts, seed)) < attempts
        ck = tmp_path / "scan.json"
        got = legality_search(model, attempts, checkpoint=ck, seed=seed)
        want, want_doc = oracle_legality_search(model, attempts, seed)
        assert got == want
        doc = json.loads(ck.read_text())
        N, p, d = shape
        assert doc.pop("scan") == {"N": N, "p": p, "d": d, "depth": 3,
                                   "seed": seed}
        assert doc == want_doc

    def test_one_attempt_per_distinct_sign_vector(self, particle,
                                                  monkeypatch):
        calls = []
        real = search.legality_attempt

        def counting(base, f, model):
            calls.append(tuple(f.values()))
            return real(base, f, model)

        monkeypatch.setattr(search, "legality_attempt", counting)
        legality_search(particle, attempts=40, seed=4)
        distinct = distinct_sign_vectors(particle, 40, 4)
        assert len(calls) == len(set(calls)) == len(distinct) < 40
        assert set(calls) == distinct

    def test_one_write_per_trial_that_ran(self, particle, tmp_path,
                                          monkeypatch):
        # Every trial of a new sign vector writes, and so does the last
        # trial, which at this seed repeats an earlier one.
        writes = []
        real = search.os.replace

        def counting(src, dst):
            writes.append(dst)
            real(src, dst)

        monkeypatch.setattr(search.os, "replace", counting)
        legality_search(particle, 40, checkpoint=tmp_path / "scan.json",
                        seed=4)
        assert len(writes) == len(distinct_sign_vectors(particle, 40, 4)) \
            + 1 == 16

    @pytest.mark.parametrize("renamed", [False, True],
                             ids=["before-rename", "after-rename"])
    def test_killed_scan_resumes_to_the_same_bytes(self, particle, tmp_path,
                                                   monkeypatch, renamed):
        # A kill at the k-th write, for every k, before or after its
        # rename: the resumed scan matches one that was never stopped.
        whole = tmp_path / "whole.json"
        want = legality_search(particle, 40, checkpoint=whole, seed=4)
        real = search.os.replace
        for k in range(1, 17):
            calls = []

            def kill_at_k(src, dst):
                calls.append(dst)
                if len(calls) < k or renamed:
                    real(src, dst)
                if len(calls) == k:
                    raise Killed

            ck = tmp_path / f"killed{k}.json"
            monkeypatch.setattr(search.os, "replace", kill_at_k)
            with pytest.raises(Killed):
                legality_search(particle, 40, checkpoint=ck, seed=4)
            monkeypatch.setattr(search.os, "replace", real)
            assert legality_search(particle, 40, checkpoint=ck,
                                   seed=4) == want
            assert ck.read_bytes() == whole.read_bytes()

    def test_stopped_scan_resumes_to_the_same_bytes(self, particle,
                                                    tmp_path):
        # The outcome table starts empty again on resume.
        stopped, whole = tmp_path / "stopped.json", tmp_path / "whole.json"
        assert legality_search(particle, 5, checkpoint=stopped,
                               seed=11)["attempts"] == 5
        resumed = legality_search(particle, 12, checkpoint=stopped, seed=11)
        assert resumed == legality_search(particle, 12, checkpoint=whole,
                                          seed=11)
        assert stopped.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("field,model_shape,kwargs", [
        ("d", (2, 0, 3), {"seed": 5}),
        ("p", (2, 1, 3), {"seed": 5}),
        ("seed", (2, 0, 2), {"seed": 6}),
        ("depth", (2, 0, 2), {"seed": 5, "max_depth": 2}),
    ])
    def test_checkpoint_of_another_scan_rejected(self, particle, tmp_path,
                                                 field, model_shape,
                                                 kwargs):
        ck = tmp_path / "scan.json"
        legality_search(particle, attempts=3, checkpoint=ck, seed=5)
        before = ck.read_bytes()
        with pytest.raises(ValueError, match=f"another scan: its {field} "):
            legality_search(build_model(*model_shape), attempts=4,
                            checkpoint=ck, **kwargs)
        assert ck.read_bytes() == before

    def test_checkpoint_without_scan_key_resumes(self, particle, tmp_path):
        # A checkpoint written before the key existed resumes unchecked.
        old, whole = tmp_path / "old.json", tmp_path / "whole.json"
        legality_search(particle, attempts=4, checkpoint=old, seed=7)
        doc = json.loads(old.read_text())
        del doc["scan"]
        old.write_text(json.dumps(doc))
        resumed = legality_search(particle, 9, checkpoint=old, seed=7)
        assert resumed == legality_search(particle, 9, checkpoint=whole,
                                          seed=7)
        assert old.read_bytes() == whole.read_bytes()
