import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, factorint
from sympy.matrices.normalforms import smith_normal_form

from chainphase.intmat import (SparseIntMatrix, UnitReducer, fingerprint,
                               smith_invariant_factors)
from chainphase.search import (build_model, classify, gen_identities,
                               identity_matrix, legality_attempt,
                               legality_partition)
from oracles import torsion


def sympy_factors(rows):
    """Independent oracle: invariant factors > 0 via sympy's SNF."""
    m = Matrix(rows)
    snf = smith_normal_form(m)
    out = [abs(snf[i, i]) for i in range(min(snf.shape))]
    return [v for v in out if v]


def cokernel_torsion(matrix):
    """Invariant factors > 1 of coker(M): eliminate a copy, then Smith."""
    residual = matrix.copy()
    residual.eliminate()
    return torsion(residual)


def from_dense(rows):
    m = SparseIntMatrix()
    for r in rows:
        m.add_row({j: v for j, v in enumerate(r) if v})
    return m


def batch_reduce(rows):
    """(log, residual) of `SparseIntMatrix.eliminate` on dense rows."""
    residual = from_dense(rows)
    return residual.eliminate(), residual


def stream_reduce(rows):
    """(log, residual) of a `UnitReducer` fed the dense rows in order."""
    reducer = UnitReducer()
    for r in rows:
        reducer.add({j: v for j, v in enumerate(r) if v})
    log, residual = reducer.finish()
    return log, SparseIntMatrix(residual)


#: Both unit-pivot reductions: batch elimination and the streaming one.
BOTH_PATHS = pytest.mark.parametrize(
    "reduce_rows", [batch_reduce, stream_reduce], ids=["batch", "stream"])


class RescanMatrix:
    """Oracle: elimination whose picker rescans every nonzero per pivot.

    The same row ids and the same column order as `SparseIntMatrix`;
    each column's rows are scanned by ascending row id, so the first
    entry of least cost is the least row id among the cheapest.
    """

    def __init__(self, rows=()):
        self.mat, self.col_rows, self.next_id = {}, {}, 1
        for row in rows:
            self.add_row(row)

    def add_row(self, row):
        entries = {c: v for c, v in row.items() if v}
        if entries:
            rid, self.next_id = self.next_id, self.next_id + 1
            self.mat[rid] = entries
            for c in entries:
                self.col_rows.setdefault(c, set()).add(rid)

    def drop(self, rid, c):
        self.col_rows[c].discard(rid)
        if not self.col_rows[c]:
            del self.col_rows[c]

    def pick(self, allowed_cols):
        best = best_cost = None
        for c, rids in self.col_rows.items():
            if allowed_cols is not None and c not in allowed_cols:
                continue
            for rid in sorted(rids):
                if abs(self.mat[rid][c]) != 1:
                    continue
                cost = (len(self.mat[rid]) - 1) * (len(rids) - 1)
                if best_cost is None or cost < best_cost:
                    best, best_cost = (rid, c), cost
                    if cost == 0:
                        return best
        return best

    def eliminate(self, allowed_cols=None):
        mat, col_rows = self.mat, self.col_rows
        log = []
        while (best := self.pick(allowed_cols)) is not None:
            rid, c = best
            pivot_row = dict(mat[rid])
            for other in list(col_rows[c]):
                if other == rid:
                    continue
                row = mat[other]
                factor = -row[c] * pivot_row[c]
                for k, v in pivot_row.items():
                    new = row.get(k, 0) + factor * v
                    if new:
                        if k not in row:
                            col_rows[k].add(other)
                        row[k] = new
                    elif k in row:
                        del row[k]
                        self.drop(other, k)
                if not row:
                    del mat[other]
            for k in mat.pop(rid):
                self.drop(rid, k)
            log.append((c, pivot_row[c],
                        {k: v for k, v in pivot_row.items() if k != c}))
        return log


def rescan_eliminate(rows, allowed_cols=None):
    """(log, residual rows) of the rescanning oracle."""
    oracle = RescanMatrix(rows)
    return oracle.eliminate(allowed_cols), oracle.mat


def rank(rows):
    return Matrix(rows).rank() if rows else 0


small_entry = st.integers(min_value=-9, max_value=9)
small_matrix = st.lists(
    st.lists(small_entry, min_size=1, max_size=6),
    min_size=1, max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


def diagonal_factors(diag):
    """Invariant factors of a diagonal matrix, prime by prime: the k-th
    least exponent of each prime over the nonzero entries goes to the
    k-th factor."""
    diag = [d for d in diag if d]
    out = [1] * len(diag)
    for p in {p for d in diag for p in factorint(d)}:
        for k, e in enumerate(sorted(factorint(d).get(p, 0) for d in diag)):
            out[k] *= p ** e
    return out


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


@st.composite
def unimodular(draw, n):
    """A random product of elementary row operations on n rows: negate
    a row, or add a small multiple of one row to another."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = draw(st.integers(-3, 3))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


@st.composite
def disguised_diagonal(draw):
    """(diagonal, U·D·V): D an n × m matrix whose diagonal holds factors
    that share primes, in random order, U and V unimodular."""
    diag = draw(st.lists(st.sampled_from((0, 2, 3, 4, 6, 9, 10, 12, 15, 25)),
                         min_size=2, max_size=5))
    n = len(diag) + draw(st.integers(0, 2))
    m = len(diag) + draw(st.integers(0, 2))
    d = [[diag[i] if i == j and i < len(diag) else 0 for j in range(m)]
         for i in range(n)]
    return diag, matmul(matmul(draw(unimodular(n)), d),
                        draw(unimodular(m)))


class TestSmith:
    def test_diagonal_pairs(self):
        assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
        assert smith_invariant_factors([[4, 0], [0, 0]]) == [4]
        assert smith_invariant_factors([[6, 0], [0, 4]]) == [2, 12]
        # Normalizing needs exchanges between non-adjacent entries.
        assert smith_invariant_factors(
            [[6, 0, 0], [0, 4, 0], [0, 0, 10]]) == [2, 2, 60]
        assert smith_invariant_factors(
            [[4, 0, 0], [0, 6, 0], [0, 0, 9]]) == [1, 6, 36]

    def test_empty_and_zero(self):
        assert smith_invariant_factors([]) == []
        assert smith_invariant_factors([[0, 0], [0, 0]]) == []

    def test_textbook_example(self):
        got = smith_invariant_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert got == [2, 2, 156]
        assert got == sympy_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])

    def test_divisibility_chain(self):
        rng = random.Random(3)
        for _ in range(40):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-8, 8) for _ in range(m)]
                    for _ in range(n)]
            fs = smith_invariant_factors(rows)
            assert all(b % a == 0 for a, b in zip(fs, fs[1:])), rows

    @settings(max_examples=150, deadline=None)
    @given(small_matrix)
    def test_matches_sympy(self, rows):
        assert smith_invariant_factors(rows) == sympy_factors(rows)

    @settings(max_examples=200, deadline=None)
    @given(disguised_diagonal())
    def test_disguised_diagonal(self, case):
        # Factors sharing primes, in any order, need the gcd/lcm
        # exchange between every diagonal pair, adjacent or not.
        diag, rows = case
        assert smith_invariant_factors(rows) == diagonal_factors(diag)

    def test_random_against_sympy_up_to_12(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 12)
            m = rng.randint(1, 12)
            rows = [[rng.randint(-20, 20) if rng.random() < 0.5 else 0
                     for _ in range(m)] for _ in range(n)]
            assert smith_invariant_factors(rows) == sympy_factors(rows), rows

    def test_random_tall_against_sympy(self):
        # The shape of a character block: many rows, at most 15 columns.
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(16, 40)
            m = rng.randint(1, 15)
            rows = [[rng.randint(-6, 6) if rng.random() < 0.3 else 0
                     for _ in range(m)] for _ in range(n)]
            assert smith_invariant_factors(rows) == sympy_factors(rows), rows


class TestSparseIntMatrix:
    def test_add_and_shape(self):
        m = SparseIntMatrix()
        m.add_row({"a": 1, "b": -2})
        m.add_row({"b": 3})
        assert m.shape == (2, 2)
        assert m.columns() == {"a", "b"}

    def test_zero_entries_dropped(self):
        m = SparseIntMatrix()
        m.add_row({"a": 0, "b": 2})
        assert m.columns() == {"b"}

    def test_dense_roundtrip(self):
        m = from_dense([[1, 2], [3, 4]])
        dense, cols = m.to_dense()
        assert sorted(map(sorted, dense)) == [[1, 2], [3, 4]]
        assert len(cols) == 2

    def test_dense_columns_in_first_seen_order(self):
        m = SparseIntMatrix([{10: 1, 2: 3}, {2: 4, 7: 5}])
        assert m.to_dense() == ([[1, 3, 0], [0, 4, 5]], [10, 2, 7])

    @BOTH_PATHS
    def test_eliminate_keeps_rank(self, reduce_rows):
        # Pivoting must not change the rational row space dimension:
        # rank(original) = rank(residual) + pivots used.
        rng = random.Random(7)
        for _ in range(30):
            n, m = rng.randint(2, 6), rng.randint(2, 6)
            rows = [[rng.randint(-4, 4) for _ in range(m)]
                    for _ in range(n)]
            log, residual = reduce_rows(rows)
            dense, _ = residual.to_dense()
            assert rank(rows) == rank(dense) + len(log)

    @BOTH_PATHS
    def test_eliminate_keeps_torsion(self, reduce_rows):
        # The defining property: invariant factors > 1 survive
        # unit-pivot elimination.
        rng = random.Random(19)
        for _ in range(30):
            n, m = rng.randint(2, 7), rng.randint(2, 7)
            rows = [[rng.randint(-6, 6) for _ in range(m)]
                    for _ in range(n)]
            full = [v for v in sympy_factors(rows) if v > 1]
            assert torsion(reduce_rows(rows)[1]) == full, rows

    def test_eliminate_respects_allowed_cols(self):
        m = from_dense([[1, 2, 3], [0, 1, 5], [0, 0, 2]])
        log = m.eliminate(allowed_cols={0})
        assert all(col == 0 for col, _, _ in log)
        assert 0 not in m.columns()
        assert 1 in m.columns()

    def test_log_records_pivot_rows(self):
        # Each log entry carries the pivot row minus the pivot column,
        # enough to substitute the eliminated variable back.
        m = from_dense([[1, 2], [3, 4]])
        log = m.eliminate()
        assert log == [(0, 1, {1: 2})]
        dense, _ = m.to_dense()
        assert dense == [[-2]]

    def test_copy_is_independent(self):
        m = from_dense([[1, 1]])
        c = m.copy()
        c.add_row({0: 5})
        assert m.shape == (1, 2) and c.shape == (2, 2)


class TestPivotOrder:
    """The counted picker takes the entry the full rescan took."""

    @staticmethod
    def tied_rows(rng):
        # Mostly +-1 entries, so many pivots tie on cost.
        n, m = rng.randint(4, 18), rng.randint(3, 12)
        return [{f"c{j}": rng.choice((1, -1, 1, -1, 2, -3, 0, 0, 0))
                 for j in range(m)} for _ in range(n)]

    def assert_same_elimination(self, rows, allowed_cols=None):
        want_log, want_rows = rescan_eliminate(rows, allowed_cols)
        # A copy eliminates first, so the original's counts must not
        # share state with it.
        mat = SparseIntMatrix(rows)
        for m in (mat.copy(), mat):
            assert m.eliminate(allowed_cols) == want_log
            assert list(m.rows.items()) == list(want_rows.items())

    def test_random_ties(self):
        rng = random.Random(23)
        for _ in range(150):
            self.assert_same_elimination(self.tied_rows(rng))

    def test_random_ties_allowed_cols(self):
        rng = random.Random(29)
        for _ in range(150):
            rows = self.tied_rows(rng)
            cols = sorted({c for row in rows for c in row})
            allowed = set(rng.sample(cols, rng.randint(1, len(cols))))
            self.assert_same_elimination(rows, allowed)

    def test_allowed_cols_with_unknown_labels(self):
        # Labels the matrix never had select nothing, as in the rescan.
        rng = random.Random(31)
        for _ in range(50):
            rows = self.tied_rows(rng)
            cols = sorted({c for row in rows for c in row})
            allowed = set(rng.sample(cols, rng.randint(0, len(cols))))
            allowed |= {"c99", ("c1",), 1}
            self.assert_same_elimination(rows, allowed)

    @pytest.mark.parametrize("modulus", [2, 3])
    def test_particle_identity_matrix(self, modulus):
        self.assert_same_elimination(
            gen_identities(build_model(modulus, 0, 2)))


class TestPivotOrderAtScale:
    """Matrices whose rows grow and shrink many times, so stale length
    bounds would pick a different pivot than the full rescan."""

    @staticmethod
    def large_rows(rng):
        n, m = rng.randint(40, 200), rng.randint(10, 40)
        density = rng.uniform(0.1, 0.4)
        return [{j: rng.choice((1, -1, 1, -1, 1, -1, 2, -3))
                 for j in range(m) if rng.random() < density}
                for _ in range(n)]

    @staticmethod
    def assert_copy_and_original_match(rows, allowed_cols=None):
        # The copy eliminates first, so it must leave the original's
        # bookkeeping alone; both reproduce the rescan exactly.
        want_log, want_rows = rescan_eliminate(rows, allowed_cols)
        mat = SparseIntMatrix(rows)
        for m in (mat.copy(), mat):
            assert m.eliminate(allowed_cols) == want_log
            assert list(m.rows.items()) == list(want_rows.items())

    def test_random(self):
        rng = random.Random(37)
        for _ in range(12):
            self.assert_copy_and_original_match(self.large_rows(rng))

    def test_random_allowed_cols(self):
        rng = random.Random(41)
        for _ in range(12):
            rows = self.large_rows(rng)
            cols = sorted({c for row in rows for c in row})
            allowed = set(rng.sample(cols, rng.randint(1, len(cols))))
            self.assert_copy_and_original_match(rows, allowed)

    def test_rows_added_between_eliminations(self):
        # Rows added between eliminations, some in columns that
        # emptied and came back, are picked as the rescan picks them.
        rng = random.Random(43)
        for _ in range(12):
            rows = self.large_rows(rng)
            cols = sorted({c for row in rows for c in row})
            allowed = set(rng.sample(cols, rng.randint(1, len(cols))))
            mat, oracle = SparseIntMatrix(rows), RescanMatrix(rows)
            for step in range(3):
                assert mat.eliminate(allowed) == oracle.eliminate(allowed)
                for _ in range(rng.randint(1, 20)):
                    row = {j: rng.choice((1, -1, 2))
                           for j in rng.sample(cols, rng.randint(1, 4))}
                    mat.add_row(row)
                    oracle.add_row(row)
                allowed = None if step else set(cols) - allowed
            assert list(mat.rows.items()) == list(oracle.mat.items())

    def test_particle_identity_matrix_in_three_dimensions(self):
        self.assert_copy_and_original_match(
            gen_identities(build_model(2, 0, 3)))

    def test_legality_trials(self):
        # Every sign function of the Z2 d=2 particle model: the trial
        # eliminates the illegal columns of a copy of the base matrix,
        # exactly as the original would.
        model = build_model(2, 0, 2)
        rows = gen_identities(model)
        base = identity_matrix(model, 3)
        vertices = [(v,) for v in range(4)]
        for signs in itertools.product((1, -1), repeat=4):
            f = dict(zip(vertices, signs))
            illegal = legality_partition(base, f, model)
            want_log, want_rows = rescan_eliminate(rows, illegal)
            for work in (base.copy(), identity_matrix(model, 3)):
                assert work.eliminate(illegal) == want_log
                assert list(work.rows.items()) == list(want_rows.items())
            ok, residual = legality_attempt(base, f, model)
            assert residual.rows == want_rows
            assert ok == (not illegal & residual.columns())


class TestUnitReducer:
    def test_requeued_row_is_reduced_again(self):
        # The last row's pivot, substituted into the first two rows,
        # gives each a +-1 in column 1, so both are re-queued.  The
        # first one placed pivots on column 1, which the other still
        # holds: placed without being reduced again, it reports Z_9.
        rows = [[-2, 3, -2], [-2, 3, 2], [0, 2, 3], [1, -1, 2]]
        log, residual = stream_reduce(rows)
        assert torsion(residual) == [] == \
            [v for v in sympy_factors(rows) if v > 1]
        assert len(log) + rank(residual.to_dense()[0]) == rank(rows) == 3

    def test_stored_rows_stay_reduced(self):
        # Pivot rows hold no other pivot column; residual rows hold no
        # pivot column and no +-1.
        rng = random.Random(53)
        for _ in range(40):
            n, m = rng.randint(1, 12), rng.randint(1, 8)
            rows = [[rng.choice((0, 0, 1, -1, 2, -2, 3)) for _ in range(m)]
                    for _ in range(n)]
            log, residual = stream_reduce(rows)
            pivots = {c for c, _, _ in log}
            assert len(pivots) == len(log)
            assert all(sign in (1, -1) and not pivots & set(row)
                       for _, sign, row in log)
            for row in residual.rows.values():
                assert not pivots & set(row)
                assert all(abs(v) != 1 for v in row.values())

    def test_residual_holds_each_row_once_up_to_sign(self):
        # Random rows with repeats, negatives and multiples: no two
        # residual rows are equal up to sign, and the nonzero count and
        # the per-column holder counts match the rows stored.
        rng = random.Random(59)
        for _ in range(60):
            m = rng.randint(1, 6)
            rows = [{j: rng.choice((1, -1, 2, -2, 3, 4)) for j in range(m)
                     if rng.random() < 0.6} for _ in range(rng.randint(1, 8))]
            rows += [{j: rng.choice((-1, 2)) * v for j, v in row.items()}
                     for row in rows if rng.random() < 0.5]
            rng.shuffle(rows)
            reducer = UnitReducer()
            for row in rows:
                reducer.add(dict(row))
                stored = reducer._rows.values()
                assert reducer.nnz == sum(map(len, stored))
                held = {}
                for kept in stored:
                    for k in kept:
                        held[k] = held.get(k, 0) + 1
                assert {k: n for k, n in reducer._held.items() if n} \
                    == {k: n for k, n in held.items()
                        if k not in reducer._pivot}
            log, residual = reducer.finish()
            keys = [fingerprint(row) for row in residual]
            assert len(set(keys)) == len(keys)
            dense = [[row.get(j, 0) for j in range(m)] for row in rows]
            assert [v for v in smith_invariant_factors(
                [[row.get(j, 0) for j in range(m)] for row in residual])
                if v > 1] == [v for v in sympy_factors(dense) if v > 1]

    def test_held_residual_row_and_its_negative_are_dropped(self):
        reducer = UnitReducer()
        assert reducer.add({0: 2, 1: 4})
        for row in ({0: 2, 1: 4}, {0: -2, 1: -4}):
            assert not reducer.add(row)
            assert fingerprint(row) == fingerprint({0: 2, 1: 4})
        assert reducer.nnz == 2
        assert reducer.finish() == ([], [{0: 2, 1: 4}])

    def test_residual_row_that_comes_to_repeat_another_is_dropped(self):
        # The pivot on column 1 turns both residual rows into +-{0: 2};
        # the second is dropped, its nonzeros uncounted.
        reducer = UnitReducer()
        assert reducer.add({0: 2, 1: 2}) and reducer.add({0: -2, 1: 2})
        assert reducer.nnz == reducer.peak_nnz == 4
        assert reducer.add({1: 1})
        assert reducer.nnz == 2 and reducer.peak_nnz == 4
        assert reducer.finish() == ([(1, 1, {})], [{0: 2}])

    def test_add_reports_rows_in_the_span(self):
        # The second row's pivot is substituted into the first; a sum
        # of the two reduces to zero and is not stored.
        reducer = UnitReducer()
        assert reducer.add({0: 2, 1: 1}) and reducer.add({0: 1, 2: 3})
        assert not reducer.add({0: 3, 1: 1, 2: 3})
        assert reducer.reduce({0: 2, 1: 2, 2: -6}) == {}
        assert reducer.nnz == reducer.peak_nnz == 4
        assert reducer.finish() == ([(1, 1, {2: -6}), (0, 1, {2: 3})], [])


class TestCokernelTorsion:
    def test_diag(self):
        assert cokernel_torsion(from_dense([[2, 0], [0, 1]])) == [2]
        assert cokernel_torsion(from_dense([[1, 0], [0, 1]])) == []

    def test_z4_presentation(self):
        # One relation 4x = 0 hidden behind unit-pivot rows.
        m = from_dense([
            [1, 0, 2],
            [0, 1, -1],
            [2, 3, 5],
        ])
        assert cokernel_torsion(m) == [4]
        assert [v for v in sympy_factors([[1, 0, 2], [0, 1, -1],
                                          [2, 3, 5]]) if v > 1] == [4]

    @BOTH_PATHS
    def test_negated_copies_keep_torsion(self, reduce_rows):
        # A row and its negative span the same lattice, so appending
        # negated and repeated copies of some rows leaves the cokernel
        # alone, and so does Smith-reducing each row once up to sign.
        rng = random.Random(47)
        for _ in range(40):
            n, m = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0
                     for _ in range(m)] for _ in range(n)]
            doubled = rows + [[-v for v in row] for row in rows
                              if rng.random() < 0.6]
            want = [v for v in sympy_factors(rows) if v > 1]
            assert torsion(reduce_rows(doubled)[1]) == want, doubled
            assert [v for v in sympy_factors(doubled) if v > 1] == want
            doubled += [row for row in doubled if rng.random() < 0.5]
            rng.shuffle(doubled)
            assert torsion(from_dense(doubled)) == want, doubled
            assert [v for v in smith_invariant_factors(doubled)
                    if v > 1] == want

    @pytest.mark.parametrize("shape", [(2, 0, 2), (3, 0, 2), (2, 0, 3),
                                       (2, 1, 3)],
                             ids=lambda s: "Z{}-p{}-d{}".format(*s))
    def test_pinned_residuals_match_the_full_smith(self, shape):
        # The residual holds each row once up to sign, and its torsion
        # is that of all the identity rows.
        model = build_model(*shape)
        _, residual, _ = classify(model, 3)
        rows = list(residual.rows.values())
        assert len({fingerprint(row) for row in rows}) == len(rows)
        batch = identity_matrix(model, 3)
        batch.eliminate()
        assert torsion(residual) == torsion(batch)

    def test_free_cokernel(self):
        assert cokernel_torsion(from_dense([[2, 4]])) == [2]
        assert cokernel_torsion(from_dense([[1, 4]])) == []
