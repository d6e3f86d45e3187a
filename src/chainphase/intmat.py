"""Exact integer matrices: sparse unit-pivot elimination and Smith form.

The sparse matrix stores rows as dicts keyed by arbitrary hashable
column labels, which lets callers index columns by domain objects
(e.g. generator/configuration pairs) instead of integers.  Elimination
repeatedly picks a +-1 entry, clears its column with that row, and
drops both the row and the column; this splits off a trivial cyclic
factor each time, so the invariant factors greater than one of the
cokernel are preserved.  The dense Smith routine is the brute-force
oracle used on small residuals and in randomized cross-checks.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping


class SparseIntMatrix:
    """A sparse integer matrix over hashable column labels.

    >>> m = SparseIntMatrix([{"x": 1, "y": 2}, {"y": 4}])
    >>> m.shape
    (2, 2)
    """

    __slots__ = ("rows", "_col_rows")

    def __init__(self, rows: Iterable[Mapping[Hashable, int]] = ()):
        self.rows: dict[int, dict] = {}
        self._col_rows: dict[Hashable, set[int]] = {}
        for row in rows:
            self.add_row(row)

    def add_row(self, row: Mapping[Hashable, int]) -> None:
        entries = {c: int(v) for c, v in row.items() if v}
        if not entries:
            return
        rid = len(self.rows) + 1 if not self.rows else max(self.rows) + 1
        self.rows[rid] = entries
        for c in entries:
            self._col_rows.setdefault(c, set()).add(rid)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self._col_rows)

    def columns(self):
        return set(self._col_rows)

    def copy(self) -> "SparseIntMatrix":
        out = SparseIntMatrix()
        out.rows = {rid: dict(row) for rid, row in self.rows.items()}
        out._col_rows = {c: set(rids) for c, rids in self._col_rows.items()}
        return out

    def _remove_row(self, rid: int) -> dict:
        row = self.rows.pop(rid)
        for c in row:
            rids = self._col_rows[c]
            rids.discard(rid)
            if not rids:
                del self._col_rows[c]
        return row

    def _add_multiple(self, rid: int, pivot_row: dict, factor: int) -> None:
        row = self.rows[rid]
        for c, v in pivot_row.items():
            new = row.get(c, 0) + factor * v
            if new:
                if c not in row:
                    self._col_rows.setdefault(c, set()).add(rid)
                row[c] = new
            elif c in row:
                del row[c]
                rids = self._col_rows[c]
                rids.discard(rid)
                if not rids:
                    del self._col_rows[c]
        if not row:
            self._remove_row(rid)

    def _pick_pivot(self, allowed_cols=None):
        """Unit entry minimizing estimated fill-in, or None."""
        best = None
        best_cost = None
        for c, rids in self._col_rows.items():
            if allowed_cols is not None and c not in allowed_cols:
                continue
            col_nnz = len(rids)
            for rid in rids:
                if abs(self.rows[rid][c]) != 1:
                    continue
                cost = (len(self.rows[rid]) - 1) * (col_nnz - 1)
                if best_cost is None or cost < best_cost:
                    best, best_cost = (rid, c), cost
                    if cost == 0:
                        return best
        return best

    def eliminate(self, allowed_cols=None) -> list:
        """Pivot away unit entries; returns the elimination log.

        Each log entry is (column, pivot_sign, pivot_row_dict): the row
        (as stored at removal time) expresses the removed column in
        terms of the surviving ones, which is enough to lift solutions
        back through the elimination.  With ``allowed_cols`` given,
        only pivots in those columns are taken (the remaining matrix
        may then still contain unit entries elsewhere).
        """
        log = []
        while True:
            pick = self._pick_pivot(allowed_cols)
            if pick is None:
                return log
            rid, c = pick
            pivot_row = dict(self.rows[rid])
            pivot_val = pivot_row[c]
            for other in list(self._col_rows.get(c, ())):
                if other == rid:
                    continue
                factor = -self.rows[other][c] * pivot_val  # pivot_val in {1,-1}
                self._add_multiple(other, pivot_row, factor)
            self._remove_row(rid)
            # The pivot column is gone from every row now; drop it from
            # the recorded row too so the log maps it to survivors only.
            log.append((c, pivot_val,
                        {k: v for k, v in pivot_row.items() if k != c}))

    def to_dense(self):
        """(matrix as list of lists, ordered column labels)."""
        cols = sorted(self._col_rows, key=repr)
        index = {c: i for i, c in enumerate(cols)}
        dense = []
        for rid in sorted(self.rows):
            vec = [0] * len(cols)
            for c, v in self.rows[rid].items():
                vec[index[c]] = v
            dense.append(vec)
        return dense, cols

    def __repr__(self):
        r, c = self.shape
        return f"<SparseIntMatrix {r}x{c}>"


def smith_invariant_factors(matrix) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered.

    Dense, exact, and cubic -- meant for small matrices and as an
    oracle for the sparse path.

    >>> smith_invariant_factors([[2, 0], [0, 3]])
    [1, 6]
    >>> smith_invariant_factors([[4, 0], [0, 0]])
    [4]
    """
    a = [list(map(int, row)) for row in matrix]
    if not a or not a[0]:
        return []
    nrows, ncols = len(a), len(a[0])
    if any(len(row) != ncols for row in a):
        raise ValueError("ragged matrix")
    factors = []
    top = 0
    while True:
        pivot = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if a[i][j] and (pivot is None
                                or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        a[top], a[i] = a[i], a[top]
        for row in a:
            row[top], row[j] = row[j], row[top]
        # Reduce the cross through the pivot until it divides everything
        # it meets; each pass strictly shrinks |pivot|, so this halts.
        while True:
            p = a[top][top]
            dirty = False
            for i in range(top + 1, nrows):
                if a[i][top]:
                    q = a[i][top] // p
                    for j in range(top, ncols):
                        a[i][j] -= q * a[top][j]
                    if a[i][top]:
                        a[top], a[i] = a[i], a[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(top + 1, ncols):
                if a[top][j]:
                    q = a[top][j] // p
                    for row in a:
                        row[j] -= q * row[top]
                    if a[top][j]:
                        for row in a:
                            row[top], row[j] = row[j], row[top]
                        dirty = True
                        break
            if dirty:
                continue
            # Cross is clear; enforce divisibility against the rest.
            offender = None
            for i in range(top + 1, nrows):
                for j in range(top + 1, ncols):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(top, ncols):
                a[top][j] += a[offender][j]
        factors.append(abs(a[top][top]))
        top += 1
        if top >= nrows or top >= ncols:
            break
    return factors

