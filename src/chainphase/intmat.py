"""Exact integer matrices: sparse unit-pivot elimination and Smith form.

The sparse matrix takes rows as dicts keyed by arbitrary hashable
column labels, which lets callers index columns by domain objects
(e.g. generator/configuration pairs) instead of integers.  Elimination
repeatedly picks a +-1 entry, clears its column with that row, and
drops both the row and the column; this splits off a trivial cyclic
factor each time, so the invariant factors greater than one of the
cokernel are preserved.  The dense Smith routine is the brute-force
oracle used on small residuals and in randomized cross-checks.

Column labels are interned: ``add_row`` gives each new label the next
dense int, in first-seen order, and every internal table is keyed by
those ints, so the row arithmetic hashes small ints rather than nested
label tuples.  Labels come back only at the boundary: the ``rows``
view, ``columns()``, ``allowed_cols``, the elimination log and
``to_dense``.  Since ints are handed out in label order, every order
below is the same whether read in ints or in labels.

Pivots follow the Markowitz rule (Markowitz 1957): a +-1 entry costs
(length of its row - 1) * (nonzeros in its column - 1), a bound on the
fill-in it causes, and the cheapest is taken.  Ties go to the first
entry in scan order, which is columns in the order they entered the
matrix (a column that empties and comes back counts as new), then the
column's rows in the iteration order of its row-id set.  The matrix
keeps, per column, how many of its +-1 entries sit in rows of each
length, so a column's least cost is read off without visiting a row;
only the winning column's rows are walked to find the entry.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping


class SparseIntMatrix:
    """A sparse integer matrix over hashable column labels.

    >>> m = SparseIntMatrix([{"x": 1, "y": 2}, {"y": 4}])
    >>> m.shape
    (2, 2)
    >>> m.rows
    {1: {'x': 1, 'y': 2}, 2: {'y': 4}}
    """

    __slots__ = ("_rows", "_col_rows", "_units", "_next_id", "_labels",
                 "_index")

    def __init__(self, rows: Iterable[Mapping[Hashable, int]] = ()):
        # Row id -> {column id: value}; column id -> label and back.
        self._rows: dict[int, dict[int, int]] = {}
        self._col_rows: dict[int, set[int]] = {}
        # column -> {length of a row with a +-1 there: how many such rows}
        self._units: dict[int, dict[int, int]] = {}
        self._next_id = 1
        self._labels: list = []
        self._index: dict[Hashable, int] = {}
        for row in rows:
            self.add_row(row)

    def add_row(self, row: Mapping[Hashable, int]) -> None:
        index, labels = self._index, self._labels
        entries = {}
        for label, v in row.items():
            if v:
                c = index.get(label)
                if c is None:
                    c = index[label] = len(labels)
                    labels.append(label)
                entries[c] = int(v)
        if not entries:
            return
        rid = self._next_id
        self._next_id += 1
        self._rows[rid] = entries
        for c in entries:
            self._col_rows.setdefault(c, set()).add(rid)
            self._units.setdefault(c, {})
        self._tally(entries, 1)

    @property
    def rows(self) -> dict[int, dict]:
        """The rows by row id, keyed by column label (a fresh copy)."""
        labels = self._labels
        return {rid: {labels[c]: v for c, v in row.items()}
                for rid, row in self._rows.items()}

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), len(self._col_rows)

    def columns(self):
        labels = self._labels
        return {labels[c] for c in self._col_rows}

    def copy(self) -> "SparseIntMatrix":
        out = SparseIntMatrix()
        out._rows = {rid: dict(row) for rid, row in self._rows.items()}
        out._col_rows = {c: set(rids) for c, rids in self._col_rows.items()}
        out._units = {c: dict(by_len) for c, by_len in self._units.items()}
        out._next_id = self._next_id
        out._labels = list(self._labels)
        out._index = dict(self._index)
        return out

    def _tally(self, row: dict, step: int) -> None:
        """Add ``step`` to the unit counts of each +-1 entry of ``row``."""
        length = len(row)
        units = self._units
        for c, v in row.items():
            if v == 1 or v == -1:
                by_len = units[c]
                n = by_len.get(length, 0) + step
                if n:
                    by_len[length] = n
                else:
                    del by_len[length]

    def _remove_row(self, rid: int) -> dict:
        row = self._rows.pop(rid)
        self._tally(row, -1)
        for c in row:
            rids = self._col_rows[c]
            rids.discard(rid)
            if not rids:
                del self._col_rows[c]
        return row

    def _add_multiple(self, rid: int, pivot_row: dict, factor: int) -> None:
        row = self._rows[rid]
        before = len(row)
        units = self._units
        # The pivot row stays in every one of its columns until it is
        # removed, so none of them can disappear from _col_rows here.
        for c, v in pivot_row.items():
            old = row.get(c, 0)
            new = old + factor * v
            if old == 1 or old == -1:
                by_len = units[c]
                n = by_len[before] - 1
                if n:
                    by_len[before] = n
                else:
                    del by_len[before]
            if new:
                if not old:
                    self._col_rows[c].add(rid)
                row[c] = new
            elif old:
                del row[c]
                rids = self._col_rows[c]
                rids.discard(rid)
                if not rids:
                    del self._col_rows[c]
        if not row:
            del self._rows[rid]
            return
        # The pivot row's columns were uncounted above; a unit elsewhere
        # moves only when the row's length changed.
        after = len(row)
        for c, v in row.items():
            if v == 1 or v == -1:
                by_len = units[c]
                if c in pivot_row:
                    by_len[after] = by_len.get(after, 0) + 1
                elif after != before:
                    n = by_len[before] - 1
                    if n:
                        by_len[before] = n
                    else:
                        del by_len[before]
                    by_len[after] = by_len.get(after, 0) + 1

    def _pick_pivot(self, allowed=None):
        """The unit entry of least Markowitz cost, as (row id, column).

        Ties go to the first entry in scan order: columns in
        ``_col_rows`` order, then each column's rows in set order.
        Returns None when no allowed column (a set of column ids, or
        None for all) holds a +-1.
        """
        best = None
        units = self._units
        for c, rids in self._col_rows.items():
            if allowed is not None and c not in allowed:
                continue
            by_len = units[c]
            if not by_len:
                continue
            length = min(by_len)
            cost = (length - 1) * (len(rids) - 1)
            if best is None or cost < best_cost:
                best, best_cost, best_length = c, cost, length
                if cost == 0:
                    break
        if best is None:
            return None
        for rid in self._col_rows[best]:
            row = self._rows[rid]
            if len(row) == best_length and abs(row[best]) == 1:
                return rid, best

    def eliminate(self, allowed_cols=None) -> list:
        """Pivot away unit entries; returns the elimination log.

        Each log entry is (column, pivot_sign, pivot_row_dict): the row
        (as stored at removal time) expresses the removed column in
        terms of the surviving ones, which is enough to lift solutions
        back through the elimination.  With ``allowed_cols`` given,
        only pivots in those columns are taken (the remaining matrix
        may then still contain unit entries elsewhere); labels the
        matrix never had are ignored.
        """
        index, labels = self._index, self._labels
        allowed = None if allowed_cols is None else {
            index[label] for label in allowed_cols if label in index}
        log = []
        while True:
            pick = self._pick_pivot(allowed)
            if pick is None:
                return log
            rid, c = pick
            pivot_row = dict(self._rows[rid])
            pivot_val = pivot_row[c]
            for other in list(self._col_rows.get(c, ())):
                if other == rid:
                    continue
                factor = -self._rows[other][c] * pivot_val  # pivot_val in {1,-1}
                self._add_multiple(other, pivot_row, factor)
            self._remove_row(rid)
            # The pivot column is gone from every row now; drop it from
            # the recorded row too so the log maps it to survivors only.
            log.append((labels[c], pivot_val,
                        {labels[k]: v for k, v in pivot_row.items()
                         if k != c}))

    def to_dense(self):
        """(matrix as list of lists, ordered column labels)."""
        labels = self._labels
        order = sorted(self._col_rows, key=lambda c: repr(labels[c]))
        position = {c: i for i, c in enumerate(order)}
        dense = []
        for rid in sorted(self._rows):
            vec = [0] * len(order)
            for c, v in self._rows[rid].items():
                vec[position[c]] = v
            dense.append(vec)
        return dense, [labels[c] for c in order]

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

