"""Exact integer matrices: sparse unit-pivot elimination and Smith form.

The sparse matrix takes rows as dicts keyed by arbitrary hashable
columns, and keys every table by the columns it is given.  Elimination
repeatedly picks a +-1 entry, clears its column with that row, and
drops both the row and the column; this splits off a trivial cyclic
factor each time, so the invariant factors greater than one of the
cokernel are preserved.  Each pivot lists its row's items once and
clears every other row of its column with them in one loop.  The
dense Smith routine reads the invariant factors off ``classify``'s
residual (a ``UnitReducer``'s, which holds each row once up to sign).

Pivots follow the Markowitz rule (Markowitz 1957): a +-1 entry costs
(length of its row - 1) * (nonzeros in its column - 1), a bound on the
fill-in it causes, and the cheapest is taken.  Ties go to the column
that entered the matrix first (a column that empties and comes back
counts as new), then, within it, to the least row id.  Nothing else in
elimination depends on iteration order, so a copy eliminates exactly
as its original does.

While it eliminates, the matrix keeps one number per column: a lower
bound on the length of the shortest row holding a +-1 there.  A bound
drops only when such a row shrinks or a row gains a unit; rows that
grow or leave can only raise the least length, so a bound may fall
behind but never exceeds it.  The picker skips a column whose bound
cost is already no better than the best so far (it cannot win
outright, and ties go to the earlier column); any other column it
scans for its exact least length, which it stores back as the bound.
A pivot drops its own column once, since every row loses its entry
there.  Per-column sets of unit rows would spare the scan, but every
entry that becomes or stops being a unit would have to update them;
on the legality scan, batch elimination's one use outside the tests,
that costs more than the scans it saves.

``UnitReducer`` is the streaming counterpart: rows arrive one at a
time and are reduced against fully reduced unit pivot rows, so a row
already in the span is found, and dropped, when it arrives: it reduces
to zero or onto a residual row held already, up to sign (see
``fingerprint``), so the residual holds each row once.  It splits off
the same trivial factors and gives the same torsion and rank as
``SparseIntMatrix.eliminate``, whose pivot order it does not follow.
It trades memory for that: fully reduced pivot rows fill in.
"""

from __future__ import annotations

from math import gcd
from typing import Hashable, Iterable, Mapping


#: The least-length bound of a column with no +-1: longer than any row.
_NO_UNIT = 1 << 62


def fingerprint(row: Mapping) -> tuple:
    """A nonzero row's sorted columns and their values, negated if
    needed so that the first value is positive: equal for a row and its
    negative, and for no other pair of rows.

    It builds no tuple per entry: sorting ``row.items()`` instead took
    a ``UnitReducer`` run on the membrane model (2, 2, 4) at depth 3
    from 120 garbage collections to 615.

    >>> fingerprint({3: -2, 1: -1}) == fingerprint({1: 1, 3: 2})
    True
    >>> fingerprint({3: -2, 1: -1})
    ((1, 3), (1, 2))
    """
    columns = sorted(row)
    values = [row[c] for c in columns]
    if values[0] < 0:
        values = [-v for v in values]
    return tuple(columns), tuple(values)


class SparseIntMatrix:
    """A sparse integer matrix over hashable columns.

    >>> m = SparseIntMatrix([{"x": 1, "y": 2}, {"y": 4}])
    >>> m.shape
    (2, 2)
    >>> m.rows
    {1: {'x': 1, 'y': 2}, 2: {'y': 4}}
    """

    __slots__ = ("_rows", "_col_rows", "_low", "_next_id")

    def __init__(self, rows: Iterable[Mapping[Hashable, int]] = ()):
        # Row id -> {column: value}; column -> ids of its rows.
        self._rows: dict[int, dict[Hashable, int]] = {}
        self._col_rows: dict[Hashable, set[int]] = {}
        # While eliminating, by column: a lower bound on the length of
        # its shortest row with a +-1 there.
        self._low: dict[Hashable, int] = {}
        self._next_id = 1
        for row in rows:
            self.add_row(row)

    def add_row(self, row: Mapping[Hashable, int]) -> None:
        entries = {c: int(v) for c, v in row.items() if v}
        if not entries:
            return
        rid = self._next_id
        self._next_id += 1
        self._rows[rid] = entries
        for c in entries:
            self._col_rows.setdefault(c, set()).add(rid)

    @property
    def rows(self) -> dict[int, dict]:
        """The rows by row id, keyed by column (a fresh copy)."""
        return {rid: dict(row) for rid, row in self._rows.items()}

    @property
    def shape(self) -> tuple[int, int]:
        return len(self._rows), len(self._col_rows)

    def columns(self):
        return set(self._col_rows)

    def copy(self) -> "SparseIntMatrix":
        out = SparseIntMatrix()
        out._rows = {rid: dict(row) for rid, row in self._rows.items()}
        out._col_rows = {c: set(rids) for c, rids in self._col_rows.items()}
        out._next_id = self._next_id
        return out

    def _remove_row(self, rid: int) -> None:
        col_rows = self._col_rows
        for c in self._rows.pop(rid):
            rids = col_rows[c]
            rids.discard(rid)
            if not rids:
                del col_rows[c]

    def _pick_pivot(self, allowed=None):
        """The unit entry of least Markowitz cost, as (row id, column).

        Ties go to the first column in ``_col_rows`` order, then to the
        least row id in it.  Returns None when no allowed column (a set
        of columns, or None for all) holds a +-1.
        """
        rows, low = self._rows, self._low
        best = None
        # No entry costs as much as rows * columns.
        best_cost = len(rows) * len(self._col_rows)
        for c, rids in self._col_rows.items():
            if allowed is not None and c not in allowed:
                continue
            others = len(rids) - 1
            if (low[c] - 1) * others >= best_cost:
                continue
            # A unit row as short as the bound ends the scan early.
            length, floor = _NO_UNIT, low[c]
            for r in rids:
                row = rows[r]
                v = row[c]
                if (v == 1 or v == -1) and len(row) < length:
                    length = len(row)
                    if length == floor:
                        break
            low[c] = length
            if length == _NO_UNIT:
                continue
            cost = (length - 1) * others
            if cost < best_cost:
                best, best_cost, best_length = c, cost, length
                if cost == 0:
                    break
        if best is None:
            return None
        rid = min(r for r in self._col_rows[best]
                  if len(rows[r]) == best_length and abs(rows[r][best]) == 1)
        return rid, best

    def eliminate(self, allowed_cols=None) -> list:
        """Pivot away unit entries; returns the elimination log.

        Each log entry is (column, pivot_sign, pivot_row_dict): the row
        (as stored at removal time) expresses the removed column in
        terms of the surviving ones, which is enough to lift solutions
        back through the elimination.  With ``allowed_cols`` given,
        only pivots in those columns are taken (the remaining matrix
        may then still contain unit entries elsewhere); columns the
        matrix never had are ignored.
        """
        rows, col_rows = self._rows, self._col_rows
        # 0 bounds every length: each column is scanned when first met.
        low = self._low = dict.fromkeys(col_rows, 0)
        log = []
        while True:
            pick = self._pick_pivot(allowed_cols)
            if pick is None:
                self._low = {}
                return log
            rid, c = pick
            pivot_row = rows[rid]
            pivot_val = pivot_row.pop(c)
            pivot_items = list(pivot_row.items())
            for other in col_rows.pop(c):
                if other == rid:
                    continue
                # Clear column c of this row with the pivot row.  The
                # pivot row stays in every one of its columns until it
                # is removed, so none of them can leave col_rows here.
                row = rows[other]
                before = len(row)
                factor = -row.pop(c) * pivot_val  # pivot_val is +-1
                gained = []
                for k, v in pivot_items:
                    old = row.get(k, 0)
                    new = old + factor * v
                    if new:
                        if not old:
                            col_rows[k].add(other)
                        row[k] = new
                        if (new == 1 or new == -1) \
                                and not (old == 1 or old == -1):
                            gained.append(k)
                    else:
                        del row[k]
                        col_rows[k].discard(other)
                after = len(row)
                if not after:
                    del rows[other]
                    continue
                # A bound need only drop to this row's length where the
                # row holds a unit and either shrank or newly holds it.
                if after < before:
                    gained = [k for k, v in row.items() if v == 1 or v == -1]
                for k in gained:
                    if low[k] > after:
                        low[k] = after
            self._remove_row(rid)
            # The recorded row maps the pivot column to survivors only.
            log.append((c, pivot_val, pivot_row))

    def to_dense(self):
        """(matrix as list of lists, its columns in first-seen order)."""
        order = list(self._col_rows)
        position = {c: i for i, c in enumerate(order)}
        dense = []
        for rid in sorted(self._rows):
            vec = [0] * len(order)
            for c, v in self._rows[rid].items():
                vec[position[c]] = v
            dense.append(vec)
        return dense, order

    def __repr__(self):
        r, c = self.shape
        return f"<SparseIntMatrix {r}x{c}>"


class UnitReducer:
    """Streaming unit-pivot reduction of a growing row lattice.

    Two kinds of row are stored.  A pivot row holds +-1 in its own
    column and no other row's pivot column, so each pivot column
    appears in its own row alone.  A residual row holds no +-1 entry
    and no pivot column, and no two residual rows are equal up to sign
    (their ``fingerprint``s, which need mutually ordered columns, tell).
    ``add`` first reduces a row by substituting the pivot row of each
    pivot column it holds.  The reduced row then vanishes, repeats a
    residual row up to sign and is dropped, joins the residual, or
    becomes a pivot row on the +-1 entry whose column the fewest
    stored rows hold.  Ties go to the last such entry in the row's
    order: on the identity rows of the Z2 membrane model (N, p, d) =
    (2, 2, 4) at depth 3, the first instead took 7975 pivots, not
    7984, and left a residual whose dense Smith took over two minutes,
    not one second.  A new pivot row is substituted into every stored
    row holding its column.  A residual row changed that way leaves
    the residual if it vanishes or now repeats another residual row;
    if it gains a +-1, it is added again, reduced afresh against every
    pivot taken meanwhile.

    Each step adds an integer multiple of one row to another, or drops
    a zero row or a row equal up to sign to another stored row, so the
    stored rows span the lattice of the rows added.  The cokernel's
    torsion is the residual's, and the lattice's rank is the pivots
    plus the residual's rank.  Keeping pivot rows fully reduced costs
    fill-in: the stored rows can hold far more nonzeros than the log
    of a batch ``SparseIntMatrix.eliminate`` of the same rows.  ``nnz``
    counts the nonzeros held and ``peak_nnz`` the most held after any
    ``add``.

    >>> r = UnitReducer()
    >>> r.add({"x": 1, "y": 2}), r.add({"x": 3, "y": 2})
    (True, True)
    >>> r.add({"x": 2, "y": 4})  # twice the first row
    False
    >>> row = {"x": 2, "y": 8}  # the residual row {'y': -4}, negated
    >>> r.add(row), row
    (False, {'y': 4})
    >>> r.finish()
    ([('x', 1, {'y': 2})], [{'y': -4}])
    """

    __slots__ = ("_rows", "_pivot", "_residual", "_keys", "_held", "_seen",
                 "_next_id", "nnz", "peak_nnz")

    def __init__(self):
        # Row id -> {column: value}; pivot column -> its row's id;
        # residual row id -> its fingerprint (a dict, for its order),
        # and back.
        self._rows: dict[int, dict] = {}
        self._pivot: dict[Hashable, int] = {}
        self._residual: dict[int, tuple] = {}
        self._keys: dict[tuple, int] = {}
        # By column that is no pivot: how many stored rows hold it, and
        # the ids of every row that came to hold it, a list only ever
        # appended to (so it may name rows that have let it go since).
        # Sets in their place raised the peak RSS of the membrane model
        # (2, 2, 4) at depth 3 by about a third.
        self._held: dict[Hashable, int] = {}
        self._seen: dict[Hashable, list[int]] = {}
        self._next_id = 1
        self.nnz = 0
        self.peak_nnz = 0

    def reduce(self, row: dict) -> dict:
        """Substitute pivot rows into ``row``, in place, until it holds
        no pivot column; returns ``row``."""
        pivot, rows, get = self._pivot, self._rows, row.get
        # A pivot row holds no other pivot column, so one pass will do.
        for c in [c for c in row if c in pivot]:
            pivot_row = rows[pivot[c]]
            factor = -row[c] * pivot_row[c]  # pivot_row[c] is +-1
            for k, v in pivot_row.items():
                new = get(k, 0) + factor * v
                if new:
                    row[k] = new
                else:
                    del row[k]
        return row

    def add(self, row: dict) -> bool:
        """Reduce ``row`` (in place) and store what is left.  False
        when the row is in the span and nothing is stored: it reduced
        to zero (``row`` is left empty) or onto a residual row held
        already, up to sign (``row`` is left as that row or its
        negative)."""
        pending = []
        if not self._place(self.reduce(row), pending):
            return False
        while pending:
            # A row re-queued by a back-substitution may hold pivot
            # columns taken since it left the residual.
            self._place(self.reduce(pending.pop()), pending)
        self.peak_nnz = max(self.peak_nnz, self.nnz)
        return True

    def _place(self, row: dict, pending: list) -> bool:
        """Store a reduced row; False, storing nothing, when it is zero
        or repeats a residual row up to sign."""
        if not row:
            return False
        units = [c for c, v in row.items() if v == 1 or v == -1]
        keys, residual = self._keys, self._residual
        if not units:
            key = fingerprint(row)
            if key in keys:
                return False
        rows, held, seen = self._rows, self._held, self._seen
        rid = self._next_id
        self._next_id += 1
        rows[rid] = row
        self.nnz += len(row)
        for k in row:
            held[k] = held.get(k, 0) + 1
            seen.setdefault(k, []).append(rid)
        if not units:
            residual[rid] = key
            keys[key] = rid
            return True
        c = min(reversed(units), key=held.__getitem__)
        # No row will hold c again but this one: every other stored row
        # loses it below, and rows are reduced before they are stored.
        del held[c]
        holders = dict.fromkeys(r for r in seen.pop(c)
                                if r != rid and c in rows.get(r, ()))
        self._pivot[c] = rid
        sign = row[c]
        items = [(k, v) for k, v in row.items() if k != c]
        for other_id in holders:
            other = rows[other_id]
            get = other.get
            before = len(other)
            factor = -other.pop(c) * sign
            for k, v in items:
                old = get(k, 0)
                new = old + factor * v
                if new:
                    other[k] = new
                    if not old:
                        held[k] += 1
                        seen[k].append(other_id)
                else:
                    del other[k]
                    held[k] -= 1
            self.nnz += len(other) - before
            if other_id not in residual:
                continue
            del keys[residual[other_id]]
            gained = any(v == 1 or v == -1 for v in other.values())
            if other and not gained:
                key = fingerprint(other)
                if key not in keys:
                    residual[other_id] = key
                    keys[key] = other_id
                    continue
            # The row vanished, repeats a residual row up to sign, or
            # holds a +-1 and is added again.
            del rows[other_id], residual[other_id]
            self.nnz -= len(other)
            for k in other:
                held[k] -= 1
            if gained:
                pending.append(other)
        return True

    def finish(self) -> tuple[list, list[dict]]:
        """(log, residual rows), and the reducer is emptied.

        Each log entry is (column, pivot sign, pivot row without its
        column), in the order the pivots were taken; the residual rows
        come in the order they were stored.  The entries reuse the
        stored rows, so nothing is copied.
        """
        rows = self._rows
        log = [(c, rows[rid].pop(c), rows[rid])
               for c, rid in self._pivot.items()]
        residual = [rows[rid] for rid in self._residual]
        self.__init__()
        return log, residual


def smith_invariant_factors(matrix) -> list[int]:
    """Nonzero diagonal of the Smith normal form, divisibility-ordered.

    Dense, exact and cubic, meant for small matrices.  Pivots of least
    absolute value diagonalize the matrix, and each diagonal pair is
    then exchanged for its (gcd, lcm), as diag(a, b) ~ diag(gcd, lcm)
    (Newman, *Integral Matrices*, 1972, ch. II).

    >>> smith_invariant_factors([[2, 0], [0, 3]])
    [1, 6]
    >>> smith_invariant_factors([[4, 0], [0, 0]])
    [4]
    """
    a = [list(map(int, row)) for row in matrix]
    if not a or not a[0]:
        return []
    if any(len(row) != len(a[0]) for row in a):
        raise ValueError("ragged matrix")
    diag = []
    while a and a[0]:
        least = 0
        for r, row in enumerate(a):
            for c, v in enumerate(row):
                if v and (not least or -least < v < least):
                    least, i, j = abs(v), r, c
        if not least:
            break
        # Clear the pivot's column with its row and its row with its
        # column; a nonzero remainder is smaller, so it is the next pivot.
        while True:
            pivot = a[i]
            for r, row in enumerate(a):
                if row[j] and r != i:
                    q = row[j] // pivot[j]
                    row[:] = [x - q * y for x, y in zip(row, pivot)]
                    if row[j]:
                        i = r
                        break
            else:
                # The column is clear, so a column operation changes
                # only the pivot row: each entry becomes its remainder.
                for c, v in enumerate(pivot):
                    if v and c != j:
                        pivot[c] = v % pivot[j]
                        if pivot[c]:
                            j = c
                            break
                else:
                    break
        diag.append(abs(a[i][j]))
        del a[i]
        for row in a:
            del row[j]
    for i in range(len(diag)):
        for k in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[k])
            diag[i], diag[k] = g, diag[i] * diag[k] // g
    return diag
