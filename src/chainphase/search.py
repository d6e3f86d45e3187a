"""Search for statistical processes via expression-group linear algebra.

An excitation model fixes a fusion modulus N, an excitation dimension
p, and a space dimension d.  Configurations form the finite group of
p-boundaries of the (d+1)-simplex boundary with mod-N coefficients;
generators are the (p+1)-simplices, each moving a configuration by its
chain boundary.  Phase measurements live in the free abelian group E
over (generator, configuration) pairs; nested commutators of
generators with empty common vertex support expand to expressions that
every realization maps to zero, and the torsion of E modulo those
identities classifies the nontrivial statistical processes.
Configurations are numbered by their base-N digits on the p-cells that
miss vertex 0 (see ``build_model``), so steps, translations and the
bridges of ``reconstruct_process`` are digit arithmetic, not searches.
``classify`` streams each identity word's translation orbit through an
incremental unit-pivot reducer and builds no identity matrix; the
legality scan eliminates the whole ``identity_matrix`` in batch.

The membrane-scale run (d=4 with sign-function legality lifting) is a
resumable batch job, far beyond test budgets; see ``legality_search``.
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import Counter
from functools import partial
from itertools import chain, combinations
from pathlib import Path

from .intmat import (SparseIntMatrix, UnitReducer, fingerprint,
                     smith_invariant_factors)
from .process import walk
from .simplicial import Chain, simplex_faces

VACUUM_KEY = ()


class ExcitationModel:
    """Finite configuration space of closed p-excitations on del Delta_{d+1}.

    Attributes: ``modulus`` (fusion group Z_N), ``p``, ``d``,
    ``generators`` (the (p+1)-simplices, ascending), ``configurations``
    (every p-boundary, as canonical state keys, by number), ``terms``
    (term number -> (generator, configuration key)).  A configuration
    is fixed by its values on the p-cells that miss vertex 0, and
    configuration n is the one whose values there are n's base-N
    digits, the i-th such cell in ``combinations`` order holding place
    N^i; the vacuum is number 0.  The model is built from ``table``,
    where ``table[sign][g][n]`` is the number a step (sign +-1,
    generator number g) leaves at configuration n; ``step`` and the
    expansion of words read it.  The term theta(s, a)
    is numbered s's number * |A| + a's number, and identity rows and
    matrix columns are keyed by it.

    >>> m = build_model(2, 0, 2)
    >>> m.configurations[5]  # digits 1, 0, 1 on the vertices 1, 2, 3
    (((1,), 1), ((3,), 1))
    >>> list(gen_identities(m)[0].items())[:2]
    [(1, -1), (47, -1)]
    >>> m.terms[47] == (m.generators[5], m.configurations[7])
    True
    >>> m.terms[47]
    ((2, 3), (((0,), 1), ((1,), 1), ((2,), 1), ((3,), 1)))
    """

    __slots__ = ("modulus", "p", "d", "generators", "configurations",
                 "terms", "_number", "_gen_number", "_table")

    def __init__(self, modulus, p, d, generators, configurations, table):
        self.modulus = modulus
        self.p = p
        self.d = d
        self.generators = generators
        self.configurations = configurations
        self._number = {key: i for i, key in enumerate(configurations)}
        self._gen_number = {s: g for g, s in enumerate(generators)}
        self._table = table
        self.terms = tuple((s, a) for s in generators
                           for a in configurations)

    def step(self, key, sign, s):
        """The configuration key a step (sign +-1, generator s) leaves
        at ``key``: the table form of adding sign times the chain
        boundary of s to the configuration.

        >>> m = build_model(2, 0, 2)
        >>> a, s = m.configurations[3], m.generators[0]
        >>> m.step(a, 1, s)
        (((0,), 1), ((2,), 1))
        >>> m.step(m.step(a, 1, s), -1, s) == a
        True
        """
        targets = self._table[sign][self._gen_number[s]]
        return self.configurations[targets[self._number[key]]]

    def is_configuration(self, key) -> bool:
        return key in self._number

    def __repr__(self):
        return (f"ExcitationModel(Z_{self.modulus}, p={self.p}, "
                f"d={self.d}, |S|={len(self.generators)}, "
                f"|A|={len(self.configurations)})")


def _adder(a: int, modulus: int, size: int) -> list[int]:
    """The table n -> n + a on configuration numbers below ``size``:
    base-N digits added place by place, mod N, with no carry."""
    table, place = [0], 1
    while place < size:
        digit = a // place % modulus
        shifts = [(v + digit) % modulus * place for v in range(modulus)]
        table = [x + shift for shift in shifts for x in table]
        place *= modulus
    return table


def build_model(modulus: int, p: int, d: int) -> ExcitationModel:
    """Number the excitation model for fusion group Z_N.

    The boundaries of the cells 0t, for the p-cells t that miss vertex
    0, span the configurations, and a configuration is fixed by its
    values on those t (see ``ExcitationModel``).  Configuration n is
    configuration n - N^i plus the boundary of 0t, for n's highest
    nonzero digit i and its cell t; a step by s adds each face of s
    that misses vertex 0, with its boundary sign, to that face's digit.

    >>> m = build_model(2, 0, 2)
    >>> len(m.generators), len(m.configurations)
    (6, 8)
    """
    if modulus == 0:
        raise ValueError("integer fusion group is not enumerable; run the "
                         "legality-lifting scan on its Z_2 reduction "
                         "instead (search --G Z2 --stretch-membrane)")
    if modulus < 2:
        raise ValueError("fusion modulus must be 0 or >= 2")
    if p < 0:
        raise ValueError(f"excitation dimension p must be >= 0, got {p}")
    if p + 1 > d:
        raise ValueError(f"excitation dimension {p} does not fit moving "
                         f"cells of dimension {p + 1} in dimension {d}")
    generators = list(combinations(range(d + 2), p + 2))
    place = {}
    states = [Chain(p, {}, modulus)]
    for t in combinations(range(1, d + 2), p + 1):
        # states holds the N^i configurations whose digits from i up
        # are 0, so t's place is N^i.
        place[t] = len(states)
        cone = Chain(p + 1, {(0,) + t: 1}, modulus).boundary()
        for n in range(place[t], modulus * place[t]):
            states.append(states[n - place[t]] + cone)
    size = len(states)
    table = {sign: [_adder(sum(sign * c % modulus * place[t]
                               for t, c in simplex_faces(s) if t in place),
                           modulus, size)
                    for s in generators]
             for sign in (1, -1)}
    return ExcitationModel(
        modulus, p, d, generators,
        tuple(tuple(sorted(state.items())) for state in states), table)


def _expand_numbered(word, a: int, model: ExcitationModel) -> dict:
    """``expand_theta`` on numbers: ``word`` holds (sign, generator
    number) steps, ``a`` is a configuration number, and the term
    theta(s, b) is keyed by s's number * |A| + b's number."""
    table = model._table
    size = len(model.configurations)
    expr: dict = {}
    for sign, g, acting, _ in walk(word, a,
                                   lambda b, sign, g: table[sign][g][b]):
        key = g * size + acting
        expr[key] = expr.get(key, 0) + sign
    return {k: v for k, v in expr.items() if v}


def _numbered_word(word, model: ExcitationModel) -> list:
    return [(sign, model._gen_number[s]) for sign, s in word]


def expand_theta(word, a_key, model: ExcitationModel) -> dict:
    """Expand the phase of a word at a configuration into generator terms.

    ``word`` is a sequence of (sign, generator) steps applied first to
    last.  A forward step at state a contributes +theta(s, a); an
    inverse step first moves back and contributes -theta(s, a_new).
    Returns a sparse expression {(generator, state_key): coefficient}.
    """
    if not model.is_configuration(a_key):
        raise ValueError(f"state {a_key} is not a configuration of "
                         f"{model!r}")
    expr = _expand_numbered(_numbered_word(word, model),
                            model._number[a_key], model)
    return {model.terms[k]: v for k, v in expr.items()}


def inverse_word(word):
    return tuple((-sign, s) for sign, s in reversed(word))


def commutator(word_a, word_b):
    """[a, b] = a^-1 b^-1 a b as a step word."""
    return (inverse_word(word_a) + inverse_word(word_b)
            + tuple(word_a) + tuple(word_b))


def identity_words(model: ExcitationModel, max_depth: int = 3):
    """Nested commutator words whose supports first empty out at depth <= k.

    Level 2 holds [s1, s2] for generator pairs; each level wraps one
    more distinct generator around a still-overlapping nest.  A word is
    emitted at the first level where the common intersection of all
    participating supports becomes empty (the locality axiom for that
    nest), and deeper wrapping of already-emitted nests is redundant.
    """
    if max_depth < 2:
        raise ValueError("commutators need depth >= 2")
    words = []
    pending = []
    for s1, s2 in combinations(model.generators, 2):
        word = commutator(((1, s1),), ((1, s2),))
        common = frozenset(s1) & frozenset(s2)
        if common:
            pending.append((word, common, frozenset((s1, s2))))
        else:
            words.append(word)
    depth = 3
    while depth <= max_depth and pending:
        deeper = []
        for word, common, used in pending:
            for s in model.generators:
                if s in used:
                    continue
                wrapped = commutator(word, ((1, s),))
                still = common & frozenset(s)
                if still:
                    deeper.append((wrapped, still, used | {s}))
                else:
                    words.append(wrapped)
        pending = deeper
        depth += 1
    return words


def _translate(terms, tables, a: int) -> dict:
    """A word's row at configuration a, from its vacuum row as ``terms``:
    (s's first term number, configuration number, coefficient)."""
    table = tables[a]
    return {g + table[b]: v for g, b, v in terms}


def _orbits(model: ExcitationModel, max_depth: int):
    """Each identity word's translation orbit, word by word: its row at
    the vacuum and a function a -> its row at configuration a.  Words
    with an empty expansion are left out.

    A step moves a configuration by a fixed boundary, so a word's
    expansion at a is its expansion at the vacuum translated by a,
    term by term and in the same order: each word is walked once, and
    its other rows are only translated when asked for.
    """
    size = len(model.configurations)
    tables = [_adder(a, model.modulus, size) for a in range(size)]
    for word in identity_words(model, max_depth):
        expr = _expand_numbered(_numbered_word(word, model), 0, model)
        if expr:
            terms = [(k - k % size, k % size, v) for k, v in expr.items()]
            yield expr, partial(_translate, terms, tables)


def gen_identities(model: ExcitationModel, max_depth: int = 3) -> list[dict]:
    """Identity expressions: commutator words expanded at every state.

    Every realization maps these to zero; they are the rows of the
    relation matrix whose cokernel torsion classifies processes.  Rows
    are keyed by term number (see ``ExcitationModel.terms``), word by
    word and, within a word, by configuration number (see ``_orbits``).
    Empty expansions are dropped, and so is any row equal to an earlier
    one up to sign (a row and its negative span the same lattice; see
    ``intmat.fingerprint``).  A word whose vacuum row repeats an
    earlier row is skipped whole: its translates repeat that row's
    translates.
    """
    size = len(model.configurations)
    out = []
    seen = set()
    for expr, translate in _orbits(model, max_depth):
        if fingerprint(expr) in seen:
            continue
        for row in chain((expr,), map(translate, range(1, size))):
            key = fingerprint(row)
            if key not in seen:
                seen.add(key)
                out.append(row)
    return out


def identity_matrix(model: ExcitationModel,
                    max_depth: int = 3) -> SparseIntMatrix:
    return SparseIntMatrix(gen_identities(model, max_depth))


def invariant_factors(residual: SparseIntMatrix) -> list[int]:
    """Every nonzero invariant factor of the residual's rows: those > 1
    are the torsion of the expression group modulo the identities, and
    their count is the residual's rank."""
    return smith_invariant_factors(residual.to_dense()[0])


def classify(model: ExcitationModel, max_depth: int = 3,
             stats: dict | None = None):
    """(torsion factors, residual, elimination log) for the model.

    Each identity word's translation orbit streams through one
    ``UnitReducer``; no identity matrix is built.  A word's rows go in
    by configuration number, and a run of them is skipped when its
    first row is already in the span: it reduces to zero or onto a
    residual row the reducer holds, up to sign.  When a word starts,
    each earlier word's whole orbit lies in the span, so the span is
    closed under every translation.  Configurations below N^i form a
    subgroup H, whose cosets are the runs of N^i numbers from a
    multiple of N^i.  Once the word's rows below such a start a lie in
    the span, it is closed under H as well; if the row at a lies in it
    too, so does the whole coset a + H, which is skipped.  At a = 0, H
    is the whole group: a word whose vacuum row is in the span is
    skipped whole.

    The residual is a ``SparseIntMatrix`` of the reducer's residual
    rows, each distinct up to sign, and each log entry is (column,
    pivot sign, the fully reduced pivot row without its column).

    A ``stats`` dict is filled with what the run did: the counts
    ``words`` walked, ``skipped`` (whole), ``translates`` reduced,
    ``vanished`` (translates that reduced to zero), ``repeated``
    (translates that reduced onto a held residual row), ``pivots``,
    ``residual_shape``, ``peak_nnz`` (the most nonzeros the reducer
    held), ``rank`` (pivots plus the residual's Smith rank), and the
    seconds ``walk_s`` (word expansion and translation), ``reduce_s``
    and ``smith_s``.
    """
    clock = time.perf_counter
    size, modulus = len(model.configurations), model.modulus
    reducer = UnitReducer()
    words = skipped = translates = vanished = repeated = 0
    reduce_s = 0.0
    start = clock()
    for expr, translate in _orbits(model, max_depth):
        words += 1
        a = 0
        while a < size:
            row = translate(a) if a else expr
            t = clock()
            kept = reducer.add(row)
            reduce_s += clock() - t
            translates += 1
            if kept:
                a += 1
                continue
            # add leaves a row that reduced to zero empty.
            if row:
                repeated += 1
            else:
                vanished += 1
            # Skip the coset of the largest subgroup whose order, a
            # power of N, divides a (the whole group at a = 0).
            run = 1
            while run < size and a % (run * modulus) == 0:
                run *= modulus
            skipped += run == size
            a += run
    walk_s = clock() - start - reduce_s
    peak_nnz = reducer.peak_nnz
    log, rows = reducer.finish()
    residual = SparseIntMatrix(rows)
    t = clock()
    factors = invariant_factors(residual)
    smith_s = clock() - t
    if stats is not None:
        stats.update(
            words=words, skipped=skipped, translates=translates,
            vanished=vanished, repeated=repeated, pivots=len(log),
            residual_shape=residual.shape, peak_nnz=peak_nnz,
            rank=len(log) + len(factors),
            walk_s=walk_s, reduce_s=reduce_s, smith_s=smith_s)
    return [f for f in factors if f > 1], residual, log


class ReconstructError(ValueError):
    pass


def reconstruct_process(expr: dict, model: ExcitationModel):
    """A word g with expand_theta(g, vacuum) == expr, or ReconstructError.

    Each +theta(s, a) is an edge a -> a + ds and each -theta(s, a) the
    reverse; a word is an Eulerian circuit through the vacuum.  When
    the edge multigraph is disconnected, circuits are stitched through
    inverse-pair bridges, whose phase contributions cancel exactly.
    """
    edges: dict[tuple, list] = {}
    indeg: Counter = Counter()
    outdeg: Counter = Counter()
    for (s, a_key), coeff in expr.items():
        if not model.is_configuration(a_key):
            raise ReconstructError(f"state {a_key} is not a configuration")
        target = model.step(a_key, 1, s)
        if coeff > 0:
            src, step = a_key, (1, s, target)
        else:
            src, step = target, (-1, s, a_key)
        for _ in range(abs(coeff)):
            edges.setdefault(src, []).append(step)
            outdeg[src] += 1
            indeg[step[2]] += 1
    for node in set(indeg) | set(outdeg):
        if indeg[node] != outdeg[node]:
            raise ReconstructError(f"unbalanced flow at {node}")

    def circuit_from(start):
        """Hierholzer walk consuming every edge reachable from start."""
        if not edges.get(start):
            return []
        path = []
        stack = [(start, None)]
        while stack:
            node, via = stack[-1]
            if edges.get(node):
                sign, s, target = edges[node].pop()
                stack.append((target, (sign, s)))
            else:
                stack.pop()
                if via is not None:
                    path.append(via)
        return list(reversed(path))

    def bridge_to(target_key):
        """Generator steps walking vacuum -> target: c forward steps of
        0t for each value c on a cell t that misses vertex 0."""
        return tuple((1, (0,) + t) for t, c in target_key if 0 not in t
                     for _ in range(c))

    word = list(circuit_from(VACUUM_KEY))
    while any(edges.values()):
        target = next(k for k, v in edges.items() if v)
        bridge = bridge_to(target)
        loop = circuit_from(target)
        if not loop:
            raise ReconstructError(f"stranded edges at {target}")
        word.extend(bridge)
        word.extend(loop)
        word.extend(inverse_word(bridge))
    word = tuple(word)
    if expand_theta(word, VACUUM_KEY, model) != expr:
        raise ReconstructError("re-expansion does not reproduce the "
                               "expression")
    return word


def lift_halved_expression(residual: SparseIntMatrix,
                           model: ExcitationModel):
    """The paper's final step: find an all-even residual row, halve it,
    and rebuild a process word from the halved expression (None when
    no row qualifies).  Rows are tried cheapest first: least sum of
    |coefficient|, then least row id."""
    rows = residual.rows
    even = sorted((sum(map(abs, row.values())), rid)
                  for rid, row in rows.items()
                  if all(v % 2 == 0 for v in row.values()))
    for _, rid in even:
        halved = {model.terms[col]: v // 2 for col, v in rows[rid].items()}
        try:
            return reconstruct_process(halved, model)
        except ReconstructError:
            continue
    return None


# --- legality-constrained lifting (membrane stretch mode) ---------------

def is_legal_term(s, a_key, f: dict) -> bool:
    """Legality of theta(s, a): the moved integer state stays within f.

    The lifted configuration (each mod-2 value c on t read as f(t) c)
    plus the integer boundary of the moved cell must take values in
    {0, f(t)} on every supporting simplex, and the moving cell must
    contain vertex 0.
    """
    if 0 not in s:
        return False
    moved = {t: f[t] * c for t, c in a_key}
    for t, sign in simplex_faces(s):
        moved[t] = moved.get(t, 0) + sign
    return all(v == f[t] for t, v in moved.items() if v)


def legality_partition(matrix: SparseIntMatrix, f: dict,
                       model: ExcitationModel) -> set:
    terms = model.terms
    return {col for col in matrix.columns()
            if not is_legal_term(*terms[col], f)}


def random_sign_function(model: ExcitationModel, rng) -> dict:
    return {t: rng.choice((1, -1))
            for t in combinations(range(model.d + 2), model.p + 1)}


def legality_attempt(base: SparseIntMatrix, f: dict,
                     model: ExcitationModel):
    """One sign-function trial: eliminate only illegal columns.

    Returns (success, residual): success means every illegal column was
    eliminated, leaving a legal-term matrix for further reduction.
    """
    work = base.copy()
    illegal = legality_partition(work, f, model)
    work.eliminate(allowed_cols=illegal)
    remaining = illegal & work.columns()
    return not remaining, work


def legality_search(model: ExcitationModel, attempts: int,
                    checkpoint: str | Path | None = None,
                    seed: int = 0, max_depth: int = 3):
    """Resumable scan over random sign functions for a Z-liftable process.

    State (trial count, RNG state, successes) persists in the
    checkpoint file, replaced atomically after every trial that ran
    ``legality_attempt`` and after the last trial; rerunning continues
    where the last saved trial left off.  The checkpoint's last key,
    ``scan``, records the model, depth and seed ({"N", "p", "d",
    "depth", "seed"}); resuming under any other value of one of them
    raises ValueError naming the field, while a checkpoint without the
    key resumes unchecked.  A checkpoint that cannot be read back raises
    ValueError, and so does a negative ``attempts``; one that cannot be
    written raises OSError before the identity matrix is built.  A
    checkpoint that already holds ``attempts`` trials returns its
    result without building the matrix.

    Every trial starts from one base: the identity matrix with the
    columns illegal under every sign function eliminated.  A sign
    function fixes the illegal columns, so one call runs the
    trial of each distinct sign vector once: a table of outcomes
    (success and residual shape, never the residual itself) answers
    every repeat.  Such a trial costs less than a checkpoint write, so
    it writes none unless it is the last.  The table is not saved; a
    resumed run rebuilds it, replays the trials after the last write
    from the same RNG stream, and returns the same result and the same
    checkpoint bytes.  This is the batch-scale mode: a full
    membrane scan is a multi-hour job and is not part of any test tier.
    """
    if model.modulus != 2:
        raise ValueError("legality lifting applies to the Z_2 model")
    if attempts < 0:
        raise ValueError(f"attempts must be >= 0, got {attempts}")
    scan = {"N": model.modulus, "p": model.p, "d": model.d,
            "depth": max_depth, "seed": seed}
    rng = random.Random(seed)
    done = 0
    successes: list[dict] = []
    path = Path(checkpoint) if checkpoint else None
    if path and path.exists():
        try:
            saved = json.loads(path.read_text())
            done, successes = saved["done"], saved["successes"]
            if type(done) is not int or done < 0:
                raise ValueError(f"'done' is {done!r}, not a trial count")
            if type(successes) is not list:
                raise ValueError(f"'successes' is a {type(successes).__name__},"
                                 " not a list")
            rng.setstate((saved["rng"][0], tuple(saved["rng"][1]),
                          saved["rng"][2]))
            saved_scan = saved.get("scan", scan)
            mismatch = [f"its {k} is {saved_scan[k]!r}, not {v!r}"
                        for k, v in scan.items() if saved_scan[k] != v]
        except (OSError, ValueError, LookupError, TypeError) as exc:
            raise ValueError(f"unreadable checkpoint {str(path)!r}: "
                             f"{exc!r}") from exc
        if mismatch:
            raise ValueError(f"checkpoint {str(path)!r} belongs to another "
                             f"scan: {'; '.join(mismatch)}")
    if done >= attempts:
        return {"attempts": done, "successes": successes}
    tmp = path.with_name(path.name + ".tmp") if path else None
    if tmp:
        tmp.touch()
        tmp.unlink()
    base = identity_matrix(model, max_depth)
    # is_legal_term rejects a cell without vertex 0 under every f, so
    # its columns are eliminated once here, not again in each trial.
    terms = model.terms
    base.eliminate({col for col in base.columns() if 0 not in terms[col][0]})
    # Sign vector (in combinations order) -> (success, residual shape):
    # f fixes the illegal columns, so a repeated f repeats its trial.
    outcomes: dict[tuple, tuple] = {}
    while done < attempts:
        f = random_sign_function(model, rng)
        signs = tuple(f.values())
        ran = signs not in outcomes
        if ran:
            ok, residual = legality_attempt(base, f, model)
            outcomes[signs] = ok, residual.shape
        ok, shape = outcomes[signs]
        done += 1
        if ok:
            successes.append({
                "trial": done,
                "f": {"".join(map(str, t)): v for t, v in sorted(f.items())},
                "residual_shape": list(shape),
            })
        if tmp and (ran or done == attempts):
            # Temp file, then rename over: a kill leaves the old
            # checkpoint or the new one, never a truncated one.
            state = rng.getstate()
            tmp.write_text(json.dumps({
                "done": done,
                "successes": successes,
                "rng": [state[0], list(state[1]), state[2]],
                "scan": scan,
            }))
            os.replace(tmp, path)
    return {"attempts": done, "successes": successes}
