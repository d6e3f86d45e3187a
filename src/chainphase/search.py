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

The membrane-scale run (d=4 with sign-function legality lifting) is a
resumable batch job, far beyond test budgets; see ``legality_search``.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from itertools import chain, combinations
from pathlib import Path

from .intmat import SparseIntMatrix, smith_invariant_factors
from .process import walk
from .simplicial import Chain, Phase, simplex_faces

VACUUM_KEY = ()


def _state_key(state: Chain) -> tuple:
    return tuple(sorted(state.items()))


class ExcitationModel:
    """Finite configuration space of closed p-excitations on del Delta_{d+1}.

    Attributes: ``modulus`` (fusion group Z_N), ``p``, ``d``,
    ``generators`` (the (p+1)-simplices, ascending), ``configurations``
    (every p-boundary, as canonical state keys), ``terms`` (term
    number -> (generator, configuration key)).  Generators and
    configurations are numbered by their positions, and every move of
    every configuration is recorded once, in both directions, as a
    table of those numbers; ``step`` and the expansion of words read it
    back.  The term theta(s, a) is numbered s's number * |A| + a's
    number, and identity rows and matrix columns are keyed by it.

    >>> m = build_model(2, 0, 2)
    >>> list(gen_identities(m)[0].items())[:2]
    [(1, -1), (42, -1)]
    >>> m.terms[42] == (m.generators[5], m.configurations[2])
    True
    >>> m.terms[42]
    ((2, 3), (((0,), 1), ((1,), 1), ((2,), 1), ((3,), 1)))
    """

    __slots__ = ("modulus", "p", "d", "generators", "configurations",
                 "terms", "_number", "_gen_number", "_table")

    def __init__(self, modulus, p, d, generators, configurations, steps):
        self.modulus = modulus
        self.p = p
        self.d = d
        self.generators = generators
        self.configurations = configurations
        number = self._number = {key: i
                                 for i, key in enumerate(configurations)}
        self._gen_number = {s: g for g, s in enumerate(generators)}
        # sign -> generator number -> [configuration number after the
        # step, by configuration number], from ``steps``: (sign,
        # generator) -> {configuration key: key after the step}
        self._table = {
            sign: [[number[steps[sign, s][key]] for key in configurations]
                   for s in generators]
            for sign in (1, -1)}
        self.terms = tuple((s, a) for s in generators
                           for a in configurations)

    def step(self, key, sign, s):
        """The configuration key a step (sign +-1, generator s) leaves
        at ``key``: the table form of adding sign times the chain
        boundary of s to the configuration.

        >>> m = build_model(2, 0, 2)
        >>> a, s = m.configurations[3], m.generators[0]
        >>> m.step(a, 1, s)
        (((1,), 1), ((2,), 1))
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


def build_model(modulus: int, p: int, d: int) -> ExcitationModel:
    """Enumerate the excitation model for fusion group Z_N.

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
    verts = range(d + 2)
    generators = list(combinations(verts, p + 2))
    moves = {s: Chain(p + 1, {s: 1}, modulus).boundary() for s in generators}
    # Breadth-first closure of the subgroup generated by the moves,
    # recording each move both ways.
    steps = {(sign, s): {} for s in generators for sign in (1, -1)}
    seen = {VACUUM_KEY}
    frontier = [(VACUUM_KEY, Chain(p, {}, modulus))]
    while frontier:
        nxt = []
        for key, state in frontier:
            for s, move in moves.items():
                new = state + move
                new_key = _state_key(new)
                if new_key not in seen:
                    seen.add(new_key)
                    nxt.append((new_key, new))
                steps[1, s][key] = new_key
                steps[-1, s][new_key] = key
        frontier = nxt
    return ExcitationModel(modulus, p, d, generators, tuple(sorted(seen)),
                           steps)


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


def gen_identities(model: ExcitationModel, max_depth: int = 3) -> list[dict]:
    """Identity expressions: commutator words expanded at every state.

    Every realization maps these to zero; they are the rows of the
    relation matrix whose cokernel torsion classifies processes.  Rows
    are keyed by term number (see ``ExcitationModel.terms``).  Empty
    expansions are dropped, and so is any row equal to an earlier one
    up to sign (a row and its negative span the same lattice), found
    by its sorted (term, coefficient) pairs as one flat tuple.
    """
    out = []
    seen = set()
    for word in identity_words(model, max_depth):
        word = _numbered_word(word, model)
        for a in range(len(model.configurations)):
            expr = _expand_numbered(word, a, model)
            if not expr:
                continue
            items = sorted(expr.items())
            if items[0][1] < 0:
                items = [(k, -v) for k, v in items]
            fingerprint = tuple(chain.from_iterable(items))
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            out.append(expr)
    return out


def identity_matrix(model: ExcitationModel,
                    max_depth: int = 3) -> SparseIntMatrix:
    return SparseIntMatrix(gen_identities(model, max_depth))


def torsion(residual: SparseIntMatrix) -> list[int]:
    """Invariant factors > 1 of the expression group modulo identities."""
    dense, _ = residual.to_dense()
    return [f for f in smith_invariant_factors(dense) if f > 1]


def classify(model: ExcitationModel, max_depth: int = 3):
    """(torsion factors, residual, elimination log) for the model."""
    residual = identity_matrix(model, max_depth)
    log = residual.eliminate()
    return torsion(residual), residual, log


def random_bilinear_realization(model: ExcitationModel, rng) -> dict:
    """A random Pauli-style phase assignment theta(s, a) = <lam_s, a>/N.

    Locality makes the commutator axioms hold: lam_s pairs only with
    the state restricted to the faces of s, so operators with disjoint
    supports accumulate no cross terms and every identity expression
    evaluates to zero.
    """
    lam = {}
    for s in model.generators:
        entries = {}
        for t in combinations(s, model.p + 1):
            v = rng.randrange(model.modulus)
            if v:
                entries[t] = v
        lam[s] = entries
    return lam


def evaluate_expression(expr: dict, lam: dict,
                        model: ExcitationModel) -> Phase:
    total = Phase(0, 1)
    for (s, a_key), coeff in expr.items():
        pairing = sum(lam[s].get(t, 0) * c for t, c in a_key)
        total += coeff * Phase(pairing, model.modulus)
    return total


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
        """Generator steps walking vacuum -> target through move space."""
        seen = {VACUUM_KEY: ()}
        frontier = [VACUUM_KEY]
        while frontier:
            nxt = []
            for key in frontier:
                for s in model.generators:
                    for sign in (1, -1):
                        nk = model.step(key, sign, s)
                        if nk not in seen:
                            seen[nk] = seen[key] + ((sign, s),)
                            if nk == target_key:
                                return seen[nk]
                            nxt.append(nk)
            frontier = nxt
        raise ReconstructError(f"no path from vacuum to {target_key}")

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
    no row qualifies)."""
    rows = residual.rows
    for rid in sorted(rows):
        row = rows[rid]
        if all(v % 2 == 0 for v in row.values()):
            halved = {model.terms[col]: v // 2 for col, v in row.items()}
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
    checkpoint file, replaced atomically after every trial; rerunning
    continues where the last run stopped.  The checkpoint's last key,
    ``scan``, records the model, depth and seed ({"N", "p", "d",
    "depth", "seed"}); resuming under any other value of one of them
    raises ValueError naming the field, while a checkpoint without the
    key resumes unchecked.  A checkpoint that cannot be read back raises
    ValueError, and so does a negative ``attempts``; one that cannot be
    written raises OSError before the identity matrix is built.

    A sign function fixes the illegal columns, so one call runs the
    trial of each distinct sign vector once: a table of outcomes
    (success and residual shape, never the residual itself) answers
    every repeat.  The table is not saved; a resumed run rebuilds it
    and returns the same result.  This is the batch-scale mode: a full
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
    tmp = path.with_name(path.name + ".tmp") if path else None
    if tmp and done < attempts:
        tmp.touch()
        tmp.unlink()
    base = identity_matrix(model, max_depth)
    # Sign vector (in combinations order) -> (success, residual shape):
    # f fixes the illegal columns, so a repeated f repeats its trial.
    outcomes: dict[tuple, tuple] = {}
    while done < attempts:
        f = random_sign_function(model, rng)
        signs = tuple(f.values())
        if signs not in outcomes:
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
        if tmp:
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
