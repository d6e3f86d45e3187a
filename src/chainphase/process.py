"""Statistical processes: words of oriented cells and their evaluation.

A process is an ordered word of steps (orientation, cell).  Steps act
top to bottom (the first list entry is applied first).  In the chain
picture a step with orientation +1 sends the state a to a + boundary
of the cell; orientation -1 applies the inverse.  In the dual cochain
picture the same step shifts the boundary configuration b by the dual
cochain h of the cell and contributes the modified excitation phase
of the bound action functional.

The inverse of an operator contributes the negated phase evaluated at
the state it lands on, which is what makes forward/backward pairs
through the same configuration cancel.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .actions import ActionFunctional
from .boundary import delta_on, modified_excitation_phase
from .simplicial import Chain, Cochain, Phase, check_simplex, dualize

#: The 56-step membrane word on the boundary of the 5-simplex.  Each
#: entry is (orientation, tetrahedron); the first entry acts first.
MU56: tuple = (
    (+1, (0, 1, 4, 5)), (+1, (0, 2, 3, 5)), (-1, (0, 2, 4, 5)),
    (+1, (0, 3, 4, 5)), (-1, (0, 1, 2, 3)), (-1, (0, 3, 4, 5)),
    (+1, (0, 2, 4, 5)), (+1, (0, 2, 3, 4)), (+1, (0, 1, 2, 4)),
    (-1, (0, 1, 3, 4)), (-1, (0, 2, 3, 5)), (+1, (0, 1, 3, 4)),
    (-1, (0, 1, 2, 4)), (+1, (0, 1, 2, 3)), (-1, (0, 2, 3, 4)),
    (-1, (0, 1, 4, 5)), (+1, (0, 2, 3, 4)), (-1, (0, 1, 2, 3)),
    (-1, (0, 1, 3, 4)), (+1, (0, 1, 3, 5)), (+1, (0, 3, 4, 5)),
    (+1, (0, 1, 2, 4)), (-1, (0, 3, 4, 5)), (-1, (0, 1, 3, 5)),
    (+1, (0, 2, 3, 5)), (+1, (0, 3, 4, 5)), (-1, (0, 2, 4, 5)),
    (-1, (0, 2, 3, 4)), (+1, (0, 1, 3, 5)), (+1, (0, 2, 3, 4)),
    (+1, (0, 2, 4, 5)), (-1, (0, 1, 2, 4)), (-1, (0, 2, 3, 4)),
    (-1, (0, 2, 4, 5)), (-1, (0, 1, 3, 5)), (+1, (0, 1, 3, 4)),
    (+1, (0, 1, 2, 3)), (+1, (0, 2, 4, 5)), (+1, (0, 1, 2, 5)),
    (-1, (0, 1, 2, 3)), (-1, (0, 1, 3, 4)), (+1, (0, 2, 3, 4)),
    (-1, (0, 3, 4, 5)), (+1, (0, 1, 3, 4)), (-1, (0, 2, 3, 4)),
    (+1, (0, 3, 4, 5)), (+1, (0, 1, 2, 3)), (-1, (0, 1, 2, 5)),
    (+1, (0, 1, 3, 5)), (-1, (0, 2, 4, 5)), (-1, (0, 1, 3, 4)),
    (+1, (0, 2, 4, 5)), (+1, (0, 1, 3, 4)), (-1, (0, 1, 3, 5)),
    (-1, (0, 3, 4, 5)), (-1, (0, 2, 3, 5)),
)

#: The six-step particle exchange word on the boundary of the
#: 3-simplex (the T-junction word), in acting order like MU56: the
#: first entry acts first.  Written as an operator product it reads
#: right to left.
TJUNCTION: tuple = (
    (+1, (0, 2)), (-1, (0, 3)), (+1, (0, 1)),
    (-1, (0, 2)), (+1, (0, 3)), (-1, (0, 1)),
)

_BUILTIN = {"mu56": MU56, "tjunction": TJUNCTION}


def builtin(name: str):
    """Return a hardcoded process word by name (mu56 or tjunction)."""
    if name not in _BUILTIN:
        raise KeyError(f"unknown process {name!r}; "
                       f"known: {', '.join(sorted(_BUILTIN))}")
    return _BUILTIN[name]


def check_steps(steps):
    """Validate a non-empty word of (orientation, cell) steps whose
    cells all have the same dimension, at least 1."""
    out = []
    for i, (sign, cell) in enumerate(steps):
        if sign not in (1, -1):
            raise ValueError(f"step orientation must be +1 or -1: {sign}")
        cell = check_simplex(cell)
        if len(cell) < 2:
            raise ValueError(f"step {i} moves the one-vertex cell {cell}; "
                             f"a cell needs at least two vertices")
        if out and len(cell) != len(out[0][1]):
            raise ValueError(f"step {i} has dimension {len(cell) - 1}, but "
                             f"step 0 has dimension {len(out[0][1]) - 1}")
        out.append((sign, cell))
    if not out:
        raise ValueError("process word has no steps")
    return tuple(out)


def step_cell_sum(steps) -> Chain:
    """Signed sum of the step cells as an integer chain."""
    steps = check_steps(steps)
    return Chain(len(steps[0][1]) - 1,
                 [(cell, sign) for sign, cell in steps])


def is_closed(steps) -> bool:
    return not step_cell_sum(steps)


def walk(steps, initial, shift):
    """Walk a word from `initial`, yielding (sign, cell, acting, after).

    ``shift(a, sign, cell)`` is the state a step of that orientation
    leaves behind at a.  A forward step acts at the current state a;
    an inverse step first moves back, to where the forward operator it
    undoes acts.  ``acting`` is the state at which the step's forward
    operator acts, ``after`` the state once the step is done.
    """
    a = initial
    for sign, cell in steps:
        if sign > 0:
            acting, a = a, shift(a, sign, cell)
        else:
            a = shift(a, sign, cell)
            acting = a
        yield sign, cell, acting, a


def _shifting(move):
    """The ``walk`` shift a +- move(cell), for a forward move ``move``."""
    def shift(a, sign, cell):
        return a + move(cell) if sign > 0 else a - move(cell)
    return shift


def _chain_walk(steps, initial: Chain | None):
    """Validate a word and walk it in the chain picture, where a step
    shifts the state by +- the boundary of its cell.

    Returns (steps, initial, rows): the checked steps, the start state
    (the empty chain one degree below the cells when `initial` is
    None) and the ``walk`` rows from it.
    """
    steps = check_steps(steps)
    cell = steps[0][1]
    if initial is None:
        initial = Chain(len(cell) - 2, {})
    elif len(cell) - 2 != initial.degree:
        raise ValueError(f"cell {cell} does not move "
                         f"degree-{initial.degree} states")
    return steps, initial, walk(steps, initial, _shifting(
        lambda cell: Chain(len(cell) - 1, {cell: 1},
                           initial.modulus).boundary()))


def trace(steps, initial: Chain | None = None):
    """Chain states visited by the word, starting from `initial`
    (vacuum by default).

    Returns a list of length steps+1 over the integers (or whatever
    modulus `initial` carries); entry 0 is the initial state.
    """
    _, initial, rows = _chain_walk(steps, initial)
    return [initial] + [after for _, _, _, after in rows]


def evaluate(steps, action: ActionFunctional,
             initial: Cochain | None = None) -> Phase:
    """Total phase of the word under the bound action functional.

    The state is the boundary configuration b, reduced to canonical
    representatives mod N after every hop when the initial state
    carries modulus N (an integer-valued initial state is propagated
    without reduction).  The word must return b to its initial value;
    this is what justifies accumulating only the hop phases.
    """
    steps = check_steps(steps)
    D = action.spacetime
    k = D - 1
    S = tuple(range(D))
    if initial is None:
        initial = Cochain(action.degree - 1, {}, action.modulus)
    if initial.degree != action.degree - 1:
        raise ValueError(
            f"initial configuration must have degree {action.degree - 1}")
    if not is_closed(steps):
        raise ValueError("process word does not return to its start")

    hops = {}
    for _, cell in steps:
        if cell in hops:
            continue
        if cell[-1] > k:
            raise ValueError(f"cell {cell} does not fit in a {k}-simplex")
        if len(cell) != D - action.degree:
            raise ValueError(
                f"cell {cell} dualizes to degree {k - len(cell)}, "
                f"but {action.name} hops have degree {action.degree - 1}")
        hops[cell] = dualize(cell, k)
    # The state moves by the hop reduced mod N; the phase sees the
    # integer hop (a reduced -1 would read N - 1).
    N = initial.modulus
    shifts = {cell: h.with_modulus(N) if N else h
              for cell, h in hops.items()}

    total = Phase(0, 1)
    b = initial
    for sign, cell, acting, b in walk(steps, initial,
                                      _shifting(shifts.__getitem__)):
        total += sign * modified_excitation_phase(action, acting,
                                                  hops[cell], S)
    if b != initial:
        raise AssertionError("state did not return to the initial "
                             "configuration; phase would be gauge-dependent")
    return total


def random_closed_configuration(degree: int, k: int, modulus: int,
                                rng) -> Cochain:
    """Random coboundary-valued configuration: delta of a random
    cochain one degree down, reduced mod N."""
    if degree < 1:
        raise ValueError("need degree >= 1 to build an exact cochain")
    S = tuple(range(k + 1))
    eps = Cochain(degree - 1, {t: rng.randrange(modulus)
                               for t in combinations(S, degree)})
    return delta_on(eps, S).with_modulus(modulus)


class CancellationReport:
    """Outcome of the local cancellation check.

    ``residues`` maps (vertex, cell) to the multiset of signed local
    configurations that failed to cancel; the check passes when every
    multiset is empty.
    """

    __slots__ = ("residues", "pairs")

    def __init__(self, residues, pairs):
        self.residues = residues
        self.pairs = pairs

    @property
    def ok(self) -> bool:
        return not self.residues

    def __repr__(self):
        state = "pass" if self.ok else f"fail at {sorted(self.residues)}"
        return f"CancellationReport({len(self.pairs)} pairs, {state})"


def _truncate(a: Chain, v: int, modulus: int):
    """Restriction of a state to the simplices containing vertex v,
    frozen to a hashable canonical form."""
    items = []
    for t, c in a.items():
        if v in t:
            c = c % modulus if modulus else c
            if c:
                items.append((t, c))
    return tuple(sorted(items))


def check_cancellation(steps, modulus: int = 0) -> CancellationReport:
    """Check that every phase contribution cancels locally.

    Walk the word from the vacuum, recording for each step the
    configuration at which the forward operator acts: a step with
    orientation +1 acting at state a records (+1, cell, a);
    its inverse acting at a records (-1, cell, a - boundary(cell)),
    the state the forward operator would have been applied at.  The
    word cancels if, for every vertex v of every cell, the signed
    multiset of recorded configurations truncated to v sums to zero.
    """
    _, _, rows = _chain_walk(steps, None)
    books: dict = {}
    for sign, cell, acting, _ in rows:
        for v in cell:
            books.setdefault((v, cell), Counter())[
                _truncate(acting, v, modulus)] += sign
    residues = {}
    for key, counter in books.items():
        bad = {state: n for state, n in counter.items() if n}
        if bad:
            residues[key] = bad
    return CancellationReport(residues, sorted(books))


def pauli_triviality_check(steps, assignment, N: int,
                           initial: Chain | None = None) -> Phase:
    """Accumulated phase when every operator is a generalized Pauli.

    ``assignment`` maps each cell to a cochain of the state degree;
    the phase of the forward operator at state a is its pairing with a
    divided by N (a linear functional, which is what being Pauli
    means).  For a closed word the total must vanish: contributions
    pair up through equal configurations regardless of the assignment.
    """
    _, _, rows = _chain_walk(steps, initial)
    total = Phase(0, 1)
    for sign, cell, acting, _ in rows:
        total += sign * Phase(assignment[cell].evaluate(acting), N)
    return total


def golden_trace_diff(steps, golden_rows, initial: Chain | None = None):
    """Compare a word's trace against golden (sign, cell, state) rows.

    Returns a list of human-readable mismatch strings, empty when the
    trace reproduces the golden rows exactly.
    """
    steps, _, rows = _chain_walk(steps, initial)
    if len(steps) != len(golden_rows):
        return [f"step count {len(steps)} != golden {len(golden_rows)}"]
    problems = []
    for i, ((sign, cell, _, state), (gsign, gcell, gstate)) in enumerate(
            zip(rows, golden_rows), start=1):
        if (sign, cell) != (gsign, gcell):
            problems.append(f"step {i}: word has {sign:+d} {cell}, "
                            f"golden has {gsign:+d} {gcell}")
        elif state != gstate:
            problems.append(f"step {i}: state {dict(state.items())} "
                            f"!= golden {dict(gstate.items())}")
    return problems
