"""Surjection operad actions and cochain-level reduced powers.

A surjection word u: {1..k} -> {1..r} (non-degenerate: no equal
adjacent letters) acts on r cochains by summing over weakly
increasing cut tuples 0 = i_0 <= i_1 <= ... <= i_k = n.  Interval t
is the closed vertex range [i_{t-1}, i_t]; slot s receives the
concatenation mu_s of the intervals with u(t) = s.  Terms whose slots
fail to be simplices, or whose sizes do not match the input degrees,
drop out.

Signs follow the interval bookkeeping rule.  An interval is final
when its slot never recurs later, otherwise inner; its weight is
i_t - i_{t-1} for final intervals and one more for inner ones.  The
permutation sign sorts the intervals by slot (stably), charging
(-1)**(w1*w2) per adjacent swap of weights w1, w2; the position sign
charges (-1)**i_t for every inner interval.

The May-Steenrod elements psi(r)(e_n) are built by the literal
recursion psi(e_0) = (1,...,r), then alternately h*T and h*N, where
T = rho - 1 and N = 1 + rho + ... + rho^(r-1) for the cyclic letter
rotation rho, and h = s + i*s*p + ... + i^(r-1)*s*p^(r-1) is the
contraction built from the three elementary word maps.  Words that
become degenerate at any step are dropped.

Steenrod's cup-k product is phi of the alternating word (1,2,1,2,...)
of length k+2 times the global sign (-1)**(k(p+q) + k(k-1)/2), and the
reduced power P^1 at r = 3 is D^3 times (-1)**(q(q-1)/2 + 1), so
``phi_terms`` is the one place that walks interval cuts and signs them.
"""

from __future__ import annotations

from functools import lru_cache


def check_surjection(u) -> tuple[int, ...]:
    """Validate a non-degenerate surjection word onto {1..max(u)}."""
    u = tuple(u)
    if not u:
        raise ValueError("empty surjection word")
    r = max(u)
    if set(u) != set(range(1, r + 1)):
        raise ValueError(f"word {u} is not surjective onto 1..{r}")
    if any(a == b for a, b in zip(u, u[1:])):
        raise ValueError(f"word {u} is degenerate")
    return u


def _nondegenerate(u):
    return all(a != b for a, b in zip(u, u[1:]))


def _rho(u, r):
    return tuple(v % r + 1 for v in u)


def _map_s(u):
    w = (1,) + u
    return w if _nondegenerate(w) else None


def _map_i(u):
    w = (1,) + tuple(v + 1 for v in u)
    return w if _nondegenerate(w) else None


def _map_p(u):
    if u.count(1) != 1:
        return None
    w = tuple(v - 1 for v in u if v != 1)
    if not w or not _nondegenerate(w):
        return None
    return w


def _add_term(acc, word, coeff):
    if word is None or coeff == 0:
        return
    c = acc.get(word, 0) + coeff
    if c:
        acc[word] = c
    else:
        acc.pop(word, None)


def op_T(terms, r):
    out = {}
    for u, c in terms.items():
        _add_term(out, _rho(u, r), c)
        _add_term(out, u, -c)
    return out


def op_N(terms, r):
    out = {}
    for u, c in terms.items():
        w = u
        for _ in range(r):
            _add_term(out, w, c)
            w = _rho(w, r)
    return out


def op_h(terms, r):
    out = {}
    for u, c in terms.items():
        w = u
        for j in range(r):
            # Term i^j * s * p^j; w already holds p^j(u).
            sw = _map_s(w)
            for _ in range(j):
                if sw is None:
                    break
                sw = _map_i(sw)
            _add_term(out, sw, c)
            w = _map_p(w)
            if w is None:
                break
    return out


_PSI_CACHE: dict[tuple[int, int], dict] = {}


def psi(r: int, n: int) -> dict:
    """The formal surjection sum psi(r)(e_n), as word -> coefficient."""
    if r < 2 or n < 0:
        raise ValueError("need r >= 2 and n >= 0")
    key = (r, n)
    if key not in _PSI_CACHE:
        if n == 0:
            out = {tuple(range(1, r + 1)): 1}
        elif n % 2:
            out = op_h(op_T(psi(r, n - 1), r), r)
        else:
            out = op_h(op_N(psi(r, n - 1), r), r)
        _PSI_CACHE[key] = out
    return dict(_PSI_CACHE[key])


def phi_terms(u, degrees):
    """Positional term list of phi(u) on inputs of the given degrees.

    Returns tuples (sign, slots) where slots[s] lists the vertex
    positions (inside the target simplex <0..n>) fed to input s+1.
    Deterministic order: lexicographic in the cut tuple; equal slots
    share one tuple across the listing.  The cuts are
    walked depth first; a branch is cut as soon as an interval would
    not start after its slot's last vertex, and no interval is given an
    end that leaves its slot unable to end exactly full.

    The cup word on two 1-cochains has the single front/back term:

    >>> phi_terms((1, 2), (1, 1))
    [(1, ((0, 1), (1, 2)))]
    """
    u = check_surjection(u)
    k, r = len(u), max(u)
    degrees = tuple(degrees)
    if len(degrees) != r:
        raise ValueError(f"word {u} needs {r} inputs, got {len(degrees)}")
    n = sum(d + 1 for d in degrees) - k
    if n < 0:
        raise ValueError("negative output degree")
    # Later intervals of each interval's slot; none for a final one.
    later = [u[t + 1:].count(u[t]) for t in range(k)]
    room = [d + 1 for d in degrees]  # vertices each slot still takes
    last = [-1] * r                  # each slot's last vertex so far
    cuts = [0] * (k + 1)
    terms = []
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}  # one tuple per slot
    # Per word, not per term: the interval pairs the slot sort swaps,
    # the cuts that end inner intervals, each slot's intervals and the
    # vertex tuple every slot is sliced from.
    pairs = [(t1, t2) for t2 in range(k) for t1 in range(t2)
             if u[t1] > u[t2]]
    inner_ends = [t + 1 for t in range(k) if later[t]]
    extra = [1 if c else 0 for c in later]
    by_slot = [[t for t in range(k) if u[t] == s] for s in range(1, r + 1)]
    verts = tuple(range(n + 1))

    def emit():
        w = [b - a + e for a, b, e in zip(cuts, cuts[1:], extra)]
        exp = sum(cuts[t] for t in inner_ends)
        for t1, t2 in pairs:
            exp += w[t1] * w[t2]
        slots = []
        for ts in by_slot:
            slot = ()
            for t in ts:
                slot += verts[cuts[t]:cuts[t + 1] + 1]
            slots.append(shared.setdefault(slot, slot))
        terms.append((-1 if exp % 2 else 1, tuple(slots)))

    def place(t):
        # Interval t starts at cuts[t], after its slot's last vertex;
        # try each end in ascending order.  Slot sizes always sum to
        # n + k, so a term fills every slot exactly: an inner interval
        # leaves a vertex for each later interval of its slot, and a
        # final one takes all that is left.  The last interval is final
        # and every other slot is full by then, so it ends at n.
        if t == k - 1:
            cuts[k] = n
            emit()
            return
        slot, start = u[t] - 1, cuts[t]
        top = start + room[slot] - 1 - later[t]
        if later[t]:
            ends = range(start, min(top, n) + 1)
        elif start <= top <= n:
            ends = (top,)
        else:
            return
        # The next interval must start after its slot's last vertex.
        low = last[u[t + 1] - 1]
        for end in ends:
            if end <= low:
                continue
            size = end - start + 1
            cuts[t + 1] = end
            room[slot] -= size
            prev, last[slot] = last[slot], end
            place(t + 1)
            room[slot] += size
            last[slot] = prev

    place(0)
    # ``place`` holds itself through its closure cell; drop that cycle
    # so the walk's state is freed now, not at the next gc pass.
    del place
    return terms


@lru_cache(maxsize=None)
def cup_k_terms(p: int, q: int, k: int):
    """All (sign, left_positions, right_positions) terms of cup-k.

    Positions refer to indices 0..p+q-k within the target simplex, in
    the order of ``phi_terms`` on the alternating word of length k+2.
    With this sign, cup-0 is the front/back cup product and cup-1 is
    the closed form sum_i (-1)**((p-i)(q+1)) c(<0..i, q+i..p+q-1>)
    d(<i..q+i>):

    >>> cup_k_terms(2, 2, 1)
    ((1, (0, 2, 3), (0, 1, 2)), (-1, (0, 1, 3), (1, 2, 3)))
    """
    if p < 0 or q < 0:
        raise ValueError("cochain degrees must be non-negative")
    if k < 0 or k > min(p, q):
        raise ValueError(f"cup-{k} undefined for degrees ({p}, {q})")
    g = -1 if (k * (p + q) + k * (k - 1) // 2) % 2 else 1
    word = tuple(t % 2 + 1 for t in range(k + 2))
    return tuple((g * sign, left, right)
                 for sign, (left, right) in phi_terms(word, (p, q)))


def _check_prime(r):
    if r < 2 or any(r % j == 0 for j in range(2, r)):
        raise ValueError(f"{r} is not prime")


def d_terms(r: int, i: int, q: int):
    """Combined positional term list of D^r_i on a degree-q input.

    Concatenates phi term lists over the words of psi(r)(e_i), in the
    listing order of the words (sorted), scaling by word coefficients.
    """
    _check_prime(r)
    out = []
    for u, coeff in sorted(psi(r, i).items()):
        for sign, slots in phi_terms(u, (q,) * r):
            out.append((coeff * sign, slots))
    return out


def p1_sign(q: int) -> int:
    """Global sign (-1)**(q(q-1)/2 + 1) of P^1 = +-D^3_{2(q-2)} at r = 3."""
    return -1 if (q * (q - 1) // 2 + 1) % 2 else 1


def p1_terms(q: int):
    """Signed positional term list of P^1(B_q) at r = 3.

    The global sign ``p1_sign(q)`` is folded into every term.
    """
    if q < 2:
        raise ValueError("P^1 at r = 3 needs input degree >= 2")
    g = p1_sign(q)
    return [(g * coeff, slots) for coeff, slots in d_terms(3, 2 * (q - 2), q)]
