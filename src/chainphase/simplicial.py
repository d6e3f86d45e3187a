"""Exact simplicial chains, cochains, and phases.

A simplex is an ascending tuple of non-negative integer vertex ids;
its degree is one less than its length.  Chains and cochains are
sparse integer maps keyed by simplex, carrying a modulus N: N = 0
means plain integer coefficients, N > 0 means the canonical
representatives {0, ..., N-1} of Z_N.  Rational functionals are always
computed on these integer lifts and only the final result is reduced
mod 1, so everything stays exact.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Mapping


def check_simplex(vertices) -> tuple[int, ...]:
    """Validate and normalize a simplex to an ascending tuple.

    >>> check_simplex([0, 2, 5])
    (0, 2, 5)
    """
    t = tuple(vertices)
    if not t:
        raise ValueError("empty simplex")
    if min(t) < 0:
        raise ValueError(f"negative vertex id in {t}")
    if t != tuple(sorted(set(t))):
        raise ValueError(f"vertices not strictly increasing: {t}")
    return t


def simplex_faces(t: tuple[int, ...]):
    """Yield (face, sign) pairs of the oriented boundary of a simplex.

    >>> list(simplex_faces((0, 1, 2)))
    [((1, 2), 1), ((0, 2), -1), ((0, 1), 1)]
    """
    for i in range(len(t)):
        yield t[:i] + t[i + 1:], -1 if i % 2 else 1


def insert_vertex(t: tuple[int, ...], v: int) -> tuple[tuple[int, ...], int]:
    """Insert vertex v into ascending tuple t, returning (simplex, sign).

    The sign is (-1)**position, the coboundary dual of simplex_faces.
    """
    for i, w in enumerate(t):
        if v < w:
            return t[:i] + (v,) + t[i:], -1 if i % 2 else 1
        if v == w:
            raise ValueError(f"vertex {v} already in {t}")
    return t + (v,), -1 if len(t) % 2 else 1


class Phase:
    """An exact phase in Q/Z, stored as a reduced fraction in [0, 1).

    >>> Phase(5, 3)
    Phase(2, 3)
    >>> Phase(1, 4) + Phase(3, 4)
    Phase(0, 1)
    >>> -Phase(1, 3)
    Phase(2, 3)
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        if den < 0:
            num, den = -num, -den
        num %= den  # ZeroDivisionError for den == 0
        g = gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("Phase is immutable")

    def __add__(self, other):
        if not isinstance(other, Phase):
            return NotImplemented
        return Phase(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    def __sub__(self, other):
        if not isinstance(other, Phase):
            return NotImplemented
        return Phase(self.num * other.den - other.num * self.den,
                     self.den * other.den)

    def __neg__(self):
        return Phase(-self.num, self.den)

    def __mul__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return Phase(self.num * k, self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, Phase)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return self.num != 0

    def __repr__(self):
        return f"Phase({self.num}, {self.den})"

    def __str__(self):
        return f"{self.num}/{self.den}"


def _reduce(data: dict, modulus: int) -> dict:
    """Reduce a simplex -> int map mod N (N > 0) and drop its zeros."""
    if modulus < 0:
        raise ValueError("modulus must be >= 0")
    if modulus:
        return {t: r for t, c in data.items() if (r := c % modulus)}
    return {t: c for t, c in data.items() if c}


def _normalize(degree: int, items, modulus: int) -> dict:
    out: dict[tuple[int, ...], int] = {}
    pairs = items.items() if isinstance(items, Mapping) else items
    for t, coeff in pairs:
        t = check_simplex(t)
        if len(t) - 1 != degree:
            raise ValueError(f"simplex {t} does not have degree {degree}")
        out[t] = out.get(t, 0) + coeff
    return _reduce(out, modulus)


class _SparseMap:
    """Shared guts of Chain and Cochain: degree, modulus, simplex -> int."""

    __slots__ = ("degree", "modulus", "_data")

    def __init__(self, degree: int, items=(), modulus: int = 0):
        self.degree = degree
        self.modulus = modulus
        self._data = _normalize(degree, items, modulus)

    @classmethod
    def _from_valid(cls, degree: int, data: dict, modulus: int):
        """Wrap a map whose keys are already valid degree-n simplices:
        reduce and drop zeros, but check no key again."""
        out = cls.__new__(cls)
        out.degree = degree
        out.modulus = modulus
        out._data = _reduce(data, modulus)
        return out

    def items(self):
        return self._data.items()

    def __len__(self):
        return len(self._data)

    def __bool__(self):
        return bool(self._data)

    def __eq__(self, other):
        return (type(self) is type(other) and self.degree == other.degree
                and self.modulus == other.modulus
                and self._data == other._data)

    def __hash__(self):
        return hash((type(self).__name__, self.degree, self.modulus,
                     frozenset(self._data.items())))

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} "
                            f"with {type(other).__name__}")
        if self.degree != other.degree or self.modulus != other.modulus:
            raise ValueError("degree/modulus mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        merged = dict(self._data)
        for t, c in other._data.items():
            merged[t] = merged.get(t, 0) + c
        return self._from_valid(self.degree, merged, self.modulus)

    def __sub__(self, other):
        self._check_compatible(other)
        merged = dict(self._data)
        for t, c in other._data.items():
            merged[t] = merged.get(t, 0) - c
        return self._from_valid(self.degree, merged, self.modulus)

    def __neg__(self):
        return self._from_valid(
            self.degree, {t: -c for t, c in self._data.items()},
            self.modulus)

    def scale(self, k: int):
        return self._from_valid(
            self.degree, {t: k * c for t, c in self._data.items()},
            self.modulus)

    def with_modulus(self, modulus: int):
        return self._from_valid(self.degree, self._data, modulus)

    def __repr__(self):
        body = " ".join(f"{c:+d}*{''.join(map(str, t))}"
                        for t, c in sorted(self._data.items()))
        tag = f" mod {self.modulus}" if self.modulus else ""
        return f"<{type(self).__name__} deg={self.degree}{tag} {body or '0'}>"


class Chain(_SparseMap):
    """A formal integer combination of simplices of one degree.

    >>> c = Chain(1, {(0, 1): 2})
    >>> c.boundary()
    <Chain deg=0 -2*0 +2*1>
    """

    def coefficient(self, t) -> int:
        return self._data.get(check_simplex(t), 0)

    def boundary(self) -> "Chain":
        if self.degree < 1:
            raise ValueError("boundary of a degree-0 chain is undefined")
        out: dict[tuple[int, ...], int] = {}
        for t, c in self._data.items():
            for face, sign in simplex_faces(t):
                out[face] = out.get(face, 0) + sign * c
        return Chain._from_valid(self.degree - 1, out, self.modulus)


class Cochain(_SparseMap):
    """An integer-valued functional on simplices of one degree.

    Absent simplices read as 0; the map is total on whatever complex
    the cochain is used against.

    >>> f = Cochain(0, {(1,): 1})
    >>> f.evaluate(Chain(0, {(0,): 1, (1,): 4}))
    4
    """

    def value(self, t) -> int:
        return self._data.get(check_simplex(t), 0)

    def values_on(self, faces) -> list[int]:
        """Values on ascending tuples, in order, without validating
        them: the hot-path read for faces of an already checked simplex.

        >>> Cochain(1, {(0, 2): 5}).values_on([(0, 1), (0, 2)])
        [0, 5]
        """
        get = self._data.get
        return [get(t, 0) for t in faces]

    def evaluate(self, a: Chain) -> int:
        if not isinstance(a, Chain):
            raise TypeError("evaluate expects a Chain")
        if a.degree != self.degree:
            raise ValueError("degree mismatch between cochain and chain")
        total = sum(c * self._data.get(t, 0) for t, c in a.items())
        return total % self.modulus if self.modulus else total

    def on_boundary(self, t) -> int:
        """Value of this cochain on the oriented boundary of a simplex."""
        return sum(sign * self._data.get(face, 0)
                   for face, sign in simplex_faces(check_simplex(t)))

    def coboundary(self, complex: "StandardComplex") -> "Cochain":
        if self.degree + 1 > complex.dimension:
            raise ValueError("coboundary would exceed complex dimension")
        out: dict[tuple[int, ...], int] = {}
        cells = [set(cell) for cell, _ in complex.top_cells]
        for t, c in self._data.items():
            # t + v is a simplex of the complex exactly when some top
            # cell holds both t and v.
            face = set(t)
            around = set()
            for cell in cells:
                if face <= cell:
                    around |= cell
            for v in sorted(around - face):
                coface, sign = insert_vertex(t, v)
                out[coface] = out.get(coface, 0) + sign * c
        return Cochain._from_valid(self.degree + 1, out, self.modulus)


class StandardComplex:
    """A complex given by its oriented top cells; every face of a top
    cell is a simplex of the complex.  ``kind`` is only a label.

    * ``StandardComplex.simplex(k)``: the full simplex Delta_k, a single
      top cell with sign +1.
    * ``StandardComplex.boundary(k)``: del Delta_k, top cells the k+1
      facets with alternating signs.
    * ``StandardComplex.cylinder(k)``: Delta_k x I with the standard
      prism triangulation.  Vertex v on the bottom copy is encoded as
      2v and the top (barred) copy of v as 2v+1, which realizes the
      global order 0 < 0' < 1 < 1' < ...; the top cells are
      <0,...,i, i',...,k'> with sign (-1)**(k-i).
    """

    __slots__ = ("kind", "k", "top_cells")

    def __init__(self, kind: str, k: int,
                 top_cells: list[tuple[tuple[int, ...], int]]):
        self.kind = kind
        self.k = k
        self.top_cells = top_cells

    @classmethod
    def simplex(cls, k: int) -> "StandardComplex":
        return cls("simplex", k, [(tuple(range(k + 1)), 1)])

    @classmethod
    def boundary(cls, k: int) -> "StandardComplex":
        full = tuple(range(k + 1))
        cells = [(face, sign) for face, sign in simplex_faces(full)]
        return cls("boundary", k, cells)

    @classmethod
    def cylinder(cls, k: int) -> "StandardComplex":
        cells = []
        for i in range(k + 1):
            bottom = tuple(2 * v for v in range(i + 1))
            top = tuple(2 * v + 1 for v in range(i, k + 1))
            sign = -1 if (k - i) % 2 else 1
            cells.append((bottom + top, sign))
        return cls("cylinder", k, cells)

    @property
    def dimension(self) -> int:
        return len(self.top_cells[0][0]) - 1

    def has_simplex(self, t) -> bool:
        t = set(check_simplex(t))
        return any(t.issubset(cell) for cell, _ in self.top_cells)

    def simplices(self, degree: int) -> list[tuple[int, ...]]:
        """All simplices of the given degree, in ascending order."""
        return sorted({t for cell, _ in self.top_cells
                       for t in combinations(cell, degree + 1)})

    def __repr__(self):
        return f"StandardComplex({self.kind!r}, k={self.k})"


def dualize(cell, k: int) -> Cochain:
    """Dual cochain of one cell of Delta_k, over Z.

    The cell maps to the delta function on its complement vertex set,
    weighted by the product of (-1)**v over its own vertices.

    >>> dualize((0, 1, 2, 3), 5)
    <Cochain deg=1 +1*45>
    """
    cell = check_simplex(cell)
    if cell[-1] > k:
        raise ValueError(f"simplex {cell} is not inside Delta_{k}")
    comp = tuple(v for v in range(k + 1) if v not in cell)
    if not comp:
        raise ValueError(f"simplex {cell} has no complement in Delta_{k}")
    return Cochain(len(comp) - 1, {comp: -1 if sum(cell) % 2 else 1})


def cylinder_project(t: tuple[int, ...]):
    """Project a cylinder simplex to the base, or None when degenerate."""
    imgs = tuple(v // 2 for v in t)
    if any(a == b for a, b in zip(imgs, imgs[1:])):
        return None
    return imgs

