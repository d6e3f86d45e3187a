"""File formats: cochain/chain documents, process words, golden data.

Cochains and chains travel as JSON documents with integer fields
``modulus`` and ``degree`` plus a map ``values`` (cochains) or
``terms`` (chains) from comma-separated ascending vertex lists to
integers, e.g. ``{"degree": 1, "modulus": 3, "values": {"0,2": 1}}``.
Those integers must be JSON integers: a float, string or boolean is
rejected, never rounded or converted.  A key is ASCII digits and commas
only: no spaces, signs or empty parts.

Process files are plain text, one step per line: a ``+`` or ``-``
followed by the ascending vertex ids of the moved cell, whitespace
separated.  ``#`` starts a comment; blank lines are skipped.  Steps
apply top to bottom.
"""

from __future__ import annotations

import json
from importlib import resources

from .simplicial import Chain, Cochain


def _parse_key(key: str) -> tuple[int, ...]:
    """A simplex key: comma-separated runs of ASCII digits, nothing else.

    >>> _parse_key("0,2,10")
    (0, 2, 10)
    >>> _parse_key("0,1_0")
    Traceback (most recent call last):
    ...
    ValueError: bad simplex key '0,1_0': want comma-separated vertex ids
    """
    parts = key.split(",")
    # str.isdigit alone also takes non-ASCII digits such as "\u0663".
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ValueError(f"bad simplex key {key!r}: want comma-separated "
                         f"vertex ids")
    return tuple(map(int, parts))


def _json_int(value, what: str) -> int:
    # JSON true/false load as bools, which Python counts as ints.
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, "
                         f"got {json.dumps(value)}")
    return value


def _parse_sparse(doc, field: str):
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    for want in ("degree", field):
        if want not in doc:
            raise ValueError(f"document lacks required field {want!r}")
    if not isinstance(doc[field], dict):
        raise ValueError(f"field {field!r} must be a JSON object")
    degree = _json_int(doc["degree"], "degree")
    modulus = _json_int(doc.get("modulus", 0), "modulus")
    data = {_parse_key(k): _json_int(v, f"{field} entry {k!r}")
            for k, v in doc[field].items()}
    return degree, data, modulus


def cochain_from_text(text: str) -> Cochain:
    return Cochain(*_parse_sparse(json.loads(text), "values"))


def chain_from_text(text: str) -> Chain:
    return Chain(*_parse_sparse(json.loads(text), "terms"))


def load_cochain(path) -> Cochain:
    with open(path) as fh:
        return cochain_from_text(fh.read())


def load_chain(path) -> Chain:
    with open(path) as fh:
        return chain_from_text(fh.read())


def process_from_text(text: str):
    """Parse a process word into a list of (sign, cell) steps."""
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        sign_ch, rest = line[0], line[1:]
        if sign_ch not in "+-":
            raise ValueError(f"line {lineno}: step must start with + or -")
        ids = rest.replace(",", " ").split()
        try:
            cell = tuple(int(x) for x in ids)
        except ValueError:
            raise ValueError(f"line {lineno}: bad vertex id in {raw!r}")
        if not cell or any(a >= b for a, b in zip(cell, cell[1:])):
            raise ValueError(f"line {lineno}: vertex ids must be ascending")
        steps.append((1 if sign_ch == "+" else -1, cell))
    if not steps:
        raise ValueError("process file contains no steps")
    return steps


def load_process(path):
    with open(path) as fh:
        return process_from_text(fh.read())


def data_text(name: str) -> str:
    return resources.files("chainphase.data").joinpath(name).read_text()


def _data_lines(name: str):
    for raw in data_text(name).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line


def load_term_file(name: str):
    """Read a golden term list: (coefficient, slot tuples) per line.

    Each distinct slot is parsed once, and every term naming it holds
    that one tuple.
    """
    slots: dict[str, tuple[int, ...]] = {}
    terms = []
    for line in _data_lines(name):
        head, *keys = [part.strip() for part in line.split("|")]
        for key in keys:
            if key not in slots:
                slots[key] = _parse_key(key)
        terms.append((int(head), tuple(slots[key] for key in keys)))
    return terms


def load_psi3() -> dict[int, dict[tuple[int, ...], int]]:
    """Read the psi(3)(e_n) golden listings, as n -> {word: +1}."""
    out = {}
    for line in _data_lines("psi3.txt"):
        label, words = line.split(":")
        n = int(label.strip()[1:])
        out[n] = {tuple(int(ch) for ch in w): 1 for w in words.split()}
    return out


def golden_trace_from_text(text: str):
    """Parse a golden trace: (sign, cell, state) triples where state is
    the integer 2-chain after the step."""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, state_text = line.split(":")
        idx, sign_ch, cell_text = head.split()
        terms = {}
        if state_text.strip() != "0":
            for tok in state_text.split():
                t = tuple(int(ch) for ch in tok[1:])
                terms[t] = 1 if tok[0] == "+" else -1
        state = Chain(2, terms)
        if int(idx) != len(rows) + 1:
            raise ValueError(f"trace steps out of order at {line!r}")
        rows.append((1 if sign_ch == "+" else -1,
                     tuple(int(ch) for ch in cell_text), state))
    return rows


def load_golden_trace(path=None):
    """Read a golden trace file, defaulting to the packaged 56-step one."""
    if path is None:
        return golden_trace_from_text(data_text("mu56_trace.txt"))
    with open(path) as fh:
        return golden_trace_from_text(fh.read())
