"""Reference checks the benchmark applies to the program's outputs.

Nothing here imports ``dnacodec``: machines are read from their text form
and searched edge by edge, so a witness that passes these checks was
validated independently of the code under test.
"""

from __future__ import annotations

EPSILON = "@epsilon"


class RawMachine:
    """A transducer as a plain edge list of ``(src, inp, out, dst)``, with
    ``""`` for the empty label."""

    def __init__(self, edges: list, initial: set, final: set):
        self.edges = edges
        self.initial = initial
        self.final = final
        self.out: dict = {}
        for edge in edges:
            self.out.setdefault(edge[0], []).append(edge)


def parse_machine(text: str) -> RawMachine:
    """Read a transducer in the line-based machine format (``@Transducer``
    header, one edge per line, ``@epsilon`` for the empty label)."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    header = lines[0]
    star = header.index("*")
    names: dict[str, int] = {}

    def state(name: str) -> int:
        return names.setdefault(name, len(names))

    final = {state(n) for n in header[1:star]}
    initial = {state(n) for n in header[star + 1 :]}
    edges = []
    for row in lines[1:]:
        labels = ["" if tok == EPSILON else tok for tok in row[1:-1]]
        edges.append((state(row[0]), *labels, state(row[-1])))
    return RawMachine(edges, initial, final)


def pair_in_relation(t: RawMachine, u: str, v: str) -> bool:
    """Does the transducer relate input ``u`` to output ``v``?"""
    seen = set()
    stack = [(q, 0, 0) for q in t.initial]
    while stack:
        item = stack.pop()
        if item in seen:
            continue
        seen.add(item)
        q, i, j = item
        if i == len(u) and j == len(v) and q in t.final:
            return True
        for _src, inp, out, dst in t.out.get(q, ()):
            if u.startswith(inp, i) and v.startswith(out, j):
                stack.append((dst, i + len(inp), j + len(out)))
    return False


class Theta:
    """A letter bijection applied morphically or antimorphically."""

    def __init__(self, table: dict[str, str], antimorphic: bool):
        self.table = table
        self.antimorphic = antimorphic

    def __call__(self, word: str) -> str:
        out = "".join(self.table[c] for c in word)
        return out[::-1] if self.antimorphic else out


DNA_DELTA = Theta({"A": "T", "T": "A", "C": "G", "G": "C"}, True)


def weak_witness_ok(t: RawMachine, theta: Theta, in_language, witness) -> bool:
    """A weak-kind witness: two distinct language words ``(u, v)`` with
    ``theta(v)`` among the transducer's outputs on ``u``."""
    if not isinstance(witness, (list, tuple)) or len(witness) != 2:
        return False
    u, v = witness
    return u != v and in_language(u) and in_language(v) and pair_in_relation(t, u, theta(v))
