"""Graph utilities shared by every machine construction and decision procedure.

States are dense integers ``0..n-1``.  An edge is any tuple whose first
item is its source and whose last item is its target, so NFA edges
``(src, sym, dst)`` and transducer edges ``(src, inp, out, dst)`` go
through the same code; the edges of one call all have the same length.
Per state, ``succ[q]`` lists either the targets of the edges leaving ``q``
(target lists, which ``reachable`` reads) or those edges themselves, in
edge order (the edge index ``leaving(n, edges)``, which ``topological_order``
and ``shortest_path`` read; a product builds it once for all its walks).
The searches are ``reachable``, ``search``/``shortest_path`` (breadth first,
with the parents ``path_to`` reads), ``topological_order`` and ``numbering``;
there is no weighted search.  ``numbering`` decides how the states of a product
construction are numbered and where a state cap stops it.  The one exception is
the restriction walk (``transducers._restriction``), which numbers its triples
inline, in the same breadth-first order, to save a call per edge; a budget on
product sizes has to be checked there as well.
"""

from __future__ import annotations

from typing import Callable, Container, Hashable, Iterable, Optional, Sequence

from .errors import ResourceLimitError

INF = float("inf")


def _target(edges: Sequence[tuple]) -> int:
    # A non-negative index: CPython indexes a tuple by ``e[k]`` for k >= 0
    # markedly faster than by ``e[-1]``, and these loops run once per edge.
    return len(edges[0]) - 1 if edges else 0


def leaving(n: int, edges: Sequence[tuple]) -> list[list[tuple]]:
    """The edge index: per state, the edges leaving it, in edge order."""
    succ: list[list[tuple]] = [[] for _ in range(n)]
    for e in edges:
        succ[e[0]].append(e)
    return succ


def reachable(succ: list[list[int]], sources: Iterable[int]) -> set[int]:
    """The states reachable from ``sources`` in zero or more steps."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for r in succ[stack.pop()]:
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return seen


def trim_keep(n: int, edges: Sequence[tuple], initial: Iterable[int], final: Iterable[int]) -> list[int]:
    """The sorted states on some path from ``initial`` to ``final``."""
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    last = _target(edges)
    for e in edges:
        src, dst = e[0], e[last]
        succ[src].append(dst)
        pred[dst].append(src)
    return sorted(reachable(succ, initial) & reachable(pred, final))


def topological_order(succ: list[list[tuple]]) -> Optional[list[int]]:
    """All states of the edge index ``succ`` ordered so that every edge points
    forward, or None on a cycle."""
    indegree = [0] * len(succ)
    last = _target(next(filter(None, succ), ()))
    for es in succ:
        for e in es:
            indegree[e[last]] += 1
    order = [q for q, d in enumerate(indegree) if not d]
    for q in order:  # Kahn: the list grows while it is walked
        for e in succ[q]:
            indegree[r := e[last]] -= 1
            if not indegree[r]:
                order.append(r)
    return order if len(order) == len(succ) else None


def search(starts: Iterable[Hashable], moves: Callable, goal: Callable) -> tuple[Optional[Hashable], dict]:
    """``(node, parents)``: breadth first from ``starts``, the first node taken for which ``goal(node)``
    holds, or None, and the parents ``path_to`` reads.  ``moves(node)`` yields ``(label, next)``; a node
    is queued once, under the first label reaching it, and ``parents`` holds every node queued."""
    parents: dict = dict.fromkeys(starts)
    queue = list(parents)
    for node in queue:  # the list grows while it is walked
        if goal(node):
            return node, parents
        for label, nxt in moves(node):
            if nxt not in parents:
                parents[nxt] = (node, label)
                queue.append(nxt)
    return None, parents


def shortest_path(succ: list[list[tuple]], start: int, goals: Container[int]) -> Optional[list[tuple]]:
    """The edges of a shortest path from ``start`` into ``goals``, breadth first
    over the edge index ``succ`` and the first found of that length; None if none."""
    last = _target(next(filter(None, succ), ()))
    node, parents = search((start,), lambda q: ((e, e[last]) for e in succ[q]), goals.__contains__)
    return None if node is None else path_to(parents, node)


def bit_image(rows: Sequence[int]) -> Callable[[int], int]:
    """``image(mask)``: the OR of ``rows[i]`` over the bits ``i`` set in ``mask``, read a byte at a time
    from the low end up to its highest set byte; each byte position caches its ORs under the byte's value."""
    caches = [({}, rows[base : base + 8]) for base in range(0, len(rows), 8)]

    def image(mask: int) -> int:
        acc = 0
        for memo, part in caches:
            if byte := mask & 255:
                if (row := memo.get(byte)) is None:
                    row = 0
                    for j, r in enumerate(part):
                        if byte >> j & 1:
                            row |= r
                    memo[byte] = row
                acc |= row
            if not (mask := mask >> 8):
                break
        return acc

    return image


def numbering(starts: Iterable[Hashable], cap: Optional[int] = None):
    """Number the keys of a product construction breadth-first.

    Returns ``(index, walk, state)``.  ``state(key)`` returns the number of
    ``key``; a key seen for the first time gets the next number.  The
    ``starts`` are numbered first, in their iteration order.  ``walk``
    yields ``(number, key)`` once for every numbered key, in number order,
    including keys numbered while it runs.  Numbering more than ``cap``
    keys raises :class:`ResourceLimitError`.
    """
    index: dict = {}
    keys: list = []

    def state(key) -> int:
        i = index.get(key)
        if i is None:
            i = len(index)
            if cap is not None and i >= cap:
                raise ResourceLimitError(f"product construction exceeded the cap of {cap} states")
            index[key] = i
            keys.append(key)
        return i

    for key in starts:
        state(key)
    # List iterators see the keys appended while they run.  The numbers
    # come from ``index``, so edges built from ``walk`` share its int
    # objects instead of holding copies.
    return index, zip(map(index.__getitem__, keys), keys), state


def path_to(parents: dict, node) -> list:
    """The labels on the parent chain from its root to ``node``, root first.

    ``parents[child]`` is ``(parent, label)``; a node without an entry, or
    whose entry is ``None``, is a root.
    """
    labels = []
    while (step := parents.get(node)) is not None:
        node, label = step
        labels.append(label)
    labels.reverse()
    return labels
