"""The graph helpers against brute force on random small digraphs."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from dnacodec.errors import ResourceLimitError
from dnacodec.graphs import (
    INF,
    bit_image,
    leaving,
    numbering,
    path_to,
    reachable,
    search,
    shortest_path,
    topological_order,
    trim_keep,
)


@st.composite
def digraphs(draw, min_states=0):
    """``(n, edges)``: NFA-shaped edges ``(src, sym, dst)``, ``None`` for epsilon."""
    n = draw(st.integers(min_states, 8))
    if n == 0:
        return 0, []
    state = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(state, st.sampled_from([None, "a", "b"]), state), max_size=20))
    return n, edges


def target_lists(n, edges):
    """Per state, the targets of its edges in edge order: what ``reachable`` reads."""
    return [[e[-1] for e in es] for es in leaving(n, edges)]


def state_sets(n):
    return st.sets(st.integers(0, n - 1)) if n else st.just(set())


def closure(n, edges):
    """``reach[p][q]``: q is reachable from p in one or more steps."""
    reach = [[False] * n for _ in range(n)]
    for s, _sym, d in edges:
        reach[s][d] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    reach[i][j] = reach[i][j] or reach[k][j]
    return reach


def reached_from(n, edges, sources):
    reach = closure(n, edges)
    return set(sources) | {q for p in sources for q in range(n) if reach[p][q]}


@settings(max_examples=200)
@given(digraphs().flatmap(lambda g: st.tuples(st.just(g), state_sets(g[0]), state_sets(g[0]))))
def test_reachability_and_trim(case):
    (n, edges), sources, targets = case
    expected = reached_from(n, edges, sources)
    assert reachable(target_lists(n, edges), sources) == expected
    reversed_edges = [(d, sym, s) for s, sym, d in edges]
    keep = expected & reached_from(n, reversed_edges, targets)
    assert trim_keep(n, edges, sources, targets) == sorted(keep)
    # transducer-shaped edges go through the same code
    wide = [(s, "x", "", d) for s, _sym, d in edges]
    assert trim_keep(n, wide, sources, targets) == sorted(keep)


@settings(max_examples=300)
@given(digraphs())
def test_topological_order_and_cycle_states(graph):
    n, edges = graph
    reach = closure(n, edges)
    on_cycle = {q for q in range(n) if reach[q][q]}
    order = topological_order(leaving(n, edges))
    if on_cycle:
        assert order is None
    else:
        assert sorted(order) == list(range(n))
        position = {q: i for i, q in enumerate(order)}
        assert all(position[s] < position[d] for s, _sym, d in edges)


@settings(max_examples=200)
@given(
    digraphs(min_states=1).flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.lists(st.integers(0, g[0] - 1), min_size=1, max_size=4),
            st.integers(1, 9),
        )
    )
)
def test_numbering_is_breadth_first_with_starts_first(case):
    (n, edges), starts, cap = case
    succ = target_lists(n, edges)
    # reference: FIFO discovery order, duplicates of a start counted once
    order = list(dict.fromkeys(starts))
    queue = deque(order)
    while queue:
        for r in succ[queue.popleft()]:
            if r not in order:
                order.append(r)
                queue.append(r)

    def explore(cap):
        index, walk, state = numbering((("q", q) for q in starts), cap)
        walked = []
        for number, key in walk:
            walked.append((number, key))
            for r in succ[key[1]]:
                state(("q", r))
        return index, walked

    index, walked = explore(None)
    keys = [("q", q) for q in order]
    assert walked == list(enumerate(keys))
    assert index == {key: i for i, key in enumerate(keys)}
    if len(order) > cap:
        with pytest.raises(ResourceLimitError):
            explore(cap)
    else:
        assert explore(cap)[1] == walked


@settings(max_examples=200)
@given(digraphs(min_states=1).flatmap(lambda g: st.tuples(st.just(g), st.integers(0, g[0] - 1))))
def test_path_to_follows_bfs_parents(case):
    (n, edges), root = case
    succ = target_lists(n, edges)
    parents = {}
    seen = {root}
    queue = deque([root])
    while queue:
        q = queue.popleft()
        for r in succ[q]:
            if r not in seen:
                seen.add(r)
                parents[r] = (q, (q, r))
                queue.append(r)
    hops_to = {root: 0}  # brute force: shortest hop counts by relaxation
    for _ in range(n):
        for s, _sym, d in edges:
            if s in hops_to and hops_to[s] + 1 < hops_to.get(d, INF):
                hops_to[d] = hops_to[s] + 1
    assert set(hops_to) == seen
    for node in seen:
        steps = path_to(parents, node)
        hops = [root] + [dst for _src, dst in steps]
        assert all(src == hops[i] for i, (src, _dst) in enumerate(steps))
        assert hops[-1] == node
        assert len(steps) == hops_to[node]


@settings(max_examples=300)
@given(
    digraphs(min_states=1).flatmap(
        lambda g: st.tuples(st.just(g), st.lists(st.integers(0, g[0] - 1), max_size=4), state_sets(g[0]))
    )
)
def test_search_takes_the_first_goal_in_breadth_first_order(case):
    (n, edges), starts, goals = case
    succ = target_lists(n, edges)
    order = list(dict.fromkeys(starts))  # reference: FIFO discovery order
    for q in order:
        order.extend(r for r in dict.fromkeys(succ[q]) if r not in order)
    depth = dict.fromkeys(starts, 0)  # brute force: hops from the nearest start, by relaxation
    for _ in range(n):
        for s, _sym, d in edges:
            if s in depth and depth[s] + 1 < depth.get(d, INF):
                depth[d] = depth[s] + 1
    index = leaving(n, edges)
    node, parents = search(starts, lambda q: ((e, e[-1]) for e in index[q]), goals.__contains__)
    first = next((q for q in order if q in goals), None)
    assert node == first
    if node is None:
        assert set(parents) == set(order) == set(depth)
        return
    path = path_to(parents, node)
    assert len(path) == depth[node] and all(e in edges for e in path)
    ends = [path[0][0] if path else node] + [d for _s, _sym, d in path]
    assert ends[0] in starts and ends[-1] == node
    assert all(s == ends[i] for i, (s, _sym, _d) in enumerate(path))


@settings(max_examples=200)
@given(digraphs(min_states=1).flatmap(lambda g: st.tuples(st.just(g), st.integers(0, g[0] - 1), state_sets(g[0]))))
def test_shortest_path_follows_edges_into_the_goals(case):
    (n, edges), start, goals = case
    hops_to = {start: 0}  # brute force: shortest hop counts by relaxation
    for _ in range(n):
        for s, _sym, d in edges:
            if s in hops_to and hops_to[s] + 1 < hops_to.get(d, INF):
                hops_to[d] = hops_to[s] + 1
    path = shortest_path(leaving(n, edges), start, goals)
    reached = [hops_to[q] for q in goals if q in hops_to]
    if not reached:
        assert path is None
        return
    assert len(path) == min(reached) and all(e in edges for e in path)
    ends = [start] + [d for _s, _sym, d in path]
    assert all(s == ends[i] for i, (s, _sym, _d) in enumerate(path)) and ends[-1] in goals


@settings(max_examples=300)
@given(st.integers(0, 70).flatmap(
    lambda n: st.tuples(st.lists(st.integers(0, 2**70 - 1), min_size=n, max_size=n),
                        st.lists(st.integers(0, 2**n - 1), max_size=12))
))
def test_bit_image_is_the_or_of_the_rows_of_its_bits(case):
    # several masks per image, so that later ones read bytes that earlier ones cached
    rows, masks = case
    image = bit_image(rows)
    for mask in masks:
        expected = 0
        for i, row in enumerate(rows):
            if mask >> i & 1:
                expected |= row
        assert image(mask) == expected
