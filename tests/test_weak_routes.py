"""The mismatch search behind weak satisfaction, partial identity and functionality.

``transducers._mismatch`` replaced three exponential, capped searches: the
pending-word search ``_subset_identity`` (morphic weak route, partial
identity, functionality) and, for an antimorphic involution on a cyclic
restriction, the pumping route (pairs up to the state count, pump triples
and a determinized rectangle check).  Both are kept here as references and
are compared wherever they finish within small caps.  So is the route that
decided asserted input-preserving descriptors before they went to the
general decider: functionality of the restriction, by squaring, plus a
guard for the empty word.  Every verdict is also checked against a
brute-force pair enumeration at a bounded length, and every witness against
the raw-edge oracles of ``tests/oracles.py``.
"""

import importlib.util
import itertools
import os
import random
import time
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dnacodec import transducers
from dnacodec.alphabets import BINARY, DNA, Alphabet, Permutation, dna_delta
from dnacodec.automata import Nfa, accepts, concat, parse_regex, star, theta_image, union
from dnacodec.errors import ResourceLimitError
from dnacodec.fado import parse_fado
from dnacodec.graphs import leaving, numbering, path_to, reachable, shortest_path, topological_order
from dnacodec.properties import (
    INPUT_PRESERVING,
    W_KIND,
    PropertyDescriptor,
    satisfies,
    satisfies_W_general,
)
from dnacodec.transducers import (
    Transducer,
    _all_words,
    _dag_pairs,
    _mismatch,
    _restriction,
    _words,
    included_in_recognizable,
    is_functional,
    is_length_preserving,
    is_partial_identity,
    normalize,
    relation_empty,
    restrict_input,
    restriction_search,
    trim,
)
from oracles import enumerate_pairs, grouped, pair_in_relation, violates_W

CAP = 2000  # the references give up (ResourceLimitError) past this many items

# -- the references: the searches the mismatch search replaced ------------------


def subset_identity(tn, cap=CAP):
    """Every realized pair of the trimmed normal form ``tn`` has x == y?

    Breadth-first over (state, side, pending): ``pending`` is the run of
    letters by which one tape is ahead.  A differing letter, a final state
    with pending letters, or pending longer than the state count refutes.
    """
    if tn.n_states == 0:
        return True, None
    ins, outs = grouped(tn)
    n = tn.n_states
    starts = [(q, 0, "") for q in sorted(tn.initial)]
    parents, seen, queue = {}, set(starts), deque(starts)

    def violation(cfg, ex, ey, dst):
        px, py = _words(path_to(parents, cfg))
        cx, cy = _words(shortest_path(leaving(tn.n_states, tn.edges), dst, tn.final))
        return px + ex + cx, py + ey + cy

    while queue:
        cfg = queue.popleft()
        q, side, pending = cfg
        if pending and q in tn.final:
            return False, _words(path_to(parents, cfg))
        moves = []
        for tape, edges in ((0, ins[q]), (1, outs[q])):
            for a, q2 in edges:
                ex, ey = (a, "") if tape == 0 else ("", a)
                if side != tape and pending:
                    if a != pending[0]:
                        return False, violation(cfg, ex, ey, q2)
                    moves.append((ex, ey, (q2, side, pending[1:])))
                elif len(pending) + 1 > n:
                    return False, violation(cfg, ex, ey, q2)
                else:
                    moves.append((ex, ey, (q2, tape, pending + a)))
        for ex, ey, nxt in moves:
            if not nxt[2]:
                nxt = (nxt[0], 0, "")
            if nxt not in seen:
                if len(seen) >= cap:
                    raise ResourceLimitError("identity reference exceeded its cap")
                seen.add(nxt)
                parents[nxt] = (cfg, (q, ex, ey, nxt[0]))
                queue.append(nxt)
    return True, None


def square(t):
    """The input-synchronized square: the two outputs of one input as a pair."""
    tn = trim(normalize(t))
    ins, outs = grouped(tn)
    index, walk, state = numbering((p, q) for p in tn.initial for q in tn.initial)
    initial = frozenset(range(len(index)))
    edges = []
    for src, (p, q) in walk:
        edges += [(src, "", "", state((p2, q2))) for a, p2 in ins[p] for b, q2 in ins[q] if a == b]
        edges += [(src, b, "", state((p2, q))) for b, p2 in outs[p]]
        edges += [(src, "", b, state((p, q2))) for b, q2 in outs[q]]
    final = frozenset(i for (p, q), i in index.items() if p in tn.final and q in tn.final)
    return Transducer(tn.alphabet, max(len(index), 1), edges, initial, final)


def listed_pairs(s):
    """The pairs of an acyclic ``s``, listed by ``_dag_pairs``; past CAP
    items the references give up."""
    with mock.patch.object(transducers, "_LISTING_CAP", CAP):
        pairs = _dag_pairs(s, leaving(s.n_states, s.edges))
    if pairs is None:
        raise ResourceLimitError("pair listing exceeded the reference cap")
    return pairs


def length_at_most(alphabet, n):
    edges = tuple((i, a, i + 1) for i in range(n) for a in alphabet)
    return Nfa(alphabet, n + 1, edges, frozenset({0}), frozenset(range(n + 1)))


def length_more_than(alphabet, n):
    edges = tuple((i, a, min(i + 1, n + 1)) for i in range(n + 2) for a in alphabet)
    return Nfa(alphabet, n + 2, edges, frozenset({0}), frozenset({n + 1}))


def pump_triples(s, theta, cap=CAP):
    """(x1, x2, x3) per simple prefix x1/y1 to a cycle state p, simple loop
    x2/y2 at p and split x2 = u v with theta^-1(y2) = v u; x3 = u theta^-1(y1)."""
    inv = theta.inverse()
    adj = [[] for _ in range(s.n_states)]
    for src, x, y, dst in s.edges:
        adj[src].append((x, y, dst))
    succ = [[e[3] for e in es] for es in leaving(s.n_states, s.edges)]
    on_cycle = {q for q in range(s.n_states) if q in reachable(succ, succ[q])}
    budget = [cap]

    def spend():
        budget[0] -= 1
        if budget[0] < 0:
            raise ResourceLimitError("pump reference exceeded its cap")

    def simple_paths(start, stop):
        """Labels and ends of the simple paths from ``start``; ``stop`` ends a path."""
        stack = [(start, "", "", {start})]
        while stack:
            q, x, y, seen = stack.pop()
            spend()
            yield x, y, q
            if q != stop or q == start and not x + y:
                for ex, ey, dst in adj[q]:
                    if dst == stop or dst not in seen:
                        stack.append((dst, x + ex, y + ey, seen | {dst}))

    triples = set()
    for q0 in sorted(s.initial):
        for x1, y1, p in list(simple_paths(q0, None)):
            if p not in on_cycle:
                continue
            for x2, y2, end in simple_paths(p, p):
                if end != p or not x2 or len(x2) != len(y2):
                    continue
                rotated = inv(y2)
                for d in range(len(x2)):
                    if x2[d:] + x2[:d] == rotated:
                        triples.add((x1, x2, x2[:d] + inv(y1)))
    return sorted(triples)


def pumping_route(s, theta):
    """The verdict of the parent's cyclic antimorphic-involution route on a
    trimmed, length-preserving, cyclic restriction ``s``."""
    short = trim(restrict_input(s, length_at_most(s.alphabet, s.n_states)))
    if any(y != theta(x) for x, y in listed_pairs(short)):
        return False
    long_part = trim(restrict_input(s, length_more_than(s.alphabet, s.n_states)))
    if relation_empty(long_part):
        return True
    rectangles = []
    for x1, x2, x3 in pump_triples(s, theta):
        word = lambda w: Nfa.word(s.alphabet, w)  # noqa: E731
        rectangles.append(
            (
                concat(word(x1), concat(star(word(x2)), word(x3))),
                concat(word(theta(x3)), concat(star(word(theta(x2))), word(theta(x1)))),
            )
        )
    ok, wit = included_in_recognizable(long_part, rectangles, CAP)
    if ok:
        return True
    if wit[1] != theta(wit[0]):
        return False
    return None  # the parent then searched pairs without a bound; no verdict here


def reference_weak(p, l):
    """The parent's general weak verdict, or None where its route does not
    finish within the caps or did not apply (antimorphic non-involutions)."""
    theta = p.theta
    s = trim(restrict_input(p.transducer, l, theta_image(l, theta)))
    try:
        if s.n_states == 0:
            return True
        if not theta.antimorphic:
            inv = theta.inverse()
            edges = tuple((a, x, inv.image(y) if y else y, b) for a, x, y, b in s.edges)
            relabeled = Transducer(s.alphabet, s.n_states, edges, s.initial, s.final)
            return subset_identity(relabeled)[0]
        if not theta.is_involution():
            return None
        if not is_length_preserving(s)[0]:
            return False
        if topological_order(leaving(s.n_states, s.edges)) is not None:
            return all(y == theta(x) for x, y in listed_pairs(s))
        return pumping_route(s, theta)
    except ResourceLimitError:
        return None


def reference_preserving(p, l):
    """The parent's verdict for an asserted input-preserving descriptor,
    exact while theta(w) is an output of T on every w: S is functional
    (each input's one output is then its theta-image), and no nonempty
    output of S on the empty word."""
    s = restrict_input(p.transducer, l, theta_image(l, p.theta))
    if not is_functional(s)[0]:
        return False
    if not accepts(l, ""):
        return True
    return restriction_search(s, Nfa.epsilon(s.alphabet), Nfa.nonempty(s.alphabet))[0] is None


# -- random instances -----------------------------------------------------------

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")


def all_permutations(alphabet):
    """Every letter table, morphic and antimorphic: for {a,b,c} this includes
    the order-3 antimorphic tables the parent rejected."""
    return [
        Permutation(alphabet, table, antimorphic)
        for table in itertools.permutations(alphabet.symbols)
        for antimorphic in (False, True)
    ]


@st.composite
def machines(draw, alphabet, pi=None):
    """Up to 4 states; most edges map one letter to one letter, so many
    machines preserve length and reach the mismatch search.  Given the
    letter table ``pi``, most of those map a to pi(a), so that many pairs
    lie on theta and a violation, if any, is rare."""
    n = draw(st.integers(1, 4))
    state = st.integers(0, n - 1)
    letter = st.sampled_from(alphabet.symbols)
    word = st.sampled_from(["", *alphabet.symbols, *(a + b for a in alphabet for b in "ab")])
    label = st.one_of(st.tuples(letter, letter), st.tuples(word, word))
    if pi is not None:
        label = st.one_of(letter.map(lambda a: (a, pi(a))), letter.map(lambda a: (a, pi(a))), label)
    edges = draw(st.lists(st.tuples(state, label, state), max_size=7))
    initial = draw(st.sets(state, min_size=1, max_size=2))
    final = draw(st.sets(state, min_size=1, max_size=2))
    return Transducer(alphabet, n, tuple((p, x, y, q) for p, (x, y), q in edges), initial, final)


@st.composite
def languages(draw, theta, starred=None):
    """``(nfa, member, words)``: a finite set of short words (``words``) or
    the star of one (``words`` None), its words often closed under theta so
    that the restriction is not empty."""
    alphabet = theta.alphabet
    word = st.text(alphabet="".join(alphabet.symbols), max_size=3)
    starred = draw(st.booleans()) if starred is None else starred
    if starred and draw(st.booleans()):  # powers of one letter: reversal does not show
        a = draw(st.sampled_from(alphabet.symbols))
        word = st.integers(1, 3).map(lambda k: a * k)
    words = draw(st.sets(word.filter(bool) if starred else word, min_size=starred, max_size=3 - starred))
    if draw(st.booleans()):
        words |= {theta(w) for w in words}
    l = Nfa.finite(alphabet, sorted(words))
    if not starred:
        return l, words.__contains__, words
    l = star(l)
    return l, lambda w: accepts(l, w), None


@st.composite
def weak_instances(draw, starred_antimorphic=False):
    """A weak descriptor and a language as ``languages`` gives it.  With
    ``starred_antimorphic`` the permutation is antimorphic, the language
    starred and the machine close to theta: the instances that used to
    reach the pumping route."""
    alphabet = draw(st.sampled_from([AB, ABC]))
    thetas = [t for t in all_permutations(alphabet) if t.antimorphic or not starred_antimorphic]
    theta = draw(st.sampled_from(thetas))
    pi = theta.image if starred_antimorphic else draw(st.sampled_from([None, theta.image]))
    t = draw(machines(alphabet, pi))
    return (PropertyDescriptor(t, theta, kind=W_KIND), *draw(languages(theta, starred_antimorphic or None)))


def bounded_violation(p, member, max_len):
    """A pair (u, v) of distinct language words of length <= max_len with
    theta(v) an output of T on u, found by enumerating T's pairs."""
    inv = p.theta.inverse()
    for x, y in enumerate_pairs(p.transducer, 2 * max_len):
        if len(x) <= max_len and len(y) <= max_len and member(x) and member(inv(y)) and x != inv(y):
            return x, inv(y)
    return None


def assert_weak_witness(p, member, witness):
    u, v = witness
    assert u != v and member(u) and member(v)
    assert pair_in_relation(p.transducer, u, p.theta(v))


# -- the deciders against the brute force and the references -------------------


def check_weak(case):
    p, l, member, words = case
    v = satisfies_W_general(p, l)
    brute = bounded_violation(p, member, 4)
    if brute is not None:
        assert not v.satisfied, brute
    if words is not None:  # a finite language: the oracle is exact
        assert v.satisfied == (violates_W(p.transducer, p.theta, words) is None)
    if not v.satisfied:
        assert_weak_witness(p, member, v.witness)
    if v.stats["restriction_states"]:
        assert v.stats["route"] in ("length", "acyclic", "mismatch")
    reference = reference_weak(p, l)
    if reference is not None:
        assert v.satisfied == reference


@settings(max_examples=400, deadline=None)
@given(weak_instances())
def test_general_decider_against_brute_force_and_parent(case):
    check_weak(case)


@settings(max_examples=300, deadline=None)
@given(weak_instances(starred_antimorphic=True))
def test_starred_antimorphic_against_brute_force_and_parent(case):
    check_weak(case)


@st.composite
def acyclic_antimorphic_instances(draw):
    """A weak descriptor with an antimorphic theta and a finite language of
    2 to 6 nonempty words, so that the restriction is acyclic and its pairs
    can be listed.  The machine joins a random one to a state of letter for
    letter loops, which relates many words of one length: about a third of
    the instances are violated."""
    alphabet = draw(st.sampled_from([AB, ABC]))
    theta = draw(st.sampled_from([t for t in all_permutations(alphabet) if t.antimorphic]))
    letter = st.sampled_from(alphabet.symbols)
    loops = draw(st.lists(st.tuples(letter, letter), min_size=1, max_size=4))
    base = Transducer(alphabet, 1, tuple((0, a, b, 0) for a, b in loops), {0}, {0})
    t = union(base, draw(machines(alphabet, draw(st.sampled_from([None, theta.image])))))
    word = st.text(alphabet="".join(alphabet.symbols), min_size=1, max_size=3)
    words = draw(st.sets(word, min_size=2, max_size=6))
    return PropertyDescriptor(t, theta, kind=W_KIND), Nfa.finite(alphabet, sorted(words))


@settings(max_examples=400, deadline=None)
@given(acyclic_antimorphic_instances())
def test_listing_past_its_cap_keeps_the_verdict(case):
    p, l = case
    listed = satisfies_W_general(p, l)
    with mock.patch.object(transducers, "_LISTING_CAP", 0):
        searched = satisfies_W_general(p, l)
    assert searched.satisfied == listed.satisfied
    if listed.stats.get("route") == "acyclic":
        assert searched.stats["route"] == "mismatch"


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([AB, ABC]).flatmap(machines))
def test_partial_identity_against_brute_force_and_parent(t):
    ok, wit = is_partial_identity(t)
    brute = next(((x, y) for x, y in enumerate_pairs(t, 8) if x != y), None)
    if brute is not None:
        assert not ok, brute
    if not ok:
        x, y = wit
        assert x != y and pair_in_relation(t, x, y)
    else:
        assert wit is None
    try:
        assert ok == subset_identity(trim(normalize(t)))[0]
    except ResourceLimitError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([AB, ABC]).flatmap(machines))
def test_functional_against_brute_force_and_parent(t):
    ok, wit = is_functional(t)
    outputs = {}
    for x, y in enumerate_pairs(t, 8):
        outputs.setdefault(x, set()).add(y)
    if any(len(ys) > 1 for ys in outputs.values()):
        assert not ok
    if not ok:
        x, y1, y2 = wit
        assert y1 != y2 and pair_in_relation(t, x, y1) and pair_in_relation(t, x, y2)
    try:
        assert ok == subset_identity(trim(normalize(square(t))))[0]
    except ResourceLimitError:
        pass


def test_one_weak_decision_trims_once(monkeypatch):
    passes = []
    keep = transducers.trim_keep
    monkeypatch.setattr(transducers, "trim_keep", lambda *args: passes.append(args) or keep(*args))
    p = PropertyDescriptor(Transducer.identity(BINARY), Permutation.mirror(BINARY), kind=W_KIND)
    for regex, route in (("01|10", "acyclic"), ("(01|10)*", "mismatch")):
        passes.clear()
        assert satisfies_W_general(p, parse_regex(regex, BINARY)).stats["route"] == route
        assert len(passes) == 1
    passes.clear()
    assert is_partial_identity(Transducer.identity(BINARY)) == (True, None)
    assert len(passes) == 1


def test_one_weak_decision_indexes_its_product_once(monkeypatch):
    # cyclic and antimorphic: the mismatch search runs and decodes a witness
    sizes = []
    index = transducers.leaving
    monkeypatch.setattr(transducers, "leaving", lambda n, edges: sizes.append(n) or index(n, edges))
    v = satisfies_W_general(PropertyDescriptor(Transducer.identity(DNA), dna_delta(), kind=W_KIND), Nfa.universal(DNA))
    assert not v.satisfied and v.stats["route"] == "mismatch"
    assert sizes == [v.stats["restriction_states"]]


def test_weak_walk_with_no_accepting_triple_skips_the_trim(monkeypatch):
    passes = []
    keep = transducers.trim_keep
    monkeypatch.setattr(transducers, "trim_keep", lambda *args: passes.append("trim_keep") or keep(*args))
    t, l, outputs = Transducer.identity(BINARY), Nfa.finite(BINARY, ["01"]), Nfa.finite(BINARY, ["10"])
    # the walk reads a 0 and finds triples, but T realizes no pair (01, 10): none accepts
    s, labels, uneven, states, transitions = _restriction(t, l, outputs, weak=True)
    assert (s.n_states, s.edges, s.initial, s.final) == (0, (), frozenset(), frozenset())
    assert (labels, uneven, states, transitions) == ([], None, 0, 0)
    v = satisfies_W_general(PropertyDescriptor(t, Permutation.mirror(BINARY), kind=W_KIND), l)
    assert v.satisfied and v.stats == {"restriction_states": 0, "restriction_edges": 0}
    assert passes == []
    _restriction(t, l, l, weak=True)  # (01, 01) accepts: the walk trims
    assert passes == ["trim_keep"]


def test_uneven_pair_ends_the_product_walk():
    # Case 0 of ``benchmark_satisfaction.py --transducer-states 1250
    # --transducer-edges 5000 --language-states 12``.  Its whole restriction
    # has about half a million triples; an accepting triple of nonzero
    # balance lies within the first thousand found breadth first.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "benchmark_satisfaction.py")
    spec = importlib.util.spec_from_file_location("benchmark_satisfaction", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rng = random.Random(1729)
    t = script.random_transducer(rng, 1250, 5000)
    l = script.random_language(rng, 12, dense=True)
    p = PropertyDescriptor(t, dna_delta(), kind=W_KIND)
    v = satisfies_W_general(p, l)
    assert not v.satisfied and v.stats["route"] == "length"
    assert_weak_witness(p, lambda w: accepts(l, w), v.witness)
    assert v.stats["restriction_states"] < 5000


# -- asserted input-preserving descriptors --------------------------------------


def preserving_base(theta, same_length):
    """A machine with theta(w) among its outputs on every w: all pairs of
    equal length (``same_length``), else the graph of a morphic theta, or
    all pairs for an antimorphic one, whose graph is not rational."""
    alphabet = theta.alphabet
    if same_length:
        edges = [(0, a, b, 0) for a in alphabet.symbols for b in alphabet.symbols]
    elif not theta.antimorphic:
        edges = [(0, a, theta.image(a), 0) for a in alphabet.symbols]
    else:
        edges = [(0, a, "", 0) for a in alphabet.symbols] + [(0, "", a, 0) for a in alphabet.symbols]
    return Transducer(alphabet, 1, tuple(edges), frozenset({0}), frozenset({0}))


@st.composite
def preserving_instances(draw):
    """A weak descriptor asserting input-preserving, true for every word by
    construction (a base of ``preserving_base`` joined with a random
    machine), and a language as ``languages`` gives it."""
    theta = draw(st.sampled_from(all_permutations(ABC)))
    pi = draw(st.sampled_from([None, theta.image]))
    t = union(preserving_base(theta, draw(st.booleans())), draw(machines(ABC, pi)))
    p = PropertyDescriptor(t, theta, kind=W_KIND, asserted_class=INPUT_PRESERVING)
    return (p, *draw(languages(theta)))


@settings(max_examples=1000, deadline=None)
@given(preserving_instances())
def test_preserving_assertion_against_oracle_and_parent(case):
    p, l, member, words = case
    v = satisfies(p, l, assertion_bound=3)
    assert v.decider == "satisfies_W_general"
    assert v.satisfied == reference_preserving(p, l)
    if words is not None:
        assert v.satisfied == (violates_W(p.transducer, p.theta, words) is None)
    if not v.satisfied:
        assert_weak_witness(p, member, v.witness)


# -- the rows the capped searches could not decide ------------------------------

WGEN = os.path.join(os.path.dirname(__file__), "fixtures", "wgen")
ASWAP = Permutation.from_mapping(BINARY, {"0": "1", "1": "0"}, antimorphic=True)


def wgen(name, alphabet, theta):
    with open(os.path.join(WGEN, name + ".fa"), encoding="utf-8") as fh:
        return PropertyDescriptor(parse_fado(fh.read(), alphabet), theta, kind=W_KIND)


@pytest.mark.parametrize(
    "name, alphabet, theta, regex, violated",
    [
        ("d2_one_mismatch", DNA, dna_delta(), "(A|T)*", True),
        ("b2_swap", BINARY, ASWAP, "(00|000)*", False),
    ],
)
def test_gap_rows(name, alphabet, theta, regex, violated):
    p = wgen(name, alphabet, theta)
    l = parse_regex(regex, alphabet)
    start = time.perf_counter()
    v = satisfies_W_general(p, l)
    elapsed = time.perf_counter() - start
    member = lambda w: accepts(l, w)  # noqa: E731
    assert v.satisfied != violated and v.stats["route"] == "mismatch"
    assert (bounded_violation(p, member, 4) is not None) == violated
    if violated:
        assert_weak_witness(p, member, v.witness)
    # the capped searches raised or ran for minutes; a second is ample slack
    assert elapsed < 1.0


# -- the mismatch search itself, on length-preserving machines ----------------


def balanced_edge(lam, p, q, a, b):
    """The edge from p to q that their balances allow: a read, a write or both."""
    step = {1: (a, ""), 0: (a, b), -1: ("", b)}.get(lam[q] - lam[p])
    return None if step is None else (p, *step, q)


@st.composite
def balanced_machines(draw, alphabet, pi=None):
    """Length-preserving machines built from a balance: each state gets one
    in [-2, 2] (0 for initial and final states), and an edge from balance l
    reads a letter to l + 1, writes one to l - 1, or does both to l.  Runs
    that write before they read are as common as the converse.  Given the
    letter table ``pi``, most edges read one letter a and write pi(a), so
    most pairs lie on theta and the few that do not must be found."""
    n = draw(st.integers(1, 5))
    lam = [0] + draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    state = st.integers(0, n - 1)
    letter = st.sampled_from(alphabet.symbols)
    read = write = letter
    if pi is not None:
        main = draw(letter)
        read, write = st.one_of(st.just(main), letter), st.one_of(st.just(pi(main)), letter)
    drawn = draw(st.lists(st.tuples(state, state, read, write), max_size=10))
    edges = [balanced_edge(lam, *e) for e in drawn]
    zero = st.sampled_from([q for q in range(n) if lam[q] == 0])
    initial = draw(st.sets(zero, min_size=1, max_size=2))
    final = draw(st.sets(zero, min_size=1, max_size=2))
    return Transducer(alphabet, n, tuple(e for e in edges if e), initial, final)


@st.composite
def run_machines(draw, theta):
    """One or two runs from state 0 to a final state, each a random
    interleaving of the letters of a pair (x, theta(x)) with at most one
    output letter changed, plus up to two edges between states whose
    balances allow them.  A changed letter whose output comes before the
    matching input can only be found with the output mark first."""
    letter = st.sampled_from(theta.alphabet.symbols)
    lam, edges, final = [0], [], set()
    for _ in range(draw(st.integers(1, 2))):
        x = draw(st.lists(letter, min_size=1, max_size=4))
        y = list(theta("".join(x)))
        if draw(st.booleans()):
            y[draw(st.integers(0, len(y) - 1))] = draw(letter)
        src, ins, outs = 0, iter(x), iter(y)
        for reads in draw(st.permutations([True] * len(x) + [False] * len(y))):
            edges.append((src, next(ins), "", len(lam)) if reads else (src, "", next(outs), len(lam)))
            lam.append(lam[src] + (1 if reads else -1))
            src = len(lam) - 1
        final.add(src)
    state = st.integers(0, len(lam) - 1)
    drawn = draw(st.lists(st.tuples(state, state, letter, letter), max_size=2))
    edges += [balanced_edge(lam, *e) for e in drawn]
    return Transducer(theta.alphabet, len(lam), tuple(e for e in edges if e), {0}, final)


def check_mismatch(t, theta):
    s, labels, uneven, _, _ = _restriction(t, _all_words(t.alphabet), weak=True)
    assert uneven is None and is_length_preserving(s)[0]
    wit = _mismatch(s, leaving(s.n_states, s.edges), theta, labels)
    brute = next(((x, y) for x, y in enumerate_pairs(s, 10) if y != theta(x)), None)
    if brute is not None:
        assert wit is not None, brute
    if wit is not None:
        x, y = wit
        assert y != theta(x) and pair_in_relation(t, x, y)


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_mismatch_against_enumerate_pairs(data):
    theta = data.draw(st.sampled_from(all_permutations(ABC)))
    pi = data.draw(st.sampled_from([None, theta.image, theta.image]))
    check_mismatch(data.draw(balanced_machines(ABC, pi)), theta)


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_mismatch_on_runs_against_enumerate_pairs(data):
    theta = data.draw(st.sampled_from(all_permutations(ABC)))
    check_mismatch(data.draw(run_machines(theta)), theta)


@pytest.mark.parametrize(
    "theta, steps, witness",
    [
        # antimorphic: only x2 = b against y2 = c is off theta, and y2 is
        # written before b is read with one unmatched read before it
        (
            Permutation.mirror(ABC),
            [("a", ""), ("", "a"), ("", "c"), ("", "a"), ("b", ""), ("a", "")],
            ("aba", "aca"),
        ),
        # morphic: both letters are written before either is read
        (Permutation.identity(ABC), [("", "a"), ("", "c"), ("a", ""), ("b", "")], ("ab", "ac")),
    ],
)
def test_mismatch_output_mark_first(theta, steps, witness):
    edges = tuple((i, x, y, i + 1) for i, (x, y) in enumerate(steps))
    t = Transducer(ABC, len(steps) + 1, edges, {0}, {len(steps)})
    s, labels, uneven, _, _ = _restriction(t, _all_words(ABC), weak=True)
    assert uneven is None
    assert _mismatch(s, leaving(s.n_states, s.edges), theta, labels) == witness
