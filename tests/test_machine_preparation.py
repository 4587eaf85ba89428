"""Machine preparation: constructor checks, the normal form and its on-demand view."""

import gc
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dnacodec import automata
from dnacodec.alphabets import DNA, Alphabet, Permutation, dna_delta
from dnacodec.automata import (
    Nfa,
    complement,
    concat,
    determinize,
    intersect,
    remove_epsilon,
    star,
    theta_image,
    union,
)
from dnacodec.dna import PROPERTY_NAMES, VARIANTS, named_property
from dnacodec.graphs import reachable, trim_keep
from dnacodec.properties import W_KIND, is_maximal, satisfies
from dnacodec.transducers import (
    Transducer,
    _restriction,
    bounded_counterexample,
    compose,
    image,
    included_in_recognizable,
    inverse,
    is_functional,
    normalize,
    restrict_input,
    restriction_search,
    trim,
)
from oracles import grouped

AB = Alphabet.of("ab")


# -- constructor rejection --------------------------------------------------

# (states, edges, initial, final, pattern the message must match); the
# pattern names the offending edge, state, symbol or state count.
BAD_TRANSDUCERS = {
    "bad source": (2, ((0, "a", "b", 1), (5, "a", "b", 0)), {0}, {1}, r"\(5, ?'a', ?'b', ?0\)"),
    "bad target": (2, ((0, "a", "b", 7),), {0}, {1}, r"\(0, ?'a', ?'b', ?7\)"),
    "negative state": (2, ((-1, "a", "", 0),), {0}, {1}, r"\(-1, ?'a', ?'', ?0\)"),
    "initial out of range": (2, (), {2}, {1}, r"state 2\b"),
    "negative initial": (2, (), {-1}, {1}, r"state -1\b"),
    "final out of range": (2, ((0, "a", "", 1),), {0}, {3}, r"state 3\b"),
    "foreign input letter": (1, ((0, "a", "a", 0), (0, "x", "a", 0)), {0}, {0}, r"'x'"),
    "foreign letter inside an input word": (1, ((0, "ax", "", 0),), {0}, {0}, r"'a?x'"),
    "foreign output letter": (1, ((0, "a", "z", 0),), {0}, {0}, r"'z'"),
    "label None": (1, ((0, None, "a", 0),), {0}, {0}, r"\(0, None, 'a', 0\)"),
    "label int": (1, ((0, "a", 7, 0),), {0}, {0}, r"\(0, 'a', 7, 0\)"),
    "edge of 3": (1, ((0, "a", 0),), {0}, {0}, r"\(0, 'a', 0\) is not 4 parts"),
    "fractional count": (2.5, (), {0}, {1}, r"n_states .* 2\.5\b"),
}

BAD_NFAS = {
    "bad source": (2, ((0, "a", 1), (4, "a", 0)), {0}, {1}, r"\(4, ?'a', ?0\)"),
    "bad target": (2, ((0, None, 9),), {0}, {1}, r"\(0, ?None, ?9\)"),
    "negative state": (2, ((0, "b", -2),), {0}, {1}, r"\(0, ?'b', ?-2\)"),
    "initial out of range": (2, (), {5}, {1}, r"state 5\b"),
    "final out of range": (2, ((0, "a", 1),), {0}, {2}, r"state 2\b"),
    "foreign symbol": (2, ((0, "a", 1), (1, "x", 0)), {0}, {1}, r"'x'"),
    "multi-letter symbol": (2, ((0, "ab", 1),), {0}, {1}, r"'ab'"),
    "edge of 4": (1, ((0, "a", "a", 0),), {0}, {0}, r"\(0, 'a', 'a', 0\) is not 3 parts"),
    "edge of 2": (1, ((0, "a"),), {0}, {0}, r"\(0, 'a'\) is not 3 parts"),
    "float state": (2, ((0, "a", 1.0),), {0}, {1}, r"\(0, 'a', 1\.0\)"),
    "float initial state": (2, ((0, "a", 1),), {0.0}, {1}, r"state 0\.0\b"),
    "negative count": (-1, (), set(), set(), r"n_states .* -1\b"),
    "string count": ("2", (), set(), set(), r"n_states .* '2'"),
}


# Valid edges put in front of the bad ones, so that the check has to find
# the offender among many edges rather than at the first one.
PADS = (0, 40)


@pytest.mark.parametrize("pad", PADS)
@pytest.mark.parametrize("case", sorted(BAD_TRANSDUCERS))
def test_transducer_constructor_names_the_offender(case, pad):
    n, edges, initial, final, pattern = BAD_TRANSDUCERS[case]
    with pytest.raises(ValueError, match=pattern):
        Transducer(AB, n, ((0, "a", "ab", 0),) * pad + edges, initial, final)


@pytest.mark.parametrize("pad", PADS)
@pytest.mark.parametrize("case", sorted(BAD_NFAS))
def test_nfa_constructor_names_the_offender(case, pad):
    n, edges, initial, final, pattern = BAD_NFAS[case]
    with pytest.raises(ValueError, match=pattern):
        Nfa(AB, n, ((0, "b", 0),) * pad + edges, initial, final)


@pytest.mark.parametrize("pad", PADS)
def test_constructors_accept_valid_and_empty_machines(pad):
    assert Transducer(AB, 0, (), set(), set()).n_states == 0
    assert Nfa(AB, 0, (), set(), set()).n_states == 0
    t_edges = ((0, "ab", "", 1), (1, "", "", 0), (1, "", "ba", 1)) * (pad + 1)
    assert Transducer(AB, 2, t_edges, {0}, {1}).edges == t_edges
    m_edges = ((0, "a", 1), (1, None, 0)) * (pad + 1)
    assert Nfa(AB, 2, m_edges, {0, 1}, {1}).edges == m_edges


# -- normalize against the closure-per-state construction -----------------


def reference_normalize(t: Transducer) -> tuple:
    """The normal form as built by one epsilon closure per state; the oracle.

    Returns ``(n_states, edges, initial, final)``.
    """
    split_edges = []
    n = t.n_states
    for p, x, y, q in t.edges:
        steps = [(ch, "") for ch in x] + [("", ch) for ch in y]
        if len(steps) <= 1:
            split_edges.append((p, x, y, q))
            continue
        cur = p
        for xi, yi in steps[:-1]:
            split_edges.append((cur, xi, yi, n))
            cur = n
            n += 1
        xi, yi = steps[-1]
        split_edges.append((cur, xi, yi, q))
    eps_adj = [[] for _ in range(n)]
    letter_edges = [[] for _ in range(n)]
    for p, x, y, q in split_edges:
        if not x and not y:
            eps_adj[p].append(q)
        else:
            letter_edges[p].append((x, y, q))
    new_edges = set()
    final = set()
    for p in range(n):
        cl = reachable(eps_adj, (p,))
        if cl & t.final:
            final.add(p)
        for q in cl:
            for x, y, r in letter_edges[q]:
                new_edges.add((p, x, y, r))
    return max(n, 1), tuple(sorted(new_edges)), frozenset(t.initial), frozenset(final)


LABELS = ["", "", "a", "b", "ab", "ba", "aab"]


@st.composite
def transducers(draw):
    n = draw(st.integers(0, 5))
    if n == 0:
        return Transducer(AB, 0, (), set(), set())
    states = st.integers(0, n - 1)
    eps_edge = st.tuples(states, st.just(""), st.just(""), states)
    word_edge = st.tuples(states, st.sampled_from(LABELS), st.sampled_from(LABELS), states)
    edges = draw(st.lists(st.one_of(eps_edge, word_edge), max_size=3 * n + 2))
    initial = draw(st.sets(states, max_size=2))
    final = draw(st.sets(states, max_size=n))
    return Transducer(AB, n, tuple(edges), initial, final)


def _as_tuple(t: Transducer) -> tuple:
    return t.n_states, t.edges, t.initial, t.final


# An epsilon cycle through a final state, next to word labels on both tapes.
EPS_CYCLE = Transducer(
    AB, 3, ((0, "", "", 1), (1, "", "", 0), (1, "ab", "b", 2), (2, "", "", 2), (0, "a", "ba", 0)), {0}, {1}
)
# An epsilon chain into a final state; the chain's sources gain its letter edges.
EPS_CHAIN = Transducer(
    AB, 4, ((0, "", "", 1), (1, "", "", 2), (2, "", "", 3), (2, "b", "", 0), (1, "", "aab", 3)), {0}, {3}
)


@settings(max_examples=400, deadline=None)
@given(transducers())
@example(EPS_CYCLE)
@example(EPS_CHAIN)
@example(Transducer(AB, 0, (), set(), set()))
@example(Transducer(AB, 1, (), {0}, {0}))
@example(Transducer(AB, 1, ((0, "", "", 0),), {0}, {0}))
def test_normalize_matches_the_closure_per_state_construction(t):
    expected = reference_normalize(t)
    tn = normalize(t)
    assert _as_tuple(tn) == expected
    assert normalize(tn) is tn
    assert normalize(t) is tn
    assert all(len(x) + len(y) == 1 for _, x, y, _ in tn.edges)


# -- results that skip the constructor check -------------------------------


@st.composite
def nfas(draw):
    n = draw(st.integers(0, 5))
    if n == 0:
        return Nfa(AB, 0, (), set(), set())
    states = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(states, st.sampled_from((None, "a", "b")), states), max_size=3 * n))
    return Nfa(AB, n, tuple(edges), draw(st.sets(states, max_size=2)), draw(st.sets(states, max_size=n)))


THETAS = [Permutation(AB, table, anti) for table in (("a", "b"), ("b", "a")) for anti in (False, True)]


@settings(max_examples=300, deadline=None)
@given(nfas(), nfas(), transducers(), transducers(), st.sampled_from(THETAS))
@example(Nfa(AB, 3, ((0, "a", 1), (2, "b", 0)), {0}, {1}), Nfa.universal(AB), EPS_CHAIN, EPS_CYCLE, THETAS[3])
def test_unchecked_results_pass_the_checked_constructor(a, b, t, u, theta):
    # Every operation on checked machines builds its result through
    # ``_trusted``, unchecked; the checked constructor must take each as it is.
    results = [
        trim(a), remove_epsilon(a), union(a, b), concat(a, b), star(a), intersect(a, b),
        determinize(a), complement(a), theta_image(a, theta), image(t, a),
        normalize(t), trim(t), trim(normalize(t)), inverse(t), compose(t, u), union(t, u),
        restrict_input(t, a), restrict_input(t, a, b), _restriction(t, a, b, weak=True)[0],
    ]
    for m in filter(None, results):  # a weak walk that finds an uneven pair gives None
        rebuilt = type(m)(m.alphabet, m.n_states, m.edges, m.initial, m.final)
        assert (rebuilt.n_states, rebuilt.edges, rebuilt.initial, rebuilt.final) == _as_tuple(m)


# -- one trim for both kinds -------------------------------------------------


def test_transducers_trim_is_the_automata_trim():
    assert trim is automata.trim  # imported from ``dnacodec.transducers``


@settings(max_examples=400, deadline=None)
@given(st.one_of(nfas(), transducers()))
@example(EPS_CYCLE)
@example(EPS_CHAIN)
@example(Nfa(AB, 3, ((0, None, 2), (2, "a", 1), (1, "b", 0)), {0}, {2}))
def test_trim_keeps_the_useful_states_renumbered_in_order(m):
    keep = trim_keep(m.n_states, m.edges, m.initial, m.final)
    t = trim(m)
    assert type(t) is type(m)
    if len(keep) == m.n_states:
        assert t is m
        return
    assert t.n_states == len(keep)
    # read back through ``keep``, the edges are those of ``m`` between kept states, in order
    back = [(keep[e[0]], *e[1:-1], keep[e[-1]]) for e in t.edges]
    assert back == [e for e in m.edges if e[0] in keep and e[-1] in keep]
    assert {keep[q] for q in t.initial} == m.initial & set(keep)
    assert {keep[q] for q in t.final} == m.final & set(keep)


# -- the normal form on demand -----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(transducers(), st.randoms(use_true_random=False))
@example(EPS_CYCLE, random.Random(0))
@example(EPS_CHAIN, random.Random(1))
def test_view_filled_in_any_order_matches_the_normal_form(machine, rng):
    def fresh():  # the examples are shared, and normal forms memoized on them
        return Transducer(machine.alphabet, machine.n_states, machine.edges, machine.initial, machine.final)

    reference = normalize(fresh())
    ins, outs = grouped(reference)
    final = reference.final
    t = fresh()
    v = t.view()
    # The view numbers the first chain state of edge i n + i; the normal form
    # numbers every chain state densely, by edge and then position.
    n = max(t.n_states, 1)
    relabel, chain = {q: q for q in range(n)}, n
    for i, (_, x, y, _) in enumerate(t.edges):
        if len(x) + len(y) > 1:
            relabel[n + i] = chain
            chain += len(x) + len(y) - 1

    def moves(q):  # the moves of state q of the view, relabelled
        return [(a, relabel[r]) for a, r in v.ins[q]], [(b, relabel[r]) for b, r in v.outs[q]]
    order = list(range(n))
    rng.shuffle(order)
    for q in order:
        if v.final[q] is None:
            assert v.fill(q) == (q in final)
        assert (*moves(q), v.final[q]) == (ins[q], outs[q], q in final)
    assert all((*moves(q), v.final[q]) == (ins[q], outs[q], q in final) for q in order)
    assert t._normal_form is None
    tn = normalize(t)  # built on the view the loop filled
    assert _as_tuple(tn) == reference_normalize(t)
    assert tn.view() is not v and _filled(tn) == (ins, outs)


@settings(max_examples=300, deadline=None)
@given(transducers(), nfas(), nfas())
@example(EPS_CYCLE, Nfa.universal(AB), Nfa.universal(AB))
@example(EPS_CHAIN, Nfa.universal(AB), Nfa.universal(AB))
def test_searches_on_the_view_match_the_normal_form(machine, l, m):
    t = Transducer(machine.alphabet, machine.n_states, machine.edges, machine.initial, machine.final)
    tn = normalize(Transducer(t.alphabet, t.n_states, t.edges, t.initial, t.final))
    # one view for every call, so later calls read states earlier ones filled
    for nonempty in (False, True):
        for swapped in (False, True):
            assert restriction_search(t, l, m, nonempty, swapped) == restriction_search(tn, l, m, nonempty, swapped)
    s, labels, bad, states, transitions = _restriction(t, l, m, weak=True)
    sn, labels_n, bad_n, states_n, transitions_n = _restriction(tn, l, m, weak=True)
    assert (labels, bad, states, transitions) == (labels_n, bad_n, states_n, transitions_n)
    assert (s and _as_tuple(s)) == (sn and _as_tuple(sn))
    assert t._normal_form is None


# -- the view of each machine -------------------------------------------------


def _filled(t: Transducer) -> tuple:
    """The moves of the states of ``t`` in its view, every state filled."""
    v = t.view().filled()
    return v.ins[: t.n_states], v.outs[: t.n_states]


def test_view_is_stored_on_the_machine():
    tn = normalize(EPS_CYCLE)
    v = tn.view()
    assert tn.view() is v and v.filled() is v
    assert _filled(tn) == grouped(tn)  # a normal form's edges are sorted and distinct


def test_derived_machines_compute_their_own_view():
    tn = normalize(EPS_CHAIN)
    ins, outs = _filled(tn)
    m = Nfa(AB, 2, ((0, "b", 1), (1, "a", 0)), {0}, {0, 1})
    derived = [trim(tn), inverse(tn), restrict_input(tn, m), restrict_input(tn, m, m)]
    assert derived[0] is not tn, "the trim of this machine drops a state"
    for d in derived:
        d_ins, d_outs = _filled(d)
        assert d_ins is not ins and d_outs is not outs
        assert (d_ins, d_outs) == tuple([sorted(set(moves)) for moves in side] for side in grouped(d))
    assert _filled(derived[1]) == (outs, ins)


class _BucketedView:
    """The view as it was built with one list of edge numbers per state: the
    reference the linked index of ``_NormalView`` must reproduce move for move."""

    def __init__(self, t: Transducer):
        n = max(t.n_states, 1)
        self.by_src: list = [[] for _ in range(n)]
        for i, e in enumerate(t.edges):
            self.by_src[e[0]].append(i)
        self.edges, self.t_final, self.eps = t.edges, t.final, {}
        self.ins: list = [None] * (n + len(t.edges))
        self.outs: list = [None] * (n + len(t.edges))
        self.final: list = [None] * n + [False] * len(t.edges)

    def fill(self, p: int, close: bool = True):
        ins, outs, eps, n = self.ins, self.outs, self.eps, len(self.by_src)
        if ins[p] is None:
            ins[p], outs[p] = [], []
            for i in self.by_src[p]:
                _, x, y, q = self.edges[i]
                k = len(x) + len(y)
                if k == 1:
                    (ins[p] if x else outs[p]).append((x or y, q))
                elif k == 2 and len(x) == 1:
                    ins[p].append((x, n + i))
                    ins[n + i], outs[n + i] = (), ((y, q),)
                elif k:
                    chain = [n + i, *range(len(ins), len(ins) + k - 2)]
                    ins[n + i], outs[n + i] = [], []
                    ins += [[] for _ in chain[1:]]
                    outs += [[] for _ in chain[1:]]
                    self.final += [False] * (k - 2)
                    steps = [(a, ins) for a in x] + [(b, outs) for b in y]
                    for (a, side), src, dst in zip(steps, [p, *chain], [*chain, q]):
                        side[src].append((a, dst))
                else:
                    eps.setdefault(p, []).append(q)
        if p not in eps:
            ins[p], outs[p] = sorted(set(ins[p])), sorted(set(outs[p]))
            self.final[p] = p in self.t_final
            return self.final[p]
        if not close:
            return None
        cl, stack = {p}, [p]
        while stack:
            for r in eps.get(stack.pop(), ()):
                if r not in cl:
                    if ins[r] is None:
                        self.fill(r, False)
                    cl.add(r)
                    stack.append(r)
        ins[p] = sorted({move for q in cl for move in ins[q]})
        outs[p] = sorted({move for q in cl for move in outs[q]})
        self.final[p] = not self.t_final.isdisjoint(cl)
        return self.final[p]


def _moves(side: list) -> list:
    """A view's move lists, each as a list, so sorted lists and tuples compare alike."""
    return [None if moves is None else list(moves) for moves in side]


@st.composite
def linked_transducers(draw):
    """Machines with epsilon edges, labels of 0-3 letters and up to 3 initial states."""
    n = draw(st.integers(1, 6))
    states = st.integers(0, n - 1)
    label = st.text("ab", max_size=3)
    edges = draw(st.lists(st.tuples(states, label, label, states) | st.tuples(states, st.just(""), st.just(""), states),
                          max_size=4 * n))
    initial = draw(st.sets(states, max_size=3))
    return Transducer(AB, n, tuple(edges), initial, draw(st.sets(states, max_size=n)))


@settings(max_examples=400, deadline=None)
@given(linked_transducers(), st.randoms(use_true_random=False))
@example(EPS_CYCLE, random.Random(0))
@example(EPS_CHAIN, random.Random(1))
def test_linked_index_fills_like_per_state_lists(machine, rng):
    t = Transducer(machine.alphabet, machine.n_states, machine.edges, machine.initial, machine.final)
    v, ref = t.view(), _BucketedView(t)
    order = list(range(t.n_states))
    rng.shuffle(order)
    for q in order[: rng.randint(0, len(order))] + order:  # a partial pass, then every state
        assert v.fill(q) == ref.fill(q)
        # the chain states past n + len(t.edges) too, numbered in the order they were made
        assert (_moves(v.ins), _moves(v.outs), v.final) == (_moves(ref.ins), _moves(ref.outs), ref.final)


def test_view_index_makes_no_container_per_state():
    rng = random.Random(29)
    n = 1000
    edges = tuple((rng.randrange(n), rng.choice(LABELS), rng.choice(LABELS), rng.randrange(n)) for _ in range(4 * n))
    t = Transducer(AB, n, edges, {0}, {1})
    gc.collect()
    gc.disable()  # no collection frees objects while they are counted
    try:
        before = len(gc.get_objects())
        v = t.view()
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert v.final[: n] == [None] * n
    assert added < 50, f"building the view made {added} tracked objects; per-state lists would make over {n}"


# -- no decide path builds a whole normal form ---------------------------------


@settings(max_examples=150, deadline=None)
@given(transducers(), transducers(), st.sampled_from(THETAS))
@example(EPS_CYCLE, EPS_CHAIN, THETAS[0])
def test_class_checks_and_compose_build_no_normal_form(t, u, theta):
    t, u = (Transducer(m.alphabet, m.n_states, m.edges, m.initial, m.final) for m in (t, u))
    for mode in ("altering", "preserving"):
        bounded_counterexample(t, theta, mode, 3)
    compose(t, u)
    is_functional(t)
    included_in_recognizable(u, [(Nfa.finite(AB, ["a", "ab"]), Nfa.universal(AB))])
    assert t._normal_form is None and u._normal_form is None


def test_named_properties_decide_without_a_normal_form():
    delta = dna_delta()
    codes = [Nfa.finite(DNA, words) for words in (["ACG", "CGT"], ["AAC", "GTT", "ACGT"], ["A", "C"])]
    maximal_checked = 0
    for name in PROPERTY_NAMES:
        for variant in VARIANTS if name != "nonoverlapping" else VARIANTS[:1]:
            p = named_property(name, variant, delta)
            for l in codes:
                verdict = satisfies(p, l)
                if verdict.satisfied and p.kind == W_KIND:
                    is_maximal(p, l)
                    maximal_checked += 1
            assert p.transducer._normal_form is None, p.name
    assert maximal_checked
