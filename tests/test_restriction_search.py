"""The layered restriction search behind the strict and altering routes.

The deciders used to build the whole T x L x theta(L) restriction, test it
for emptiness and decode a witness from a copy of it.  That path is kept
here as the reference: the search must give the same verdicts, witnesses
and refutations.
"""

import importlib.util
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from dnacodec.alphabets import BINARY, DNA, Permutation, dna_delta
from dnacodec import transducers
from dnacodec.automata import (
    Nfa,
    complement as nfa_complement,
    enumerate_words,
    intersect as nfa_intersect,
    remove_epsilon,
    shortest_word,
    theta_image,
)
from dnacodec.dna import PROPERTY_NAMES, STRICT, VARIANTS, named_property
from dnacodec.errors import ClassAssertionRefuted
from dnacodec.properties import (
    _REFUTED,
    INPUT_ALTERING,
    S_KIND,
    UNRESTRICTED,
    W_KIND,
    PropertyDescriptor,
    _check_assertion,
    _theta_l,
    satisfies,
    satisfies_S,
)
from dnacodec.transducers import (
    Transducer,
    image,
    inverse,
    normalize,
    relation_empty,
    restrict_input,
    restriction_search,
    trim,
    union as t_union,
)
from oracles import pair_in_relation, violates_S

# -- the build-then-walk path the search replaced -----------------------------


def _built_decode(p, l, s, avoid_self=False):
    y = shortest_word(image(s, Nfa.universal(s.alphabet)))
    v = p.theta.inverse()(y)
    on_y = restrict_input(normalize(p.transducer), l, Nfa.word(p.theta.alphabet, y))
    preimages = image(inverse(on_y), Nfa.universal(on_y.alphabet))
    u = shortest_word(preimages)
    if avoid_self and u == v:
        u2 = shortest_word(nfa_intersect(preimages, nfa_complement(Nfa.word(p.theta.alphabet, v))))
        if u2 is not None:
            u = u2
    return u, v


def built_satisfies_S(p, l):
    s = restrict_input(p.transducer, l, theta_image(l, p.theta))
    if relation_empty(s):
        return True, None
    return False, _built_decode(p, l, s)


def built_altering_route(p, l, assertion_bound):
    _check_assertion(p, "altering", assertion_bound)
    s = restrict_input(p.transducer, l, theta_image(l, p.theta))
    if relation_empty(s):
        return True, None
    u, v = _built_decode(p, l, s, avoid_self=True)
    if u != v:
        return False, (u, v)
    if u != "":
        raise ClassAssertionRefuted(_REFUTED["altering"].format(u), u)
    nonempty = Nfa.nonempty(s.alphabet)
    rest = t_union(restrict_input(s, nonempty), restrict_input(s, Nfa.universal(s.alphabet), nonempty))
    if relation_empty(trim(rest)):
        return True, None
    u, v = _built_decode(p, l, rest, avoid_self=True)
    if u == v:
        raise ClassAssertionRefuted(_REFUTED["altering"].format(u), u)
    return False, (u, v)


def outcome(call):
    """``(satisfied, witness)``, or the refutation's message and word."""
    try:
        return call()
    except ClassAssertionRefuted as exc:
        return "refuted", str(exc), exc.witness


# -- random instances -----------------------------------------------------------


THETAS = {
    BINARY: (
        Permutation.identity(BINARY),
        Permutation.mirror(BINARY),
        Permutation.from_mapping(BINARY, {"0": "1", "1": "0"}, antimorphic=False),
        Permutation.from_mapping(BINARY, {"0": "1", "1": "0"}, antimorphic=True),
    ),
    DNA: (
        dna_delta(),
        Permutation.from_mapping(DNA, {"A": "T", "T": "A", "C": "G", "G": "C"}, antimorphic=False),
        # order 4, so neither of these is an involution
        Permutation.from_mapping(DNA, {"A": "C", "C": "G", "G": "T", "T": "A"}, antimorphic=True),
        Permutation.from_mapping(DNA, {"A": "C", "C": "G", "G": "T", "T": "A"}, antimorphic=False),
    ),
}


@st.composite
def instances(draw):
    """A T of at most 4 states with empty and two-letter labels, an L of at
    most 4 states with epsilon edges, and a theta, over one alphabet."""
    alphabet = draw(st.sampled_from((BINARY, DNA)))
    letters = alphabet.symbols
    labels = st.sampled_from(("",) + letters + tuple(a + b for a in letters[:2] for b in letters[:2]))
    n = draw(st.integers(1, 4))
    states = st.integers(0, n - 1)
    t_edges = draw(st.lists(st.tuples(states, labels, labels, states), min_size=1, max_size=2 * n + 2))
    t = Transducer(
        alphabet, n, tuple(t_edges), draw(st.frozensets(states, min_size=1, max_size=2)),
        draw(st.frozensets(states, min_size=1, max_size=n)),
    )
    k = draw(st.integers(1, 4))
    l_states = st.integers(0, k - 1)
    l_edges = draw(st.lists(st.tuples(l_states, st.sampled_from((None,) + letters), l_states), max_size=3 * k))
    l = Nfa(
        alphabet, k, tuple(l_edges), draw(st.frozensets(l_states, min_size=1, max_size=2)),
        draw(st.frozensets(l_states, min_size=1, max_size=k)),
    )
    return t, l, draw(st.sampled_from(THETAS[alphabet]))


def finite_words(l):
    """The words of ``l`` when it is finite, else None: an infinite language
    has a word whose length lies in [n, 2n] for its n states."""
    words = enumerate_words(l, 2 * l.n_states)
    return None if any(len(w) >= l.n_states for w in words) else words


@settings(max_examples=400, deadline=None)
@given(instances(), st.integers(0, 2))
def test_search_matches_the_built_restriction(instance, assertion_bound):
    t, l, theta = instance
    strict = PropertyDescriptor(t, theta, kind=S_KIND)
    got = satisfies_S(strict, l)
    assert (got.satisfied, got.witness) == built_satisfies_S(strict, l)
    if got.satisfied:  # the search walked the whole restriction
        full = restrict_input(t, l, _theta_l(strict, l))
        assert got.stats == {"restriction_states": full.n_states, "restriction_edges": len(full.edges)}
    words = finite_words(l)
    if words is not None:
        assert got.satisfied == (violates_S(t, theta, words) is None)
        if not got.satisfied:
            u, v = got.witness
            assert u in words and v in words and pair_in_relation(t, u, theta(v))
    weak = PropertyDescriptor(t, theta, kind=W_KIND, asserted_class=INPUT_ALTERING)

    def searched():
        v = satisfies(weak, l, assertion_bound)
        return v.satisfied, v.witness

    assert outcome(searched) == outcome(lambda: built_altering_route(weak, l, assertion_bound))


def test_altering_fallback_past_the_empty_self_pair():
    # (eps, eps) is realized and tolerated; 0 -> 11 is the violation behind it.
    ab = BINARY
    t = Transducer(ab, 2, ((0, "0", "11", 1),), frozenset({0}), frozenset({0, 1}))
    weak = PropertyDescriptor(t, Permutation.mirror(ab), kind=W_KIND, asserted_class=INPUT_ALTERING)
    for words, expected in (([""], (True, None)), (["", "0", "11"], (False, ("0", "11")))):
        l = Nfa.finite(ab, words)
        v = satisfies(weak, l)
        assert (v.satisfied, v.witness) == expected == built_altering_route(weak, l, 6)


def _dna_code(rng):
    return Nfa.finite(DNA, ["".join(rng.choice("ACGT") for _ in range(n)) for n in (3, 4, 6, 8)])


def test_named_dna_properties_match_the_built_restriction():
    # The overhang-free properties are violated only after most of the
    # product has been walked, so most of its groups precede the hit.
    rng = random.Random(20_150_301)
    violated = 0
    for name in PROPERTY_NAMES:
        for variant in VARIANTS:
            if name == "nonoverlapping" and variant != STRICT:
                continue
            p = named_property(name, variant, dna_delta())
            for _ in range(6):
                l = _dna_code(rng)
                got = satisfies(p, l)
                if p.kind == S_KIND:
                    expected = built_satisfies_S(p, l)
                elif p.asserted_class == INPUT_ALTERING:
                    expected = built_altering_route(p, l, 6)
                else:  # the general weak route builds its restriction
                    assert p.asserted_class == UNRESTRICTED and got.decider != "satisfies_S"
                    continue
                assert (got.satisfied, got.witness) == expected
                violated += not got.satisfied
    assert violated >= 40


def _mirror_pairs(*pairs):
    """A binary transducer realizing exactly ``pairs``, under word reversal."""
    edges = tuple((0, x, y, 1) for x, y in pairs)
    t = Transducer(BINARY, 2, edges, frozenset({0}), frozenset({1}))
    return PropertyDescriptor(t, Permutation.mirror(BINARY), kind=W_KIND, asserted_class=INPUT_ALTERING)


def test_altering_witness_skips_the_self_pair():
    # 01 -> 10 is the self-pair of 01 under reversal; 11 -> 10 is the violation.
    # Words of length 1 do not refute the assertion.
    weak = _mirror_pairs(("01", "10"), ("11", "10"))
    l = Nfa.finite(BINARY, ["01", "11"])
    v = satisfies(weak, l, assertion_bound=1)
    assert (v.satisfied, v.witness) == (False, ("11", "01")) == built_altering_route(weak, l, 1)


def test_altering_self_pair_alone_refutes_the_assertion():
    weak = _mirror_pairs(("01", "10"))
    l = Nfa.finite(BINARY, ["01", "11"])
    got = outcome(lambda: satisfies(weak, l, assertion_bound=1))
    assert got == outcome(lambda: built_altering_route(weak, l, 1))
    assert got[0] == "refuted" and got[2] == "01"


def test_violated_call_builds_no_transducer(monkeypatch):
    p = named_property("overhang-free", "normal", dna_delta())
    l = Nfa.finite(DNA, ["ACGTTG", "CAACGT"])
    built = []
    post_init = Transducer.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Transducer, "__post_init__", counted)
    verdict = satisfies_S(p, l)
    assert not verdict.satisfied and verdict.witness is not None
    assert built == []


# -- early exit -------------------------------------------------------------------


def _benchmark_script():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "benchmark_satisfaction.py")
    spec = importlib.util.spec_from_file_location("benchmark_satisfaction", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_violation_is_found_without_building_the_restriction():
    # Case 0 of ``benchmark_satisfaction.py --transducer-states 5000
    # --transducer-edges 20000 --language-states 12``.  Its whole restriction
    # has about 2.1 million states; the search stops after a few hundred.
    script = _benchmark_script()
    rng = random.Random(1729)
    t = script.random_transducer(rng, 5000, 20_000)
    l = script.random_language(rng, 12, dense=True)
    verdict = satisfies_S(PropertyDescriptor(t, dna_delta(), kind=S_KIND), l)
    assert verdict.witness == ("A", "A")
    assert verdict.stats["restriction_states"] < 5_000
    # A smaller instance of the same generators, where the whole product is
    # cheap to build for comparison.
    t = script.random_transducer(rng, 200, 800)
    l = script.random_language(rng, 6, dense=True)
    p = PropertyDescriptor(t, dna_delta(), kind=S_KIND)
    verdict = satisfies_S(p, l)
    full = restrict_input(t, l, theta_image(l, p.theta))
    assert (verdict.satisfied, verdict.witness) == built_satisfies_S(p, l)
    assert not verdict.satisfied
    assert verdict.stats["restriction_states"] * 20 < full.n_states


def test_violated_call_fills_only_the_states_it_reaches():
    script = _benchmark_script()
    rng = random.Random(12)
    t = script.random_transducer(rng, 1000, 4000)
    l = script.random_language(rng, 6, dense=True)
    verdict = satisfies_S(PropertyDescriptor(t, dna_delta(), kind=S_KIND), l)
    assert not verdict.satisfied
    assert t._normal_form is None, "no whole normal form is built"
    v = t.view()
    filled = sum(fin is not None for fin in v.final[: t.n_states])
    assert filled * 10 < t.n_states and len(v.final) > t.n_states
    # the first chain state of word label i is n + i, made when its source is filled
    words = [i for i, (_, x, y, _) in enumerate(t.edges) if len(x) + len(y) > 1]
    split = sum(v.ins[t.n_states + i] is not None for i in words)
    assert split * 10 < len(words)


# -- the bit walk that finishes a satisfied search --------------------------------


@st.composite
def searches(draw):
    """A T of at most 5 states with epsilon edges, labels of 0-3 letters and
    up to 3 initial states, two NFAs of 2-8 states with epsilon edges, so
    that the walk's masks of state pairs span one to eight bytes, and the
    flags.  The letters are two of the alphabet's, so that the tapes often
    agree."""
    alphabet = draw(st.sampled_from((BINARY, DNA)))
    letters = alphabet.symbols[:2]
    word = st.text(st.sampled_from(letters), max_size=3)
    n = draw(st.integers(1, 5))
    states = st.integers(0, n - 1)
    t = Transducer(
        alphabet, n, tuple(draw(st.lists(st.tuples(states, word, word, states), min_size=1, max_size=4 * n))),
        draw(st.frozensets(states, min_size=1, max_size=3)), draw(st.frozensets(states, min_size=1, max_size=n)),
    )

    def nfa():  # "" is accepted only through epsilon edges, so most hits lie past the first group
        k = draw(st.integers(2, 8))
        l_states = st.integers(0, k - 1)
        edges = st.tuples(l_states, st.sampled_from((None,) + letters), l_states)
        return Nfa(
            alphabet, k, tuple(draw(st.lists(edges, min_size=k, max_size=4 * k))),
            draw(st.frozensets(st.integers(0, 1), min_size=1)),
            draw(st.frozensets(st.integers(2, k - 1) if k > 2 else st.just(1), min_size=1)),
        )

    return t, nfa(), nfa(), draw(st.booleans()), draw(st.booleans())


def _search_with(after, pairs, t, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transducers, "_BIT_AFTER", after)
        mp.setattr(transducers, "_BIT_PAIRS", pairs)
        return restriction_search(t, *args)


@settings(max_examples=400, deadline=None)
@given(searches())
def test_bit_walk_matches_the_grouped_search(search):
    # The walk runs after the first group that claims a triple, or never.
    t, m, outputs, nonempty, swapped = search
    forced = _search_with(0, 10**9, t, m, outputs, nonempty, swapped)
    assert forced == _search_with(0, 0, t, m, outputs, nonempty, swapped)


@pytest.mark.parametrize("nonempty", [False, True])
def test_forced_walk_on_swapped_tapes_matches_the_grouped_search(monkeypatch, nonempty):
    # The parity machine's A/T edges carry one letter per tape, so the view
    # gives each a chain state.  Its inverse, searched with swapped tapes,
    # has the chain state's one move on the list the walk reads as inputs.
    calls = _spied(monkeypatch)
    p, l = _parity_instance(7, 4)
    assert sum(len(x) == len(y) == 1 for _, x, y, _ in p.transducer.edges) > 100
    args = (l, theta_image(l, p.theta), nonempty)
    forced = _search_with(0, 10**9, inverse(p.transducer), *args, True)
    assert calls and calls[-1] is not None, "the walk decided the search"
    assert forced[0] is None and forced[1] > transducers._BIT_AFTER
    assert forced == _search_with(0, 0, inverse(p.transducer), *args, True)


def _spied(monkeypatch):
    """The results of every ``_bit_walk`` call, as they happen."""
    calls = []
    walk = transducers._bit_walk

    def spy(*args):
        calls.append(walk(*args))
        return calls[-1]

    monkeypatch.setattr(transducers, "_bit_walk", spy)
    return calls


def _parity_instance(seed, language_states):
    # every final state of T has odd |x| + |y|, every word of L even length
    script = _benchmark_script()
    rng = random.Random(seed)
    t = script.parity_transducer(rng, 700, 2400)
    return PropertyDescriptor(t, dna_delta(), kind=S_KIND), script.even_language(rng, language_states)


def test_satisfied_search_enters_the_walk_once(monkeypatch):
    calls = _spied(monkeypatch)
    p, l = _parity_instance(5, 4)
    verdict = satisfies_S(p, l)
    full = restrict_input(p.transducer, l, theta_image(l, p.theta))
    assert verdict.satisfied and full.n_states > transducers._BIT_AFTER
    assert calls == [(full.n_states, len(full.edges))]
    assert verdict.stats == {"restriction_states": full.n_states, "restriction_edges": len(full.edges)}


def test_walk_keeps_to_its_cost_rule(monkeypatch):
    calls = _spied(monkeypatch)
    p, l = _parity_instance(6, 9)
    pairs = remove_epsilon(l).n_states * remove_epsilon(theta_image(l, p.theta)).n_states
    verdict = satisfies_S(p, l)
    assert pairs > transducers._BIT_PAIRS and verdict.satisfied
    assert verdict.stats["restriction_states"] > transducers._BIT_AFTER
    p, l = _parity_instance(5, 4)
    y, states, transitions = restriction_search(p.transducer, l, theta_image(l, p.theta), nonempty=True)
    assert y is None and states > transducers._BIT_AFTER
    assert calls == [(states, transitions)]


def test_violated_search_that_hits_before_the_handover_never_walks(monkeypatch):
    # Most violated searches hit within a few hundred triples; a handover
    # below their hit would pay a walk that reaches a final triple and is lost.
    calls = _spied(monkeypatch)
    script = _benchmark_script()
    rng = random.Random(2)
    t = script.random_transducer(rng, 400, 1500)
    p = PropertyDescriptor(t, dna_delta(), kind=S_KIND)
    l = script.random_language(rng, 4, dense=True)
    verdict = satisfies_S(p, l)
    pairs = remove_epsilon(l).n_states * remove_epsilon(_theta_l(p, l)).n_states
    assert not verdict.satisfied and pairs <= transducers._BIT_PAIRS
    assert 200 < verdict.stats["restriction_states"] < transducers._BIT_AFTER
    assert calls == []


def test_satisfied_walk_leaves_the_states_it_alone_reaches_unsplit(monkeypatch):
    # A state whose edges each carry one letter on one tape or one on each,
    # none twice, is read straight off the view's edge links.  Only states
    # with an epsilon edge, and the members of their closures, are split.
    p, l = _parity_instance(5, 4)
    t, walked = p.transducer, []
    walk = transducers._bit_walk

    def spy(v, *args):
        walked.append({q for q in range(t.n_states) if v.final[q] is not None})
        return walk(v, *args)

    monkeypatch.setattr(transducers, "_bit_walk", spy)
    assert satisfies_S(p, l).satisfied and len(walked) == 1
    assert t._normal_form is None, "no whole normal form is built"
    # every state of T the whole product reaches, from a fresh copy searched without the walk
    fresh = Transducer(t.alphabet, t.n_states, t.edges, t.initial, t.final)
    assert _search_with(10**9, 10**9, fresh, l, _theta_l(p, l))[0] is None
    reached = {q for q in range(t.n_states) if fresh.view().final[q] is not None}
    labels = {q: [(x, y, r) for s, x, y, r in t.edges if s == q] for q in range(t.n_states)}
    closed = {r for _, x, y, r in t.edges if not x and not y}
    plain = {
        q for q, out in labels.items()
        if q not in closed and len(set(out)) == len(out) and all(x + y and len(x) < 2 > len(y) for x, y, _ in out)
    }
    v = t.view()
    walk_only = reached - walked[0]
    assert len(walk_only & plain) > t.n_states // 2  # 523 of 700; the grouped search filled 58
    for q in walk_only & plain:
        assert v.final[q] is None and v.ins[q] is None and v.outs[q] is None
    split = {q for q in walk_only if v.final[q] is not None}
    assert split and not split & plain, "the walk splits only the states it cannot read off the links"


def _even(alphabet):
    """The words of even length: a start that is also the one final state."""
    edges = [(q, a, 1 - q) for q in (0, 1) for a in alphabet]
    return Nfa(alphabet, 2, tuple(edges), frozenset({0}), frozenset({0}))


def _zeros(alphabet):
    """The words of the first letter alone, so that the two tapes' machines differ."""
    return Nfa(alphabet, 1, ((0, alphabet.symbols[0], 0),), frozenset({0}), frozenset({0}))


# The first group claims the start alone (with state 1 on swapped tapes, where
# T's output is the search's input), so states 2-4 are the walk's.  ``split``:
# the states that end up filled; ``unsplit``: states the walk must read off the
# edge links.
_WALK_CASES = {
    "repeated letter edge": (
        [(0, "", "0", 1), (1, "1", "", 2), (1, "1", "", 2), (1, "", "0", 3), (2, "0", "0", 3), (3, "1", "", 0)],
        False, False, {1}, {2, 3},
    ),
    "epsilon edge among plain states": (
        [(0, "", "0", 1), (1, "", "", 2), (1, "0", "", 3), (2, "", "0", 3), (3, "", "0", 4), (4, "0", "0", 1)],
        False, False, {1, 2}, {3, 4},
    ),
    "label of three letters": (
        [(0, "", "0", 1), (1, "011", "", 2), (1, "1", "0", 2), (2, "0", "", 3), (3, "1", "1", 0), (3, "", "0", 1)],
        False, False, {1}, {2, 3},
    ),
    "nonempty on swapped tapes": (
        [(0, "0", "", 1), (0, "", "1", 1), (1, "0", "1", 2), (1, "", "", 0), (2, "0", "", 3), (3, "", "1", 2)],
        True, True, {0, 1}, {2, 3},
    ),
}


@pytest.mark.parametrize("final", [frozenset(), frozenset({3})], ids=["satisfied", "violated"])
@pytest.mark.parametrize("case", list(_WALK_CASES))
def test_forced_walk_reads_each_kind_of_state_as_the_grouped_search(monkeypatch, case, final):
    edges, nonempty, swapped, split, unsplit = _WALK_CASES[case]
    calls = _spied(monkeypatch)
    args = (_even(BINARY), _zeros(BINARY), nonempty, swapped)
    t = Transducer(BINARY, 5, tuple(edges), frozenset({0}), final)
    forced = _search_with(0, 10**9, t, *args)
    assert forced == _search_with(0, 0, Transducer(BINARY, 5, tuple(edges), frozenset({0}), final), *args)
    assert len(calls) == 1 and (calls[0] is None) == bool(final)
    if not final:  # the walk sized the whole product
        v = t.view()
        assert all(v.final[q] is not None for q in split)
        assert all(v.final[q] is None and v.ins[q] is None for q in unsplit)
