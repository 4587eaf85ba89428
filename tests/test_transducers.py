"""Transducer algebra: normalization, products, and class checks."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from dnacodec.alphabets import BINARY, DNA, Alphabet, Permutation, dna_delta
from dnacodec.automata import Nfa, accepts, concat, enumerate_words, intersect, remove_epsilon, theta_image
from dnacodec.graphs import numbering
from dnacodec.transducers import (
    Transducer,
    accepts_pair,
    bounded_counterexample,
    compose,
    image,
    included_in_recognizable,
    inverse,
    is_functional,
    is_length_preserving,
    is_partial_identity,
    normalize,
    relation_empty,
    restrict_input,
    trim,
    union,
)
from dnacodec.transducers import _all_words
from oracles import enumerate_pairs, grouped, outputs_up_to, pair_in_relation

AB = Alphabet.of("ab")


def doubler() -> Transducer:
    """a -> aa on every letter, one state."""
    return Transducer(AB, 1, tuple((0, a, a + a, 0) for a in AB), {0}, {0})


def swap_machine() -> Transducer:
    return Transducer(AB, 1, ((0, "a", "b", 0), (0, "b", "a", 0)), {0}, {0})


def random_transducer(rng: random.Random, alphabet: Alphabet, max_states: int = 3) -> Transducer:
    n = rng.randint(1, max_states)
    labels = [""] + list(alphabet.symbols)
    edges = []
    for _ in range(rng.randint(0, 2 * n + 2)):
        edges.append(
            (
                rng.randrange(n),
                rng.choice(labels),
                rng.choice(labels),
                rng.randrange(n),
            )
        )
    initial = {rng.randrange(n)}
    final = {q for q in range(n) if rng.random() < 0.5} or {rng.randrange(n)}
    return Transducer(alphabet, n, tuple(edges), frozenset(initial), frozenset(final))


def test_normalize_splits_word_labels():
    t = Transducer(AB, 2, ((0, "ab", "ba", 1),), {0}, {1})
    tn = normalize(t)
    for _src, inp, out, _dst in tn.edges:
        assert len(inp) <= 1 and len(out) <= 1
        assert not (inp == "" and out == "")
    assert accepts_pair(t, "ab", "ba")
    assert accepts_pair(tn, "ab", "ba")
    assert not accepts_pair(tn, "ab", "ab")


def test_identity_and_empty():
    ident = Transducer.identity(AB)
    assert accepts_pair(ident, "abba", "abba")
    assert not accepts_pair(ident, "ab", "ba")
    assert relation_empty(Transducer.empty(AB))
    assert not relation_empty(ident)


def test_inverse_swaps_tapes():
    t = doubler()
    assert accepts_pair(t, "ab", "aabb")
    ti = inverse(t)
    assert accepts_pair(ti, "aabb", "ab")
    assert not accepts_pair(ti, "ab", "aabb")


def test_union_combines_relations():
    u = union(doubler(), swap_machine())
    assert accepts_pair(u, "ab", "aabb")
    assert accepts_pair(u, "ab", "ba")
    assert not accepts_pair(u, "ab", "ab")


def test_compose_applies_inner_first():
    # inner doubles, outer swaps: a |-> aa |-> bb
    c = compose(swap_machine(), doubler())
    assert accepts_pair(c, "a", "bb")
    assert not accepts_pair(c, "a", "aa")
    # other order: a |-> b |-> bb
    c2 = compose(doubler(), swap_machine())
    assert accepts_pair(c2, "a", "bb")
    assert accepts_pair(compose(doubler(), doubler()), "a", "aaaa")


def test_restrict_and_image():
    t = doubler()
    only_a = Nfa.finite(AB, ["a"])
    ra = restrict_input(t, only_a)
    assert accepts_pair(ra, "a", "aa") and not accepts_pair(ra, "b", "bb")
    ro = restrict_input(t, Nfa.universal(AB), Nfa.finite(AB, ["aa"]))
    assert accepts_pair(ro, "a", "aa") and not accepts_pair(ro, "ab", "aabb")
    img = image(t, Nfa.finite(AB, ["ab", "b"]))
    assert sorted(enumerate_words(img, 6)) == ["aabb", "bb"]
    full = image(swap_machine(), Nfa.universal(AB))
    assert accepts(full, "ba")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: compose(Transducer.identity(DNA), Transducer.identity(AB)), "compose requires a common alphabet"),
        (lambda: restrict_input(Transducer.identity(DNA), Nfa.universal(AB)), "restrict_input requires a common"),
        (
            lambda: bounded_counterexample(Transducer.identity(DNA), Permutation.identity(AB), "altering", 2),
            "permutation alphabet does not match the transducer",
        ),
        (lambda: union(Nfa.universal(DNA), Nfa.universal(AB)), "union requires a common alphabet"),
        (lambda: concat(Nfa.universal(DNA), Nfa.universal(AB)), "concat requires a common alphabet"),
        (lambda: intersect(Nfa.universal(DNA), Nfa.universal(AB)), "intersect requires a common alphabet"),
        (lambda: theta_image(Nfa.universal(DNA), Permutation.identity(AB)), "permutation alphabet does not match"),
    ],
    ids=["compose", "restrict_input", "bounded_counterexample", "union", "concat", "intersect", "theta_image"],
)
def test_operations_reject_machines_over_other_alphabets(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_enumerate_pairs_sorted_and_complete():
    t = swap_machine()
    pairs = enumerate_pairs(t, 4)
    assert ("", "") in pairs
    assert ("ab", "ba") in pairs
    assert pairs == sorted(pairs, key=lambda p: (len(p[0]) + len(p[1]), p[0], p[1]))


def test_is_partial_identity():
    ok, wit = is_partial_identity(Transducer.identity(AB))
    assert ok and wit is None
    ok, wit = is_partial_identity(swap_machine())
    assert not ok
    x, y = wit
    assert x != y and accepts_pair(swap_machine(), x, y)
    # identity restricted to a regular set is still a partial identity
    restricted = restrict_input(Transducer.identity(AB), Nfa.finite(AB, ["ab", "b"]))
    assert is_partial_identity(restricted)[0]


def test_trim_returns_trimmed_transducers_unchanged():
    dead_end = Transducer(AB, 3, ((0, "a", "b", 1), (0, "b", "a", 2)), {0}, {1})
    t = trim(dead_end)
    assert t.n_states == 2 and t.edges == ((0, "a", "b", 1),)
    assert trim(t) is t
    split = normalize(doubler())
    assert trim(split) is split


def test_is_functional():
    assert is_functional(doubler())[0]
    ambiguous = Transducer(AB, 1, ((0, "a", "a", 0), (0, "a", "b", 0)), {0}, {0})
    ok, wit = is_functional(ambiguous)
    assert not ok
    x, y1, y2 = wit
    assert y1 != y2 and accepts_pair(ambiguous, x, y1) and accepts_pair(ambiguous, x, y2)


# Its only uneven pair shows as an edge that breaks the walk's balance
# labelling (state 1 is reached at +1 and at -1), not at an accepting triple.
CLASHING = Transducer(AB, 3, ((0, "a", "", 1), (0, "", "a", 1), (1, "", "b", 2)), {0}, {2})


def test_is_length_preserving():
    assert is_length_preserving(swap_machine())[0]
    ok, wit = is_length_preserving(doubler())
    assert not ok
    x, y = wit
    assert len(x) != len(y) and accepts_pair(doubler(), x, y)
    assert is_length_preserving(CLASHING) == (False, ("", "ab"))


@st.composite
def word_transducers(draw):
    n = draw(st.integers(1, 4))
    states = st.integers(0, n - 1)
    label = st.sampled_from(["", "", "a", "b", "ab", "ba"])
    edges = draw(st.lists(st.tuples(states, label, label, states), max_size=2 * n + 2))
    initial = draw(st.sets(states, min_size=1, max_size=2))
    return Transducer(AB, n, tuple(edges), initial, draw(st.sets(states, max_size=n)))


@settings(max_examples=400, deadline=None)
@given(word_transducers())
@example(CLASHING)
def test_is_length_preserving_against_enumerate_pairs(t):
    ok, wit = is_length_preserving(t)
    uneven = [(x, y) for x, y in enumerate_pairs(t, 8) if len(x) != len(y)]
    assert ok == (wit is None)
    if uneven:
        assert not ok, uneven[0]
    if not ok:
        x, y = wit
        assert len(x) != len(y) and pair_in_relation(t, x, y)


def test_included_in_recognizable():
    t = restrict_input(swap_machine(), Nfa.finite(AB, ["a", "ab"]))
    inside = [(Nfa.finite(AB, ["a", "ab"]), Nfa.finite(AB, ["b", "ba"]))]
    ok, wit = included_in_recognizable(t, inside)
    assert ok and wit is None
    too_small = [(Nfa.finite(AB, ["a"]), Nfa.finite(AB, ["b"]))]
    ok, wit = included_in_recognizable(t, too_small)
    assert not ok
    assert accepts_pair(t, *wit)
    # identity on a* is not inside any finite union of rectangles that
    # misses the diagonal pairing
    ident = restrict_input(Transducer.identity(AB), Nfa.finite(AB, ["aa"]))
    ok, wit = included_in_recognizable(ident, [(Nfa.finite(AB, ["aa"]), Nfa.finite(AB, ["ab"]))])
    assert not ok and wit == ("aa", "aa")
    # no rectangle: any realized pair lies outside, the empty relation inside
    assert included_in_recognizable(ident, []) == (False, ("aa", "aa"))
    assert included_in_recognizable(Transducer.empty(AB), []) == (True, None)


def test_bounded_counterexample_altering():
    delta = dna_delta()
    ident = Transducer.identity(DNA)
    # delta(AT) = AT is the shortest word mapped onto its own image
    assert bounded_counterexample(ident, delta, "altering", 3) == "AT"
    assert bounded_counterexample(ident, delta, "altering", 1) is None
    assert bounded_counterexample(ident, delta, "altering", 0) is None


def test_bounded_counterexample_preserving():
    delta = dna_delta()
    ident = Transducer.identity(DNA)
    # identity never outputs delta(A) = T on input A
    assert bounded_counterexample(ident, delta, "preserving", 2) == "A"
    swap = Transducer(
        DNA, 1, tuple((0, a, delta.image(a), 0) for a in DNA), {0}, {0}
    )
    mirror_comp = Permutation.from_mapping(
        DNA, {"A": "T", "T": "A", "C": "G", "G": "C"}, antimorphic=False
    )
    assert bounded_counterexample(swap, mirror_comp, "preserving", 3) is None
    with pytest.raises(ValueError):
        bounded_counterexample(ident, delta, "both", 2)


def test_bounded_counterexample_memo_matches_fresh_scans():
    # one instance answers interleaved modes, thetas and ascending bounds
    # exactly as a fresh instance (which runs a real scan) does
    thetas = (dna_delta(), Permutation.mirror(DNA))
    queries = [
        (theta, mode, bound)
        for bound in (0, 1, 3)
        for mode in ("altering", "preserving")
        for theta in thetas
    ]
    shared = Transducer.identity(DNA)
    for theta, mode, bound in queries + queries:
        fresh = bounded_counterexample(Transducer.identity(DNA), theta, mode, bound)
        assert bounded_counterexample(shared, theta, mode, bound) == fresh
    assert bounded_counterexample(shared, thetas[0], "altering", 3) == "AT"
    assert bounded_counterexample(shared, thetas[1], "preserving", 3) == "AC"


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_random_machines_agree_with_raw_search(seed):
    rng = random.Random(seed)
    t = random_transducer(rng, BINARY)
    for x, y in enumerate_pairs(t, 4):
        assert pair_in_relation(t, x, y)
    for u in ["", "0", "1", "00", "01", "10", "110"]:
        expected = outputs_up_to(t, u, 3)
        got = {y for x, y in enumerate_pairs(t, 3 + len(u)) if x == u and len(y) <= 3}
        assert got == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_inverse_duality_random(seed):
    rng = random.Random(seed)
    t = random_transducer(rng, BINARY)
    ti = inverse(t)
    for x, y in enumerate_pairs(t, 4):
        assert accepts_pair(ti, y, x)
    tt = inverse(ti)
    for x, y in enumerate_pairs(t, 4):
        assert accepts_pair(tt, x, y)


def test_inverse_of_a_normal_form_normalizes_to_its_own_edges():
    tn = normalize(doubler())
    assert normalize(tn) is tn
    ti = inverse(tn)
    tin = normalize(ti)
    assert _machine(tin) == (ti.n_states, tuple(sorted(ti.edges)), ti.initial, ti.final)
    assert normalize(tin) is tin and ti._normal_form is tin


def test_free_output_tape_is_one_machine_per_alphabet(monkeypatch):
    t, m = doubler(), Nfa.finite(AB, ["ab", "b"])
    first = restrict_input(t, m)
    monkeypatch.setattr(Nfa, "universal", classmethod(lambda cls, alphabet: pytest.fail("rebuilt")))
    assert _machine(restrict_input(t, m)) == _machine(first)
    assert _all_words(AB) is _all_words(Alphabet.of("ab"))
    assert remove_epsilon(_all_words(AB)) is _all_words(AB)


# -- the restriction kernel against the two product loops it replaced --------


def _pair_restrict_input(t, m):
    """Input-only restriction on ``(T-state, m-state)`` tuple keys."""
    tn = normalize(t)
    ins, outs = grouped(tn)
    mf = remove_epsilon(m)
    _, m_sym = mf.adjacency()
    index, walk, state = numbering((p, q) for p in tn.initial for q in mf.initial)
    initial = frozenset(range(len(index)))
    edges = []
    for src, (p, q) in walk:
        for a, p2 in ins[p]:
            for q2 in m_sym[q].get(a, ()):
                edges.append((src, a, "", state((p2, q2))))
        for b, p2 in outs[p]:
            edges.append((src, "", b, state((p2, q))))
    final = frozenset(i for (p, q), i in index.items() if p in tn.final and q in mf.final)
    return Transducer(t.alphabet, max(len(index), 1), tuple(edges), initial, final)


def _triple_restriction(t, theta, l):
    """T restricted to inputs in L and outputs in theta(L), on packed triples."""
    tn = normalize(t)
    ins, outs = grouped(tn)
    lf = remove_epsilon(l)
    tlf = remove_epsilon(theta_image(l, theta))
    _, l_sym = lf.adjacency()
    _, tl_sym = tlf.adjacency()
    nl = max(lf.n_states, 1)
    ntl = max(tlf.n_states, 1)
    index, walk, state = numbering(
        (qt * nl + ql) * ntl + qtl for qt in tn.initial for ql in lf.initial for qtl in tlf.initial
    )
    initial = frozenset(range(len(index)))
    edges = []
    final = set()
    for src, packed in walk:
        qt, ql, qtl = packed // (nl * ntl), packed // ntl % nl, packed % ntl
        if qt in tn.final and ql in lf.final and qtl in tlf.final:
            final.add(src)
        for a, qt2 in ins[qt]:
            for ql2 in l_sym[ql].get(a, ()):
                edges.append((src, a, "", state((qt2 * nl + ql2) * ntl + qtl)))
        for b, qt2 in outs[qt]:
            for qtl2 in tl_sym[qtl].get(b, ()):
                edges.append((src, "", b, state((qt2 * nl + ql) * ntl + qtl2)))
    return Transducer(t.alphabet, max(len(index), 1), tuple(edges), initial, frozenset(final))


def _machine(t):
    return t.n_states, t.edges, t.initial, t.final


_BINARY_THETAS = (
    Permutation.identity(BINARY),
    Permutation.mirror(BINARY),
    Permutation.from_mapping(BINARY, {"0": "1", "1": "0"}, antimorphic=False),
    Permutation.from_mapping(BINARY, {"0": "1", "1": "0"}, antimorphic=True),
)


@st.composite
def binary_languages(draw):
    """NFAs of at most 4 states with epsilon edges over ``BINARY``."""
    n = draw(st.integers(1, 4))
    states = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(states, st.sampled_from((None, "0", "1")), states), max_size=3 * n))
    initial = draw(st.frozensets(states, max_size=2))
    final = draw(st.frozensets(states, max_size=n))
    return Nfa(BINARY, n, tuple(edges), initial, final)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), binary_languages(), st.sampled_from(_BINARY_THETAS))
def test_restriction_kernel_matches_the_products_it_replaced(seed, l, theta):
    t = random_transducer(random.Random(seed), BINARY)
    tl = theta_image(l, theta)
    both = restrict_input(t, l, tl)
    assert _machine(both) == _machine(_triple_restriction(t, theta, l))
    assert _machine(restrict_input(t, l)) == _machine(_pair_restrict_input(t, l))
    two_step = inverse(_pair_restrict_input(inverse(_pair_restrict_input(t, l)), tl))
    realized = enumerate_pairs(both, 6)
    assert realized == enumerate_pairs(two_step, 6)
    assert realized == [
        (x, y) for x, y in enumerate_pairs(t, 6) if accepts(l, x) and accepts(tl, y)
    ]
