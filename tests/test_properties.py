"""Satisfaction and maximality deciders for transducer-described properties."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dnacodec import automata, properties, transducers
from dnacodec.alphabets import DNA, Alphabet, Permutation, dna_delta
from dnacodec.automata import (
    Nfa,
    accepts,
    complement,
    enumerate_words,
    list_words,
    missing_word,
    parse_regex,
    remove_epsilon,
    theta_image,
    union,
)
from dnacodec.errors import ClassAssertionRefuted, FormatError
from dnacodec.graphs import reachable
from dnacodec.properties import (
    INPUT_ALTERING,
    INPUT_PRESERVING,
    S_KIND,
    UNRESTRICTED,
    W_KIND,
    PropertyDescriptor,
    _blocks_empty_word,
    _extension_universe,
    _theta_l,
    find_extension,
    is_maximal,
    satisfies,
    satisfies_S,
    satisfies_W_general,
    satisfies_W_preserving,
)
from dnacodec.trajectories import build_op_transducer
from dnacodec.transducers import Transducer, accepts_pair, restriction_search
from oracles import accepts_word, brute_is_maximal, brute_satisfies, pair_in_relation, violates_S, violates_W

ZO = Alphabet.of("01")
AB = Alphabet.of("ab")
MIRROR_ZO = Permutation.identity(ZO, antimorphic=True)
DELTA = dna_delta()


def universal_machine(alphabet):
    """Every pair of words: T(w) = A* for all w."""
    edges = [(0, a, "", 0) for a in alphabet.symbols]
    edges += [(0, "", a, 0) for a in alphabet.symbols]
    return Transducer(alphabet, 1, tuple(edges), frozenset({0}), frozenset({0}))


def zeros_to_ones(accept_empty):
    """0^n on the input tape, 1^n on the output tape."""
    final = frozenset({0, 1}) if accept_empty else frozenset({1})
    return Transducer(ZO, 2, ((0, "0", "1", 1), (1, "0", "1", 1)), frozenset({0}), final)


def infix_machine(alphabet):
    """T(w) = nonempty infixes of w (w itself included)."""
    return build_op_transducer("T1", "1*0+1*", alphabet)


def dna_lang(words):
    return Nfa.finite(DNA, list(words))


def assert_s_witness(t, theta, words, wit):
    u, v = wit
    assert u in words and v in words
    assert pair_in_relation(t, u, theta(v))


def assert_w_witness(t, theta, words, wit):
    u, v = wit
    assert u in words and v in words and u != v
    assert pair_in_relation(t, u, theta(v))


# -- strict kind -------------------------------------------------------------


def test_satisfies_s_identity_machine_detects_theta_collisions():
    p = PropertyDescriptor(Transducer.identity(DNA), DELTA, kind=S_KIND)
    good = dna_lang(["AA", "CC"])  # delta images TT, GG stay outside
    assert satisfies_S(p, good).satisfied
    bad = dna_lang(["AC", "GT"])  # delta(GT) = AC
    v = satisfies_S(p, bad)
    assert not v.satisfied
    assert_s_witness(p.transducer, DELTA, {"AC", "GT"}, v.witness)


def test_satisfies_s_self_hit_single_word():
    p = PropertyDescriptor(Transducer.identity(DNA), DELTA, kind=S_KIND)
    v = satisfies_S(p, dna_lang(["AT"]))  # delta(AT) = AT
    assert not v.satisfied
    assert v.witness == ("AT", "AT")


def test_satisfies_s_infix_machine_vs_oracle():
    t = infix_machine(DNA)
    p = PropertyDescriptor(t, DELTA, kind=S_KIND)
    for words in [("ACG",), ("ACGT",), ("AAA", "CCT"), ("AC", "GTA")]:
        got = satisfies_S(p, dna_lang(words))
        assert got.satisfied == brute_satisfies("S", t, DELTA, words)
        if not got.satisfied:
            assert_s_witness(t, DELTA, set(words), got.witness)


def test_satisfies_s_on_infinite_languages():
    p = PropertyDescriptor(Transducer.identity(DNA), DELTA, kind=S_KIND)
    closed = parse_regex("(AT)*", DNA)  # delta maps this language onto itself
    v = satisfies_S(p, closed)
    assert not v.satisfied
    assert v.witness == ("", "")
    disjoint = parse_regex("(AT)*A", DNA)  # delta images all start with T
    assert satisfies_S(p, disjoint).satisfied


@pytest.mark.parametrize(
    "language",
    [dna_lang(["AC", "GTA"]), dna_lang(["ACG", "CGT", "TT"]), parse_regex("A*CG", DNA)],
)
def test_duplicate_language_edges_do_not_reach_the_restriction(language):
    language = remove_epsilon(language)
    doubled = Nfa(
        DNA,
        language.n_states,
        tuple(e for e in language.edges for _ in range(2)),
        language.initial,
        language.final,
    )
    for t in (infix_machine(DNA), Transducer.identity(DNA)):
        p = PropertyDescriptor(t, DELTA, kind=S_KIND)
        once, twice = satisfies_S(p, language), satisfies_S(p, doubled)
        assert (twice.satisfied, twice.witness) == (once.satisfied, once.witness)
        assert twice.stats["restriction_edges"] == once.stats["restriction_edges"]


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"kind": "X"}, "kind must be one of"),
        ({"asserted_class": "theta_input_altering"}, "asserted_class must be one of"),
        ({"theta": MIRROR_ZO}, "transducer and permutation alphabets differ"),
    ],
)
def test_descriptor_rejects_a_bad_field(changes, message):
    fields = {"transducer": Transducer.identity(DNA), "theta": DELTA, **changes}
    with pytest.raises(ValueError, match=message):
        PropertyDescriptor(**fields)


def test_language_alphabet_must_match():
    p = PropertyDescriptor(Transducer.identity(DNA), DELTA, kind=S_KIND)
    with pytest.raises(ValueError):
        satisfies_S(p, Nfa.finite(ZO, ["0"]))


def test_wrong_kind_is_refused_before_theta_of_l_is_built(monkeypatch):
    def fail(p, l):
        raise AssertionError("theta(L) built for a descriptor of the wrong kind")

    monkeypatch.setattr(properties, "_theta_l", fail)
    strict = PropertyDescriptor(Transducer.identity(DNA), DELTA, kind=S_KIND)
    language = dna_lang(["AC", "GT"])
    with pytest.raises(ValueError, match="satisfies_W_general expects a weak-kind descriptor"):
        satisfies_W_general(strict, language)
    with pytest.raises(ValueError, match="satisfies_W_preserving expects a weak-kind descriptor"):
        satisfies_W_preserving(strict, language)
    with pytest.raises(ValueError, match="requires an input-altering class assertion"):
        is_maximal(strict, language)


# -- weak kind, preserving route ----------------------------------------------


def test_preserving_route_universal_machine():
    t = universal_machine(DNA)
    p = PropertyDescriptor(t, DELTA, kind=W_KIND, asserted_class=INPUT_PRESERVING)
    assert satisfies_W_preserving(p, dna_lang(["ACG"])).satisfied
    assert satisfies_W_preserving(p, dna_lang([""])).satisfied
    v = satisfies_W_preserving(p, dna_lang(["AC", "G"]))
    assert not v.satisfied
    assert_w_witness(t, DELTA, {"AC", "G"}, v.witness)
    assert (v.decider, v.stats["route"]) == ("satisfies_W_general", "length")


def test_preserving_route_empty_word_guard():
    t = universal_machine(DNA)
    p = PropertyDescriptor(t, DELTA, kind=W_KIND, asserted_class=INPUT_PRESERVING)
    v = satisfies_W_preserving(p, dna_lang(["", "A"]))
    assert not v.satisfied
    assert_w_witness(t, DELTA, {"", "A"}, v.witness)


def test_preserving_route_exact_beyond_the_assertion_bound():
    # preserving on "a" and "b" but not on "aa": its only output there is "bb"
    t = Transducer(
        AB, 3, ((0, "a", "a", 1), (0, "b", "b", 1), (0, "aa", "bb", 2)), frozenset({0}), frozenset({1, 2})
    )
    p = PropertyDescriptor(t, Permutation.identity(AB), kind=W_KIND, asserted_class=INPUT_PRESERVING)
    v = satisfies(p, Nfa.finite(AB, ["aa", "bb"]), assertion_bound=1)
    assert (v.satisfied, v.witness) == (False, ("aa", "bb"))
    assert v.stats["assertion_bound"] == 1


def test_weak_listing_past_its_cap_gives_way_to_the_mismatch_search(monkeypatch):
    words = ["ACG", "CGT", "AAA"]
    for asserted in (UNRESTRICTED, INPUT_PRESERVING):
        p = PropertyDescriptor(universal_machine(DNA), DELTA, kind=W_KIND, asserted_class=asserted)
        listed = satisfies(p, dna_lang(words))
        monkeypatch.setattr(transducers, "_LISTING_CAP", 0)
        searched = satisfies(p, dna_lang(words))
        monkeypatch.undo()
        assert (listed.stats["route"], searched.stats["route"]) == ("acyclic", "mismatch")
        assert not listed.satisfied and not searched.satisfied
        assert_w_witness(p.transducer, DELTA, set(words), searched.witness)


def test_mismatch_search_finds_reachability_on_demand(monkeypatch):
    """Every pair of equal-length words against all words of length 1-3: the
    antimorphic search asks for the reachable set of few of the states."""
    t = Transducer(DNA, 1, tuple((0, a, b, 0) for a in DNA for b in DNA), {0}, {0})
    words = ["".join(w) for n in range(1, 4) for w in itertools.product("ACGT", repeat=n)]
    searches = []

    def counted(succ, sources):
        searches.append(sources)
        return reachable(succ, sources)

    monkeypatch.setattr(transducers, "_LISTING_CAP", 0)
    monkeypatch.setattr(transducers, "reachable", counted)
    v = satisfies_W_general(PropertyDescriptor(t, DELTA, kind=W_KIND), dna_lang(words))
    assert (len(words), v.satisfied, v.witness, v.stats["route"]) == (84, False, ("C", "A"), "mismatch")
    assert 0 < len(searches) < v.stats["restriction_states"]


def test_preserving_assertion_refuted():
    ph_like = Transducer(
        DNA,
        2,
        tuple(
            [(0, a, a, 0) for a in DNA.symbols]
            + [(0, a, b, 1) for a in DNA.symbols for b in DNA.symbols if a != b]
            + [(1, a, a, 1) for a in DNA.symbols]
        ),
        frozenset({0}),
        frozenset({0, 1}),
    )
    p = PropertyDescriptor(ph_like, DELTA, kind=W_KIND, asserted_class=INPUT_PRESERVING)
    with pytest.raises(ClassAssertionRefuted) as exc:
        satisfies_W_preserving(p, dna_lang(["A"]))
    assert exc.value.witness == "AA"  # delta(AA) = TT is two substitutions away


def test_preserving_route_requires_weak_kind():
    p = PropertyDescriptor(universal_machine(DNA), DELTA, kind=S_KIND, asserted_class=INPUT_PRESERVING)
    with pytest.raises(ValueError):
        satisfies_W_preserving(p, dna_lang(["A"]))


# -- weak kind, altering route -------------------------------------------------


def test_altering_route_tolerates_empty_self_pair():
    t = zeros_to_ones(accept_empty=True)
    assert accepts_pair(t, "", "")
    weak = PropertyDescriptor(t, MIRROR_ZO, kind=W_KIND, asserted_class=INPUT_ALTERING)
    l = Nfa.finite(ZO, [""])
    v = satisfies(weak, l)
    assert v.satisfied  # weak reading tolerates (eps, eps)
    # one search, which skips (eps, eps), is all the stats count
    _, states, edges = restriction_search(t, l, _theta_l(weak, l), nonempty=True)
    assert (v.stats["restriction_states"], v.stats["restriction_edges"]) == (states, edges)
    strict = PropertyDescriptor(t, MIRROR_ZO, kind=S_KIND)
    v = satisfies(strict, l)
    assert not v.satisfied and v.witness == ("", "")


def test_altering_route_cross_word_violation():
    t = zeros_to_ones(accept_empty=False)
    weak = PropertyDescriptor(t, MIRROR_ZO, kind=W_KIND, asserted_class=INPUT_ALTERING)
    assert satisfies(weak, Nfa.finite(ZO, ["0"])).satisfied
    v = satisfies(weak, Nfa.finite(ZO, ["0", "1"]))
    assert not v.satisfied
    assert_w_witness(t, MIRROR_ZO, {"0", "1"}, v.witness)


def test_altering_assertion_refuted_by_bounded_scan():
    p = PropertyDescriptor(
        Transducer.identity(DNA), DELTA, kind=W_KIND, asserted_class=INPUT_ALTERING
    )
    with pytest.raises(ClassAssertionRefuted) as exc:
        satisfies(p, dna_lang(["A"]))
    assert exc.value.witness == "AT"  # shortest delta-fixed word


def test_refuted_altering_assertion_raises_on_every_call():
    p = PropertyDescriptor(
        Transducer.identity(DNA), DELTA, kind=W_KIND, asserted_class=INPUT_ALTERING
    )
    for _ in range(2):  # the second call is answered from the memoized check
        with pytest.raises(ClassAssertionRefuted) as exc:
            satisfies(p, dna_lang(["A"]))
        assert exc.value.witness == "AT"


def test_class_routes_report_assertion_bound():
    altering = PropertyDescriptor(
        zeros_to_ones(accept_empty=False), MIRROR_ZO, kind=W_KIND, asserted_class=INPUT_ALTERING
    )
    v = satisfies(altering, Nfa.finite(ZO, ["0"]), assertion_bound=4)
    assert v.stats["assertion_bound"] == 4
    preserving = PropertyDescriptor(
        universal_machine(DNA), DELTA, kind=W_KIND, asserted_class=INPUT_PRESERVING
    )
    v = satisfies(preserving, dna_lang(["A"]), assertion_bound=2)
    assert v.stats["assertion_bound"] == 2
    v = is_maximal(altering, Nfa.finite(ZO, ["0"]), assertion_bound=3)
    assert (v.decider, v.witness, v.stats["assertion_bound"]) == ("is_maximal", "", 3)


def test_altering_assertion_refuted_at_decode_stage():
    # scan bound too small to see the fixed point, but the language exposes it
    p = PropertyDescriptor(
        Transducer.identity(DNA), DELTA, kind=W_KIND, asserted_class=INPUT_ALTERING
    )
    with pytest.raises(ClassAssertionRefuted) as exc:
        satisfies(p, dna_lang(["AT"]), assertion_bound=1)
    assert exc.value.witness == "AT"


# -- weak kind, general route ---------------------------------------------------


def test_general_route_morphic_theta():
    comp = Permutation.from_mapping(
        DNA, {"A": "T", "T": "A", "C": "G", "G": "C"}, antimorphic=False
    )
    p = PropertyDescriptor(Transducer.identity(DNA), comp, kind=W_KIND)
    assert satisfies_W_general(p, dna_lang(["AC", "GT"])).satisfied
    # only the tolerated pair ("", "") survives the restriction
    good = satisfies_W_general(p, dna_lang(["", "AC", "GT"]))
    assert good.satisfied and good.stats["route"] == "mismatch"
    v = satisfies_W_general(p, dna_lang(["AC", "TG"]))
    assert not v.satisfied and v.stats["route"] == "mismatch"
    assert_w_witness(p.transducer, comp, {"AC", "TG"}, v.witness)


def test_general_route_acyclic_on_finite_language():
    t = infix_machine(DNA)
    p = PropertyDescriptor(t, DELTA, kind=W_KIND)
    # delta(AT) = AT is an infix of AT itself: a tolerated diagonal pair
    good = satisfies_W_general(p, dna_lang(["AT", "GG"]))
    assert good.satisfied and good.stats.get("route") == "acyclic"
    bad = satisfies_W_general(p, dna_lang(["ACGT", "CG"]))
    # the restriction pairs words of unequal lengths: the length check decides
    assert not bad.satisfied and bad.stats["route"] == "length"
    assert_w_witness(t, DELTA, {"ACGT", "CG"}, bad.witness)


def test_general_route_empty_restriction_short_circuits():
    p = PropertyDescriptor(Transducer.identity(DNA), DELTA, kind=W_KIND)
    v = satisfies_W_general(p, dna_lang(["AAA"]))
    assert v.satisfied and "route" not in v.stats


def test_general_route_edge_off_the_balance_reports_the_trimmed_size():
    # state 1 is reached at balance +1 and -1, no accepting triple is uneven
    # on the walk's own paths, and state 3 is a dead end the trim drops
    edges = ((0, "a", "", 1), (0, "", "a", 1), (1, "", "b", 2), (2, "a", "", 3))
    t = Transducer(AB, 4, edges, {0}, {2})
    v = satisfies_W_general(PropertyDescriptor(t, Permutation.mirror(AB), kind=W_KIND), Nfa.universal(AB))
    assert not v.satisfied and v.witness == ("", "ba")
    assert v.stats == {"restriction_states": 3, "restriction_edges": 3, "route": "length"}


def test_general_route_mismatch_satisfied():
    # (AT)* maps onto itself under delta, pairs are all diagonal
    p = PropertyDescriptor(Transducer.identity(DNA), DELTA, kind=W_KIND)
    l = parse_regex("(AT)*", DNA)
    v = satisfies_W_general(p, l)
    assert v.satisfied
    assert v.stats["route"] == "mismatch"


def test_general_route_mismatch_violation():
    p = PropertyDescriptor(Transducer.identity(DNA), DELTA, kind=W_KIND)
    v = satisfies_W_general(p, Nfa.universal(DNA))
    assert not v.satisfied
    assert v.stats["route"] == "mismatch"
    u, w = v.witness
    assert u != w and DELTA(w) == u  # identity machine: theta(w) = u


def test_general_route_length_violation():
    ins = build_op_transducer("T4", "0*1", DNA)  # appends one letter
    p = PropertyDescriptor(ins, DELTA, kind=W_KIND)
    v = satisfies_W_general(p, Nfa.universal(DNA))
    assert not v.satisfied and v.stats["route"] == "length"
    u, w = v.witness
    assert u != w
    assert pair_in_relation(ins, u, DELTA(w))


def test_general_route_antimorphic_order_three():
    # an antimorphic permutation that is not an involution: theta(ab) = cb, theta(ba) = bc;
    # the letter map a->c, c->a agrees with theta on (ab)* but not on abba
    three = Alphabet.of("abc")
    cyc = Permutation.from_mapping(three, {"a": "b", "b": "c", "c": "a"}, antimorphic=True)
    swap_ac = Transducer(three, 1, ((0, "a", "c", 0), (0, "b", "b", 0), (0, "c", "a", 0)), {0}, {0})
    p = PropertyDescriptor(swap_ac, cyc, kind=W_KIND)
    for regex, violated in (("(ab)*", False), ("(ab|ba)*", True)):
        l = parse_regex(regex, three)
        v = satisfies_W_general(p, l)
        words = [w for w in enumerate_words(Nfa.universal(three), 6) if accepts(l, w)]
        assert (violates_W(p.transducer, cyc, words) is not None) == violated
        assert v.satisfied != violated and v.stats["route"] == "mismatch"
        if violated:
            u, w = v.witness
            assert u != w and accepts(l, u) and accepts(l, w)
            assert pair_in_relation(p.transducer, u, cyc(w))


def test_general_route_requires_weak_kind():
    p = PropertyDescriptor(Transducer.identity(DNA), DELTA, kind=S_KIND)
    with pytest.raises(ValueError):
        satisfies_W_general(p, dna_lang(["A"]))


# -- dispatcher ------------------------------------------------------------------


def test_dispatcher_routes_by_kind_and_class():
    t = infix_machine(DNA)
    l = dna_lang(["AAA", "CCT"])
    s_kind = satisfies(PropertyDescriptor(t, DELTA, kind=S_KIND), l)
    assert s_kind.decider == "satisfies_S"
    general = satisfies(PropertyDescriptor(t, DELTA, kind=W_KIND), l)
    assert general.decider == "satisfies_W_general"
    preserving = satisfies(
        PropertyDescriptor(universal_machine(DNA), DELTA, kind=W_KIND, asserted_class=INPUT_PRESERVING),
        dna_lang(["ACG"]),
    )
    assert (preserving.decider, preserving.stats["route"]) == ("satisfies_W_general", "acyclic")


def _outcome(decide):
    """What a decider call shows: the whole Verdict, with the stats' key order, or the refutation."""
    try:
        v = decide()
    except ClassAssertionRefuted as exc:
        return "refuted", exc.witness, str(exc)
    return v.satisfied, v.witness, v.decider, list(v.stats.items())


def test_dispatcher_agrees_with_each_dedicated_route():
    """On random descriptors of every (kind, class) pair, ``satisfies`` gives what the public route
    of that pair gives.  The weak input-altering route has no public entry of its own: its stats are
    the search without ("", "") plus the bound, and a scan refutation is the bounded check's word."""
    rng = random.Random(3101)
    labels = ["", "", "a", "b", "ab", "ba"]
    seen = {}
    for _ in range(3000):
        n = rng.randint(1, 3)
        edges = [(rng.randrange(n), rng.choice(labels), rng.choice(labels), rng.randrange(n))
                 for _ in range(rng.randint(1, 2 * n + 2))]
        t = Transducer(AB, n, tuple(edges), {0}, rng.sample(range(n), rng.randint(1, n)))
        kind, asserted = rng.choice((S_KIND, W_KIND)), rng.choice((UNRESTRICTED, INPUT_ALTERING, INPUT_PRESERVING))
        p = PropertyDescriptor(t, rng.choice(AB_THETAS), kind=kind, asserted_class=asserted)
        l, bound = _random_language_with_epsilon_edges(rng), rng.randint(0, 3)
        got = _outcome(lambda: satisfies(p, l, bound))
        if kind == S_KIND:
            assert got == _outcome(lambda: satisfies_S(p, l))
        elif asserted == UNRESTRICTED:
            assert got == _outcome(lambda: satisfies_W_general(p, l))
        elif asserted == INPUT_PRESERVING:
            assert got == _outcome(lambda: satisfies_W_preserving(p, l, bound))
        else:
            scanned = transducers.bounded_counterexample(t, p.theta, INPUT_ALTERING, bound)
            if scanned is not None:
                assert got[:2] == ("refuted", scanned)
            elif got[0] == "refuted":  # a hit that decodes to a self-pair
                assert pair_in_relation(t, got[1], p.theta(got[1]))
                seen["decoded"] = seen.get("decoded", 0) + 1
            else:
                _, states, edges = restriction_search(t, l, _theta_l(p, l), nonempty=True)
                assert (got[2], got[3]) == ("satisfies_S", [("restriction_states", states),
                                                            ("restriction_edges", edges), ("assertion_bound", bound)])
        key = (kind, asserted, got[0])
        seen[key] = seen.get(key, 0) + 1
    for kind in (S_KIND, W_KIND):
        for asserted in (UNRESTRICTED, INPUT_ALTERING, INPUT_PRESERVING):
            assert seen.get((kind, asserted, True), 0) > 20 and seen.get((kind, asserted, False), 0) > 20
    assert seen[W_KIND, INPUT_ALTERING, "refuted"] > 20 and seen[W_KIND, INPUT_PRESERVING, "refuted"] > 20
    assert seen["decoded"] > 2


def test_is_maximal_builds_theta_of_l_once(monkeypatch):
    """The hypotheses, the empty-word check and the universe all read one theta(L), whichever
    branch of ``_theta_l`` builds it: the trie of a listed L or ``theta_image``."""
    built = []

    def image(m, theta):
        built.append("image of L" if m is l else "image")
        return theta_image(m, theta)

    def trie(words):
        built.append("trie")
        return automata._trie(words)

    monkeypatch.setattr(properties, "theta_image", image)
    monkeypatch.setattr(properties, "_trie", trie)
    weak = PropertyDescriptor(zeros_to_ones(False), MIRROR_ZO, kind=W_KIND, asserted_class=INPUT_ALTERING)
    strict = PropertyDescriptor(zeros_to_ones(True), MIRROR_ZO, kind=S_KIND, asserted_class=INPUT_ALTERING)
    listed = Nfa.finite(ZO, ["0", "00"])
    with_epsilon_edge = Nfa(ZO, 4, ((0, None, 1), (1, "0", 2), (2, "0", 3)), {0}, {2, 3})  # the same, not listed
    for l, theta_of_l in ((listed, "trie"), (with_epsilon_edge, "image of L")):
        del built[:]
        assert is_maximal(weak, l).stats["route"] == "empty-word"
        assert built == [theta_of_l]
        del built[:]
        assert is_maximal(strict, l).stats["route"] == "subsets"
        assert built == [theta_of_l, "image"]  # theta(L), then the theta-preimage of T(L) in the universe


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.text(alphabet="ACGT", min_size=0, max_size=3), min_size=0, max_size=3),
    st.sampled_from(["identity", "infix", "drop-last"]),
)
def test_deciders_match_brute_force(words, which):
    words = sorted(set(words))
    if which == "identity":
        t = Transducer.identity(DNA)
    elif which == "infix":
        t = infix_machine(DNA)
    else:
        t = build_op_transducer("T3", "0*1", DNA)  # delete the last letter
    l = dna_lang(words)
    s_verdict = satisfies(PropertyDescriptor(t, DELTA, kind=S_KIND), l)
    assert s_verdict.satisfied == brute_satisfies("S", t, DELTA, words)
    if not s_verdict.satisfied:
        assert_s_witness(t, DELTA, set(words), s_verdict.witness)
    w_verdict = satisfies(PropertyDescriptor(t, DELTA, kind=W_KIND), l)
    assert w_verdict.satisfied == brute_satisfies("W", t, DELTA, words)
    if not w_verdict.satisfied:
        assert_w_witness(t, DELTA, set(words), w_verdict.witness)


# -- maximality -------------------------------------------------------------------


def test_maximality_requires_satisfaction():
    p = PropertyDescriptor(
        Transducer.identity(DNA), DELTA, kind=S_KIND, asserted_class=INPUT_ALTERING
    )
    with pytest.raises(ValueError, match="does not satisfy"):
        is_maximal(PropertyDescriptor(zeros_to_ones(False), MIRROR_ZO, kind=S_KIND,
                                      asserted_class=INPUT_ALTERING),
                   Nfa.finite(ZO, ["0", "1"]))


def test_maximality_strict_kind_needs_altering_assertion():
    p = PropertyDescriptor(zeros_to_ones(False), MIRROR_ZO, kind=S_KIND)
    for words in (["0"], ["0", "1"]):  # checked before the search: ["0", "1"] does not satisfy p either
        assert satisfies(p, Nfa.finite(ZO, words)).satisfied == (words == ["0"])
        with pytest.raises(ValueError, match="input-altering"):
            is_maximal(p, Nfa.finite(ZO, words))


def test_maximality_refutes_false_altering_assertion():
    p = PropertyDescriptor(
        Transducer.identity(DNA), DELTA, kind=S_KIND, asserted_class=INPUT_ALTERING
    )
    with pytest.raises(ClassAssertionRefuted) as exc:
        is_maximal(p, dna_lang(["AAA"]))
    assert exc.value.witness == "AT"


def test_maximality_refutes_an_altering_assertion_beyond_its_bound():
    # T realizes only (0000000, 0000000), so the scan up to length 6 passes and
    # L, every other word, satisfies the property.  The one word outside L
    # cannot be added: T maps it onto its theta-image.
    t = Transducer(ZO, 8, tuple((q, "0", "0", q + 1) for q in range(7)), {0}, {7})
    p = PropertyDescriptor(t, MIRROR_ZO, kind=S_KIND, asserted_class=INPUT_ALTERING)
    l = complement(Nfa.word(ZO, "0000000"))
    assert satisfies(p, l).satisfied
    with pytest.raises(ClassAssertionRefuted) as exc:
        is_maximal(p, l)
    assert exc.value.witness == "0000000"
    assert str(exc.value) == "transducer asserted input-altering but maps '0000000' onto its theta-image"


AB_THETAS = [Permutation(AB, table, anti) for table in (("a", "b"), ("b", "a")) for anti in (False, True)]


def test_maximality_against_extension_search_on_random_inputs():
    rng = random.Random(1601)
    universe = ["".join(w) for n in range(5) for w in itertools.product("ab", repeat=n)]
    labels = ["", "", "a", "b", "ab", "ba"]
    compared = refuted = beyond = 0
    for _ in range(3000):
        n = rng.randint(1, 3)
        edges = [(rng.randrange(n), rng.choice(labels), rng.choice(labels), rng.randrange(n))
                 for _ in range(rng.randint(1, 2 * n + 1))]
        t = Transducer(AB, n, tuple(edges), {0}, rng.sample(range(n), rng.randint(1, n)))
        theta = rng.choice(AB_THETAS)
        kind = rng.choice((S_KIND, W_KIND))
        asserted = INPUT_ALTERING if kind == S_KIND else rng.choice((UNRESTRICTED, INPUT_PRESERVING))
        words = set(rng.sample(universe[:15], rng.randint(0, 4)))
        if not brute_satisfies(kind, t, theta, words):
            continue
        p = PropertyDescriptor(t, theta, kind=kind, asserted_class=asserted)
        bound = rng.randint(0, 4)  # a small bound leaves refutations to the witness check
        try:
            verdict = is_maximal(p, Nfa.finite(AB, sorted(words)), assertion_bound=bound)
        except ClassAssertionRefuted as exc:
            w = exc.witness
            assert pair_in_relation(t, w, theta(w)) == (asserted == INPUT_ALTERING)
            refuted += 1
            beyond += len(w) > bound
            continue
        ok, brute_w = brute_is_maximal(kind, t, theta, words, universe)
        if verdict.witness is not None and len(verdict.witness) > 4:
            assert ok, "the shortest addable word lies beyond the universe"
        else:
            assert (verdict.satisfied, verdict.witness) == (ok, brute_w)
        compared += 1
    assert compared > 1000 and refuted > 100 and beyond  # beyond: the witness check refuted


def test_maximality_empty_relation_reduces_to_universality():
    empty_t = Transducer.empty(DNA)
    p = PropertyDescriptor(empty_t, DELTA, kind=S_KIND, asserted_class=INPUT_ALTERING)
    assert is_maximal(p, Nfa.universal(DNA)).satisfied
    v = is_maximal(p, parse_regex("A(A|C|G|T)*|C(A|C|G|T)*|G(A|C|G|T)*|T(A|C|G|T)*", DNA))
    assert not v.satisfied and v.witness == ""


def test_maximality_stats_say_how_the_subset_search_went():
    p = PropertyDescriptor(Transducer.empty(DNA), DELTA, kind=S_KIND, asserted_class=INPUT_ALTERING)
    short = Nfa.finite(DNA, ["", *DNA, *("".join(w) for w in itertools.product(DNA, repeat=2))])
    third_from_end = union(short, parse_regex("(A|C|G|T)*(A|C|G)(A|C|G|T)(A|C|G|T)", DNA))  # misses TAA
    cases = [
        (Nfa.universal(DNA), None, 2, 2, "forward"),
        (complement(Nfa.word(DNA, "AC")), "AC", 4, 3, "forward"),
        (third_from_end, "TAA", 25, 13, "backward"),
    ]
    for l, witness, forward, backward, answered_by in cases:
        v = is_maximal(p, l)
        assert (v.satisfied, v.witness) == (witness is None, witness)
        assert v.stats["route"] == "subsets"
        assert (v.stats["forward_subsets"], v.stats["backward_subsets"], v.stats["answered_by"]) == (
            forward, backward, answered_by)
    assert not {"forward_subsets", "backward_subsets", "answered_by"} & is_maximal(p, Nfa.empty(DNA)).stats.keys()


def test_maximality_witness_is_addable():
    t = zeros_to_ones(accept_empty=True)
    p = PropertyDescriptor(t, MIRROR_ZO, kind=S_KIND, asserted_class=INPUT_ALTERING)
    l = Nfa.finite(ZO, ["0"])
    v = is_maximal(p, l)
    assert not v.satisfied
    w = v.witness
    # the epsilon fix matters here: (eps, eps) is in T so eps is not addable
    assert w not in ("", "0")
    ok, brute_w = brute_is_maximal(
        "S", t, MIRROR_ZO, ["0"], ["".join(x) for n in range(4) for x in itertools.product("01", repeat=n)]
    )
    assert not ok and brute_w == w


def test_maximality_weak_kind_against_brute():
    t = universal_machine(DNA)
    p = PropertyDescriptor(t, DELTA, kind=W_KIND, asserted_class=INPUT_PRESERVING)
    singleton = dna_lang(["ACG"])
    v = is_maximal(p, singleton)
    # any second word violates, so singletons are maximal for the universal machine
    assert v.satisfied
    universe = ["".join(x) for n in range(3) for x in itertools.product("ACGT", repeat=n)]
    ok, _ = brute_is_maximal("W", t, DELTA, ["ACG"], universe)
    assert ok


def test_find_extension_respects_bound():
    t = zeros_to_ones(accept_empty=True)
    p = PropertyDescriptor(t, MIRROR_ZO, kind=S_KIND, asserted_class=INPUT_ALTERING)
    l = Nfa.finite(ZO, ["0"])
    assert find_extension(p, l, max_len=4) == "00"
    assert find_extension(p, l, max_len=1) is None


def _random_language_with_epsilon_edges(rng):
    n = rng.randint(1, 4)
    edges = [(rng.randrange(n), rng.choice((None, "a", "b")), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
    return Nfa(AB, n, tuple(edges), rng.sample(range(n), rng.randint(1, n)), rng.sample(range(n), rng.randint(0, n)))


def _theta_l_case(rng):
    """``(shape, L)`` over ``AB`` for ``_theta_l``.  A trie or a finite nondeterministic L (several
    starts, a letter to several states, so duplicate paths; ε in L when a start is final) is listed;
    an ε edge or a cycle at a start, a cycle in a dead part or more than 64 words is not."""
    shape = rng.choice(("trie", "dag", "epsilon edge", "cycle", "dead cycle", "past the cap"))
    if shape == "trie":
        return shape, Nfa.finite(AB, ["".join(rng.choices("ab", k=rng.randint(0, 4))) for _ in range(rng.randint(0, 5))])
    if shape == "past the cap":  # both letters on every step: 2^6 words of length 6, and more
        edges = [(q, a, q + 1) for q in range(6) for a in "ab"]
        return shape, Nfa(AB, 7, tuple(edges), {0}, {5, 6, *rng.sample(range(5), rng.randint(0, 2))})
    n = rng.randint(2, 5)
    edges = [(q, rng.choice("ab"), rng.randint(q + 1, n - 1)) for q in range(n - 1) for _ in range(rng.randint(1, 3))]
    initial, final = rng.sample(range(n), rng.randint(1, 2)), rng.sample(range(n), rng.randint(1, n))
    start = initial[0]
    if shape == "epsilon edge":
        edges.append((start, None, rng.randrange(n)))
    elif shape == "cycle":
        edges.append((start, rng.choice("ab"), start))
    elif shape == "dead cycle":  # a state no final is reached from, on a loop
        edges += [(start, rng.choice("ab"), n), (n, rng.choice("ab"), n)]
        n += 1
    return shape, Nfa(AB, n, tuple(edges), initial, final)


def test_theta_of_l_is_the_language_theta_image_gives():
    """``_theta_l`` accepts exactly the words ``theta_image`` accepts, and theta(L) is theta of L,
    by the raw-edge oracle on all words up to n + 2 letters for n states.  An antimorphic theta of a
    listed L with several final states is a trie: one start and at most one edge per state and letter."""
    rng = random.Random(3201)
    seen = {}
    for _ in range(300):
        shape, l = _theta_l_case(rng)
        theta = rng.choice(AB_THETAS)
        tl, image = _theta_l(PropertyDescriptor(Transducer.identity(AB), theta), l), theta_image(l, theta)
        for k in range(l.n_states + 3):
            for w in map("".join, itertools.product("ab", repeat=k)):
                assert accepts_word(tl, w) == accepts_word(image, w) == accepts_word(l, theta.inverse()(w)), (
                    shape, l, theta, w)
        listed = shape in ("trie", "dag")
        assert (list_words(l) is not None) == listed, (shape, l)
        if listed and theta.antimorphic and len(l.final) > 1:
            moves = [(q, a) for q, a, _ in tl.edges]
            assert tl.initial == {0} and len(set(moves)) == len(moves) and None not in {a for _, a in moves}
            seen["trie"] = seen.get("trie", 0) + 1
        else:
            assert (tl.n_states, tl.edges, tl.initial, tl.final) == (image.n_states, image.edges, image.initial, image.final)
        key = (shape, theta.antimorphic, bool(tl.initial & tl.final))
        seen[key] = seen.get(key, 0) + 1
    for shape in ("trie", "dag", "epsilon edge", "cycle", "dead cycle", "past the cap"):
        for antimorphic in (False, True):
            assert seen.get((shape, antimorphic, False), 0) + seen.get((shape, antimorphic, True), 0) > 10
    assert seen.get(("trie", True, True), 0) > 3 and seen.get(("dag", True, True), 0) > 3  # ε in a listed L
    assert seen["trie"] > 25


def test_empty_word_check_agrees_with_the_built_universe():
    rng = random.Random(2801)
    labels = ["", "", "a", "b", "ab", "ba"]
    seen = {True: 0, False: 0}
    strict_only = epsilon_pairs = 0
    for _ in range(5000):
        n = rng.randint(1, 3)
        edges = [(rng.randrange(n), rng.choice(labels), rng.choice(labels), rng.randrange(n))
                 for _ in range(rng.randint(1, 2 * n + 1))]
        epsilon_pairs += ("", "") in {e[1:3] for e in edges}
        t = Transducer(AB, n, tuple(edges), {0}, rng.sample(range(n), rng.randint(1, n)))
        p = PropertyDescriptor(t, rng.choice(AB_THETAS), kind=rng.choice((S_KIND, W_KIND)))
        l = _random_language_with_epsilon_edges(rng)
        tl = _theta_l(p, l)
        universe = _extension_universe(p, l, tl)
        strict_clause = p.kind == S_KIND and pair_in_relation(t, "", "")
        if strict_clause:  # the clause the universe leaves to the check
            strict_only += missing_word(universe) == ""
            universe = union(universe, Nfa.epsilon(AB))
        blocked = _blocks_empty_word(p, l, tl)
        assert blocked == (missing_word(universe) != ""), (edges, p.theta, p.kind, l.edges)
        seen[blocked] += 1
    assert min(seen.values()) > 1000 and strict_only > 50 and epsilon_pairs > 1000


def test_only_the_strict_self_hit_blocks_the_empty_word():
    t = zeros_to_ones(accept_empty=True)  # realizes (ε, ε) and nothing else touching ε
    l = Nfa.finite(ZO, ["0"])
    strict = PropertyDescriptor(t, MIRROR_ZO, kind=S_KIND, asserted_class=INPUT_ALTERING)
    tl = _theta_l(strict, l)
    assert missing_word(_extension_universe(strict, l, tl)) == ""
    assert _blocks_empty_word(strict, l, tl)
    v = is_maximal(strict, l)
    assert (v.witness, v.stats["route"]) == ("00", "subsets") and v.stats["universe_states"] > 0
    weak = PropertyDescriptor(t, MIRROR_ZO, kind=W_KIND)  # the weak reading tolerates the self-hit
    assert not _blocks_empty_word(weak, l, tl)
    v = is_maximal(weak, l)
    assert (v.witness, v.stats["route"], v.stats["universe_states"]) == ("", "empty-word", 0)


def test_a_bad_state_cap_raises_where_the_empty_word_answers(monkeypatch):
    p = PropertyDescriptor(zeros_to_ones(False), MIRROR_ZO, kind=W_KIND, asserted_class=INPUT_ALTERING)
    l = Nfa.finite(ZO, ["0"])
    assert is_maximal(p, l).stats["route"] == "empty-word"
    with pytest.raises(FormatError, match="state_cap must be a positive integer, not 0"):
        is_maximal(p, l, state_cap=0)
    monkeypatch.setenv("DNACODEC_STATE_CAP", "abc")
    with pytest.raises(FormatError, match="DNACODEC_STATE_CAP must be a positive integer"):
        is_maximal(p, l)


def test_refuted_assertions_keep_their_messages():
    identity = Transducer.identity(DNA)
    cases = [
        (
            lambda: satisfies(
                PropertyDescriptor(identity, DELTA, kind=W_KIND, asserted_class=INPUT_PRESERVING),
                dna_lang(["A"]),
            ),
            "A",
            "transducer asserted input-preserving but misses theta('A')",
        ),
        (
            lambda: satisfies(
                PropertyDescriptor(identity, DELTA, kind=W_KIND, asserted_class=INPUT_ALTERING),
                dna_lang(["A"]),
            ),
            "AT",
            "transducer asserted input-altering but maps 'AT' onto its theta-image",
        ),
        (  # found while decoding the witness, below the scan bound
            lambda: satisfies(
                PropertyDescriptor(identity, DELTA, kind=W_KIND, asserted_class=INPUT_ALTERING),
                dna_lang(["AT"]),
                assertion_bound=1,
            ),
            "AT",
            "transducer asserted input-altering but maps 'AT' onto its theta-image",
        ),
        (
            lambda: is_maximal(
                PropertyDescriptor(identity, DELTA, kind=S_KIND, asserted_class=INPUT_ALTERING),
                dna_lang(["AAA"]),
            ),
            "AT",
            "transducer asserted input-altering but maps 'AT' onto its theta-image",
        ),
    ]
    for call, word, message in cases:
        with pytest.raises(ClassAssertionRefuted) as exc:
            call()
        assert exc.value.witness == word
        assert str(exc.value) == message
