"""The named DNA-bonding property family and its hierarchy."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from dnacodec.alphabets import DNA, Alphabet, Permutation, dna_delta
from dnacodec.automata import Nfa
from dnacodec.dna import (
    NORMAL,
    PROPERTY_NAMES,
    STRICT,
    WEAK,
    ConstellationPattern,
    build_pattern_transducer,
    hamming_property,
    hierarchy_edges,
    named_property,
)
from dnacodec.errors import DnaCodecError
from dnacodec.graphs import trim_keep
from dnacodec.properties import (
    INPUT_ALTERING,
    S_KIND,
    UNRESTRICTED,
    W_KIND,
    satisfies,
)
from dnacodec.trajectories import build_op_transducer
from dnacodec.transducers import bounded_counterexample, image
from oracles import (
    L_HAMMING_BAD,
    L_HAMMING_GOOD,
    L_SELF_COMPLEMENTARY,
    L_SINGLE_LETTERS,
    PH_SPHERE_AAA,
    enumerate_pairs,
    hamming,
    outputs_up_to,
    pair_in_relation,
    violates_constellation,
)

DELTA = dna_delta()

# context letters for each named property, used by the definitional oracle
PATTERNS = {
    "nonoverlapping": ("",),
    "compliant": ("uv",),
    "p-compliant": ("v",),
    "s-compliant": ("u",),
    "5-overhang-free": ("uy",),
    "3-overhang-free": ("vx",),
    "sticky-free": ("vy",),
    "overhang-free": ("uy", "vx"),
}

ALL_VARIANT_PAIRS = [
    (name, variant)
    for name in PROPERTY_NAMES
    for variant in (STRICT, NORMAL, WEAK)
    if not (name == "nonoverlapping" and variant != STRICT)
]


def dna_lang(words):
    return Nfa.finite(DNA, list(words))


def check_against_oracle(name, variant, words):
    p = named_property(name, variant, DELTA)
    got = satisfies(p, dna_lang(words))
    want = violates_constellation(words, DELTA, PATTERNS[name], variant) is None
    assert got.satisfied == want, (name, variant, words, got.witness)
    return got


# -- pattern plumbing ---------------------------------------------------------


def test_pattern_of_letters_round_trip():
    pat = ConstellationPattern.of("uy")
    assert pat.u_allowed and pat.y_allowed and not pat.v_allowed and not pat.x_allowed
    with pytest.raises(ValueError):
        ConstellationPattern.of("uz")


def test_strict_compliant_machine_is_the_infix_machine():
    strict_compliant = build_pattern_transducer(ConstellationPattern.of("uv"), STRICT, DNA)
    infix = build_op_transducer("T1", "1*0+1*", DNA)
    assert enumerate_pairs(strict_compliant, 4) == enumerate_pairs(infix, 4)


def test_strict_s_and_p_compliant_machines_are_suffix_and_prefix():
    suffixes = build_pattern_transducer(ConstellationPattern.of("u"), STRICT, DNA)
    assert pair_in_relation(suffixes, "ACG", "CG")
    assert pair_in_relation(suffixes, "ACG", "ACG")
    assert not pair_in_relation(suffixes, "ACG", "AC")
    prefixes = build_pattern_transducer(ConstellationPattern.of("v"), STRICT, DNA)
    assert pair_in_relation(prefixes, "ACG", "AC")
    assert not pair_in_relation(prefixes, "ACG", "CG")


def test_weak_family_forces_a_context_letter():
    t = build_pattern_transducer(ConstellationPattern.of("uv"), WEAK, DNA)
    assert not pair_in_relation(t, "ACG", "ACG")  # all contexts empty
    assert pair_in_relation(t, "ACG", "CG")
    assert pair_in_relation(t, "ACG", "A")
    assert not pair_in_relation(t, "ACG", "ACGT")  # x and y are banned here


# -- descriptor wiring ---------------------------------------------------------


@pytest.mark.parametrize("family", [STRICT, WEAK])
@pytest.mark.parametrize("letters", ["".join(c) for k in range(5) for c in itertools.combinations("uvxy", k)])
def test_pattern_machines_are_trim(letters, family):
    t = build_pattern_transducer(ConstellationPattern.of(letters), family, DNA)
    assert trim_keep(t.n_states, t.edges, t.initial, t.final) == list(range(t.n_states))
    # a weak machine loses the state of each path whose context side is banned
    banned = sum(not set(letters) & set(side) for side in ("ux", "vy"))
    assert t.n_states == (3 if family == STRICT else (4, 3, 0)[banned])


def test_named_property_machines_are_trim():
    for name in PROPERTY_NAMES:
        for variant in (STRICT, NORMAL, WEAK) if name != "nonoverlapping" else (STRICT,):
            t = named_property(name, variant, dna_delta()).transducer
            assert trim_keep(t.n_states, t.edges, t.initial, t.final) == list(range(t.n_states)), (name, variant)


def test_variant_to_kind_mapping():
    assert named_property("compliant", STRICT, DELTA).kind == S_KIND
    assert named_property("compliant", NORMAL, DELTA).kind == S_KIND
    assert named_property("compliant", WEAK, DELTA).kind == W_KIND


def test_altering_classification():
    for name in ("compliant", "p-compliant", "s-compliant"):
        for variant in (NORMAL, WEAK):
            assert named_property(name, variant, DELTA).asserted_class == INPUT_ALTERING
    for name in ("5-overhang-free", "3-overhang-free", "sticky-free", "overhang-free"):
        for variant in (NORMAL, WEAK):
            assert named_property(name, variant, DELTA).asserted_class == UNRESTRICTED
    for name in PROPERTY_NAMES:
        assert named_property(name, STRICT, DELTA).asserted_class == UNRESTRICTED


def test_altering_assertion_is_sound():
    t = named_property("compliant", NORMAL, DELTA).transducer
    assert bounded_counterexample(t, DELTA, "altering", 4) is None


def test_invalid_requests():
    with pytest.raises(ValueError):
        named_property("compliant", "loose", DELTA)
    with pytest.raises(ValueError):
        named_property("no-such-property", STRICT, DELTA)
    with pytest.raises(DnaCodecError):
        named_property("nonoverlapping", NORMAL, DELTA)
    morphic = Permutation.identity(DNA)
    with pytest.raises(ValueError):
        named_property("compliant", STRICT, morphic)
    three = Alphabet.of("abc")
    cycle = Permutation.from_mapping(three, {"a": "b", "b": "c", "c": "a"}, antimorphic=True)
    with pytest.raises(ValueError):
        named_property("compliant", STRICT, cycle)


def test_property_names_and_labels():
    assert set(PATTERNS) == set(PROPERTY_NAMES)
    p = named_property("sticky-free", WEAK, DELTA)
    assert p.name == "sticky-free (weak)"


# -- pinned verdicts -------------------------------------------------------------


def test_self_complementary_word_fails_nonoverlapping():
    p = named_property("nonoverlapping", STRICT, DELTA)
    v = satisfies(p, dna_lang(L_SELF_COMPLEMENTARY))
    assert not v.satisfied
    assert v.witness == ("AT", "AT")


def test_palindrome_free_pair_passes_nonoverlapping():
    p = named_property("nonoverlapping", STRICT, DELTA)
    assert satisfies(p, dna_lang(["AAA", "CCT"])).satisfied


def test_overhang_word_fails_normal_but_not_weak():
    # delta(AACG) = CGTT overhangs AACG itself on the shared core CG
    bad_normal = satisfies(named_property("5-overhang-free", NORMAL, DELTA), dna_lang(["AACG"]))
    assert not bad_normal.satisfied
    ok_weak = satisfies(named_property("5-overhang-free", WEAK, DELTA), dna_lang(["AACG"]))
    assert ok_weak.satisfied
    both = dna_lang(["AACG", "CGTT"])
    assert not satisfies(named_property("5-overhang-free", NORMAL, DELTA), both).satisfied
    assert satisfies(named_property("5-overhang-free", WEAK, DELTA), both).satisfied


def test_every_named_property_on_curated_languages():
    curated = [
        (),
        ("AT",),
        ("AACG",),
        ("AACG", "CGTT"),
        ("ACGT",),
        ("AAA", "CCT"),
        ("A", "C"),
        ("AGG", "CCA"),
        ("AC", "GT"),
        ("CCC", "GGG", "AAA"),
    ]
    for name, variant in ALL_VARIANT_PAIRS:
        for words in curated:
            check_against_oracle(name, variant, words)


# -- hamming properties -----------------------------------------------------------


def test_hamming_machines_realize_the_same_relation():
    small = hamming_property(False, DELTA)
    split = hamming_property(True, DELTA)
    assert enumerate_pairs(small.transducer, 4) == enumerate_pairs(split.transducer, 4)
    assert small.name == "hamming-ge-2"
    assert split.name == "hamming-ge-2-min-len-2"


def test_hamming_sphere_of_aaa():
    t = hamming_property(False, DELTA).transducer
    assert outputs_up_to(t, "AAA", 3) == PH_SPHERE_AAA


def test_hamming_verdicts():
    p = hamming_property(False, DELTA)
    assert satisfies(p, dna_lang(L_HAMMING_GOOD)).satisfied
    v = satisfies(p, dna_lang(L_HAMMING_BAD))
    assert not v.satisfied
    u, w = v.witness
    assert {u, w} == set(L_HAMMING_BAD)
    assert hamming(u, DELTA(w)) <= 1
    assert not satisfies(p, dna_lang(L_SINGLE_LETTERS)).satisfied
    # the split machine must agree
    q = hamming_property(True, DELTA)
    for words in (L_HAMMING_GOOD, L_HAMMING_BAD, L_SINGLE_LETTERS):
        assert satisfies(q, dna_lang(words)).satisfied == satisfies(p, dna_lang(words)).satisfied


def test_hamming_brute_force_semantics():
    p = hamming_property(False, DELTA)
    for words in (("AAA", "CCT"), ("AGG", "CCA"), ("ACG", "TTT"), ("AC", "GT")):
        expected = all(
            hamming(u, DELTA(w)) > 1 for u in words for w in words
        )
        assert satisfies(p, dna_lang(words)).satisfied == expected, words


# -- hierarchy ---------------------------------------------------------------------


def test_hierarchy_edges_shape():
    edges = hierarchy_edges()
    assert len(edges) == 10
    names = set(PROPERTY_NAMES)
    for strong, weak in edges:
        assert strong in names and weak in names
        assert strong != weak
    # nonoverlapping is a sink and overhang-free a source
    assert all(strong != "nonoverlapping" for strong, _ in edges)
    assert all(weak != "overhang-free" for _, weak in edges)


def _language_strategy():
    return st.lists(
        st.text(alphabet="ACGT", min_size=1, max_size=4), min_size=0, max_size=3
    ).map(lambda ws: tuple(sorted(set(ws))))


@settings(max_examples=40, deadline=None)
@given(_language_strategy(), st.sampled_from(ALL_VARIANT_PAIRS))
def test_random_languages_match_definitional_oracle(words, name_variant):
    name, variant = name_variant
    check_against_oracle(name, variant, words)


@settings(max_examples=40, deadline=None)
@given(_language_strategy(), st.sampled_from([STRICT, NORMAL, WEAK]))
def test_hierarchy_implications_hold(words, variant):
    l = dna_lang(words)
    verdicts = {}
    for name in PROPERTY_NAMES:
        if name == "nonoverlapping" and variant != STRICT:
            continue
        verdicts[name] = satisfies(named_property(name, variant, DELTA), l).satisfied
    for strong, weak in hierarchy_edges():
        if strong not in verdicts or weak not in verdicts:
            continue
        assert not verdicts[strong] or verdicts[weak], (strong, weak, words, variant)


@settings(max_examples=40, deadline=None)
@given(_language_strategy(), st.sampled_from(PROPERTY_NAMES))
def test_variant_implications_hold(words, name):
    l = dna_lang(words)
    strict_ok = satisfies(named_property(name, STRICT, DELTA), l).satisfied
    if name == "nonoverlapping":
        return
    normal_ok = satisfies(named_property(name, NORMAL, DELTA), l).satisfied
    weak_ok = satisfies(named_property(name, WEAK, DELTA), l).satisfied
    assert not strict_ok or normal_ok
    assert not normal_ok or weak_ok


@settings(max_examples=30, deadline=None)
@given(_language_strategy())
def test_compliant_normal_equals_weak(words):
    # with both output contexts banned the machine is input-altering, so
    # the strict reading of the weak family coincides with the weak reading
    l = dna_lang(words)
    normal_ok = satisfies(named_property("compliant", NORMAL, DELTA), l).satisfied
    weak_ok = satisfies(named_property("compliant", WEAK, DELTA), l).satisfied
    assert normal_ok == weak_ok
