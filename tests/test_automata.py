"""NFA construction, boolean operations, and the regex front end."""

import pytest
from hypothesis import given, settings, strategies as st

from dnacodec.alphabets import BINARY, DNA, dna_delta
from dnacodec.automata import (
    Nfa,
    accepts,
    complement,
    concat,
    determinize,
    enumerate_words,
    intersect,
    is_empty,
    is_universal,
    missing_word,
    parse_regex,
    plus,
    remove_epsilon,
    reverse,
    shortest_word,
    star,
    theta_image,
    trim,
    union,
)
from dnacodec.errors import FormatError, ResourceLimitError

word_lists = st.lists(st.text(alphabet="ACGT", max_size=4), max_size=5)


def test_finite_round_trip():
    words = ["", "A", "ACG", "TT"]
    m = Nfa.finite(DNA, words)
    assert sorted(enumerate_words(m, 4)) == sorted(words)
    assert accepts(m, "ACG") and not accepts(m, "AC")


def test_builders():
    assert is_empty(Nfa.empty(DNA))
    assert enumerate_words(Nfa.epsilon(DNA), 2) == [""]
    assert enumerate_words(Nfa.word(DNA, "GAT"), 4) == ["GAT"]
    assert not accepts(Nfa.nonempty(DNA), "")
    assert accepts(Nfa.universal(DNA), "")
    assert accepts(Nfa.length_at_most(DNA, 2), "GT")
    assert not accepts(Nfa.length_at_most(DNA, 2), "GTA")
    assert accepts(Nfa.length_more_than(DNA, 2), "GTA")
    assert not accepts(Nfa.length_more_than(DNA, 2), "GT")


def test_boolean_operations():
    a = Nfa.finite(DNA, ["A", "CC"])
    b = Nfa.finite(DNA, ["CC", "GGG"])
    assert sorted(enumerate_words(union(a, b), 3)) == ["A", "CC", "GGG"]
    assert enumerate_words(intersect(a, b), 3) == ["CC"]
    assert sorted(enumerate_words(concat(a, a), 4)) == ["AA", "ACC", "CCA", "CCCC"]
    assert accepts(star(a), "") and accepts(star(a), "CCA")
    assert not accepts(plus(a), "") and accepts(plus(a), "A")


def test_shortest_word_prefers_shortlex():
    assert shortest_word(Nfa.empty(DNA)) is None
    assert shortest_word(Nfa.epsilon(DNA)) == ""
    assert shortest_word(Nfa.finite(DNA, ["T", "C", "GG"])) == "C"


def test_complement_and_universality():
    m = Nfa.length_at_most(DNA, 2)
    co = complement(m)
    assert not accepts(co, "GT") and accepts(co, "GTA")
    assert is_universal(union(m, co))
    assert missing_word(union(m, co)) is None
    assert missing_word(m) == "AAA"
    assert not is_universal(m)


def test_complement_respects_state_cap():
    big = parse_regex("(A|C|G|T)*A(A|C|G|T)(A|C|G|T)(A|C|G|T)", DNA)
    with pytest.raises(ResourceLimitError):
        complement(big, state_cap=4)


def test_determinize_preserves_language():
    m = parse_regex("(A|C)*G", DNA)
    d = determinize(m)
    assert enumerate_words(d, 3) == enumerate_words(m, 3)


def test_trim_reverse_remove_epsilon():
    m = parse_regex("AC|AG", DNA)
    r = reverse(m)
    assert sorted(enumerate_words(r, 2)) == ["CA", "GA"]
    t = trim(union(m, Nfa.empty(DNA)))
    assert sorted(enumerate_words(t, 2)) == ["AC", "AG"]
    ne = remove_epsilon(star(Nfa.word(DNA, "A")))
    assert all(sym is not None for _, sym, _ in ne.edges)
    assert sorted(enumerate_words(ne, 2)) == ["", "A", "AA"]


@pytest.mark.parametrize("regex", ["(A|CG)*T", "A(C|@epsilon)G+", "(AC)*|G*"])
def test_remove_epsilon_returns_epsilon_free_machines_unchanged(regex):
    m = parse_regex(regex, DNA)
    assert any(sym is None for _, sym, _ in m.edges)
    ne = remove_epsilon(m)
    assert all(sym is not None for _, sym, _ in ne.edges)
    assert enumerate_words(ne, 5) == enumerate_words(m, 5)
    assert remove_epsilon(ne) is ne
    trie = Nfa.finite(DNA, ["AC", "G", ""])
    assert remove_epsilon(trie) is trie


def test_theta_image():
    delta = dna_delta()
    m = Nfa.finite(DNA, ["ACG", "T"])
    img = theta_image(m, delta)
    assert sorted(enumerate_words(img, 3)) == ["A", "CGT"]


def test_regex_grammar():
    assert is_empty(parse_regex("∅", DNA))
    assert enumerate_words(parse_regex("@epsilon", DNA), 1) == [""]
    m = parse_regex("0(0|1)*1", BINARY)
    assert accepts(m, "01") and accepts(m, "0101") and not accepts(m, "10")
    p = parse_regex("1*0+1*", BINARY)
    assert accepts(p, "0") and accepts(p, "1001") and not accepts(p, "11")
    assert not accepts(p, "")
    assert enumerate_words(p, 2) == ["0", "00", "01", "10"]
    assert not accepts(parse_regex("0*1*", BINARY), "10")
    nested = parse_regex("((A|C)T)+", DNA)
    assert accepts(nested, "ATCT") and not accepts(nested, "A")


def test_regex_errors():
    from dnacodec.alphabets import Alphabet

    ab = Alphabet.of("ab")
    for bad in ["(", "a|", "*a", "()", "a)"]:
        with pytest.raises(FormatError):
            parse_regex(bad, ab)


def test_regex_infers_alphabet():
    m = parse_regex("ab|ba")
    assert sorted(m.alphabet.symbols) == ["a", "b"]


@settings(max_examples=60)
@given(word_lists)
def test_union_accepts_exactly_members(words):
    m = Nfa.finite(DNA, words)
    for w in words:
        assert accepts(m, w)
    assert sorted(enumerate_words(m, 4)) == sorted(set(words))


@settings(max_examples=60)
@given(word_lists)
def test_theta_image_pointwise(words):
    delta = dna_delta()
    img = theta_image(Nfa.finite(DNA, words), delta)
    assert sorted(enumerate_words(img, 4)) == sorted({delta(w) for w in words})
