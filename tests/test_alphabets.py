"""Alphabets and (anti)morphic permutations."""

import pytest
from hypothesis import given, strategies as st

from dnacodec.alphabets import BINARY, DNA, Alphabet, Permutation, compose, dna_delta

dna_words = st.text(alphabet="ACGT", max_size=8)


def test_alphabet_basics():
    a = Alphabet.of("ACGT")
    assert a == DNA
    assert len(a) == 4
    assert list(a) == ["A", "C", "G", "T"]
    assert a.position("G") == 2
    assert "C" in a and "X" not in a
    assert a.check_word("GATTACA") == "GATTACA"
    with pytest.raises(ValueError):
        a.check_word("GATTAXA")


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet.of("")
    with pytest.raises(ValueError):
        Alphabet.of(["ab"])
    with pytest.raises(ValueError):
        Alphabet.of("aa")


def test_dna_delta_values():
    delta = dna_delta()
    assert delta.antimorphic
    assert delta("") == ""
    assert delta("A") == "T"
    assert delta("ACGT") == "ACGT"
    assert delta("AAC") == "GTT"
    assert delta("CCAC") == "GTGG"
    assert delta.image("C") == "G"


def test_dna_delta_is_one_shared_instance():
    assert dna_delta() is dna_delta()
    assert dna_delta().inverse() is dna_delta().inverse()  # memoized on the one instance


def test_morphic_vs_antimorphic_application():
    table = {"A": "C", "C": "A", "G": "T", "T": "G"}
    morphic = Permutation.from_mapping(DNA, table, antimorphic=False)
    anti = Permutation.from_mapping(DNA, table, antimorphic=True)
    assert morphic("ACG") == "CAT"
    assert anti("ACG") == "TAC"


def test_identity_and_mirror():
    ident = Permutation.identity(BINARY)
    assert not ident.antimorphic
    assert ident("0110") == "0110"
    mirror = Permutation.mirror(BINARY)
    assert mirror.antimorphic
    assert mirror("0110") == "0110"
    assert mirror("001") == "100"


def test_from_mapping_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation.from_mapping(BINARY, {"0": "0", "1": "0"})
    with pytest.raises(ValueError):
        Permutation.from_mapping(BINARY, {"0": "1"})


def test_inverse_and_order():
    delta = dna_delta()
    assert delta.inverse().table == delta.table  # involution
    assert delta.order() == 2
    assert Permutation.identity(DNA).order() == 1
    three_cycle = Permutation.from_mapping(
        Alphabet.of("abc"), {"a": "b", "b": "c", "c": "a"}
    )
    assert three_cycle.order() == 3
    assert three_cycle.inverse()("abc") == "cab"


def test_inverse_and_involution_are_stored_on_the_instance():
    three_cycle = Permutation.from_mapping(Alphabet.of("abc"), {"a": "b", "b": "c", "c": "a"})
    inv = three_cycle.inverse()
    assert three_cycle.inverse() is inv
    assert inv.inverse() == three_cycle
    assert inv.table == ("c", "a", "b")
    assert not three_cycle.is_involution() and not three_cycle.is_involution()
    delta = dna_delta()
    assert delta.is_involution() and delta.is_involution()
    fresh = Permutation.from_mapping(Alphabet.of("abc"), {"a": "b", "b": "c", "c": "a"})
    assert three_cycle == fresh and hash(three_cycle) == hash(fresh)
    assert inv != three_cycle


def test_compose_applies_inner_first():
    swap = Permutation.from_mapping(BINARY, {"0": "1", "1": "0"})
    mirror = Permutation.mirror(BINARY)
    both = compose(swap, mirror)
    assert both.antimorphic  # exactly one factor is antimorphic
    assert both("001") == swap(mirror("001")) == "011"
    double = compose(mirror, mirror)
    assert not double.antimorphic
    assert double("001") == "001"


@given(dna_words)
def test_delta_is_an_involution_on_words(w):
    delta = dna_delta()
    assert delta(delta(w)) == w


@given(dna_words, dna_words)
def test_antimorphic_reverses_concatenation(u, v):
    delta = dna_delta()
    assert delta(u + v) == delta(v) + delta(u)
