"""Shuffle/deletion word operations and their transducer forms."""

import pytest
from hypothesis import given, settings, strategies as st

from dnacodec.alphabets import DNA, Alphabet, Permutation, dna_delta
from dnacodec.automata import Nfa, accepts, enumerate_words
from dnacodec.errors import FormatError
from dnacodec.trajectories import (
    TrajectoryPair,
    bond_free_operator,
    build_op_transducer,
    compile_trajectory_property,
    delete_on_trajectory,
    shuffle_on_trajectory,
    trajectory_nfa,
)
from dnacodec.transducers import accepts_pair, image, inverse
from oracles import (
    brute_bond_free_operator,
    delete_results,
    shuffle_results,
    trajectory_set,
)

AB = Alphabet.of("ab")


def test_shuffle_examples():
    assert shuffle_on_trajectory("1122", "001010", "34") == "113242"
    assert shuffle_on_trajectory("AC", "0101", "GT") == "AGCT"
    assert shuffle_on_trajectory("", "", "") == ""
    assert shuffle_on_trajectory("", "11", "GT") == "GT"


def test_shuffle_misfits():
    assert shuffle_on_trajectory("A", "001", "GG") is None  # too many zeros
    assert shuffle_on_trajectory("AC", "011", "G") is None  # too few zeros
    assert shuffle_on_trajectory("AC", "01", "G") is None  # length mismatch
    assert shuffle_on_trajectory("AC", "0x", "G") is None  # not binary


def test_delete_examples():
    assert delete_on_trajectory("113242", "001010", "34") == "1122"
    assert delete_on_trajectory("AGCT", "0110", "GC") == "AT"
    assert delete_on_trajectory("AGCT", "0110", "CG") is None  # wrong spelling
    assert delete_on_trajectory("AGCT", "011", "GC") is None  # length mismatch
    assert delete_on_trajectory("", "", "") == ""


binary_traj = st.text(alphabet="01", max_size=6)
small_words = st.text(alphabet="ab", max_size=6)


@given(small_words, binary_traj)
def test_shuffle_delete_duality(x, t):
    w = "a" * t.count("1")
    if len(x) != t.count("0"):
        assert shuffle_on_trajectory(x, t, w) is None
        return
    z = shuffle_on_trajectory(x, t, w)
    assert z is not None and len(z) == len(t)
    assert delete_on_trajectory(z, t, w) == x


def test_trajectory_pair_validation():
    p = TrajectoryPair("1*0+1*", "0+", strict=True)
    assert p.strict
    with pytest.raises(FormatError):
        TrajectoryPair("1*(0", "0*")
    with pytest.raises(ValueError):
        TrajectoryPair("0*2", "0*")


@pytest.mark.parametrize("expr", ["0*", "1*0+1*", "(0|1)*", "0*1", "(01)+"])
def test_trajectory_nfa_matches_re(expr):
    m = trajectory_nfa(expr)
    expected = trajectory_set(expr, 6)
    got = set(enumerate_words(m, 6))
    assert got == expected


def test_insert_any_on_all_zero_trajectories_is_identity():
    t2 = build_op_transducer("T2", "0*", AB)
    assert accepts_pair(t2, "ab", "ab")
    assert not accepts_pair(t2, "ab", "aab")
    assert accepts_pair(t2, "", "")


def test_insert_one_at_end():
    t4 = build_op_transducer("T4", "0*1", AB)
    img = image(t4, Nfa.finite(AB, ["ab"]))
    assert sorted(enumerate_words(img, 4)) == ["aba", "abb"]


def test_delete_operators_are_inverses_of_insert_operators():
    for e in ["0*", "1*0+1*", "(0|1)*"]:
        t2 = build_op_transducer("T2", e, AB)
        t1 = build_op_transducer("T1", e, AB)
        for x, z in [("a", "ab"), ("ab", "ab"), ("b", "ab"), ("", "a")]:
            assert accepts_pair(t2, x, z) == accepts_pair(t1, z, x)
        t4 = build_op_transducer("T4", e, AB)
        t3 = build_op_transducer("T3", e, AB)
        assert accepts_pair(inverse(t4), "ab", "a") == accepts_pair(t3, "ab", "a")


@pytest.mark.parametrize("e", ["0*", "1*0+1*", "0+1*", "(0|1)*", "∅"])
def test_insert_transducers_match_word_oracle(e):
    t2 = build_op_transducer("T2", e, AB)
    t4 = build_op_transducer("T4", e, AB)
    trajectories = trajectory_set(e, 5)
    for x in ["", "a", "ab", "ba", "aab"]:
        want_any = shuffle_results(x, trajectories, "ab", 5, inserted_nonempty=False)
        got_any = set(enumerate_words(image(t2, Nfa.finite(AB, [x])), 5))
        assert got_any == want_any
        want_one = shuffle_results(x, trajectories, "ab", 5, inserted_nonempty=True)
        got_one = set(enumerate_words(image(t4, Nfa.finite(AB, [x])), 5))
        assert got_one == want_one


@pytest.mark.parametrize("e", ["0*", "1*0+1*", "0+1*", "(0|1)*", "∅"])
def test_delete_transducers_match_word_oracle(e):
    t1 = build_op_transducer("T1", e, AB)
    t3 = build_op_transducer("T3", e, AB)
    for z in ["", "a", "ab", "aba", "bbab"]:
        trajectories = trajectory_set(e, len(z))
        want_any = delete_results(z, trajectories, deleted_nonempty=False)
        got_any = set(enumerate_words(image(t1, Nfa.finite(AB, [z])), len(z)))
        assert got_any == want_any
        want_one = delete_results(z, trajectories, deleted_nonempty=True)
        got_one = set(enumerate_words(image(t3, Nfa.finite(AB, [z])), len(z)))
        assert got_one == want_one


def test_deleting_prefix_suffix_trajectories_yield_infixes():
    t1 = build_op_transducer("T1", "1*0+1*", Alphabet.of("1234"))
    out = set(enumerate_words(image(t1, Nfa.finite(Alphabet.of("1234"), ["113242"])), 6))
    word = "113242"
    infixes = {word[i:j] for i in range(len(word)) for j in range(i + 1, len(word) + 1)}
    assert out == infixes
    everything = build_op_transducer("T1", "(0|1)*", Alphabet.of("1234"))
    assert accepts_pair(everything, "113242", "1122")


def test_strict_operator_on_single_word():
    p = TrajectoryPair("1*0+1*", "0+", strict=True)
    phi = bond_free_operator(p, Nfa.finite(DNA, ["ACG"]))
    got = set(enumerate_words(phi, 3))
    assert got == {"A", "C", "G", "AC", "CG", "ACG"}


@pytest.mark.parametrize(
    "e1,e2,strict",
    [("1*0+1*", "0+", True), ("1*0+1*", "0+", False), ("0+", "0+", True), ("(0|1)*", "(0|1)*", False)],
)
def test_operator_matches_word_oracle(e1, e2, strict):
    p = TrajectoryPair(e1, e2, strict)
    for words in [["ab"], ["a", "ba"], ["aab", "b"], [""]]:
        phi = bond_free_operator(p, Nfa.finite(AB, words))
        got = set(enumerate_words(phi, 4))
        want = brute_bond_free_operator(words, e1, e2, strict, "ab", 4)
        assert got == want, (e1, e2, strict, words)


def test_compile_requires_antimorphic_involution():
    pair = TrajectoryPair("0*", "0*")
    with pytest.raises(ValueError):
        compile_trajectory_property(pair, Permutation.identity(DNA))
    three = Alphabet.of("abc")
    cycle = Permutation.from_mapping(three, {"a": "b", "b": "c", "c": "a"}, antimorphic=True)
    with pytest.raises(ValueError):
        compile_trajectory_property(pair, cycle)
    built = compile_trajectory_property(pair, dna_delta())
    assert built.kind == "S"
    assert built.asserted_class == "unrestricted"
    assert built.theta is not None


def test_compiled_machine_realizes_strict_operator():
    p = TrajectoryPair("1*0+1*", "0+", strict=True)
    built = compile_trajectory_property(p, dna_delta())
    # the property machine maps a word to the operator image of {word}
    img = image(built.transducer, Nfa.finite(DNA, ["ACG"]))
    assert set(enumerate_words(img, 3)) == {"A", "C", "G", "AC", "CG", "ACG"}


@pytest.mark.parametrize(
    "e1,e2,strict,size",
    [("1*0+1*", "0+", True, (62, 208)), ("1*0+1*", "0+", False, (92, 308)), ("0+", "0+", True, (39, 60))],
)
def test_compiled_descriptor_sizes(e1, e2, strict, size):
    # the deletion side restricts T2/T4, whose view splits each two-letter
    # edge input letter first, and inverts the result; these sizes depend on that order
    built = compile_trajectory_property(TrajectoryPair(e1, e2, strict), dna_delta())
    assert (built.transducer.n_states, len(built.transducer.edges)) == size
