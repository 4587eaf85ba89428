"""The bounded class check against the word-by-word scan it replaced.

``bounded_counterexample`` walks all words of one length at once, as
bitsets over their lexicographic numbering, in blocks of at most
``transducers._BLOCK`` words.  ``word_by_word`` below is the scan it
replaced: one membership test per word, in shortlex order.  Both must
return the same first refutation, or None.
"""

from itertools import permutations
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dnacodec import transducers
from dnacodec.alphabets import BINARY, DNA, Alphabet, Permutation, dna_delta
from dnacodec.automata import Nfa, complement
from dnacodec.dna import PROPERTY_NAMES, VARIANTS, hamming_property, named_property
from dnacodec.errors import DnaCodecError
from dnacodec.transducers import Transducer, accepts_pair, bounded_counterexample, restrict_input

AB = Alphabet.of("ab")
ABC = Alphabet.of("abc")
MODES = ("altering", "preserving")


def word_by_word(t: Transducer, theta: Permutation, mode: str, max_len: int):
    """The first nonempty word up to ``max_len``, in shortlex order, that refutes ``mode``."""
    words = [""]
    for _ in range(max_len):
        words = [w + a for w in words for a in theta.alphabet.symbols]
        for w in words:
            if accepts_pair(t, w, theta(w)) == (mode == "altering"):
                return w
    return None


def all_thetas(alphabet: Alphabet) -> list[Permutation]:
    """Every letter table, morphic and antimorphic."""
    return [
        Permutation(alphabet, table, anti)
        for table in permutations(alphabet.symbols)
        for anti in (False, True)
    ]


@st.composite
def machines(draw, alphabet: Alphabet) -> Transducer:
    """1-5 states; labels are the empty word, letters or two-letter words."""
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    word = st.sampled_from(["", *alphabet.symbols, *(a + b for a in alphabet for b in alphabet)])
    letter = st.sampled_from(alphabet.symbols)
    label = st.one_of(st.tuples(letter, letter), st.tuples(word, word))
    edges = draw(st.lists(st.tuples(state, label, state), max_size=9))
    initial = draw(st.sets(state, min_size=1, max_size=2))
    final = draw(st.sets(state, min_size=1, max_size=3))
    return Transducer(alphabet, n, tuple((p, x, y, q) for p, (x, y), q in edges), initial, final)


@st.composite
def checks(draw):
    alphabet = draw(st.sampled_from([AB, ABC]))
    return (
        draw(machines(alphabet)),
        draw(st.sampled_from(all_thetas(alphabet))),
        draw(st.sampled_from(MODES)),
        draw(st.integers(0, 5)),
    )


@settings(max_examples=400, deadline=None)
@given(checks())
def test_bitset_scan_matches_the_word_by_word_scan(check):
    t, theta, mode, bound = check
    assert bounded_counterexample(t, theta, mode, bound) == word_by_word(t, theta, mode, bound)


@settings(max_examples=200, deadline=None)
@given(checks(), st.sampled_from([1, 2, 3, 5, 8, 9]))
def test_small_blocks_give_the_same_word(check, block):
    # Blocks of a few words fix most leading letters; the first refutation
    # must not depend on where the blocks are cut.
    t, theta, mode, bound = check
    with mock.patch.object(transducers, "_BLOCK", block):
        assert transducers._scan_words(t, theta, mode, bound) == word_by_word(t, theta, mode, bound)


def dna_machines():
    """Every named DNA property machine and both Hamming machines, by name."""
    delta = dna_delta()
    for name in PROPERTY_NAMES:
        for variant in VARIANTS:
            try:
                yield f"{name}.{variant}", named_property(name, variant, delta).transducer
            except DnaCodecError:  # nonoverlapping has only the strict variant
                pass
    for min_len_2 in (False, True):
        yield f"hamming-{min_len_2}", hamming_property(min_len_2, delta).transducer


DNA_THETAS = [
    dna_delta(),
    Permutation.mirror(DNA),
    Permutation.identity(DNA),
    Permutation.from_mapping(DNA, {"A": "C", "C": "G", "G": "T", "T": "A"}),
]


DNA_MACHINES = dict(dna_machines())


@pytest.mark.parametrize("name", DNA_MACHINES)
def test_dna_properties_at_the_default_bound(name):
    machine = DNA_MACHINES[name]
    for theta in DNA_THETAS:
        for mode in MODES:
            expected = word_by_word(machine, theta, mode, 6)
            assert bounded_counterexample(machine, theta, mode, 6) == expected, (theta, mode)


def test_weak_assertions_hold_at_the_default_bound():
    # the altering checks the dna-cli descriptors run pass every word up to 6
    for name in ("compliant.weak", "p-compliant.weak", "s-compliant.weak"):
        assert bounded_counterexample(DNA_MACHINES[name], dna_delta(), "altering", 6) is None


def length_13(first: str, last: str) -> Nfa:
    """The binary words of length 13 that start with ``first`` and end with ``last``."""
    edges = [(0, first, 1)] + [(i, a, i + 1) for i in range(1, 12) for a in "01"] + [(12, last, 13)]
    return Nfa(BINARY, 14, tuple(edges), frozenset({0}), frozenset({13}))


MIRROR = Permutation.mirror(BINARY)
IDENTITY = Permutation.identity(BINARY)
IDENT = Transducer.identity(BINARY)


@pytest.mark.parametrize(
    "machine, theta, mode, expected",
    [
        # altering: palindromes of length 13 that start with 1, all in the second block
        (lambda: restrict_input(IDENT, length_13("1", "1")), MIRROR, "altering", "1000000000001"),
        # altering: the first word of the first block, 0^13, is a palindrome
        (lambda: restrict_input(IDENT, length_13("0", "0")), MIRROR, "altering", "0000000000000"),
        # preserving: the identity, kept off the words 1...1 of length 13, misses them
        (lambda: restrict_input(IDENT, complement(length_13("1", "1"))), IDENTITY, "preserving",
         "1000000000001"),
        # preserving: the same with 0...1, whose first word is the second of the first block
        (lambda: restrict_input(IDENT, complement(length_13("0", "1"))), IDENTITY, "preserving",
         "0000000000001"),
    ],
)
def test_lengths_past_one_block(machine, theta, mode, expected):
    t = machine()
    assert 2**13 > transducers._BLOCK >= 2**12  # length 13 spans two blocks, length 12 one
    assert bounded_counterexample(t, theta, mode, 12) is None
    assert bounded_counterexample(t, theta, mode, 13) == expected == word_by_word(t, theta, mode, 13)


def test_negative_bound_is_rejected():
    with pytest.raises(ValueError, match="at least 0"):
        bounded_counterexample(IDENT, MIRROR, "altering", -1)
    assert bounded_counterexample(IDENT, MIRROR, "preserving", 0) is None
