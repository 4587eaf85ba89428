"""Text format round-trips and error reporting."""

import glob
import os

import pytest

from dnacodec.alphabets import DNA, Alphabet
from dnacodec.automata import Nfa, enumerate_words
from dnacodec.errors import FormatError
from dnacodec.fado import parse_fado, serialize_fado, unescape_cli_text
from dnacodec.transducers import Transducer, image
from oracles import INFIX_IMAGE_ON_AB, INFIX_TRANSDUCER_TEXT, enumerate_pairs

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_files():
    return sorted(glob.glob(os.path.join(FIXTURES, "**", "*.fa"), recursive=True))


def test_corpus_is_large_enough():
    assert len(fixture_files()) >= 20


@pytest.mark.parametrize("path", fixture_files(), ids=os.path.basename)
def test_round_trip(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    first = parse_fado(text)
    second = parse_fado(serialize_fado(first))
    assert type(first) is type(second)
    assert first.alphabet == second.alphabet
    if isinstance(first, Transducer):
        assert enumerate_pairs(first, 5) == enumerate_pairs(second, 5)
    else:
        assert enumerate_words(first, 5) == enumerate_words(second, 5)


def test_parse_nfa_basics():
    m = parse_fado("@NFA 2 * 0\n0 A 1\n1 C 2\n", DNA)
    assert isinstance(m, Nfa)
    assert enumerate_words(m, 3) == ["AC"]
    eps = parse_fado("@NFA 1 * 0\n0 @epsilon 1\n")
    assert enumerate_words(eps, 2) == [""]


def test_parse_transducer_example_image():
    t = parse_fado(INFIX_TRANSDUCER_TEXT)
    assert isinstance(t, Transducer)
    lang = Nfa.finite(Alphabet.of("ab"), ["ab"])
    assert set(enumerate_words(image(t, lang), 4)) == INFIX_IMAGE_ON_AB


def test_state_names_arbitrary_tokens():
    m = parse_fado("@NFA qf * q0\nq0 A q1\nq1 T qf\n")
    assert isinstance(m, Nfa)
    assert enumerate_words(m, 3) == ["AT"]


def test_zero_finals_and_no_transitions():
    empty = parse_fado("@NFA * 0\n")
    assert enumerate_words(empty, 3) == []
    trivial = parse_fado("@Transducer 0 * 0\n")
    assert isinstance(trivial, Transducer)
    assert enumerate_pairs(trivial, 2) == [("", "")]
    # default alphabet when nothing constrains it
    assert set(trivial.alphabet.symbols) == {"a", "b"}


def test_explicit_alphabet_must_cover_labels():
    with pytest.raises(FormatError):
        parse_fado("@NFA 1 * 0\n0 X 1\n", DNA)
    m = parse_fado("@NFA 1 * 0\n0 A 1\n", DNA)
    assert m.alphabet == DNA


def test_parser_rejects_foreign_labels_and_numbers_states_densely():
    for text in ("@Transducer 1 * 0\n0 A x 1\n", "@Transducer 1 * 0\n0 x @epsilon 1\n"):
        with pytest.raises(FormatError, match=r"labels \['x'\] not in the given alphabet"):
            parse_fado(text, DNA)
    # names are numbered as they first appear, so no edge can point past the states
    m = parse_fado("@NFA 7 * 3\n3 A 7\n9 C 3\n", DNA)
    assert (m.n_states, m.edges, m.initial, m.final) == (3, ((1, "A", 0), (2, "C", 1)), {1}, {0})


def test_error_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_fado("@DFA 1 * 0\n0 A 1\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        parse_fado("@NFA 1 * 0\n0 A 1\n0 AB 1\n")
    assert err.value.line == 3
    with pytest.raises(FormatError) as err:
        parse_fado("@Transducer 1 * 0\n0 A 1\n")
    assert err.value.line == 2
    with pytest.raises(FormatError) as err:
        parse_fado("@NFA 1 0\n0 A 1\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        parse_fado("")
    assert err.value.line == 1
    # a label outside an explicit alphabet is reported at the first edge carrying one
    with pytest.raises(FormatError, match=r"labels \['x', 'y'\] not in the given alphabet") as err:
        parse_fado("@NFA 1 * 0\n0 A 1\n\n1 y 0\n0 x 1\n", DNA)
    assert err.value.line == 4
    with pytest.raises(FormatError) as err:
        parse_fado("@Transducer 1 * 0\n0 A C 1\n1 G x 0\n", DNA)
    assert err.value.line == 3


def test_serialize_normalizes_word_labels():
    t = Transducer(Alphabet.of("ab"), 2, ((0, "ab", "ba", 1),), {0}, {1})
    text = serialize_fado(t)
    for row in text.splitlines()[1:]:
        _src, inp, out, _dst = row.split()
        assert len(inp.replace("@epsilon", "")) <= 1
        assert len(out.replace("@epsilon", "")) <= 1
    back = parse_fado(text)
    assert enumerate_pairs(back, 4) == [("ab", "ba")]


def test_unescape_cli_text():
    assert unescape_cli_text("@NFA 0 * 0\\n0 A 0") == "@NFA 0 * 0\n0 A 0"
    assert unescape_cli_text("already\nreal") == "already\nreal"
