"""Text format round-trips and error reporting."""

import glob
import os
import random

import pytest

from dnacodec.alphabets import DNA, Alphabet
from dnacodec.automata import Nfa, enumerate_words
from dnacodec.errors import FormatError
from dnacodec.fado import parse_fado, serialize_fado, unescape_cli_text
from dnacodec.transducers import Transducer, image
from oracles import INFIX_IMAGE_ON_AB, INFIX_TRANSDUCER_TEXT, enumerate_pairs, reference_parse_fado

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
    # the first malformed line wins, whichever of a field count and a multi-symbol label it breaks
    with pytest.raises(FormatError, match="line 4: multi-symbol label 'CG'") as err:
        parse_fado("@NFA 1 * 0\n0 A 1\n\n0 CG 1\n0 A\n1 TT 0\n")
    assert err.value.line == 4
    with pytest.raises(FormatError, match="line 2: expected 3 fields per transition, got 4"):
        parse_fado("@NFA 1 * 0\n0 A C 1\n1 TT 0\n")
    # a foreign label is reported only once the text is well formed
    with pytest.raises(FormatError, match="line 4: multi-symbol label 'GG'"):
        parse_fado("@Transducer 1 * 0\n0 x A 1\n0 A C 1\n1 GG @epsilon 0\n", DNA)


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


# -- the one-pass reader against the reference ---------------------------------

STATE_TOKENS = ("0", "1", "2", "10", "q0", "qf", "s_1", "A", "x*", "@epsilon", "\u00e9", "-3")
LETTERS = "ACGTab01"
FAULTS = ("header", "arity", "multi-symbol", "foreign")


def random_document(rng: random.Random) -> tuple[str, object]:
    """``(text, alphabet)``: a random NFA or transducer document and the alphabet to read it
    over (None: inferred), with none, one or several faults, laid out with blank lines, runs
    of spaces and tabs and ``\\n`` or ``\\r\\n`` line endings."""
    arity = rng.choice((3, 4))
    states = rng.sample(STATE_TOKENS, rng.randint(1, 5))
    letters = rng.sample(LETTERS, rng.randint(1, 4))

    def label() -> str:
        return "@epsilon" if rng.random() < 0.2 else rng.choice(letters)

    finals = rng.sample(states, rng.randint(0, len(states)))
    initials = rng.sample(states, rng.randint(0, min(2, len(states))))
    rows = [["@NFA" if arity == 3 else "@Transducer", *finals, "*", *initials]]
    rows += [[rng.choice(states), *(label() for _ in range(arity - 2)), rng.choice(states)]
             for _ in range(rng.randint(0, 8))]
    alphabet = None if rng.random() < 0.5 else Alphabet.of(sorted(set(letters) | set(rng.sample("ACGT", 2))))
    faults = rng.sample(FAULTS, rng.choice((0, 0, 1, 1, 2, 3)))
    for fault in faults:
        row = rng.choice(rows[1:] or rows)
        if fault == "header":
            rows[0] = rng.choice(([rng.choice(("@DFA", "NFA", "@nfa", "@Transducers")), *rows[0][1:]],
                                  [x for x in rows[0] if x != "*"], rows[0] + ["*"], rows[0][:1]))
        elif fault == "arity":
            row[:] = row[:-1] if rng.random() < 0.5 else row + [rng.choice(states)]
        elif fault == "multi-symbol" and len(row) > 2:
            row[rng.randrange(1, len(row) - 1)] = rng.choice(("AC", "@eps", "ab", "@epsilon@"))
        elif fault == "foreign":
            used = sorted({x for r in rows[1:] for x in r[1:-1] if len(x) == 1})
            if used:
                dropped = rng.choice(used)
                alphabet = Alphabet.of(rng.sample([a for a in LETTERS if a != dropped], rng.randint(1, 4)))
    blank = ("", " ", "\t", "  \t ")
    lines = [rng.choice(blank) for _ in range(rng.randint(0, 2))]
    for row in rows:
        seps = [rng.choice((" ", " ", "  ", "\t", " \t ")) for _ in row]
        text = "".join(sep + token for sep, token in zip(seps, row))
        lines.append(text if rng.random() < 0.5 else text.lstrip())
        lines += [rng.choice(blank) for _ in range(rng.random() < 0.2)]
    if rng.random() < 0.03:
        lines = [rng.choice(blank)]  # an empty document
    end = rng.choice(("\n", "\r\n"))
    return end.join(lines) + rng.choice(("", end)), alphabet


def outcome(parse, text, alphabet) -> tuple:
    """The parts and type of the machine ``parse`` reads, or its error's message and line."""
    try:
        m = parse(text, alphabet)
    except FormatError as exc:
        return ("error", str(exc), exc.line)
    return (type(m).__name__, m.alphabet, m.n_states, m.edges, m.initial, m.final)


def test_parser_matches_the_reference_on_random_documents():
    rng = random.Random(1729)
    seen = {"machine": 0}
    for _ in range(2500):
        text, alphabet = random_document(rng)
        got = outcome(parse_fado, text, alphabet)
        assert got == outcome(reference_parse_fado, text, alphabet), (text, alphabet)
        kind = got[1].split(": ", 1)[-1].split(" ")[0] if got[0] == "error" else "machine"
        seen[kind] = seen.get(kind, 0) + 1
    # every kind of outcome is drawn: machines, and errors of each check
    assert seen["machine"] >= 800, seen
    for message in ("empty", "unknown", "header", "expected", "multi-symbol", "labels"):
        assert seen.get(message, 0) >= 20, seen
