"""NFA construction, boolean operations, and the regex front end."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dnacodec import automata
from dnacodec.alphabets import BINARY, DNA, Alphabet, dna_delta
from dnacodec.automata import (
    Nfa,
    accepts,
    complement,
    concat,
    determinize,
    enumerate_words,
    intersect,
    list_words,
    missing_word,
    parse_regex,
    plus,
    remove_epsilon,
    shortest_word,
    star,
    theta_image,
    trim,
    union,
)
from dnacodec.errors import FormatError, ResourceLimitError
from dnacodec.graphs import numbering, path_to
from oracles import accepts_word, is_empty, is_universal, reference_parse_regex

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


@st.composite
def epsilon_nfas(draw):
    """NFAs of at most 8 states with epsilon edges over {a,b} or {a,b,c}, with zero, one or
    several initial states; half of them have no final initial state, so their words run longer."""
    alphabet = draw(st.sampled_from([Alphabet.of("ab"), Alphabet.of("abc")]))
    n = draw(st.integers(1, 8))
    states = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(states, st.sampled_from((None,) + alphabet.symbols), states), max_size=2 * n))
    edges += [(q, a, draw(states)) for q in range(n) for a in alphabet if draw(st.integers(0, 3))]
    k = draw(st.sampled_from([1, 0, 1, 2, 3]))
    initial = frozenset(draw(st.lists(states, min_size=k, max_size=k)))
    final = draw(st.frozensets(states, min_size=1, max_size=2))
    if draw(st.booleans()):
        final -= initial
    return Nfa(alphabet, n, tuple(edges), initial, final)


@settings(max_examples=300, deadline=None)
@given(epsilon_nfas())
def test_shortest_word_is_the_shortlex_first_accepted_word(m):
    expected = None
    if not is_empty(m):  # then some word of fewer than n_states letters is accepted
        words = ("".join(w) for k in range(m.n_states) for w in itertools.product(m.alphabet, repeat=k))
        expected = next(w for w in words if accepts_word(m, w))
    assert shortest_word(m) == expected


def test_complement_and_universality():
    m = Nfa.finite(DNA, enumerate_words(Nfa.universal(DNA), 2))  # every word of length <= 2
    co = complement(m)
    assert not accepts(co, "GT") and accepts(co, "GTA")
    assert is_universal(union(m, co))
    assert missing_word(union(m, co)) is None
    assert missing_word(m) == "AAA"
    assert not is_universal(m)


def test_word_machine_checks_its_word_once():
    m = Nfa.word(DNA, "GAT")
    assert (m.n_states, m.edges, m.initial, m.final) == (4, ((0, "G", 1), (1, "A", 2), (2, "T", 3)), {0}, {3})
    assert Nfa.word(DNA, "").final == {0}
    with pytest.raises(ValueError, match="symbol 'X' not in alphabet 'ACGT'"):
        Nfa.word(DNA, "AX")


@pytest.mark.parametrize("value", ["abc", "-5", "0", "2.5", " "])
def test_malformed_state_cap_variable_is_named(monkeypatch, value):
    monkeypatch.setenv("DNACODEC_STATE_CAP", value)
    with pytest.raises(FormatError, match=r"DNACODEC_STATE_CAP must be a positive integer"):
        missing_word(Nfa.universal(DNA))
    with pytest.raises(FormatError, match=r"DNACODEC_STATE_CAP must be a positive integer"):
        missing_word(Nfa.empty(DNA))  # even when the empty word is rejected
    assert missing_word(Nfa.universal(DNA), state_cap=1) is None  # the keyword wins


@pytest.mark.parametrize("cap", [0, -5])
def test_explicit_state_cap_below_one_is_named(cap):
    with pytest.raises(FormatError, match=rf"state_cap must be a positive integer, not {cap}"):
        missing_word(Nfa.finite(DNA, ["", "A"]), cap)
    with pytest.raises(FormatError, match=rf"state_cap must be a positive integer, not {cap}"):
        missing_word(Nfa.empty(DNA), cap)  # even when the empty word is rejected
    with pytest.raises(FormatError, match="state_cap"):
        determinize(Nfa.universal(DNA), state_cap=cap)


def test_state_cap_variable_sets_the_cap(monkeypatch):
    monkeypatch.setenv("DNACODEC_STATE_CAP", " 2 ")
    with pytest.raises(ResourceLimitError, match="cap of 2 subsets"):
        missing_word(Nfa.finite(DNA, ["", "A", "AA"]))


def test_complement_respects_state_cap():
    big = parse_regex("(A|C|G|T)*A(A|C|G|T)(A|C|G|T)(A|C|G|T)", DNA)
    with pytest.raises(ResourceLimitError):
        complement(big, state_cap=4)


def test_determinize_preserves_language():
    m = parse_regex("(A|C)*G", DNA)
    d = determinize(m)
    assert enumerate_words(d, 3) == enumerate_words(m, 3)


def test_trim_remove_epsilon():
    m = parse_regex("AC|AG", DNA)
    t = trim(union(m, Nfa.empty(DNA)))
    assert sorted(enumerate_words(t, 2)) == ["AC", "AG"]
    ne = remove_epsilon(star(Nfa.word(DNA, "A")))
    assert all(sym is not None for _, sym, _ in ne.edges)
    assert sorted(enumerate_words(ne, 2)) == ["", "A", "AA"]


def test_trim_returns_trimmed_machines_unchanged():
    padded = union(parse_regex("AC|AG", DNA), Nfa.empty(DNA))
    t = trim(padded)
    assert t.n_states < padded.n_states
    assert sorted(enumerate_words(t, 2)) == ["AC", "AG"]
    assert trim(t) is t


def test_adjacency_lists_a_repeated_target_once():
    m = Nfa(DNA, 3, ((0, "A", 2), (0, "A", 1), (0, "A", 2), (0, None, 1), (0, None, 1)), {0}, {2})
    eps_adj, sym_adj = m.adjacency()
    assert eps_adj[0] == [1]
    assert sym_adj[0] == {"A": [2, 1]}


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


def test_list_words_lists_a_finite_language_or_gives_none():
    trie = Nfa.finite(DNA, ["AC", "G", "", "AC"])
    assert list_words(trie) == ["", "G", "AC"]  # depth first, each word once
    twice = Nfa(DNA, 4, ((0, "A", 1), (0, "A", 2), (1, "C", 3), (2, "C", 3)), {0}, {3})
    assert list_words(twice) == ["AC"]
    assert list_words(Nfa.empty(DNA)) == []
    words = enumerate_words(Nfa.universal(BINARY), 6)  # 127 words
    assert sorted(list_words(Nfa.finite(BINARY, words[:64]))) == sorted(words[:64])
    assert list_words(Nfa.finite(BINARY, words[:65])) is None
    assert list_words(Nfa(DNA, 2, ((0, None, 1),), {0}, {1})) is None
    assert list_words(Nfa(DNA, 2, ((0, None, 1),), {1}, {1})) == [""]  # an epsilon edge off the walk


@pytest.mark.parametrize("layers, listed", [(11, True), (12, False)])
def test_list_words_gives_none_past_its_move_budget(layers, listed):
    """Layer i holds states 2i and 2i + 1, and each has an A move to both states of layer i + 1: one word
    A^layers, reached by 2**(layers + 1) - 2 moves, which the 4,096-move budget allows for 11 layers only."""
    edges = tuple((2 * i + j, "A", 2 * i + 2 + k) for i in range(layers) for j in (0, 1) for k in (0, 1))
    m = Nfa(DNA, 2 * layers + 2, edges, {0}, {2 * layers, 2 * layers + 1})
    assert list_words(m) == (["A" * layers] if listed else None)


class _CountingMoves(dict):
    """One state's moves, counting how often a walk reads them."""

    reads = 0

    def items(self):
        _CountingMoves.reads += 1
        return super().items()


@pytest.mark.parametrize("edges, final", [
    (((0, "A", 0),), {0}),  # A*
    (((0, "A", 1), (1, "C", 1), (0, "G", 2)), {2}),  # a loop in a dead part
    (((0, "A", 1), (1, "C", 2), (2, "G", 1), (1, "T", 3)), {3}),  # A(CG)*T
])
def test_list_words_meets_a_cycle_within_n_states_letters(edges, final):
    """A cycle ends the walk at depth ``n_states``, long before the caps would."""
    m = Nfa(DNA, 1 + max(max(e[0], e[2]) for e in edges), edges, {0}, final)
    eps_adj, sym_adj = m.adjacency()
    m._adj = (eps_adj, [_CountingMoves(moves) for moves in sym_adj])
    _CountingMoves.reads = 0
    assert list_words(m) is None
    assert _CountingMoves.reads <= 4 * m.n_states


def test_list_words_stops_at_the_first_self_loop_it_walks():
    """A self-loop on state 3 of a ten-state chain ends the walk once state 3's moves are read,
    not after the walk has gone round it down to depth ``n_states``."""
    m = Nfa(DNA, 10, tuple((q, "A", q + 1) for q in range(9)) + ((3, "C", 3),), {0}, {9})
    eps_adj, sym_adj = m.adjacency()
    m._adj = (eps_adj, [_CountingMoves(moves) for moves in sym_adj])
    _CountingMoves.reads = 0
    assert list_words(m) is None
    assert _CountingMoves.reads == 4  # states 0, 1, 2 and 3


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


# Literals, some foreign to every given alphabet; Unicode spaces, which are skipped, and a
# zero-width space, which is not a space and so is a literal; and escapes, valid and bare.
REGEX_LITERALS = ("0", "1", "A", "C", "G", "T", "a", "b", "x", "é", "\u200b")
REGEX_SPACES = (" ", "\t", "\n", "\r\n", "\x1c", "\x85", "\u00a0", "\u2003", "\u3000")
REGEX_OPERATORS = ("(", ")", "|", "*", "+", "∅", "@epsilon", "@", "@eps", "@@epsilon")
REGEX_ALPHABETS = (None, None, BINARY, DNA, Alphabet.of("ab"), Alphabet.of("01AC"))
# the start of each error message, in the order the parser checks
REGEX_ERRORS = ("unknown escape", "cannot infer", "symbol", "empty sub-expression", "unexpected", "unbalanced", "trailing")


def random_regex(rng, letters, depth=0) -> list[str]:
    """The tokens of a well-formed expression over ``letters``, up to five parentheses deep."""
    roll, postfix = rng.random(), rng.choice(([], [], [], ["*"], ["+"], ["*", "+"]))
    if depth < 5 and roll < 0.2:
        return ["(", *random_regex(rng, letters, depth + 1), ")", *postfix]
    if depth < 5 and roll < 0.45:
        glue = rng.choice(([], ["|"]))
        tokens = random_regex(rng, letters, depth + 1)
        for _ in range(rng.randint(1, 2)):
            tokens += glue + random_regex(rng, letters, depth + 1)
        return tokens
    return [rng.choice(letters + ("∅", "@epsilon") if roll < 0.55 else letters), *postfix]


def random_regex_text(rng, alphabet) -> str:
    """An expression to parse, mostly over ``alphabet``'s letters: well formed or token soup,
    then perhaps mutated, and spaced out."""
    symbols = REGEX_LITERALS[:8] if alphabet is None else alphabet.symbols
    letters = tuple(rng.sample(symbols, rng.randint(1, min(4, len(symbols)))))
    if rng.random() < 0.6:
        tokens = random_regex(rng, letters)
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            at = rng.randint(0, len(tokens))
            pool = rng.choice((REGEX_LITERALS, REGEX_OPERATORS, REGEX_OPERATORS))
            tokens[at:at + rng.randint(0, 1)] = [rng.choice(pool)]
    else:
        pool = letters * 4 + REGEX_LITERALS + REGEX_OPERATORS + ("(", ")", "|", "*", "+") * 2
        tokens = [rng.choice(pool) for _ in range(rng.randint(0, 10))]
    text = ""
    for token in tokens:
        text += rng.choice(REGEX_SPACES) * (rng.random() < 0.15) + token
    return text + rng.choice(REGEX_SPACES) * (rng.random() < 0.1)


def regex_outcome(parse, text, alphabet) -> tuple:
    """The parts of the machine ``parse`` builds, or its error's type and message."""
    try:
        m = parse(text, alphabet)
    except (FormatError, ValueError) as exc:
        return (type(exc).__name__, str(exc))
    return ("machine", m.alphabet, m.n_states, m.edges, m.initial, m.final)


def test_regex_parser_matches_the_reference_on_random_expressions():
    rng = random.Random(4242)
    seen = {}
    for _ in range(20000):
        alphabet = rng.choice(REGEX_ALPHABETS)
        text = random_regex_text(rng, alphabet)
        got = regex_outcome(parse_regex, text, alphabet)
        assert got == regex_outcome(reference_parse_regex, text, alphabet), (text, alphabet)
        kind = got[0] if got[0] == "machine" else next(k for k in REGEX_ERRORS if got[1].startswith(k))
        seen[kind] = seen.get(kind, 0) + 1
    # every kind of outcome is drawn: machines, and errors of each check
    assert seen["machine"] >= 5000 and all(seen.get(k, 0) >= 100 for k in REGEX_ERRORS), seen


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


# -- the bitmask subset kernel against the frozenset subset construction --


def _frozenset_determinize(m, state_cap=None):
    """The subset construction on ``frozenset`` subsets and ``Nfa.step``."""
    index, walk, state = numbering([m.closure(m.initial)], state_cap)
    edges = []
    for src, subset in walk:
        for a in m.alphabet:
            edges.append((src, a, state(m.step(subset, a))))
    final = frozenset(i for subset, i in index.items() if subset & m.final)
    return Nfa(m.alphabet, len(index), tuple(edges), frozenset({0}), final)


def _frozenset_search(m, cap):
    """Breadth-first subset search on ``frozenset`` subsets and ``Nfa.step``:
    the first rejected word (or None) and the number of subsets seen."""
    start = m.closure(m.initial)
    if not (start & m.final):
        return "", 1
    parents = {}
    seen = {start}
    queue = [start]
    for subset in queue:
        for a in m.alphabet:
            nxt = m.step(subset, a)
            if nxt in seen:
                continue
            if len(seen) >= cap:
                raise ResourceLimitError(f"universality check exceeded the cap of {cap} subsets")
            seen.add(nxt)
            parents[nxt] = (subset, a)
            if not (nxt & m.final):
                return "".join(path_to(parents, nxt)), len(seen)
            queue.append(nxt)
    return None, len(seen)


def _frozenset_missing_word(m, cap):
    return _frozenset_search(m, cap)[0]


def _reverse(m):
    """``m`` with its edges flipped and its initial and final states swapped."""
    return Nfa(m.alphabet, m.n_states, tuple((d, a, s) for s, a, d in m.edges), m.final, m.initial)


def _two_way_missing_word(m, cap):
    """The two-way rule on ``frozenset`` subsets: the forward search's outcome when
    it answers within ``cap`` subsets, else the search of the reverse's outcome.  A
    word ``u`` of the reverse gives the length; the word is spelled from the start,
    each letter the least whose successor misses some subset the reverse reaches on
    exactly as many letters as are left to spell."""
    found = _outcome(_frozenset_missing_word, m, cap)
    if not isinstance(found, tuple):
        return found
    back = _reverse(m)
    found = _outcome(_frozenset_missing_word, back, cap)
    if not isinstance(found, str):  # None, or both searches stopped at the cap
        return found
    levels = [{back.closure(back.initial)}]
    for _ in found[1:]:
        levels.append({back.step(p, a) for p in levels[-1] for a in m.alphabet})
    word, cur = "", m.closure(m.initial)
    for level in reversed(levels):
        a = next(a for a in m.alphabet if any(not m.step(cur, a) & p for p in level))
        word, cur = word + a, m.step(cur, a)
    return word


def _assert_capped_outcomes(m, caps):
    """At each cap ``missing_word`` gives the two-way outcome, and the forward
    search's answer wherever that search answers on its own."""
    for cap in caps:
        outcome = _outcome(missing_word, m, cap)
        assert outcome == _outcome(_two_way_missing_word, m, cap)
        forward = _outcome(_frozenset_missing_word, m, cap)
        if not isinstance(forward, tuple):
            assert outcome == forward


def _first_rejected(m, max_len):
    """The shortlex-least word of length <= max_len that ``m`` rejects."""
    for length in range(max_len + 1):
        for letters in itertools.product(m.alphabet.symbols, repeat=length):
            if not accepts(m, "".join(letters)):
                return "".join(letters)
    return None


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ResourceLimitError as exc:
        return ("ResourceLimitError", str(exc))


def _dfa(d):
    return d.n_states, d.edges, d.initial, d.final


@st.composite
def small_nfas(draw, total=False):
    """NFAs of at most 8 states with epsilon edges, over either alphabet.

    With ``total`` every state has a move on every letter and at most
    three states are not final, and the initial states are final, so most such machines accept every short
    word and their shortest rejected words are longer.
    """
    alphabet = draw(st.sampled_from([BINARY, DNA]))
    n = draw(st.integers(1, 8))
    states = st.integers(0, n - 1)
    syms = st.sampled_from((None,) + alphabet.symbols)
    edges = draw(st.lists(st.tuples(states, syms, states), max_size=4 * n))
    if total:
        edges += [(q, a, draw(states)) for q in range(n) for a in alphabet]
        final = frozenset(range(n)) - draw(st.frozensets(states, max_size=min(3, n - 1)))
        initial = draw(st.frozensets(st.sampled_from(sorted(final)), min_size=1, max_size=3))
    else:
        initial = draw(st.frozensets(states, max_size=3))
        final = draw(st.frozensets(states, min_size=n // 2))
    return Nfa(alphabet, n, tuple(edges), initial, final)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_nfas(), small_nfas(total=True)))
def test_determinize_matches_frozenset_subsets(m):
    assert _dfa(determinize(m)) == _dfa(_frozenset_determinize(m))
    for cap in (1, 2, 3):
        assert _outcome(lambda: _dfa(determinize(m, cap))) == _outcome(
            lambda: _dfa(_frozenset_determinize(m, cap))
        )


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_nfas(), small_nfas(total=True)))
def test_missing_word_matches_frozenset_search_and_brute_force(m):
    w = missing_word(m)
    assert w == _frozenset_missing_word(m, 1 << 20)
    _assert_capped_outcomes(m, (1, 2, 3))
    bound = 4 if len(m.alphabet) == 4 else 8
    brute = _first_rejected(m, bound)
    assert brute == (w if w is not None and len(w) <= bound else None)


@st.composite
def wide_nfas(draw, total=False):
    """NFAs of 9-40 states with epsilon edges, so that subsets span several bytes.

    The initial states are drawn from state 8 upwards, so a walk can start
    with its low bytes empty.  ``total`` is as for ``small_nfas``.
    """
    alphabet = draw(st.sampled_from([BINARY, DNA]))
    n = draw(st.integers(9, 40))
    states = st.integers(0, n - 1)
    syms = st.sampled_from((None,) + alphabet.symbols)
    edges = draw(st.lists(st.tuples(states, syms, states), max_size=3 * n))
    initial = draw(st.frozensets(st.integers(8, n - 1), min_size=1, max_size=3))
    if total:
        edges += [(q, a, draw(states)) for q in range(n) for a in alphabet]
        final = frozenset(range(n)) - draw(st.frozensets(states, max_size=3)) | initial
    else:
        final = draw(st.frozensets(states, min_size=n // 2))
    return Nfa(alphabet, n, tuple(edges), initial, final)


WIDE_CAP = 4000  # bounds the search of one example; both searches must agree on it too


def _caps_around(visited):
    """Caps 1-3, and when a search completed (``visited`` is its subset count) the
    cap just below that count and the count itself; a cap below 1 is rejected."""
    return {1, 2, 3} | ({visited - 1, visited} - {0} if isinstance(visited, int) else set())


@settings(max_examples=150, deadline=None)
@given(st.one_of(wide_nfas(), wide_nfas(total=True)))
def test_multi_byte_subsets_match_frozenset_subsets(m):
    dfa = _outcome(lambda: _dfa(_frozenset_determinize(m, WIDE_CAP)))
    assert _outcome(lambda: _dfa(determinize(m, WIDE_CAP))) == dfa
    for cap in _caps_around(dfa[0]):
        assert _outcome(lambda: _dfa(determinize(m, cap))) == _outcome(
            lambda: _dfa(_frozenset_determinize(m, cap))
        )
    caps = {WIDE_CAP}
    for machine in (m, _reverse(m)):  # around each direction's subset count
        caps |= _caps_around(_outcome(_frozenset_search, machine, WIDE_CAP)[1])
    _assert_capped_outcomes(m, sorted(caps))


def _near_universal_dna(k, letter):
    """Words of length <= k, or whose (k+1)-th letter from the end is not ``letter``."""
    edges = [(i, a, i + 1) for i in range(k) for a in "ACGT"]
    guess = k + 1
    edges += [(guess, a, guess) for a in "ACGT"]
    edges += [(guess, a, guess + 1) for a in "ACGT" if a != letter]
    edges += [(guess + 1 + j, a, guess + 2 + j) for j in range(k) for a in "ACGT"]
    n = guess + 2 + k
    return Nfa(DNA, n, tuple(edges), frozenset({0, guess}), frozenset(range(k + 1)) | {n - 1})


@pytest.mark.parametrize("letter", "ACGT")
def test_missing_word_near_universal_family(letter):
    m = _near_universal_dna(5, letter)
    assert missing_word(m) == letter + "AAAAA"
    assert missing_word(m) == _frozenset_missing_word(m, 1 << 20)
    m = _near_universal_dna(8, letter)  # 19 states: subsets span three bytes
    assert missing_word(m) == letter + "A" * 8
    assert missing_word(m) == _frozenset_missing_word(m, 1 << 20)
    assert _first_rejected(_near_universal_dna(3, letter), 4) == letter + "AAA"
    # the mirrored language: the (k+1)-th letter from the start is not ``letter``
    mirrored = _reverse(m)
    assert missing_word(mirrored) == "A" * 8 + letter == _frozenset_missing_word(mirrored, 1 << 20)
    assert _first_rejected(_reverse(_near_universal_dna(3, letter)), 4) == "AAA" + letter
    # the forward search of m, which is the backward one of the mirrored shape, needs
    # 512-768 subsets; the other direction needs 10-11
    with pytest.raises(ResourceLimitError):
        _frozenset_search(m, 20)
    assert missing_word(m, 20) == letter + "A" * 8
    assert missing_word(mirrored, 20) == "A" * 8 + letter
    m = _near_universal_dna(13, letter)
    assert missing_word(m) == letter + "A" * 13
    assert missing_word(_reverse(m)) == "A" * 13 + letter


def test_subset_walk_searches_closures_only_from_epsilon_edges(monkeypatch):
    # A state with no epsilon edge closes to itself; the frozenset
    # differentials above check the subsets, this the searches run.
    sources = []
    search = automata.reachable

    def spy(succ, starts):
        sources.append(sorted(starts))
        return search(succ, starts)

    monkeypatch.setattr(automata, "reachable", spy)
    m = _near_universal_dna(3, "C")
    automata._subset_walk(m)
    assert sources == [sorted(m.initial)], "the start subset alone"
    sources.clear()
    one = Nfa(DNA, m.n_states, m.edges + ((2, None, 7),), m.initial, m.final)
    automata._subset_walk(one)
    assert sources == [[2], sorted(one.initial)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_nfas(), small_nfas(total=True), wide_nfas(), wide_nfas(total=True)))
def test_missing_word_of_reversed_machines_matches_brute_force(m):
    m = _reverse(m)  # the backward search now runs over the drawn machine
    w = missing_word(m)
    bound = 4 if len(m.alphabet) == 4 else 8
    assert _first_rejected(m, bound) == (w if w is not None and len(w) <= bound else None)
