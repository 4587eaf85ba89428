"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: raw edge-list searches, exhaustive
enumeration over positions and letters, stdlib ``re`` for trajectory
expressions.  None of it shares code with the package, apart from
``is_universal``, a name for the library's own subset search, the
reference parsers, which build their machines with the library's
constructors and Thompson operations, and the reference instance reader,
which reads its document and theta with the command line's own helpers
and builds with the library's instance constructors, so agreement between
the two sides is meaningful evidence of correctness.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Optional

from dnacodec.alphabets import Alphabet, Permutation
from dnacodec.automata import Machine, Nfa, concat, missing_word, plus, star, union
from dnacodec.cli import _field, _json_arg, _object, _theta_from_spec
from dnacodec.errors import FormatError
from dnacodec.pcp import PcpInstance, ThetaPcpInstance
from dnacodec.transducers import Transducer

# ---------------------------------------------------------------------------
# relation membership / image on raw edge lists


def grouped(t: Transducer) -> tuple[list[list[tuple[str, int]]], list[list[tuple[str, int]]]]:
    """``(ins, outs)``: per state of a machine whose edges each carry one
    letter on one tape, its ``(letter, target)`` input and output moves in
    edge order."""
    ins: list[list[tuple[str, int]]] = [[] for _ in range(t.n_states)]
    outs: list[list[tuple[str, int]]] = [[] for _ in range(t.n_states)]
    for src, x, y, dst in t.edges:
        (ins if x else outs)[src].append((x or y, dst))
    return ins, outs


def pair_in_relation(t: Transducer, u: str, v: str) -> bool:
    """Does the raw transducer relate input u to output v?  Plain DFS on
    (state, input-position, output-position) triples; word labels and
    epsilons are handled by startswith, no normalization involved."""
    seen: set[tuple[int, int, int]] = set()
    stack = [(q, 0, 0) for q in t.initial]
    while stack:
        q, i, j = stack.pop()
        if (q, i, j) in seen:
            continue
        seen.add((q, i, j))
        if i == len(u) and j == len(v) and q in t.final:
            return True
        for src, inp, out, dst in t.edges:
            if src == q and u.startswith(inp, i) and v.startswith(out, j):
                stack.append((dst, i + len(inp), j + len(out)))
    return False


def enumerate_pairs(t: Transducer, max_total: int) -> list[tuple[str, str]]:
    """All pairs the raw transducer realizes with ``|x|+|y| <= max_total``,
    sorted by that total, then by x and y in alphabet order.  Exponential in
    ``max_total``."""
    succ: dict[int, list[tuple[str, str, int]]] = {}
    for src, inp, out, dst in t.edges:
        succ.setdefault(src, []).append((inp, out, dst))
    found: set[tuple[str, str]] = set()
    seen: set[tuple[int, str, str]] = set()
    stack = [(q, "", "") for q in t.initial]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        q, x, y = node
        if q in t.final:
            found.add((x, y))
        for inp, out, dst in succ.get(q, ()):
            if len(x) + len(inp) + len(y) + len(out) <= max_total:
                stack.append((dst, x + inp, y + out))

    def key(w: str) -> list[int]:
        return [t.alphabet.position(c) for c in w]

    return sorted(found, key=lambda p: (len(p[0]) + len(p[1]), key(p[0]), key(p[1])))


def outputs_up_to(t: Transducer, u: str, max_len: int) -> set[str]:
    """All outputs of length <= max_len the raw transducer produces on u."""
    found: set[str] = set()
    seen: set[tuple[int, int, str]] = set()
    stack = [(q, 0, "") for q in t.initial]
    while stack:
        q, i, out_word = stack.pop()
        if (q, i, out_word) in seen:
            continue
        seen.add((q, i, out_word))
        if i == len(u) and q in t.final:
            found.add(out_word)
        for src, inp, out, dst in t.edges:
            if src == q and u.startswith(inp, i) and len(out_word) + len(out) <= max_len:
                stack.append((dst, i + len(inp), out_word + out))
    return found


def is_empty(m: Nfa) -> bool:
    """Does the machine accept no word?  A search over its raw edges."""
    seen = set(m.initial)
    stack = list(seen)
    while stack:
        q = stack.pop()
        if q in m.final:
            return False
        for src, _, dst in m.edges:
            if src == q and dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return True


def accepts_word(m: Nfa, w: str) -> bool:
    """Does the machine accept w?  A search over (state, position) pairs on its raw edges."""
    seen: set[tuple[int, int]] = set()
    stack = [(q, 0) for q in m.initial]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        q, i = node
        if i == len(w) and q in m.final:
            return True
        for src, sym, dst in m.edges:
            if src == q and (sym is None or w.startswith(sym, i)):
                stack.append((dst, i if sym is None else i + 1))
    return False


def is_universal(m: Nfa, state_cap: Optional[int] = None) -> bool:
    """Does the machine accept every word?  The library's subset search."""
    return missing_word(m, state_cap) is None


# ---------------------------------------------------------------------------
# machine text

_EPSILON = "@epsilon"


def reference_parse_fado(text: str, alphabet: Optional[Alphabet] = None) -> Machine:
    """Parse a machine document; returns an Nfa or Transducer by header.

    The two-pass reader ``dnacodec.fado.parse_fado`` replaced, kept as it was: it numbers
    the lines, checks each label as it reads it and builds the machine through the
    checking constructors, so the one-pass reader must give the same machine or error."""
    numbered = [
        (lineno, line.strip())
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not numbered:
        raise FormatError("empty document", 1)
    header_no, header = numbered[0]
    tokens = header.split()
    kind = tokens[0]
    if kind not in ("@Transducer", "@NFA"):
        raise FormatError(f"unknown machine kind {kind!r}", header_no)
    if tokens.count("*") != 1:
        raise FormatError("header needs exactly one '*' separating finals from initials", header_no)
    sep = tokens.index("*")
    final_names = tokens[1:sep]
    initial_names = tokens[sep + 1 :]

    names: dict[str, int] = {}

    def state(name: str) -> int:
        if name not in names:
            names[name] = len(names)
        return names[name]

    finals = frozenset(state(n) for n in final_names)
    initials = frozenset(state(n) for n in initial_names)

    arity = 4 if kind == "@Transducer" else 3
    rows: list[tuple] = []
    labels: dict[str, int] = {}  # each label -> the line it first appears on
    for lineno, line in numbered[1:]:
        parts = line.split()
        if len(parts) != arity:
            raise FormatError(
                f"expected {arity} fields per transition, got {len(parts)}", lineno
            )
        for label in parts[1:-1]:
            if label != _EPSILON and len(label) != 1:
                raise FormatError(f"multi-symbol label {label!r}", lineno)
            if label != _EPSILON:
                labels.setdefault(label, lineno)
        rows.append((state(parts[0]),) + tuple(parts[1:-1]) + (state(parts[-1]),))

    if alphabet is None:
        alphabet = Alphabet.of(sorted(labels)) if labels else Alphabet.of("ab")
    else:
        missing = labels.keys() - set(alphabet.symbols)
        if missing:
            raise FormatError(
                f"labels {sorted(missing)} not in the given alphabet", min(labels[a] for a in missing)
            )
    n_states = max(len(names), 1)

    if kind == "@NFA":
        edges = tuple(
            (src, None if sym == _EPSILON else sym, dst) for src, sym, dst in rows
        )
        return Nfa(alphabet, n_states, edges, initials, finals)
    edges_t = tuple(
        (
            src,
            "" if inp == _EPSILON else inp,
            "" if out == _EPSILON else out,
            dst,
        )
        for src, inp, out, dst in rows
    )
    return Transducer(alphabet, n_states, edges_t, initials, finals)


_REGEX_META = set("()|*+")


def _reference_tokenize_regex(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch == "@":
            if text.startswith("@epsilon", i):
                tokens.append("@epsilon")
                i += len("@epsilon")
            else:
                raise FormatError(f"unknown escape at position {i} in regex {text!r}")
        elif ch in _REGEX_META or ch == "∅":
            tokens.append(ch)
            i += 1
        else:
            tokens.append("sym:" + ch)
            i += 1
    return tokens


def reference_parse_regex(text: str, alphabet: Optional[Alphabet] = None) -> Nfa:
    """Parse a small regular-expression dialect into an NFA.

    The two-pass parser ``dnacodec.automata.parse_regex`` replaced, kept as it was: a
    tokenizer marks each literal ``"sym:"``, then a recursive descent reads the tokens,
    so the one-scan parser must give the same machine or error.

    Grammar: union ``|``, juxtaposition for concatenation, postfix ``*``
    and ``+``, parentheses, ``@epsilon`` for the empty word and ``∅`` for
    the empty language.  Any other non-space character is a literal symbol.
    When no alphabet is given it is inferred from the symbols that occur.
    """
    tokens = _reference_tokenize_regex(text)
    syms = sorted({t[4:] for t in tokens if t.startswith("sym:")})
    if alphabet is None:
        if not syms:
            raise FormatError(f"cannot infer an alphabet from regex {text!r}")
        alphabet = Alphabet.of(syms)
    else:
        for s in syms:
            alphabet.check_word(s)

    pos = 0

    def peek() -> Optional[str]:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_union() -> Nfa:
        left = parse_seq()
        while peek() == "|":
            take()
            left = union(left, parse_seq())
        return left

    def parse_seq() -> Nfa:
        parts: list[Nfa] = []
        while peek() is not None and peek() not in (")", "|"):
            parts.append(parse_postfix())
        if not parts:
            raise FormatError(f"empty sub-expression in regex {text!r}")
        result = parts[0]
        for part in parts[1:]:
            result = concat(result, part)
        return result

    def parse_postfix() -> Nfa:
        item = parse_atom()
        while peek() in ("*", "+"):
            item = star(item) if take() == "*" else plus(item)
        return item

    def parse_atom() -> Nfa:
        tok = take()
        if tok == "(":
            inner = parse_union()
            if peek() != ")":
                raise FormatError(f"unbalanced parenthesis in regex {text!r}")
            take()
            return inner
        if tok == "∅":
            return Nfa.empty(alphabet)
        if tok == "@epsilon":
            return Nfa.epsilon(alphabet)
        if tok.startswith("sym:"):
            return Nfa.word(alphabet, tok[4:])
        raise FormatError(f"unexpected {tok!r} in regex {text!r}")

    result = parse_union()
    if pos != len(tokens):
        raise FormatError(f"trailing {tokens[pos]!r} in regex {text!r}")
    return result


# ---------------------------------------------------------------------------
# property satisfaction on explicit word sets


def violates_S(t: Transducer, theta: Permutation, words: Iterable[str]) -> Optional[tuple[str, str]]:
    """A pair (u, v) of language words with theta(v) among t's outputs on u."""
    ws = list(words)
    for u in ws:
        for v in ws:
            if pair_in_relation(t, u, theta(v)):
                return u, v
    return None


def violates_W(t: Transducer, theta: Permutation, words: Iterable[str]) -> Optional[tuple[str, str]]:
    """Like violates_S but the two words must be distinct."""
    ws = list(words)
    for u in ws:
        for v in ws:
            if u != v and pair_in_relation(t, u, theta(v)):
                return u, v
    return None


def brute_satisfies(kind: str, t: Transducer, theta: Permutation, words: Iterable[str]) -> bool:
    bad = violates_S(t, theta, words) if kind == "S" else violates_W(t, theta, words)
    return bad is None


def brute_is_maximal(
    kind: str,
    t: Transducer,
    theta: Permutation,
    words: set[str],
    universe: Iterable[str],
) -> tuple[bool, Optional[str]]:
    """Exhaustive extension search: the language is maximal over the given
    universe when no outside word can be added without breaking it."""
    word_set = set(words)
    for w in universe:
        if w not in word_set and brute_satisfies(kind, t, theta, word_set | {w}):
            return False, w
    return True, None


def brute_theta_free(theta: Permutation, words: Iterable[str]) -> bool:
    """No theta-image of a word may occur strictly inside a two-word
    concatenation (nonempty on both flanks)."""
    ws = list(words)
    for u in ws:
        for v in ws:
            uv = u + v
            for z in ws:
                tz = theta(z)
                for i in range(1, len(uv) - len(tz)):
                    if uv[i : i + len(tz)] == tz:
                        return False
    return True


def hamming(u: str, v: str) -> float:
    if len(u) != len(v):
        return float("inf")
    return sum(1 for a, b in zip(u, v) if a != b)


def violates_constellation(
    words: Iterable[str],
    theta: Permutation,
    patterns: Iterable[str],
    variant: str,
) -> Optional[tuple[str, str]]:
    """Definitional check of the bonding-constellation properties.

    A violation is a pair z1 = u·w·v and z2 with theta(z2) = x·w·y sharing
    a nonempty core w, where each context word must be empty unless its
    letter appears in one of the ``patterns`` strings.  The ``strict``
    variant forbids every such constellation, ``normal`` tolerates the one
    with all contexts empty, and ``weak`` additionally tolerates z1 == z2.
    """
    ws = list(words)
    for z1 in ws:
        for z2 in ws:
            t2 = theta(z2)
            for i in range(len(z1)):
                for j in range(i + 1, len(z1) + 1):
                    w = z1[i:j]
                    u, v = z1[:i], z1[j:]
                    k = t2.find(w)
                    while k >= 0:
                        x, y = t2[:k], t2[k + len(w):]
                        for letters in patterns:
                            if u and "u" not in letters:
                                continue
                            if v and "v" not in letters:
                                continue
                            if x and "x" not in letters:
                                continue
                            if y and "y" not in letters:
                                continue
                            if variant == "strict":
                                return z1, z2
                            if (u or v or x or y) and (variant == "normal" or z1 != z2):
                                return z1, z2
                        k = t2.find(w, k + 1)
    return None


# ---------------------------------------------------------------------------
# word-level trajectory operations (independent of the transducer layer)


def trajectory_set(e: str, max_len: int) -> set[str]:
    """All {0,1}-words up to max_len matched by the trajectory expression.
    The expression syntax is a subset of stdlib regex syntax, so re does
    the matching."""
    pat = re.compile(rf"(?:{e})\Z")
    out: set[str] = set()
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            t = "".join(bits)
            if pat.match(t):
                out.add(t)
    return out


def delete_results(long_word: str, trajectories: set[str], deleted_nonempty: bool) -> set[str]:
    """All words obtainable from long_word by deleting the letters at the
    1-positions of some admissible trajectory."""
    n = len(long_word)
    out: set[str] = set()
    for k in range(1 if deleted_nonempty else 0, n + 1):
        for ones in itertools.combinations(range(n), k):
            chosen = set(ones)
            t = "".join("1" if i in chosen else "0" for i in range(n))
            if t in trajectories:
                out.add("".join(long_word[i] for i in range(n) if i not in chosen))
    return out


def shuffle_results(
    x: str,
    trajectories: set[str],
    letters: str,
    max_len: int,
    inserted_nonempty: bool,
) -> set[str]:
    """All words of length <= max_len obtainable by inserting arbitrary
    letters into x at the 1-positions of some admissible trajectory."""
    out: set[str] = set()
    for n in range(len(x) + (1 if inserted_nonempty else 0), max_len + 1):
        for zeros in itertools.combinations(range(n), len(x)):
            chosen = set(zeros)
            t = "".join("0" if i in chosen else "1" for i in range(n))
            if t not in trajectories:
                continue
            holes = n - len(x)
            for fill in itertools.product(letters, repeat=holes):
                z = []
                xi = iter(x)
                fi = iter(fill)
                for i in range(n):
                    z.append(next(xi) if i in chosen else next(fi))
                out.add("".join(z))
    return out


def brute_bond_free_operator(
    words: Iterable[str],
    e1: str,
    e2: str,
    strict: bool,
    letters: str,
    max_len: int,
) -> set[str]:
    """Word-level evaluation of the (strict) bond-free operator, truncated
    to outputs of length <= max_len (exact for intersection tests against
    languages of that length)."""
    word_list = list(words)
    t1 = trajectory_set(e1, max((len(w) for w in word_list), default=0))
    t2 = trajectory_set(e2, max_len)
    out: set[str] = set()
    for l in word_list:
        if strict:
            for x in delete_results(l, t1, deleted_nonempty=False):
                if x:
                    out |= shuffle_results(x, t2, letters, max_len, inserted_nonempty=False)
        else:
            for x in delete_results(l, t1, deleted_nonempty=True):
                if x:
                    out |= shuffle_results(x, t2, letters, max_len, inserted_nonempty=False)
            for x in delete_results(l, t1, deleted_nonempty=False):
                if x:
                    out |= shuffle_results(x, t2, letters, max_len, inserted_nonempty=True)
    return out


def brute_bond_free(
    words: set[str], e1: str, e2: str, strict: bool, theta: Permutation, letters: str
) -> bool:
    """theta(L) must avoid the operator image of L."""
    cap = max((len(w) for w in words), default=0)
    phi = brute_bond_free_operator(words, e1, e2, strict, letters, cap)
    return all(theta(w) not in phi for w in words)


# ---------------------------------------------------------------------------
# correspondence problems


def brute_pcp_solution(
    alpha: tuple[str, ...],
    beta: tuple[str, ...],
    max_len: int,
    theta: Optional[Permutation] = None,
) -> Optional[tuple[int, ...]]:
    """Exhaustive search over index sequences; theta (if given) is applied
    to the concatenated right side before comparing."""
    for n in range(1, max_len + 1):
        for seq in itertools.product(range(len(alpha)), repeat=n):
            left = "".join(alpha[i] for i in seq)
            right = "".join(beta[i] for i in seq)
            if theta is not None:
                right = theta(right)
            if left == right:
                return seq
    return None


def _tiles(doc: dict, name: str, theta: Optional[Permutation]) -> tuple[str, ...]:
    """Field ``name`` of a correspondence instance: nonempty words, over theta's letters if given."""
    tiles, letters = _field(doc, name, (list,)), "".join(theta.alphabet.symbols) if theta else ""
    for w in tiles:
        if not isinstance(w, str) or not w or letters and w.strip(letters):
            over = f" over {letters!r}" if letters else ""
            raise FormatError(f"field {name!r} must list nonempty words{over}, not {w!r}")
    if not tiles:
        raise FormatError(f"field {name!r} must list at least one tile")
    return tuple(tiles)


def reference_load_instance(arg: str):
    """The command line's instance reader as it was when it checked the tiles itself."""
    doc = _object(_json_arg(arg, "--instance")[0], "instance document")
    theta = _theta_from_spec(doc["theta"]) if "theta" in doc else None
    alpha, beta = _tiles(doc, "alpha", theta), _tiles(doc, "beta", theta)
    if len(alpha) != len(beta):
        raise FormatError(f"field 'beta' must list as many tiles as field 'alpha' ({len(alpha)}), not {len(beta)}")
    return PcpInstance(alpha, beta) if theta is None else ThetaPcpInstance(alpha, beta, theta)


# ---------------------------------------------------------------------------
# frozen expected values


# Hamming sphere of radius 1 around AAA (10 words: itself + 3 positions x 3
# substitute letters).
PH_SPHERE_AAA = {
    "AAA",
    "CAA", "GAA", "TAA",
    "ACA", "AGA", "ATA",
    "AAC", "AAG", "AAT",
}

# Three-word DNA language that fails the theta-free test even though every
# proper subset passes it.
K_NOT_FREE = ("ACGT", "CCAC", "GTAA")

# Hamming-property example languages.
L_HAMMING_BAD = ("AGG", "CCA")      # distance(CCA, delta(AGG)) = 1
L_HAMMING_GOOD = ("AAA", "CCT")     # all cross-distances >= 2
L_SINGLE_LETTERS = ("A", "C")       # length-1 words always fail

# {AT} is its own reverse complement, hence never nonoverlapping.
L_SELF_COMPLEMENTARY = ("AT",)

# Deciding transducer text for "output is a strictly shorter infix".  Used
# as a plain parser fixture; its image on {ab} is {a, b, ab}.
INFIX_TRANSDUCER_TEXT = (
    "@Transducer 2 * 0\n"
    "0 a @epsilon 0\n"
    "0 b @epsilon 0\n"
    "0 a a 1\n"
    "0 b b 1\n"
    "1 a a 1\n"
    "1 b b 1\n"
    "1 @epsilon @epsilon 2\n"
    "2 a @epsilon 2\n"
    "2 b @epsilon 2\n"
)
INFIX_IMAGE_ON_AB = {"a", "b", "ab"}

# Solvable two-tile correspondence instance and its shortest solution.
PCP_SOLVABLE = (("0", "01"), ("00", "1"))
PCP_SOLVABLE_SOLUTION = (0, 1)
# Trivially unsolvable instance (left and right sides never share a letter).
PCP_UNSOLVABLE = (("0",), ("1",))

# The preserving-transducer encoding of PCP_SOLVABLE under the two-letter
# reversal permutation: shortest word mapped outside its own output set.
PCP_PRESERVING_WITNESS = "0000011110"
