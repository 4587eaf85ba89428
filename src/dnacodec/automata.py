"""Nondeterministic finite automata with epsilon moves.

States are dense integers ``0..n_states-1``; an edge is ``(src, sym, dst)``
where ``sym`` is a single alphabet character or ``None`` for an epsilon
move.  Machines are immutable values.  ``Machine`` holds what an ``Nfa``
and a ``Transducer`` share: the five parts, the one check and the one
unchecked build; ``union`` and ``trim`` serve both kinds through it.  A
machine is validated once, where it enters the library (the constructor
and its classmethods, the parser); an operation on checked machines builds
its result through ``_trusted``, unchecked.

Potentially exponential constructions (subset construction and everything
built on it) take a ``state_cap`` and raise :class:`ResourceLimitError`
instead of thrashing; the default cap can be overridden with the
``DNACODEC_STATE_CAP`` environment variable.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Optional

from .alphabets import Alphabet, Permutation
from .errors import FormatError, ResourceLimitError
from .graphs import bit_image, numbering, path_to, reachable, trim_keep

DEFAULT_STATE_CAP = 1 << 20
_LIST_WORDS, _LIST_MOVES = 64, 4096  # the most words ``list_words`` lists, and the most moves it makes


def resolve_state_cap(explicit: Optional[int] = None) -> int:
    if explicit is not None:
        if explicit < 1:
            raise FormatError(f"state_cap must be a positive integer, not {explicit!r}")
        return explicit
    env = os.environ.get("DNACODEC_STATE_CAP")
    if not env:
        return DEFAULT_STATE_CAP
    if not env.strip().isdecimal() or int(env) < 1:
        raise FormatError(f"DNACODEC_STATE_CAP must be a positive integer, not {env!r}")
    return int(env)


def _symbols_ok(alphabet: Alphabet, labels: set) -> bool:
    """Is every NFA label a symbol of ``alphabet`` or ``None``?"""
    return not labels.difference(alphabet.symbols, (None,))


@dataclass(eq=False)
class Machine:
    """The parts an ``Nfa`` and a ``Transducer`` share; each kind says which labels it takes."""

    alphabet: Alphabet
    n_states: int
    edges: tuple
    initial: frozenset[int]
    final: frozenset[int]

    def __post_init__(self):
        """Raise ``ValueError`` naming the state count, or an edge, label or state out of place.

        One pass checks each edge's length and states and gathers the distinct labels for
        one ``_labels_ok`` call; only its failure costs a search.
        """
        self.initial = frozenset(self.initial)
        self.final = frozenset(self.final)
        self.edges = edges = tuple(self.edges)
        n, arity, labels_ok = self.n_states, self._arity, self._labels_ok
        if type(n) is not int or n < 0:
            raise ValueError(f"n_states must be a non-negative int, not {n!r}")
        labels: set = set()
        add = labels.add
        for e in edges:
            if len(e) != arity or not (type(e[0]) is type(e[-1]) is int and 0 <= e[0] < n and 0 <= e[-1] < n):
                raise ValueError(f"edge {e} is not {arity} parts with int states in range({n})")
            add(e[1])
            add(e[-2])  # a transducer's output; on an NFA edge the same label again
        if not labels_ok(self.alphabet, labels):
            e, a = next((e, a) for e in edges for a in e[1:-1] if not labels_ok(self.alphabet, {a}))
            raise ValueError(f"edge {e}: label {a!r} is not over {''.join(self.alphabet)!r}")
        for q in self.initial | self.final:
            if type(q) is not int or not 0 <= q < n:
                raise ValueError(f"state {q!r} is not an int in range({n})")

    @classmethod
    def _trusted(cls, alphabet, n_states, edges, initial, final):
        """A machine made by an operation on checked machines that keeps states and labels
        valid: it was validated where it entered the library, not here again.  Its cached
        fields keep their class default, None."""
        m = object.__new__(cls)
        m.alphabet, m.n_states, m.edges = alphabet, n_states, tuple(edges)
        m.initial, m.final = frozenset(initial), frozenset(final)
        return m

    @classmethod
    def empty(cls, alphabet: Alphabet):
        """The machine accepting nothing (for a transducer, the empty relation)."""
        return cls(alphabet, 1, (), frozenset({0}), frozenset())


@dataclass(eq=False)
class Nfa(Machine):
    """An NFA over ``alphabet``; epsilon edges carry the symbol ``None``."""

    _adj: Optional[tuple] = field(default=None, repr=False, compare=False)
    _arity = 3  # (src, sym, dst)
    _labels_ok = staticmethod(_symbols_ok)

    # -- adjacency -------------------------------------------------------

    def adjacency(self) -> tuple[list[list[int]], list[dict[str, list[int]]]]:
        """``(eps_adj, sym_adj)``, built once and cached; a repeated target is listed once."""
        if self._adj is None:
            eps_adj: list[list[int]] = [[] for _ in range(self.n_states)]
            sym_adj: list[dict[str, list[int]]] = [{} for _ in range(self.n_states)]
            for src, sym, dst in self.edges:
                targets = eps_adj[src] if sym is None else sym_adj[src].setdefault(sym, [])
                if dst not in targets:
                    targets.append(dst)
            self._adj = (eps_adj, sym_adj)
        return self._adj

    def closure(self, states: Iterable[int]) -> frozenset[int]:
        """Epsilon closure of a state set."""
        return frozenset(reachable(self.adjacency()[0], states))

    def step(self, states: frozenset[int], sym: str) -> frozenset[int]:
        _, sym_adj = self.adjacency()
        out: set[int] = set()
        for q in states:
            out.update(sym_adj[q].get(sym, ()))
        return self.closure(out)

    # -- constructors ----------------------------------------------------

    @classmethod
    def epsilon(cls, alphabet: Alphabet) -> "Nfa":
        """The machine accepting exactly the empty word."""
        return cls(alphabet, 1, (), frozenset({0}), frozenset({0}))

    @classmethod
    def word(cls, alphabet: Alphabet, w: str) -> "Nfa":
        return cls._trusted(alphabet, *_trie((alphabet.check_word(w),)))

    @classmethod
    def finite(cls, alphabet: Alphabet, words: Iterable[str]) -> "Nfa":
        """A trie accepting exactly the given finite set of words."""
        return cls._trusted(alphabet, *_trie(map(alphabet.check_word, words)))

    @classmethod
    def universal(cls, alphabet: Alphabet) -> "Nfa":
        """All words, including the empty one."""
        edges = tuple((0, a, 0) for a in alphabet)
        return cls(alphabet, 1, edges, frozenset({0}), frozenset({0}))

    @classmethod
    def nonempty(cls, alphabet: Alphabet) -> "Nfa":
        """All nonempty words."""
        edges = tuple((0, a, 1) for a in alphabet) + tuple((1, a, 1) for a in alphabet)
        return cls(alphabet, 2, edges, frozenset({0}), frozenset({1}))


def _trie(words: Iterable[str]) -> tuple[int, tuple, tuple, set]:
    """``(n_states, edges, initial, final)`` of the trie of ``words``; the caller checks the words."""
    kids, final = [{}], set()
    for w in words:
        cur = 0
        for ch in w:
            if (cur := (here := kids[cur]).get(ch)) is None:
                cur = here[ch] = len(kids)
                kids.append({})
        final.add(cur)
    return len(kids), tuple((src, ch, dst) for src, out in enumerate(kids) for ch, dst in out.items()), (0,), final


# -- basic queries -------------------------------------------------------


def accepts(m: Nfa, w: str) -> bool:
    cur = m.closure(m.initial)
    for ch in w:
        if not cur:
            return False
        cur = m.step(cur, ch)
    return bool(cur & m.final)


def shortest_word(m: Nfa) -> Optional[str]:
    """The shortlex-least accepted word, or None.

    One group per word, in shortlex order: a group claims its unseen seeds,
    closes them under epsilon moves and seeds one group per letter, so each
    state lands in the group of the first word reaching it, and the first
    group holding a final state spells the word.
    """
    eps_adj, sym_adj = m.adjacency()
    seen: set[int] = set()
    groups = [("", list(m.initial))]
    for word, group in groups:  # the list grows while it is walked
        moves: dict[str, list[int]] = {}
        for q in group:  # seeds, then the epsilon moves found while walking
            if q in seen:
                continue
            if q in m.final:
                return word
            seen.add(q)
            group.extend(eps_adj[q])
            for a, targets in sym_adj[q].items():
                moves.setdefault(a, []).extend(targets)
        groups.extend((word + a, moves[a]) for a in m.alphabet if a in moves)
    return None


def list_words(m: Nfa) -> Optional[list[str]]:
    """The words of ``m`` in depth-first order, or None once the walk meets an epsilon edge, a cycle
    (a self-loop or a word of ``n_states`` letters), more than ``_LIST_WORDS`` words or more than
    ``_LIST_MOVES`` moves."""
    (eps_adj, sym_adj), final, n = m.adjacency(), m.final, m.n_states
    words, stack, moves = {}, [(q, "") for q in m.initial], _LIST_MOVES
    while stack:
        q, w = stack.pop()
        if q in final:
            words[w] = None
        for a, targets in sym_adj[q].items():
            moves -= len(targets)
            for r in targets:
                if r == q:  # a self-loop, which would end the walk at depth n_states anyway
                    return None
                stack.append((r, w + a))
        if eps_adj[q] or len(w) >= n or moves < 0 or len(words) > _LIST_WORDS:
            return None
    return list(words)


def enumerate_words(m: Nfa, max_len: int) -> list[str]:
    """All accepted words of length ≤ max_len in shortlex order."""
    out: list[str] = []
    start = m.closure(m.initial)
    level: dict[str, frozenset[int]] = {"": start} if start else {}
    if start & m.final:
        out.append("")
    for _ in range(max_len):
        nxt: dict[str, frozenset[int]] = {}
        for w in sorted(level):
            states = level[w]
            for a in m.alphabet:
                stepped = m.step(states, a)
                if stepped:
                    wa = w + a
                    nxt[wa] = stepped
                    if stepped & m.final:
                        out.append(wa)
        level = nxt
        if not level:
            break
    return out


# -- structural transforms ----------------------------------------------


def trim(m):
    """Drop the states on no initial-to-final path, the rest renumbered in order; ``m`` itself if none."""
    keep = trim_keep(m.n_states, m.edges, m.initial, m.final)
    if len(keep) == m.n_states:
        return m
    remap = {q: i for i, q in enumerate(keep)}
    edges = ((remap[e[0]], *e[1:-1], remap[e[-1]]) for e in m.edges if e[0] in remap and e[-1] in remap)
    initial, final = ([remap[q] for q in qs if q in remap] for qs in (m.initial, m.final))
    return type(m)._trusted(m.alphabet, len(keep), edges, initial, final)


def remove_epsilon(m: Nfa) -> Nfa:
    """An equivalent machine without epsilon edges (``m`` itself if it has none)."""
    eps_adj, sym_adj = m.adjacency()
    if not any(eps_adj):
        return m
    edges: list[tuple[int, Optional[str], int]] = []
    final = set()
    for p in range(m.n_states):
        cl = m.closure([p])
        if cl & m.final:
            final.add(p)
        for q in cl:
            for sym, dsts in sym_adj[q].items():
                for r in dsts:
                    edges.append((p, sym, r))
    edges = list(dict.fromkeys(edges))  # first-seen order: a set's would follow the hash seed
    return Nfa._trusted(m.alphabet, max(m.n_states, 1), edges, m.initial, final)


def union(a, b):
    """Two machines of one kind, ``Nfa`` or ``Transducer``, side by side, built by its ``_trusted``."""
    if a.alphabet != b.alphabet:
        raise ValueError("union requires a common alphabet")
    off = a.n_states
    edges = a.edges + tuple((e[0] + off, *e[1:-1], e[-1] + off) for e in b.edges)
    initial, final = a.initial | {q + off for q in b.initial}, a.final | {q + off for q in b.final}
    return type(a)._trusted(a.alphabet, off + b.n_states, edges, initial, final)


def concat(a: Nfa, b: Nfa) -> Nfa:
    if a.alphabet != b.alphabet:
        raise ValueError("concat requires a common alphabet")
    off = a.n_states
    edges = list(a.edges)
    edges.extend((s + off, sym, d + off) for s, sym, d in b.edges)
    edges.extend((f, None, i + off) for f in a.final for i in b.initial)
    return Nfa._trusted(a.alphabet, a.n_states + b.n_states, edges, a.initial, (q + off for q in b.final))


def star(m: Nfa) -> Nfa:
    hub = m.n_states
    edges = list(m.edges)
    edges.extend((hub, None, i) for i in m.initial)
    edges.extend((f, None, hub) for f in m.final)
    return Nfa._trusted(m.alphabet, m.n_states + 1, edges, (hub,), (hub,))


def plus(m: Nfa) -> Nfa:
    return concat(m, star(m))


def intersect(a: Nfa, b: Nfa) -> Nfa:
    """Lazy product; epsilon moves advance one component at a time."""
    if a.alphabet != b.alphabet:
        raise ValueError("intersect requires a common alphabet")
    a_eps, a_sym = a.adjacency()
    b_eps, b_sym = b.adjacency()
    index, walk, state = numbering((p, q) for p in a.initial for q in b.initial)
    initial = frozenset(range(len(index)))
    edges: list[tuple[int, Optional[str], int]] = []
    for src, (p, q) in walk:
        for p2 in a_eps[p]:
            edges.append((src, None, state((p2, q))))
        for q2 in b_eps[q]:
            edges.append((src, None, state((p, q2))))
        for sym, p2s in a_sym[p].items():
            q2s = b_sym[q].get(sym)
            if q2s:
                for p2 in p2s:
                    for q2 in q2s:
                        edges.append((src, sym, state((p2, q2))))
    final = frozenset(i for (p, q), i in index.items() if p in a.final and q in b.final)
    return Nfa._trusted(a.alphabet, max(len(index), 1), edges, initial, final)


def _subset_walk(m: Nfa):
    """The subset construction of ``m`` on int bitmasks: ``(start, final, step, lanes, full)``.

    Bit ``q`` stands for state ``q``; ``start`` is the closed initial subset.
    ``step(subset)`` returns one packed row: the successor subset on letter
    ``a`` is ``row >> off & full`` for each ``(a, off)`` of ``lanes``, in
    alphabet order, ``n_states`` bits per letter.  Each state's successor
    mask per letter is epsilon-closed, and closure distributes over union,
    so these are exactly the subsets ``Nfa.step`` gives.  ``step`` is
    ``graphs.bit_image`` of the per-state rows.
    """
    n = m.n_states
    eps_adj, sym_adj = m.adjacency()
    closed = [sum(1 << r for r in reachable(eps_adj, [q])) if eps_adj[q] else 1 << q for q in range(n)]
    lanes = [(a, i * n) for i, a in enumerate(m.alphabet)]
    rows = [0] * n
    for q in range(n):
        for a, off in lanes:
            for r in sym_adj[q].get(a, ()):
                rows[q] |= closed[r] << off
    step = bit_image(rows)
    start = sum(1 << q for q in reachable(eps_adj, m.initial))
    return start, sum(1 << q for q in m.final), step, lanes, (1 << n) - 1


def determinize(m: Nfa, state_cap: Optional[int] = None) -> Nfa:
    """Subset construction; the result is deterministic and complete."""
    start, final, step, lanes, full = _subset_walk(m)
    index, walk, state = numbering([start], resolve_state_cap(state_cap))
    edges: list[tuple[int, Optional[str], int]] = []
    for src, subset in walk:
        acc = step(subset)
        for a, off in lanes:
            edges.append((src, a, state(acc >> off & full)))
    accepting = frozenset(i for subset, i in index.items() if subset & final)
    return Nfa._trusted(m.alphabet, len(index), edges, (0,), accepting)


def complement(m: Nfa, state_cap: Optional[int] = None) -> Nfa:
    d = determinize(m, state_cap)
    return Nfa._trusted(d.alphabet, d.n_states, d.edges, d.initial, frozenset(range(d.n_states)) - d.final)


def _subset_search(walk, cap: int, parents: dict):
    """Breadth-first search of a ``_subset_walk`` for a subset with no final state, each one seen
    entered in the empty dict ``parents`` with its parent: each ``next`` expands one subset and yields
    None, or ``(levels, subset)`` on finding one, where ``levels[d]`` lists the subsets first seen at
    depth ``d``, up to the depth before the subset's.  It returns once every subset is seen, and raises
    ``ResourceLimitError`` when a new subset turns up once ``cap`` have been seen."""
    start, final, step, lanes, full = walk
    parents[start] = None
    levels = [[start]]
    for level in levels:  # the list grows while it is walked
        deeper: list[int] = []
        for subset in level:
            acc = step(subset)
            for a, off in lanes:
                nxt = acc >> off & full
                if nxt in parents:
                    continue
                if len(parents) >= cap:
                    raise ResourceLimitError(f"universality check exceeded the cap of {cap} subsets")
                parents[nxt] = (subset, a)
                if not nxt & final:
                    yield levels, nxt
                    return
                deeper.append(nxt)
            yield None
        if deeper:
            levels.append(deeper)


def missing_word(m: Nfa, state_cap: Optional[int] = None) -> Optional[str]:
    """The shortlex-least word the machine rejects, or None when it is universal.

    Two breadth-first subset searches take turns, one subset each.  Forward, over
    ``m``, spells the word along the parents of its first subset with no final
    state.  Backward, over ``m`` reversed, reaches after ``v`` the states that read
    ``v`` reversed into a final state; its first subset that misses the initial
    states gives the shortest rejected length.  The word is then spelled from the
    forward start: with ``r`` letters left, the least letter whose successor misses
    a backward subset first seen at depth ``r - 1`` (missing a shallower one would
    reject a shorter word).  If either search sees every subset, ``m`` is universal.

    Each search stops when a new subset turns up once it has seen ``state_cap``,
    the start one included; ``ResourceLimitError`` is raised when both have stopped.
    """
    return _missing_word(m, state_cap)[0]


def _missing_word(m: Nfa, state_cap: Optional[int] = None) -> tuple[Optional[str], int, int, str]:
    """``missing_word``'s word, the subsets its forward and backward searches saw, and the one that
    answered, "forward" or "backward" (the forward start's subset when it rejects the empty word)."""
    cap = resolve_state_cap(state_cap)
    if not m.closure(m.initial) & m.final:
        return "", 1, 0, "forward"
    start, _, step, lanes, full = walk = _subset_walk(m)
    back = Nfa._trusted(m.alphabet, m.n_states, ((d, a, s) for s, a, d in m.edges), m.final, m.initial)
    seen: dict[str, dict] = {"forward": {}, "backward": {}}  # per search, the subsets seen and their parents
    searches = [(way, _subset_search(w, cap, seen[way])) for way, w in zip(seen, (walk, _subset_walk(back)))]
    while True:
        way, search = searches.pop(0)
        try:
            found = next(search)
        except StopIteration:  # this search saw every subset
            return None, len(seen["forward"]), len(seen["backward"]), way
        except ResourceLimitError:
            if not searches:
                raise
            continue
        if found:
            break
        searches.append((way, search))
    levels, subset = found
    if way == "forward":
        word = path_to(seen[way], subset)
    else:
        cur, word = start, []
        for level in reversed(levels):  # with r letters left, the subsets first seen at depth r - 1
            acc = step(cur)
            for a, off in lanes:
                cur = acc >> off & full
                if any(not cur & p for p in level):
                    word.append(a)
                    break
    return "".join(word), len(seen["forward"]), len(seen["backward"]), way


def theta_image(m: Nfa, theta: Permutation) -> Nfa:
    """The machine accepting ``{theta(w) : w in L(m)}``.

    Morphic: relabel every edge.  Antimorphic: relabel, reverse every edge
    and swap the roles of initial and final states (a run for theta(w) is
    the mirrored run for w).
    """
    if theta.alphabet != m.alphabet:
        raise ValueError("permutation alphabet does not match the machine")
    pi = theta.image
    if not theta.antimorphic:
        edges = tuple((s, None if sym is None else pi(sym), d) for s, sym, d in m.edges)
        return Nfa._trusted(m.alphabet, m.n_states, edges, m.initial, m.final)
    edges = tuple((d, None if sym is None else pi(sym), s) for s, sym, d in m.edges)
    return Nfa._trusted(m.alphabet, m.n_states, edges, m.final, m.initial)


# -- regular expressions -------------------------------------------------


def parse_regex(text: str, alphabet: Optional[Alphabet] = None) -> Nfa:
    """Parse a small regular-expression dialect into an NFA.

    Grammar: union ``|``, juxtaposition for concatenation, postfix ``*``
    and ``+``, parentheses, ``@epsilon`` for the empty word and ``∅`` for
    the empty language.  Whitespace is ignored; any other character is a
    literal symbol.  When no alphabet is given it is inferred from the
    symbols that occur.

    Errors, in the order they are checked: ``FormatError`` for the first
    ``@`` that does not begin ``@epsilon``; then ``FormatError`` when no
    alphabet is given and no symbol occurs, or ``ValueError`` for the least
    symbol outside the given alphabet; then, reading from the left,
    ``FormatError`` for an empty sub-expression, a ``*`` or ``+`` with nothing
    to repeat, an unclosed ``(`` or an unopened ``)``.
    """
    tokens = []
    for match in re.finditer(r"@epsilon|\S", text):
        if match.group() == "@":
            raise FormatError(f"unknown escape at position {match.start()} in regex {text!r}")
        tokens.append(match.group())
    syms = sorted(set(tokens).difference(("(", ")", "|", "*", "+", "∅", "@epsilon")))
    if alphabet is None:
        if not syms:
            raise FormatError(f"cannot infer an alphabet from regex {text!r}")
        alphabet = Alphabet.of(syms)
    else:
        for s in syms:
            alphabet.check_word(s)
    tokens.append(None)  # ends every look-ahead
    tokens.reverse()  # so the next token is popped off the end

    def alternatives() -> Nfa:
        machine = sequence()
        while tokens[-1] == "|":
            tokens.pop()
            machine = union(machine, sequence())
        return machine

    def sequence() -> Nfa:
        parts = []
        while tokens[-1] not in (None, ")", "|"):
            parts.append(item())
        if not parts:
            raise FormatError(f"empty sub-expression in regex {text!r}")
        return reduce(concat, parts)

    def item() -> Nfa:
        tok = tokens.pop()
        if tok == "(":
            machine = alternatives()
            if tokens.pop() != ")":
                raise FormatError(f"unbalanced parenthesis in regex {text!r}")
        elif tok == "∅":
            machine = Nfa.empty(alphabet)
        elif tok == "@epsilon":
            machine = Nfa.epsilon(alphabet)
        elif tok in syms:
            machine = Nfa.word(alphabet, tok)
        else:
            raise FormatError(f"unexpected {tok!r} in regex {text!r}")
        while tokens[-1] in ("*", "+"):
            machine = star(machine) if tokens.pop() == "*" else plus(machine)
        return machine

    machine = alternatives()
    if tokens[-1] is not None:
        raise FormatError(f"trailing {tokens[-1]!r} in regex {text!r}")
    return machine
