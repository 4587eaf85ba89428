"""Finite transducers over a common input/output alphabet.

An edge is ``(src, inp, out, dst)`` where ``inp``/``out`` are words (often
single letters) and ``""`` stands for the empty word.  A transducer
*realizes* the relation of all ``(x, y)`` labelling an accepting path.

Every decision procedure here reads the *normal form*, in which each move
carries one letter on one tape, through ``Transducer.view()``: one pass links
the edges by source, with no list per state, and the edges of a state are split
into letter moves, chains of fresh states and epsilon targets when a search first
touches it, so the restriction search, the witness decoder and ``accepts_pair``
pay only for the states they reach; ``compose`` and the bounded class check
fill every state.  A restriction search that finds nothing early finishes on
a reachability walk over bitsets of (L, theta(L)) state pairs, which reads a
state of one-letter edges off those links, unsplit.  The weak decision
``_weak_pair`` chooses its route here, for ``is_partial_identity`` and
``properties.satisfies_W_general``; its walk compacts its own product, and
``trim`` and ``union`` are ``automata``'s.  ``normalize`` turns the filled
view into a machine, its chain states numbered densely, for serialization.
The view, the normal form and each bounded class check
(``bounded_counterexample``: all words of one length at once, as bitsets over
their lexicographic numbering, giving the shortlex-first refutation) are
memoized on the machine, an immutable value queried against many languages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, reduce
from itertools import product
from operator import itemgetter
from typing import Optional, Sequence

from .alphabets import Alphabet, Permutation
from .automata import (
    Machine,
    Nfa,
    complement as nfa_complement,
    determinize,
    remove_epsilon,
    resolve_state_cap,
    trim,
    union,
)
from .errors import ResourceLimitError
from .graphs import (INF, bit_image, leaving, numbering, path_to, reachable, search, shortest_path, topological_order,
                     trim_keep)


def _words_ok(alphabet: Alphabet, labels: set) -> bool:
    """Is every label a word over ``alphabet``?  They are strings, and their concatenation strips to ""."""
    return all(type(a) is str for a in labels) and not "".join(labels).strip("".join(alphabet.symbols))


@dataclass(eq=False)
class Transducer(Machine):
    _normal_form: Optional["Transducer"] = field(default=None, init=False, repr=False, compare=False)
    _view: Optional["_NormalView"] = field(default=None, init=False, repr=False, compare=False)
    _checks: Optional[dict] = field(default=None, init=False, repr=False, compare=False)
    _arity = 4  # (src, inp, out, dst)
    _labels_ok = staticmethod(_words_ok)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Transducer":
        """The transducer mapping every word to itself."""
        edges = tuple((0, a, a, 0) for a in alphabet)
        return cls(alphabet, 1, edges, frozenset({0}), frozenset({0}))

    # -- the normal form, state by state ---------------------------------

    def view(self) -> "_NormalView":
        """The normal form's moves and final flags, filled on first touch; memoized."""
        if self._view is None:
            self._view = _NormalView(self)
        return self._view


class _NormalView:
    """The normal form of a transducer, filled one state at a time.

    One backward pass links the edges by source, in order and with no list per state:
    ``_head[p]`` is p's first edge, ``_next[i]`` the next after edge i, -1 ends both.  ``fill``
    splits, on first touch, the edges leaving each state of the epsilon
    closure it reads: a letter edge becomes a ``(letter, target)`` input or
    output move, an epsilon edge an epsilon target, and a word label a
    chain of fresh states, input letters first, each with its one move.
    The first chain state of edge i is ``n + i`` (n the states of ``t``);
    the later ones of a label of three or more letters are numbered past
    ``n + len(t.edges)`` as they are made and never sit in a list of more
    than one move.  ``fill`` then gives the state the moves of its closure,
    distinct and sorted, and its final flag; ``filled`` fills every state.
    ``_bit_walk`` reads a state of one-letter edges off the links, unfilled.
    """

    __slots__ = ("ins", "outs", "final", "_edges", "_final", "_head", "_next", "_eps")

    def __init__(self, t: Transducer):
        n, m = max(t.n_states, 1), len(t.edges)
        head, nxt = [-1] * n, [-1] * m  # backward, so each state's edges link up in order
        for i, p in zip(range(m - 1, -1, -1), map(itemgetter(0), reversed(t.edges))):
            nxt[i], head[p] = head[p], i
        # t's parts, not t, which holds the view: a cycle is freed only by gc
        self._edges, self._final, self._head, self._next, self._eps = t.edges, t.final, head, nxt, {}
        # None until split (moves) or filled (flags); lists, as the search reads them per triple
        self.ins: list = [None] * (n + m)
        self.outs: list = [None] * (n + m)
        self.final: list[Optional[bool]] = [None] * n + [False] * m

    def fill(self, p: int, close: bool = True) -> Optional[bool]:
        """Give state ``p`` of ``t`` its moves and final flag; return the flag.  Under
        ``close=False`` a state with epsilon edges is only split: None, unfilled."""
        ins, outs, eps = self.ins, self.outs, self._eps
        if ins[p] is None:  # split here, not in a helper: once per state a walk reaches
            n, edges, nxt, i = len(self._head), self._edges, self._next, self._head[p]
            ins[p], outs[p] = p_ins, p_outs = [], []
            while i >= 0:
                _, x, y, q = edges[i]
                k = len(x) + len(y)
                if k == 1:
                    (p_ins if x else p_outs).append((x or y, q))
                elif k == 2 and len(x) == 1:  # the common one-letter-per-tape edge
                    p_ins.append((x, n + i))
                    ins[n + i], outs[n + i] = (), ((y, q),)
                elif k:
                    chain = [n + i, *range(len(ins), len(ins) + k - 2)]
                    ins[n + i], outs[n + i] = [], []
                    ins += [[] for _ in chain[1:]]
                    outs += [[] for _ in chain[1:]]
                    self.final += [False] * (k - 2)
                    steps = [(a, ins) for a in x] + [(b, outs) for b in y]
                    for (a, side), src, dst in zip(steps, [p, *chain], [*chain, q]):
                        side[src].append((a, dst))
                else:
                    eps.setdefault(p, []).append(q)
                i = nxt[i]
        if p not in eps:
            if len(ins[p]) > 1:
                ins[p] = sorted(set(ins[p]))
            if len(outs[p]) > 1:
                outs[p] = sorted(set(outs[p]))
            self.final[p] = fin = p in self._final
            return fin
        if not close:
            return None
        cl, stack = {p}, [p]
        while stack:
            for r in eps.get(stack.pop(), ()):
                if r not in cl:
                    if ins[r] is None:
                        self.fill(r, False)
                    cl.add(r)
                    stack.append(r)
        # A filled state of the closure holds the moves of its own
        # closure, a subset of p's, so the union is the same either way.
        ins[p] = sorted({move for q in cl for move in ins[q]})
        outs[p] = sorted({move for q in cl for move in outs[q]})
        self.final[p] = fin = not self._final.isdisjoint(cl)
        return fin

    def filled(self) -> "_NormalView":
        """This view with every state of ``t`` filled, for walks that read them all."""
        for p in range(len(self._head)):
            if self.final[p] is None:
                self.fill(p)
        return self


def normalize(t: Transducer) -> Transducer:
    """Equivalent machine whose edges each carry one letter on one tape.

    Every state of ``t.view()``, filled: single-letter edges pass as they
    are, word labels become chains of fresh states, numbered densely by
    edge and position after the states of ``t``, and the ``("", "")``
    edges are removed by epsilon closure.  The view sorts its moves in
    that order of targets, so the result has sorted, distinct edges; it
    is memoized and is its own normal form.
    """
    if t._normal_form is None:
        v, n = t.view().filled(), max(t.n_states, 1)
        ins, outs = v.ins, v.outs
        ids, order = list(range(len(ins))), list(range(n))  # view id -> id, id -> view id
        for i, (_, x, y, _) in enumerate(t.edges):
            c = n + i
            for _ in range(len(x) + len(y) - 1):  # the edge's chain, from its source
                ids[c] = len(order)
                order.append(c)
                c = (ins[c] or outs[c])[0][1]
        edges: list[tuple[int, str, str, int]] = []
        for p, c in enumerate(order):
            edges += [(p, "", b, ids[r]) for b, r in outs[c]]
            edges += [(p, a, "", ids[r]) for a, r in ins[c]]
        final = frozenset(p for p in range(n) if v.final[p])
        tn = Transducer._trusted(t.alphabet, len(order), edges, t.initial, final)
        t._normal_form = tn._normal_form = tn
    return t._normal_form


def inverse(t: Transducer) -> Transducer:
    """Swap the tapes: realizes {(y, x) : (x, y) in t}."""
    edges = tuple((s, y, x, d) for s, x, y, d in t.edges)
    return Transducer._trusted(t.alphabet, t.n_states, edges, t.initial, t.final)


def compose(outer: Transducer, inner: Transducer) -> Transducer:
    """Relational composition: ``inner`` runs first.

    Realizes {(x, z) : exists y with (x, y) in inner and (y, z) in outer}.
    Product construction on the filled views of both: inner input moves
    and outer output moves are free, while inner output letters
    synchronize with outer input letters (leaving an epsilon edge, which
    the result's own view closes over).
    """
    if outer.alphabet != inner.alphabet:
        raise ValueError("compose requires a common alphabet")
    vi, vo = inner.view().filled(), outer.view().filled()
    i_ins, i_outs, o_ins, o_outs = vi.ins, vi.outs, vo.ins, vo.outs
    index, walk, state = numbering((p, q) for p in inner.initial for q in outer.initial)
    initial = frozenset(range(len(index)))
    edges: list[tuple[int, str, str, int]] = []
    for src, (p, q) in walk:
        for a, p2 in i_ins[p]:
            edges.append((src, a, "", state((p2, q))))
        for b, q2 in o_outs[q]:
            edges.append((src, "", b, state((p, q2))))
        for c, p2 in i_outs[p]:
            for c2, q2 in o_ins[q]:
                if c == c2:
                    edges.append((src, "", "", state((p2, q2))))
    final = frozenset(i for (p, q), i in index.items() if vi.final[p] and vo.final[q])
    return Transducer._trusted(outer.alphabet, max(len(index), 1), edges, initial, final)


def restrict_input(t: Transducer, m: Nfa, outputs: Optional[Nfa] = None) -> Transducer:
    """Keep only the pairs whose input word is accepted by ``m`` and, when
    ``outputs`` is given, whose output word is accepted by ``outputs``:
    the reachable part of the product ``_restriction``, untrimmed."""
    return _restriction(t, m, outputs)[0]


def _restriction(
    t: Transducer, m: Nfa, outputs: Optional[Nfa] = None, weak: bool = False
) -> tuple[Optional[Transducer], Optional[list[int]], Optional[tuple[str, str]], int, int]:
    """``(s, labels, uneven, states, transitions)``: the one product of a
    transducer with automata on its tapes.

    Breadth first over (T-state, m-state, outputs-state) triples packed into
    ints, on ``t.view()`` (only the states reached are filled) and the
    epsilon-free languages: inputs advance ``m``, outputs ``outputs`` (by
    default all words).  ``s`` is the reachable product, a normal form.

    Under ``weak`` the walk is the balance argument of Beal, Carton, Prieur and
    Sakarovitch, "Squaring transducers" (TCS 292, 2003): each triple found gets
    its parent's balance, +1 for an input move, -1 for an output move.  The
    first accepting triple of nonzero balance ends the walk, and ``uneven`` is
    the pair |x| != |y| on its parent chain.  A completed walk compacts ``s``
    itself to the triples on accepting paths, renumbered in order with their
    balances, and one pass over its edges checks that each moves the balance by
    its +1 or -1.  An edge p -> q that does not gives ``uneven`` too: the parent
    chain of p, the edge and a shortest completion from q, or else the chain of
    q and that completion.  Otherwise every path from an initial state to a
    state q of ``s`` has balance ``labels[q]``.  With ``uneven``, ``s`` and
    ``labels`` are None.  A walk that reaches no accepting triple returns the
    empty machine and ``[]`` at once.  ``states`` and ``transitions`` size ``s``
    (compacted under ``weak``), or what the walk found up to an uneven accepting
    triple.  The triples are numbered inline, as ``graphs.numbering`` would.
    """
    of = _all_words(t.alphabet) if outputs is None else remove_epsilon(outputs)
    if not t.alphabet == m.alphabet == of.alphabet:
        raise ValueError("restrict_input requires a common alphabet")
    v = t.view()
    ins, outs, fill, t_final = v.ins, v.outs, v.fill, v.final
    lf = remove_epsilon(m)
    _, l_sym = lf.adjacency()
    _, o_sym = of.adjacency()
    nl, no = max(lf.n_states, 1), max(of.n_states, 1)
    nlo, l_final, o_final = nl * no, lf.final, of.final
    keys = list(dict.fromkeys((qt * nl + ql) * no + qo for qt in t.initial for ql in lf.initial for qo in of.initial))
    index = {key: i for i, key in enumerate(keys)}
    initial = range(len(keys))
    edges: list[tuple[int, str, str, int]] = []
    final: set[int] = set()
    balance = [0] * len(keys)
    parents: dict[int, tuple[int, tuple[int, str, str, int]]] = {}
    for src, packed in enumerate(keys):  # the list grows while it is walked
        qt, ql, qo = packed // nlo, packed // no % nl, packed % no
        fin = t_final[qt]
        if fin is None:
            fin = fill(qt)
        if fin and ql in l_final and qo in o_final:
            if weak and balance[src]:
                return None, None, _words(path_to(parents, src)), len(keys), len(edges)
            final.add(src)
        l_here = l_sym[ql]
        for a, qt2 in ins[qt]:
            for ql2 in l_here.get(a, ()):
                if (dst := index.get(key := (qt2 * nl + ql2) * no + qo)) is None:
                    dst = index[key] = len(keys)
                    keys.append(key)
                edges.append(e := (src, a, "", dst))
                if weak and dst == len(balance):
                    balance.append(balance[src] + 1)
                    parents[dst] = (src, e)
        o_here = o_sym[qo]
        for b, qt2 in outs[qt]:
            for qo2 in o_here.get(b, ()):
                if (dst := index.get(key := (qt2 * nl + ql) * no + qo2)) is None:
                    dst = index[key] = len(keys)
                    keys.append(key)
                edges.append(e := (src, "", b, dst))
                if weak and dst == len(balance):
                    balance.append(balance[src] - 1)
                    parents[dst] = (src, e)
    n = max(len(keys), 1)
    if not weak:
        return Transducer._trusted(t.alphabet, n, edges, initial, final), None, None, n, len(edges)
    if not final:  # the trimmed product is empty
        return Transducer._trusted(t.alphabet, 0, (), (), ()), [], None, 0, 0
    # Compacted here, not by ``trim``: its generic edge rebuild costs about twice this one, and keeping the
    # walk's numbering, dropping only useless edges, read weak-sweep call_ms_p90 +2.5% (5 of 6 pairs worse,
    # 2-core host): the edge index, topological order and suffix sets downstream then span every triple.
    keep = trim_keep(n, edges, initial, final)
    if len(keep) < n:
        remap = {q: i for i, q in enumerate(keep)}
        edges = ((remap[p], x, y, remap[q]) for p, x, y, q in edges if p in remap and q in remap)
        initial, final = ([remap[q] for q in qs if q in remap] for qs in (initial, final))
        balance = [balance[q] for q in keep]
    s = Transducer._trusted(t.alphabet, len(keep), edges, initial, final)
    clash = next((e for e in s.edges if balance[e[3]] - balance[e[0]] != (1 if e[1] else -1)), None)
    if clash is None:
        return s, balance, None, s.n_states, len(s.edges)
    p, x, y, q = clash
    cx, cy = _words(shortest_path(leaving(s.n_states, s.edges), q, s.final))
    px, py = _words(path_to(parents, keep[p]))
    qx, qy = _words(path_to(parents, keep[q]))
    w = (px + x + cx, py + y + cy)
    return None, None, w if len(w[0]) != len(w[1]) else (qx + cx, qy + cy), s.n_states, len(s.edges)


@cache
def _all_words(alphabet: Alphabet) -> Nfa:
    """The epsilon-free machine of all words, built once per alphabet."""
    return Nfa.universal(alphabet)


def restriction_search(
    t: Transducer, m: Nfa, outputs: Nfa, nonempty: bool = False, swapped: bool = False
) -> tuple[Optional[str], int, int]:
    """``(y, states, transitions)``: the shortlex-least shortest output y of
    ``restrict_input(t, m, outputs)`` (None if it is empty), the triples
    explored up to the first group holding a final triple (all if none does)
    and the transitions leaving them.  ``nonempty`` skips the pair ("", "");
    ``swapped`` trades T's tapes, so ``m`` constrains the outputs and the
    word found is an input.

    The packed (T, m, outputs) triples are walked layer by output length in
    groups, one per output word.  A group's output moves seed one group of
    the next layer per letter, in order of parent group, then alphabet.  A
    group claims its unseen seeds and closes them under input moves before
    the next group starts, so each triple lands in the group of its least
    shortest output, and the first group with a final triple spells ``y``;
    a group that claims nothing has no moves.  Under ``nonempty`` the starts
    enter as ``~key``, a copy never final.  T is read through ``t.view()``,
    so only the states the walk reaches are filled.

    A satisfied call has no group to stop at: after ``_BIT_AFTER`` triples
    with no hit, ``_bit_walk`` runs once from the triples seen and either
    sizes the whole product, none of it final, or leaves the grouped search
    to go on, the walk lost; most violated searches hit before that.  It
    runs only where the (m, outputs) state pairs fit ``_BIT_PAIRS`` bits.
    """
    v = t.view()
    ins, outs = (v.outs, v.ins) if swapped else (v.ins, v.outs)
    fill, t_final = v.fill, v.final
    lf, of = remove_epsilon(m), remove_epsilon(outputs)
    _, l_sym = lf.adjacency()
    _, o_sym = of.adjacency()
    nl, no = max(lf.n_states, 1), max(of.n_states, 1)
    nlo, l_final, o_final = nl * no, lf.final, of.final
    starts = [(qt * nl + ql) * no + qo for qt in t.initial for ql in lf.initial for qo in of.initial]
    layer = [(None, [~key for key in starts] if nonempty else starts)]
    moves: dict[str, list[int]] = {b: [] for b in t.alphabet}  # in alphabet order
    seen: set[int] = set()
    transitions = 0
    bit_after = INF if nlo > _BIT_PAIRS else _BIT_AFTER
    while layer:
        ahead = []
        for node, group in layer:  # node: None, or (parent node, last letter)
            hit = None  # until the group claims a triple
            for key in group:  # seeds, then the input moves found while walking
                if key in seen:
                    continue
                seen.add(key)
                packed = ~key if key < 0 else key
                qt, ql, qo = packed // nlo, packed // no % nl, packed % no
                fin = t_final[qt]
                if fin is None:
                    fin = fill(qt)
                hit = hit or fin and key >= 0 and ql in l_final and qo in o_final
                l_here = l_sym[ql]
                for a, qt2 in ins[qt]:
                    for ql2 in l_here.get(a, ()):
                        transitions += 1
                        k2 = (qt2 * nl + ql2) * no + qo
                        if k2 not in seen:
                            group.append(k2)
                o_here = o_sym[qo]
                for b, qt2 in outs[qt]:
                    for qo2 in o_here.get(b, ()):
                        moves[b].append((qt2 * nl + ql) * no + qo2)
            if hit is None:  # every seed was seen: no moves
                continue
            for b, seeds in moves.items():
                if seeds:
                    transitions += len(seeds)
                    ahead.append(((node, b), seeds))
                    moves[b] = []
            if hit:
                word = []
                while node:
                    node, b = node
                    word.append(b)
                return "".join(reversed(word)), len(seen), transitions
            if len(seen) >= bit_after:  # likely satisfied: try the whole product at once
                bit_after = INF
                if sized := _bit_walk(v, lf, of, seen, swapped):  # the first group claimed every start
                    return None, *sized
        layer = ahead
    return None, len(seen), transitions


_BIT_AFTER = 300  # triples claimed with no hit before ``_bit_walk`` runs: past most violated hits
_BIT_PAIRS = 64  # the most (m, outputs) state pairs a mask of ``_bit_walk`` holds


class _Moves(dict):
    """``_bit_walk``'s memo for one tape and letter: mask -> (successor mask, count), filled on a miss."""

    def __init__(self, rows: list[list[int]]):  # per pair: the pairs of its successors
        self.image = bit_image([sum(1 << j for j in row) for row in rows])
        self.counts = [(k, sum(1 << i for i, row in enumerate(rows) if len(row) == k)) for k in {*map(len, rows)} - {0}]

    def __missing__(self, mask: int) -> tuple[int, int]:  # the count: over k, k times the pairs with k successors
        self[mask] = got = self.image(mask), sum(k * (mask & pairs).bit_count() for k, pairs in self.counts)
        return got


def _plain(edges: tuple, nxt: list, i: int) -> bool:
    """Does each edge chained from ``i`` carry one letter on one tape or one on each, none twice?"""
    seen: dict = {}  # (input, output, target) -> the first edge with them
    while i >= 0:
        _, x, y, q = edges[i]
        if not x and not y or len(x) > 1 or len(y) > 1 or seen.setdefault((x, y, q), i) != i:
            return False
        i = nxt[i]
    return True


def _bit_walk(v: _NormalView, lf: Nfa, of: Nfa, keys: set, swapped: bool) -> Optional[tuple[int, int]]:
    """``(states, transitions)`` of the product of ``restriction_search``
    when no triple reachable from the packed ``keys`` is final, else None.
    A start copy ``~key`` of ``nonempty`` passes its bits on once and counts
    as a state of its own, as in the grouped search; a final one, the
    skipped pair, only leaves the grouped search to go on.

    One int mask per state of the view, bit ``ql * no + qo`` for each (m,
    outputs) state pair reached with it.  A state passes on only its new
    bits, so each bit crosses each move once and the counts of the masks
    passed sum to the transitions.  A move is one ``_Moves`` lookup keyed by
    the mask; a miss reads it a byte at a time, so past ``_BIT_PAIRS`` pairs
    the walk loses.  An unfilled *plain* state (``_plain``) is read off the
    view's edge links, its edge i of one letter per tape through chain state
    ``n + i``; any other is filled.  A final state of T that gains an
    accepting bit ends the walk; an epsilon closure's flag is read at a pop.
    """
    l_sym, o_sym = lf.adjacency()[1], of.adjacency()[1]
    nlo = max(lf.n_states, 1) * (no := max(of.n_states, 1))
    t_in = {a: _Moves([[q * no + i % no for q in l_sym[i // no].get(a, ())] for i in range(nlo)]) for a in lf.alphabet}
    t_out = {a: _Moves([[i - i % no + q for q in o_sym[i % no].get(a, ())] for i in range(nlo)]) for a in lf.alphabet}
    ins, outs, xs, ys = (v.outs, v.ins, t_out, t_in) if swapped else (v.ins, v.outs, t_in, t_out)
    accept = sum(1 << ql * no + qo for ql in lf.final for qo in of.final)
    n, head, nxt, edges, t_final, final, fill = len(v._head), v._head, v._next, v._edges, v._final, v.final, v.fill
    masks, todo, copied, plain = [0] * len(ins), {}, {}, bytearray(n)
    for key in keys:
        packed, key = (todo, key) if key >= 0 else (copied, ~key)
        packed[key // nlo] = packed.get(key // nlo, 0) | 1 << key % nlo
    for qt, mask in todo.items():
        masks[qt] = mask
    copies, transitions = sum(map(int.bit_count, copied.values())), 0
    while copied or todo:  # per state, the bits it has yet to pass on: a start copy's first, then the product's
        qt, new = (copied or todo).popitem()
        if (fin := final[qt]) is None and (plain[qt] or _plain(edges, nxt, head[qt])):
            plain[qt], fin = 1, qt in t_final
        elif fin is None:
            fin = fill(qt)
            masks += [0] * (len(ins) - len(masks))  # the chain states the fill made for long labels
        if fin and new & accept:
            return None
        i = -1 if final[qt] is not None else head[qt]  # a plain state's edges, else its filled moves
        while i >= 0:
            _, x, y, qt2 = edges[i]
            succ, count = (xs[x] if x else ys[y])[new]
            if x and y:  # the bits new to chain state n + i go on through its output letter
                masks[n + i] |= (add := succ & ~masks[n + i])
                transitions += count
                succ, count = ys[y][add]
            transitions += count
            if add := succ & ~masks[qt2]:
                if add & accept and qt2 in t_final:
                    return None
                masks[qt2] |= add
                todo[qt2] = todo.get(qt2, 0) | add
            i = nxt[i]
        for tape, moves in ((t_in, ins[qt] or ()), (t_out, outs[qt] or ())):
            for a, qt2 in moves:
                succ, count = tape[a][new]
                transitions += count
                if add := succ & ~masks[qt2]:
                    if add & accept and qt2 in t_final:
                        return None
                    masks[qt2] |= add
                    todo[qt2] = todo.get(qt2, 0) | add
    return sum(map(int.bit_count, masks)) + copies, transitions


def image(t: Transducer, m: Nfa) -> Nfa:
    """The NFA of the output words of ``t`` on inputs in ``m``."""
    tn = restrict_input(t, m)
    edges = tuple(
        (p, out if out else None, q) for p, _inp, out, q in tn.edges
    )
    return Nfa._trusted(t.alphabet, tn.n_states, edges, tn.initial, tn.final)


def relation_empty(t: Transducer) -> bool:
    """True when the machine realizes no pair at all."""
    return not trim_keep(t.n_states, t.edges, t.initial, t.final)


def accepts_pair(t: Transducer, x: str, y: str) -> bool:
    """Membership of the pair ``(x, y)`` in the realized relation."""
    return restriction_search(t, Nfa.word(t.alphabet, x), Nfa.word(t.alphabet, y))[0] is not None


# -- decision procedures --------------------------------------------------


def _words(edges: list) -> tuple[str, str]:
    """The input and output words along a list of edges."""
    return "".join(e[1] for e in edges), "".join(e[2] for e in edges)


_LISTING_CAP = 10**6  # pairs held at once by ``_dag_pairs``; past it ``_mismatch`` decides
INPUT_ALTERING, INPUT_PRESERVING = "altering", "preserving"  # the classes ``bounded_counterexample`` refutes


def _weak_pair(
    t: Transducer, m: Nfa, outputs: Optional[Nfa], theta: Permutation
) -> tuple[Optional[tuple[str, str]], Optional[str], int, int]:
    """``(pair, route, states, transitions)``: a pair (x, y) of ``t`` with x
    in ``m``, y in ``outputs`` (by default all words) and ``y != theta(x)``,
    or None; the route that decided; and the product's size, as the weak
    walk of ``_restriction`` gives it.

    The balance argument: theta preserves length, so the walk first looks
    for a pair of unequal lengths (route ``"length"``); without one it gives
    the trimmed product S and one balance per state.  An empty S has no
    pair and no route.  Otherwise ``_mismatch`` finds a pair off theta in
    polynomial time for any permutation (route ``"mismatch"``).  An acyclic
    S under an antimorphic theta instead has its pairs listed in order by
    ``_dag_pairs`` (route ``"acyclic"``), so the pair is the least one off
    theta; a listing past ``_LISTING_CAP`` pairs gives way to the search.
    Both read S's one edge index, built here.
    """
    s, labels, uneven, states, transitions = _restriction(t, m, outputs, weak=True)
    if uneven is not None:
        return uneven, "length", states, transitions
    if s.n_states == 0:
        return None, None, states, transitions
    succ = leaving(s.n_states, s.edges)
    pairs = _dag_pairs(s, succ) if theta.antimorphic else None
    if pairs is None:
        return _mismatch(s, succ, theta, labels), "mismatch", states, transitions
    return next(((x, y) for x, y in pairs if y != theta(x)), None), "acyclic", states, transitions


def _dag_pairs(t: Transducer, succ: list) -> Optional[list[tuple[str, str]]]:
    """All realized pairs of a normalized transducer with the edge index
    ``succ``, in order, or None when it has a cycle or the pairs held at its
    states pass ``_LISTING_CAP``."""
    order = topological_order(succ)
    if order is None:
        return None
    suffixes: list[set[tuple[str, str]]] = [set() for _ in range(t.n_states)]
    total = 0
    for node in reversed(order):  # children before parents
        bucket = suffixes[node]
        if node in t.final:
            bucket.add(("", ""))
        for _, x, y, dst in succ[node]:
            for sx, sy in suffixes[dst]:
                bucket.add((x + sx, y + sy))
        total += len(bucket)
        if total > _LISTING_CAP:
            return None
    result: set[tuple[str, str]] = set()
    for q in t.initial:
        result |= suffixes[q]
    return sorted(result, key=lambda p: (len(p[0]) + len(p[1]), p))


def _mismatch(tn: Transducer, succ: list, theta: Permutation, lam: list[int]) -> Optional[tuple[str, str]]:
    """A realized pair ``(x, y)`` of ``tn`` with ``y != theta(x)``, or None.

    ``tn`` is a trimmed product on which the weak walk of ``_restriction``
    found no pair of unequal lengths, ``succ`` its edge index, and ``lam``
    its labels: every state q has one balance ``lam[q]``, inputs minus
    outputs on any path from an initial state to q.  Every pair has
    ``|x| == |y|``, so a pair is off theta exactly when one run of it
    carries an input edge reading a and an output edge writing b with
    ``b != pi(a)`` (pi the letter table) at matching positions: the i-th
    input against the i-th output for a morphic theta, against the i-th
    output from the end for an antimorphic one.  Each case is one polynomial
    ``graphs.search``: its nodes, their moves and a goal.

    *Morphic.*  After the first of the two marks, at state r, a counter
    starts at ``lam[r]`` (input first, which needs ``lam[r] > 0``) or at
    ``lam[r]`` < 0 (output first) and moves toward 0 by one on each letter
    of the other tape; the letter that brings it to 0 is the second mark,
    and one off theta moves to the goal, the terminal node (state, "", 0).
    Nodes are (state, first letter, counter): N * |Sigma| * Lambda.

    *Antimorphic.*  Split the run as P e1 M e2 Q.  A forward head walks P
    from an initial state, a backward head walks Q from a final state, and
    d = #out(Q) - #in(P).  The marks fit when d = 0 (e1 reads, e2 writes)
    or d = lam[q] - lam[p'] (e1 writes, e2 reads; p' ends e1, q starts e2;
    M is fixed in balance by lam), and q is reachable from p'.  The heads
    move independently, so their moves can be interleaved to keep |d| at
    most the spread Lambda of lam: N^2 * (2 Lambda + 1) nodes (f, g, d), and
    the goal is a node at which a pair of marks fits.
    """
    pi = theta.image
    if not theta.antimorphic:
        def moves(node):
            q, first, c = node
            if first == "":  # past the second mark: a terminal node
                return
            for e in succ[q]:
                _, x, y, r = e
                if first is None:
                    yield e, (r, None, 0)
                    if lam[r] and (x if lam[r] > 0 else y):  # this edge is the first mark
                        yield e, (r, x or y, lam[r])
                elif (y if c > 0 else x) == "":  # a letter on the tape of the first mark
                    yield e, (r, first, c)
                elif abs(c) > 1:
                    yield e, (r, first, c - 1 if c > 0 else c + 1)
                elif (y != pi(first)) if c > 0 else (first != pi(x)):  # the second mark, off theta
                    yield e, (r, "", 0)

        node, parents = search([(q, None, 0) for q in sorted(tn.initial)], moves, lambda node: node[1] == "")
        return None if node is None else _words(path_to(parents, node) + shortest_path(succ, node[0], tn.final))

    n = len(succ)
    pred: list[list[tuple[int, str, str, int]]] = [[] for _ in range(n)]
    for e in tn.edges:
        pred[e[3]].append(e)
    states = [[e[3] for e in es] for es in succ]

    @cache  # on first query: a search that stops early asks about few states
    def reach(p: int) -> bytearray:  # bit q set when q is reachable from p
        bits = bytearray(n + 7 >> 3)
        for q in reachable(states, (p,)):
            bits[q >> 3] |= 1 << (q & 7)
        return bits

    def reaches(p: int, q: int) -> int:
        return reach(p)[q >> 3] >> (q & 7) & 1

    spread = max(lam, default=0) - min(lam, default=0)  # lam is [] on an empty product

    @cache
    def marks(f: int, g: int) -> dict:
        """Per offset d, a pair of marks (e1 leaving f, e2 entering g) that fits."""
        found: dict = {}
        for e1 in succ[f]:
            for e2 in pred[g]:
                if not reaches(e1[3], e2[0]):
                    continue
                if e1[1] and e2[2] and e2[2] != pi(e1[1]):
                    found.setdefault(0, (e1, e2))
                elif e1[2] and e2[1] and e1[2] != pi(e2[1]):
                    found.setdefault(lam[e2[0]] - lam[e1[3]], (e1, e2))
        return found

    def moves(node):
        f, g, d = node
        for e in succ[f]:  # the forward head reads: d falls
            if (d2 := d - 1 if e[1] else d) >= -spread and reaches(e[3], g):
                yield (0, e), (e[3], g, d2)
        for e in pred[g]:  # the backward head writes: d rises
            if (d2 := d + 1 if e[2] else d) <= spread and reaches(f, e[0]):
                yield (1, e), (f, e[0], d2)

    starts = [(f, g, 0) for f in sorted(tn.initial) for g in sorted(tn.final) if reaches(f, g)]
    node, parents = search(starts, moves, lambda node: node[2] in marks(node[0], node[1]))
    if node is None:
        return None
    e1, e2 = marks(node[0], node[1])[node[2]]
    steps = path_to(parents, node)
    forward = [e for head, e in steps if head == 0] + [e1] + shortest_path(succ, e1[3], (e2[0],))
    return _words(forward + [e2] + [e for head, e in reversed(steps) if head == 1])


def is_partial_identity(t: Transducer) -> tuple[bool, Optional[tuple[str, str]]]:
    """Is the realized relation a subset of {(w, w)}?

    The weak decision ``_weak_pair`` over T x Sigma* x Sigma* with the
    identity permutation: a pair of unequal lengths, else one that differs
    at some position, found by the polynomial search ``_mismatch``.  Returns
    ``(True, None)`` or ``(False, (x, y))`` with a realized pair ``x != y``.
    """
    wit = _weak_pair(t, _all_words(t.alphabet), None, Permutation.identity(t.alphabet))[0]
    return wit is None, wit


def is_functional(
    t: Transducer,
) -> tuple[bool, Optional[tuple[str, str, str]]]:
    """Does every input word have at most one output?

    Checked on the square ``compose(t, inverse(t))``: the inner inverse
    reads an output y1 and writes its input x, the outer machine reads x
    and writes y2, so the square realizes the pairs of outputs of a common
    input and is a partial identity exactly when the machine is
    functional.  That test is polynomial (the balance argument of
    ``is_partial_identity``), as in Beal, Carton, Prieur and Sakarovitch,
    "Squaring transducers" (TCS 292, 2003).  Returns ``(True, None)`` or
    ``(False, (x, y1, y2))`` with ``y1 != y2`` both outputs of ``x``.
    """
    ti = inverse(t)
    ok, wit = is_partial_identity(compose(t, ti))
    if ok:
        return True, None
    assert wit is not None
    y1, y2 = wit
    pre1 = image(ti, Nfa.word(t.alphabet, y1))
    x = restriction_search(t, Nfa.word(t.alphabet, y2), pre1, swapped=True)[0]
    assert x is not None, "square witness must share an input"
    return False, (x, y1, y2)


def is_length_preserving(
    t: Transducer,
) -> tuple[bool, Optional[tuple[str, str]]]:
    """Does every realized pair satisfy ``|x| == |y|``?

    Decided by the weak walk of ``_restriction`` over T x Sigma* x Sigma*;
    the witness of a negative answer is a realized pair with ``|x| != |y|``.
    """
    wit = _restriction(t, _all_words(t.alphabet), weak=True)[2]
    return wit is None, wit


_ATOM_CAP = 4096  # the most input classes ``included_in_recognizable`` checks one by one


def included_in_recognizable(
    t: Transducer,
    rectangles: Sequence[tuple[Nfa, Nfa]],
    state_cap: Optional[int] = None,
) -> tuple[bool, Optional[tuple[str, str]]]:
    """Is the realized relation included in the union of A_i x B_i?

    Inputs are partitioned by their membership signature across the
    determinized A_i; for each reachable signature the outputs of the
    corresponding inputs must fall inside the union of the selected B_i.
    Returns ``(True, None)`` or ``(False, (x, y))`` with a realized pair
    outside every rectangle.
    """
    cap = resolve_state_cap(state_cap)
    dets = [determinize(a, cap) for a, _b in rectangles]
    det_adj = [d.adjacency()[1] for d in dets]
    index, walk, state = numbering([tuple(next(iter(d.initial)) for d in dets)], cap)
    edges: list[tuple[int, Optional[str], int]] = []
    for src, tup in walk:
        for a in t.alphabet:
            nxt = tuple(det_adj[i][q][a][0] for i, q in enumerate(tup))
            edges.append((src, a, state(nxt)))

    signatures: dict[frozenset[int], list[int]] = {}
    for tup, s in index.items():
        sig = frozenset(i for i, q in enumerate(tup) if q in dets[i].final)
        signatures.setdefault(sig, []).append(s)
    if len(signatures) > _ATOM_CAP:
        raise ResourceLimitError(f"{len(signatures)} input classes exceed the atom cap {_ATOM_CAP}")

    for sig in sorted(signatures, key=lambda s: sorted(s)):
        states = signatures[sig]
        l_sig = Nfa._trusted(t.alphabet, len(index), edges, (0,), states)
        if sig:
            allowed = rectangles[min(sig)][1]
            for i in sorted(sig):
                if i != min(sig):
                    allowed = union(allowed, rectangles[i][1])
        else:
            allowed = Nfa.empty(t.alphabet)
        forbidden = nfa_complement(allowed, cap)
        residual = trim(restrict_input(t, l_sig, forbidden))
        if residual.n_states:
            path = shortest_path(leaving(residual.n_states, residual.edges), min(residual.initial), residual.final)
            return False, _words(path)
    return True, None


def bounded_counterexample(
    t: Transducer, theta: Permutation, mode: str, max_len: int
) -> Optional[str]:
    """Search all nonempty words up to ``max_len`` for a class refutation.

    mode "altering":   a word w with theta(w) in t(w) — refutes the claim
                       that the transducer never maps a word onto its
                       theta-image.
    mode "preserving": a word w with theta(w) not in t(w) — refutes the
                       claim that theta(w) is always among the outputs.

    Words are tried in shortlex order, all words of one length at once as
    a bitset (``_scan_words``); the first refutation is returned, None when
    the bound is exhausted.  The outcome is memoized on ``t``.
    """
    if mode not in (INPUT_ALTERING, INPUT_PRESERVING):
        raise ValueError(f"unknown transducer class {mode!r}")
    if theta.alphabet != t.alphabet:
        raise ValueError("permutation alphabet does not match the transducer")
    if max_len < 0:
        raise ValueError(f"word bound must be at least 0, not {max_len}")
    if t._checks is None:
        t._checks = {}
    key = (theta, mode, max_len)
    if key not in t._checks:
        t._checks[key] = _scan_words(t, theta, mode, max_len)
    return t._checks[key]


_BLOCK = 4096  # the most words one bitset covers, so a large bound needs no more memory


def _scan_words(t: Transducer, theta: Permutation, mode: str, max_len: int) -> Optional[str]:
    """``bounded_counterexample`` on all words of one length n at once.

    Bit x stands for the x-th word of length n in lexicographic order.  Node
    (q, i) of step s holds the words w for which a run of the filled view
    ``t.view()`` reaches q having read w[:i] and written theta(w)[:s - i].
    Every move moves one tape, so a step follows each move once and keeps the
    words whose letter under the moving head fits its label.  Past ``_BLOCK``
    words, blocks that fix the leading letters are walked in lexicographic order.
    """
    v = t.view().filled()
    sigma, pre = theta.alphabet, theta.inverse().image
    k, pos = len(sigma), sigma.position
    moves = [  # (tape, letter of w under the head, target); writing b needs theta^-1(b) there
        [(0, pos(a), q2) for a, q2 in ins or ()] + [(1, pos(pre(b)), q2) for b, q2 in outs or ()]
        for ins, outs in zip(v.ins, v.outs)  # None: the unused slot of a one-letter edge
    ]
    for n in range(1, max_len + 1):
        m = max(p for p in range(n + 1) if k**p <= _BLOCK)  # the letters one bitset spans
        full = (1 << k**m) - 1
        sizes = [k ** (m - 1 - p) for p in range(m)]
        # trailing letter p is c on runs of sizes[p] words at c * sizes[p], every k * sizes[p]
        tail = [[((1 << r) - 1 << c * r) * (full // ((1 << k * r) - 1)) for c in range(k)]
                for r in sizes]
        for prefix in product(range(k), repeat=n - m):
            # masks[p][c]: the words with w[p] = c; row n, which is also row -1, has none
            masks = [[full if c == d else 0 for c in range(k)] for d in prefix] + tail + [[0] * k]
            layer = {(q, 0): full for q in t.initial}
            for step in range(2 * n):
                ahead: dict[tuple[int, int], int] = {}
                for (q, i), words in layer.items():
                    rows = masks[i], masks[n - 1 - step + i if theta.antimorphic else step - i]
                    for tape, c, q2 in moves[q]:
                        if kept := words & rows[tape][c]:
                            key = q2, i + 1 - tape
                            ahead[key] = ahead.get(key, 0) | kept
                layer = ahead
            accepted = reduce(int.__or__, (w for (q, _), w in layer.items() if v.final[q]), 0)
            if found := accepted if mode == INPUT_ALTERING else full & ~accepted:
                index = (found & -found).bit_length() - 1
                letters = (*prefix, *(index // r % k for r in sizes))
                return "".join(sigma.symbols[c] for c in letters)
    return None
