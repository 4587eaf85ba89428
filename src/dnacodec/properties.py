"""Transducer-described code properties and their decision procedures.

A :class:`PropertyDescriptor` bundles a transducer T, a permutation theta
and a *kind*:

* kind ``"S"`` (strict): a language L satisfies the property when no word
  of theta(L) is an output of T on any input from L — the relation
  ``T`` restricted to inputs in L and outputs in theta(L) is empty.
* kind ``"W"`` (weak): outputs that merely reproduce the theta-image of
  the *same* input word are tolerated; only cross-word hits violate the
  property.  Equivalently, every pair of the restricted relation must lie
  on the graph of theta.

The weak kind is undecidable for arbitrary transducers' class claims, so
the deciders branch on the *asserted* transducer class (input-altering /
input-preserving / none) and sanity-check the assertion on all short words
before trusting it, failing hard with :class:`ClassAssertionRefuted` when
the assertion is demonstrably false.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .alphabets import Permutation
from .automata import (
    Nfa,
    accepts,
    complement as nfa_complement,
    concat,
    intersect as nfa_intersect,
    missing_word,
    shortest_word,
    star,
    theta_image,
    union as nfa_union,
)
from .errors import ClassAssertionRefuted, ResourceLimitError
from .graphs import cycle_states, topological_order
from .transducers import (
    Transducer,
    _subset_identity,
    accepts_pair,
    bounded_counterexample,
    enumerate_pairs,
    image,
    included_in_recognizable,
    inverse,
    is_functional,
    is_length_preserving,
    normalize,
    relation_empty,
    restrict_input,
    restriction_search,
    trim,
)

S_KIND = "S"
W_KIND = "W"
UNRESTRICTED = "unrestricted"
INPUT_ALTERING = "theta_input_altering"
INPUT_PRESERVING = "theta_input_preserving"

_KINDS = (S_KIND, W_KIND)
_CLASSES = (UNRESTRICTED, INPUT_ALTERING, INPUT_PRESERVING)


@dataclass(frozen=True)
class PropertyDescriptor:
    """A code property: transducer + permutation + kind + class assertion."""

    transducer: Transducer
    theta: Permutation
    kind: str = S_KIND
    asserted_class: str = UNRESTRICTED
    name: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.asserted_class not in _CLASSES:
            raise ValueError(f"asserted_class must be one of {_CLASSES}, got {self.asserted_class!r}")
        if self.transducer.alphabet != self.theta.alphabet:
            raise ValueError("transducer and permutation alphabets differ")


@dataclass
class Verdict:
    """Outcome of a decision procedure.

    ``witness`` explains a negative verdict: a pair of language words for
    satisfaction questions, a single addable word for maximality.  On the
    strict and altering routes ``stats["restriction_states"]`` and
    ``stats["restriction_edges"]`` count the triples and transitions the
    search explored; elsewhere they give the size of the built restriction.
    """

    satisfied: bool
    witness: object = None
    decider: str = ""
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.satisfied


def _check_language(p: PropertyDescriptor, l: Nfa) -> None:
    if l.alphabet != p.theta.alphabet:
        raise ValueError("language alphabet does not match the property")


_REFUTED = {
    "altering": "transducer asserted input-altering but maps {!r} onto its theta-image",
    "preserving": "transducer asserted input-preserving but misses theta({!r})",
}


def _check_assertion(p: PropertyDescriptor, mode: str, assertion_bound: int) -> None:
    """Raise :class:`ClassAssertionRefuted` when a short word refutes the class."""
    refutation = bounded_counterexample(p.transducer, p.theta, mode, assertion_bound)
    if refutation is not None:
        raise ClassAssertionRefuted(_REFUTED[mode].format(refutation), refutation)


def _decode_intersection_witness(
    p: PropertyDescriptor, l: Nfa, region: Nfa, avoid_self: bool = False
) -> tuple[str, str]:
    """Turn the region of a nonempty ``restriction_search`` into a witness pair (u, v).

    ``v = theta^-1(y)`` for a shortest offending output y, and ``u`` is a
    shortest language word producing y.  With ``avoid_self`` a second
    preimage different from v is preferred when one exists.
    """
    y = shortest_word(region)
    assert y is not None, "caller must ensure the restriction is nonempty"
    v = p.theta.inverse()(y)
    on_y = restrict_input(normalize(p.transducer), l, Nfa.word(p.theta.alphabet, y))
    preimages = image(inverse(on_y))
    u = shortest_word(preimages)
    assert u is not None
    if avoid_self and u == v:
        others = nfa_intersect(
            preimages, nfa_complement(Nfa.word(p.theta.alphabet, v))
        )
        u2 = shortest_word(others)
        if u2 is not None:
            u = u2
    return u, v


def satisfies_S(p: PropertyDescriptor, l: Nfa) -> Verdict:
    """Decide the strict reading: theta(L) shares no pair with T on L.

    Also used by the weak dispatcher for input-altering transducers, where
    the two readings coincide on nonempty words.  The restriction is
    searched layer by layer of output length and the search stops at the
    first length that holds a violation, so ``restriction_states`` and
    ``restriction_edges`` count the explored triples and transitions, not
    a built product.
    """
    _check_language(p, l)
    region, states, transitions = restriction_search(p.transducer, l, theta_image(l, p.theta))
    stats = {"restriction_states": states, "restriction_edges": transitions}
    if region is None:
        return Verdict(True, None, "satisfies_S", stats)
    return Verdict(False, _decode_intersection_witness(p, l, region), "satisfies_S", stats)


def satisfies_W_preserving(
    p: PropertyDescriptor, l: Nfa, assertion_bound: int = 6
) -> Verdict:
    """Weak satisfaction for an asserted input-preserving transducer.

    When theta(w) is always among T's outputs on w, the weak property
    holds iff the restricted relation is functional (the guaranteed
    diagonal pair is then the only output per input) — plus a separate
    guard for the empty word, which the preserving assumption does not
    cover.  The assertion is sanity-checked on all words up to
    ``assertion_bound`` first.
    """
    _check_language(p, l)
    if p.kind != W_KIND:
        raise ValueError("satisfies_W_preserving expects a weak-kind descriptor")
    _check_assertion(p, "preserving", assertion_bound)
    s = restrict_input(p.transducer, l, theta_image(l, p.theta))
    stats = {"restriction_states": s.n_states, "restriction_edges": len(s.edges)}
    stats["assertion_bound"] = assertion_bound
    ok, wit = is_functional(s)
    if not ok:
        assert wit is not None
        x, y1, y2 = wit
        y = y1 if y1 != p.theta(x) else y2
        return Verdict(False, (x, p.theta.inverse()(y)), "satisfies_W_preserving", stats)
    if accepts(l, ""):
        on_empty = restrict_input(s, Nfa.epsilon(s.alphabet), Nfa.nonempty(s.alphabet))
        y = shortest_word(image(on_empty))
        if y is not None:
            return Verdict(
                False, ("", p.theta.inverse()(y)), "satisfies_W_preserving", stats
            )
    return Verdict(True, None, "satisfies_W_preserving", stats)


def _dag_pairs(t: Transducer, item_cap: int) -> list[tuple[str, str]]:
    """All realized pairs of an acyclic normalized transducer."""
    succ: list[list[tuple[str, str, int]]] = [[] for _ in range(t.n_states)]
    for src, x, y, dst in t.edges:
        succ[src].append((x, y, dst))
    order = topological_order(t.n_states, t.edges)
    if order is None:
        raise ResourceLimitError("pair enumeration requires an acyclic machine")
    suffixes: list[set[tuple[str, str]]] = [set() for _ in range(t.n_states)]
    total = 0
    for node in reversed(order):  # children before parents
        bucket = suffixes[node]
        if node in t.final:
            bucket.add(("", ""))
        for x, y, dst in succ[node]:
            for sx, sy in suffixes[dst]:
                bucket.add((x + sx, y + sy))
        total += len(bucket)
        if total > item_cap:
            raise ResourceLimitError("pair enumeration exceeded its cap")
    result: set[tuple[str, str]] = set()
    for q in t.initial:
        result |= suffixes[q]
    return sorted(result, key=lambda p: (len(p[0]) + len(p[1]), p))


def _pump_triples(
    s: Transducer, theta: Permutation, item_cap: int
) -> list[tuple[str, str, str]]:
    """Word triples describing how long pairs of ``s`` can look.

    For every simple path from an initial state to a state p on a cycle
    (labels x1/y1) and every simple loop at p (labels x2/y2, necessarily
    length-balanced once the length-preservation test has passed), each
    split x2 = u·v with theta^-1(y2) = v·u contributes the triple
    (x1, x2, u + theta^-1(y1)).  Any pair of the relation that is longer
    than the state count and lies on the graph of theta belongs to
    (x1 x2* x3) x theta(x1 x2* x3) for one of these triples.
    """
    theta_inv = theta.inverse()
    adj: list[list[tuple[str, str, int]]] = [[] for _ in range(s.n_states)]
    for src, x, y, dst in s.edges:
        adj[src].append((x, y, dst))
    cyc = cycle_states(s.n_states, s.edges)

    prefixes: list[tuple[str, str, int]] = []
    budget = item_cap

    def walk_prefixes(q0: int) -> None:
        nonlocal budget
        seen = {q0}
        stack: list[tuple[int, str, str, int]] = [(q0, "", "", 0)]
        while stack:
            q, x, y, i = stack[-1]
            if i == 0:
                budget -= 1
                if budget < 0:
                    raise ResourceLimitError("prefix enumeration exceeded its cap")
                if q in cyc:
                    prefixes.append((x, y, q))
            if i < len(adj[q]):
                stack[-1] = (q, x, y, i + 1)
                ex, ey, dst = adj[q][i]
                if dst not in seen:
                    seen.add(dst)
                    stack.append((dst, x + ex, y + ey, 0))
            else:
                seen.discard(q)
                stack.pop()

    for q0 in sorted(s.initial):
        walk_prefixes(q0)

    loops_at: dict[int, list[tuple[str, str]]] = {}

    def walk_loops(p: int) -> None:
        nonlocal budget
        seen: set[int] = set()
        stack: list[tuple[int, str, str, int]] = [(p, "", "", 0)]
        while stack:
            q, x, y, i = stack[-1]
            if i < len(adj[q]):
                stack[-1] = (q, x, y, i + 1)
                ex, ey, dst = adj[q][i]
                budget -= 1
                if budget < 0:
                    raise ResourceLimitError("loop enumeration exceeded its cap")
                if dst == p:
                    loops_at[p].append((x + ex, y + ey))
                elif dst not in seen:
                    seen.add(dst)
                    stack.append((dst, x + ex, y + ey, 0))
            else:
                if q != p:
                    seen.discard(q)
                stack.pop()

    triples: set[tuple[str, str, str]] = set()
    for _x1, _y1, p in prefixes:
        if p not in loops_at:
            loops_at[p] = []
            walk_loops(p)
    for x1, y1, p in prefixes:
        tail = theta_inv(y1)
        for x2, y2 in loops_at.get(p, ()):
            if not x2 or len(x2) != len(y2):
                continue  # unbalanced loops cannot carry diagonal pairs
            rotated = theta_inv(y2)
            for d in range(len(x2)):
                if x2[d:] + x2[:d] == rotated:
                    triples.add((x1, x2, x2[:d] + tail))
                    if len(triples) > item_cap:
                        raise ResourceLimitError("triple enumeration exceeded its cap")
    return sorted(triples)


def satisfies_W_general(
    p: PropertyDescriptor,
    l: Nfa,
    item_cap: int = 10**6,
    state_cap: Optional[int] = None,
) -> Verdict:
    """Weak satisfaction with no usable class assertion.

    The property holds iff every pair (x, y) of the restricted relation S
    satisfies y = theta(x).  For a morphic theta this is a single
    partial-identity check after relabelling outputs through theta^-1.
    For an antimorphic involution: first require S length-preserving, then
    compare all pairs with input up to the state count N explicitly, and
    cover the longer pairs by the pump-triple rectangles — sound because a
    rectangle (x1 x2* x3) x theta(x1 x2* x3) contains no off-diagonal pair
    of equal lengths, complete because every long diagonal pair factors
    through a simple prefix and a simple loop of S.
    """
    _check_language(p, l)
    if p.kind != W_KIND:
        raise ValueError("satisfies_W_general expects a weak-kind descriptor")
    theta = p.theta
    if theta.antimorphic and not theta.is_involution():
        raise ValueError(
            "weak satisfaction for antimorphic permutations of order > 2 is not supported"
        )
    s = trim(restrict_input(p.transducer, l, theta_image(l, theta)))
    stats = {"restriction_states": s.n_states, "restriction_edges": len(s.edges)}
    decider = "satisfies_W_general"
    if s.n_states == 0:
        return Verdict(True, None, decider, stats)

    if not theta.antimorphic:
        inv = theta.inverse()
        relabeled = Transducer(
            s.alphabet,
            s.n_states,
            tuple(
                (src, x, inv.image(y) if y else y, dst) for src, x, y, dst in s.edges
            ),
            s.initial,
            s.final,
        )
        relabeled._norm = relabeled
        ok, wit = _subset_identity(relabeled, state_cap)
        if ok:
            return Verdict(True, None, decider, stats)
        assert wit is not None
        x, v = wit
        return Verdict(False, (x, v), decider, stats)

    ok, wit = is_length_preserving(s)
    if not ok:
        assert wit is not None
        x, y = wit
        return Verdict(False, (x, theta.inverse()(y)), decider, stats)

    def check_pairs(pairs: list[tuple[str, str]]) -> Optional[tuple[str, str]]:
        for x, y in pairs:
            if y != theta(x):
                return x, theta.inverse()(y)
        return None

    if topological_order(s.n_states, s.edges) is not None:
        stats["route"] = "acyclic"
        bad = check_pairs(_dag_pairs(s, item_cap))
        if bad is not None:
            return Verdict(False, bad, decider, stats)
        return Verdict(True, None, decider, stats)

    n = s.n_states
    stats["route"] = "pumping"
    short = trim(restrict_input(s, Nfa.length_at_most(s.alphabet, n)))
    bad = check_pairs(_dag_pairs(short, item_cap))
    if bad is not None:
        return Verdict(False, bad, decider, stats)
    long_part = trim(restrict_input(s, Nfa.length_more_than(s.alphabet, n)))
    if relation_empty(long_part):
        return Verdict(True, None, decider, stats)
    triples = _pump_triples(s, theta, item_cap)
    stats["triples"] = len(triples)
    rectangles = []
    for x1, x2, x3 in triples:
        a_t = concat(
            Nfa.word(s.alphabet, x1),
            concat(star(Nfa.word(s.alphabet, x2)), Nfa.word(s.alphabet, x3)),
        )
        b_t = concat(
            Nfa.word(s.alphabet, theta(x3)),
            concat(star(Nfa.word(s.alphabet, theta(x2))), Nfa.word(s.alphabet, theta(x1))),
        )
        rectangles.append((a_t, b_t))
    ok, wit = included_in_recognizable(long_part, rectangles, state_cap)
    if ok:
        return Verdict(True, None, decider, stats)
    assert wit is not None
    x, y = wit
    if y != theta(x):
        return Verdict(False, (x, theta.inverse()(y)), decider, stats)
    # The escaping pair happens to be diagonal; some other pair is not.
    bound = 2
    while bound <= 4 * (n + 2):
        bad = check_pairs(enumerate_pairs(s, bound))
        if bad is not None:
            return Verdict(False, bad, decider, stats)
        bound *= 2
    raise ResourceLimitError("could not extract an off-diagonal witness pair")


def _altering_route(
    p: PropertyDescriptor, l: Nfa, assertion_bound: int
) -> Verdict:
    """Weak satisfaction for an asserted input-altering transducer.

    For such machines the weak and strict readings agree on nonempty
    words; the only divergence is the self-pair on the empty word, which
    the weak reading tolerates and the strict one does not.
    """
    _check_assertion(p, "altering", assertion_bound)
    lt = theta_image(l, p.theta)
    stats = {"restriction_states": 0, "restriction_edges": 0, "assertion_bound": assertion_bound}
    for nonempty in (False, True):
        region, states, transitions = restriction_search(p.transducer, l, lt, nonempty)
        stats["restriction_states"] += states
        stats["restriction_edges"] += transitions
        if region is None:
            return Verdict(True, None, "satisfies_S", stats)
        u, v = _decode_intersection_witness(p, l, region, avoid_self=True)
        if u != v:
            return Verdict(False, (u, v), "satisfies_S", stats)
        if u != "" or nonempty:
            raise ClassAssertionRefuted(_REFUTED["altering"].format(u), u)
        # Only the tolerated empty-word self-pair hit: search again for a
        # pair that takes at least one move.


def satisfies(
    p: PropertyDescriptor,
    l: Nfa,
    assertion_bound: int = 6,
    item_cap: int = 10**6,
    state_cap: Optional[int] = None,
) -> Verdict:
    """Decide satisfaction, dispatching on kind and asserted class."""
    _check_language(p, l)
    if p.kind == S_KIND:
        return satisfies_S(p, l)
    if p.asserted_class == INPUT_ALTERING:
        return _altering_route(p, l, assertion_bound)
    if p.asserted_class == INPUT_PRESERVING:
        return satisfies_W_preserving(p, l, assertion_bound)
    return satisfies_W_general(p, l, item_cap, state_cap)


def _extension_universe(p: PropertyDescriptor, l: Nfa) -> Nfa:
    """Words that can never be added to L: L itself plus both hit images.

    A fresh word w outside this union cannot participate in any violation
    with the existing language; for the strict kind the empty word is
    additionally blocked whenever the transducer realizes (ε, ε), because
    the strict reading rejects even the self-hit of the new word.
    """
    tn = normalize(p.transducer)
    theta_of_outputs = theta_image(image(tn, l), p.theta.inverse())
    inputs_hitting = image(inverse(tn), theta_image(l, p.theta))
    universe = nfa_union(l, nfa_union(theta_of_outputs, inputs_hitting))
    if p.kind == S_KIND and accepts_pair(tn, "", ""):
        universe = nfa_union(universe, Nfa.epsilon(l.alphabet))
    return universe


def _require_maximality_hypotheses(
    p: PropertyDescriptor, l: Nfa, assertion_bound: int
) -> Verdict:
    base = satisfies(p, l, assertion_bound)
    if not base.satisfied:
        raise ValueError(
            f"language does not satisfy the property (witness {base.witness!r}); "
            "maximality is only defined for satisfying languages"
        )
    if p.kind == S_KIND:
        if p.asserted_class != INPUT_ALTERING:
            raise ValueError(
                "maximality for the strict kind is undecidable in general; "
                "it requires an input-altering class assertion"
            )
        _check_assertion(p, "altering", assertion_bound)
    return base


def is_maximal(
    p: PropertyDescriptor,
    l: Nfa,
    assertion_bound: int = 6,
    state_cap: Optional[int] = None,
) -> Verdict:
    """Is the (satisfying) language maximal for the property?

    L is maximal when no word can be added without breaking satisfaction,
    i.e. when the extension universe covers every word.  The witness of a
    negative verdict is a shortest addable word.
    """
    _check_language(p, l)
    _require_maximality_hypotheses(p, l, assertion_bound)
    universe = _extension_universe(p, l)
    w = missing_word(universe, state_cap)
    stats = {"universe_states": universe.n_states}
    if w is None:
        return Verdict(True, None, "is_maximal", stats)
    return Verdict(False, w, "is_maximal", stats)


def find_extension(
    p: PropertyDescriptor,
    l: Nfa,
    max_len: int,
    assertion_bound: int = 6,
    state_cap: Optional[int] = None,
) -> Optional[str]:
    """A shortest word that can be added to L, or None if none exists
    within ``max_len``."""
    _check_language(p, l)
    _require_maximality_hypotheses(p, l, assertion_bound)
    w = missing_word(_extension_universe(p, l), state_cap)
    if w is not None and len(w) <= max_len:
        return w
    return None
