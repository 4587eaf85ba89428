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

Both kinds are decidable for every transducer; the weak kind in polynomial
time by ``transducers._weak_pair``, which also chooses its route
(:func:`satisfies_W_general`).  A descriptor may still *assert* a
transducer class, which is sanity-checked on all short words and refuted
loudly with :class:`ClassAssertionRefuted`.  The input-altering assertion
sends the weak kind through the strict search; the input-preserving one is
only a checked contract, decided by the general weak route.  One private
dispatcher, ``_decide``, holds this route table; each public decider builds
theta(L) once, in ``_theta_l`` (the trie of its theta-words for a listed L).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .alphabets import Permutation
from .automata import (
    Nfa,
    _missing_word,
    _trie,
    complement as nfa_complement,
    intersect as nfa_intersect,
    list_words,
    resolve_state_cap,
    theta_image,
    union as nfa_union,
)
from .errors import ClassAssertionRefuted
from .transducers import (
    INPUT_ALTERING,
    INPUT_PRESERVING,
    Transducer,
    _weak_pair,
    accepts_pair,
    bounded_counterexample,
    image,
    inverse,
    restriction_search,
)

S_KIND = "S"
W_KIND = "W"
_KINDS = (S_KIND, W_KIND)
# the transducer classes, named as the descriptor's "class" field and the modes of ``bounded_counterexample``
UNRESTRICTED = "unrestricted"
CLASSES = (UNRESTRICTED, INPUT_ALTERING, INPUT_PRESERVING)


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
        if self.asserted_class not in CLASSES:
            raise ValueError(f"asserted_class must be one of {CLASSES}, got {self.asserted_class!r}")
        if self.transducer.alphabet != self.theta.alphabet:
            raise ValueError("transducer and permutation alphabets differ")


@dataclass
class Verdict:
    """Outcome of a decision procedure.

    ``witness`` explains a negative verdict: a pair of language words for
    satisfaction questions, a single addable word for maximality.  On the
    strict searches (``decider`` ``"satisfies_S"``, the altering route's
    too) ``stats["restriction_states"]`` and ``["restriction_edges"]`` count
    the triples explored up to the first group holding a hit (all when none
    does) and the transitions leaving them.  On the weak route they count
    the triples and edges its walk found up to an accepting triple of
    nonzero balance, when it stops at one, and otherwise give the trimmed
    restriction's size, also when an edge of it breaks the balance
    labelling.  A route behind a class check adds ``assertion_bound``.
    Triples are counted over theta(L) as ``_theta_l`` builds it.
    """

    satisfied: bool
    witness: object = None
    decider: str = ""
    stats: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.satisfied


def _theta_l(p: PropertyDescriptor, l: Nfa) -> Nfa:
    """Check L against the property and build theta(L) once: a trie of theta-words if ``list_words`` lists L."""
    if l.alphabet != p.theta.alphabet:
        raise ValueError("language alphabet does not match the property")
    words = list_words(l) if p.theta.antimorphic and len(l.final) > 1 else None
    return theta_image(l, p.theta) if words is None else Nfa._trusted(l.alphabet, *_trie(map(p.theta, words)))


_REFUTED = {
    INPUT_ALTERING: "transducer asserted input-altering but maps {!r} onto its theta-image",
    INPUT_PRESERVING: "transducer asserted input-preserving but misses theta({!r})",
}


def _check_assertion(p: PropertyDescriptor, mode: str, assertion_bound: int) -> None:
    """Raise :class:`ClassAssertionRefuted` when a short word refutes the class."""
    refutation = bounded_counterexample(p.transducer, p.theta, mode, assertion_bound)
    if refutation is not None:
        raise ClassAssertionRefuted(_REFUTED[mode].format(refutation), refutation)


def _decode_intersection_witness(
    p: PropertyDescriptor, l: Nfa, y: str, avoid_self: bool = False
) -> tuple[str, str]:
    """The witness (u, v) of a least offending output y: ``v = theta^-1(y)``
    and u the least shortest word of L mapped to y, by the search with T's
    tapes swapped.  ``avoid_self`` prefers a preimage other than v if any.
    """
    v = p.theta.inverse()(y)
    t, on_y = p.transducer, Nfa.word(p.theta.alphabet, y)
    u = restriction_search(t, on_y, l, swapped=True)[0]
    assert u is not None, "caller must pass a realized output"
    if avoid_self and u == v:
        others = nfa_intersect(l, nfa_complement(Nfa.word(p.theta.alphabet, v)))
        # None when v is the only preimage; never "", which would have been u
        u = restriction_search(t, on_y, others, swapped=True)[0] or u
    return u, v


def _strict(p: PropertyDescriptor, l: Nfa, tl: Nfa, nonempty: bool = False) -> Verdict:
    """The strict search of T on L against ``tl`` = theta(L).  ``nonempty`` is the input-altering
    weak route: it skips the self-pair ("", ""), the one pair where the two readings part for such
    machines, and a hit that still decodes to a self-pair refutes the assertion."""
    y, states, transitions = restriction_search(p.transducer, l, tl, nonempty=nonempty)
    stats = {"restriction_states": states, "restriction_edges": transitions}
    if y is None:
        return Verdict(True, None, "satisfies_S", stats)
    u, v = _decode_intersection_witness(p, l, y, avoid_self=nonempty)
    if nonempty and u == v:
        raise ClassAssertionRefuted(_REFUTED[INPUT_ALTERING].format(u), u)
    return Verdict(False, (u, v), "satisfies_S", stats)


def _weak(p: PropertyDescriptor, l: Nfa, tl: Nfa) -> Verdict:
    """The weak decision of ``transducers._weak_pair`` on L and ``tl`` = theta(L)."""
    bad, route, states, transitions = _weak_pair(p.transducer, l, tl, p.theta)
    stats = {"restriction_states": states, "restriction_edges": transitions}
    if route is not None:
        stats["route"] = route
    if bad is None:
        return Verdict(True, None, "satisfies_W_general", stats)
    return Verdict(False, (bad[0], p.theta.inverse()(bad[1])), "satisfies_W_general", stats)


def _decide(p: PropertyDescriptor, l: Nfa, tl: Nfa, asserted_class: str, assertion_bound: int) -> Verdict:
    """The route table: the strict kind takes the strict search; the weak kind
    ``_weak_pair``, or, once an asserted class passes its bounded check, the
    strict search without ("", "") if the class is input-altering."""
    if p.kind == S_KIND:
        return _strict(p, l, tl)
    if asserted_class == UNRESTRICTED:
        return _weak(p, l, tl)
    _check_assertion(p, asserted_class, assertion_bound)
    verdict = _strict(p, l, tl, nonempty=True) if asserted_class == INPUT_ALTERING else _weak(p, l, tl)
    verdict.stats["assertion_bound"] = assertion_bound
    return verdict


def satisfies_S(p: PropertyDescriptor, l: Nfa) -> Verdict:
    """Decide the strict reading: theta(L) shares no pair with T on L."""
    return _strict(p, l, _theta_l(p, l))


def satisfies_W_general(p: PropertyDescriptor, l: Nfa) -> Verdict:
    """Weak satisfaction, exact for every transducer.

    The property holds iff every pair (x, y) of the restricted relation S,
    T with inputs in L and outputs in theta(L), satisfies y = theta(x).
    ``transducers._weak_pair`` decides that by the balance argument of
    Beal, Carton, Prieur and Sakarovitch, "Squaring transducers" (TCS 292,
    2003), in polynomial time for every permutation, and chooses the route:
    ``stats["route"]`` is ``"length"`` when a pair of unequal lengths
    decided, ``"acyclic"`` when the pairs of an acyclic S were listed under
    an antimorphic theta (the witness is then the least offending pair),
    ``"mismatch"`` for the polynomial search; an empty S has no route.
    """
    if p.kind != W_KIND:
        raise ValueError("satisfies_W_general expects a weak-kind descriptor")
    return _weak(p, l, _theta_l(p, l))


def satisfies_W_preserving(p: PropertyDescriptor, l: Nfa, assertion_bound: int = 6) -> Verdict:
    """Weak satisfaction for an asserted input-preserving transducer.

    The assertion (theta(w) is among T's outputs on every w) is checked on
    all words up to ``assertion_bound`` and refuted loudly; the answer
    itself comes from :func:`satisfies_W_general`, which is exact whether
    or not the assertion holds beyond the bound.
    """
    if p.kind != W_KIND:
        raise ValueError("satisfies_W_preserving expects a weak-kind descriptor")
    return _decide(p, l, _theta_l(p, l), INPUT_PRESERVING, assertion_bound)


def satisfies(p: PropertyDescriptor, l: Nfa, assertion_bound: int = 6) -> Verdict:
    """Decide satisfaction, dispatching on kind and asserted class."""
    return _decide(p, l, _theta_l(p, l), p.asserted_class, assertion_bound)


def _extension_universe(p: PropertyDescriptor, l: Nfa, tl: Nfa) -> Nfa:
    """Words that can never be added to L: L itself plus both hit images (``tl`` = theta(L)).

    No word outside it takes part in a violation with L.  Built only once
    :func:`_blocks_empty_word`, the one reader of the strict self-hit (ε, ε), finds ε blocked.
    """
    t = p.transducer
    theta_of_outputs = theta_image(image(t, l), p.theta.inverse())
    inputs_hitting = image(inverse(t), tl)
    return nfa_union(l, nfa_union(theta_of_outputs, inputs_hitting))


def _blocks_empty_word(p: PropertyDescriptor, l: Nfa, tl: Nfa) -> bool:
    """Is ε in L, an output of T on L, an input T maps into ``tl`` = theta(L) or, if strict, (ε, ε) in T?"""
    t, eps = p.transducer, Nfa.epsilon(l.alphabet)
    return bool(l.closure(l.initial) & l.final) or (
        restriction_search(t, l, eps)[0] is not None
        or restriction_search(t, eps, tl)[0] is not None
        or p.kind == S_KIND and accepts_pair(t, "", "")
    )


def is_maximal(
    p: PropertyDescriptor,
    l: Nfa,
    assertion_bound: int = 6,
    state_cap: Optional[int] = None,
) -> Verdict:
    """Is the (satisfying) language maximal for the property?

    L is maximal when no word can be added without breaking satisfaction, i.e. when the extension
    universe covers every word; the witness of a negative verdict is a shortest addable word.  After
    the hypotheses, the empty word is decided from the universe's parts, and only a blocked one has
    the universe built and searched, all on one theta(L): ``stats["route"]`` is ``"empty-word"`` or
    ``"subsets"``, ``universe_states`` the states built, and on ``"subsets"`` ``forward_subsets``,
    ``backward_subsets`` and ``answered_by`` say how ``missing_word`` went.  A strict-kind witness w
    with theta(w) in T(w), which the universe leaves out and the bounded assertion check let pass,
    refutes the assertion loudly.
    """
    if p.kind == S_KIND and p.asserted_class != INPUT_ALTERING:
        raise ValueError(
            "maximality for the strict kind is undecidable in general; "
            "it requires an input-altering class assertion"
        )
    tl = _theta_l(p, l)
    base = _decide(p, l, tl, p.asserted_class, assertion_bound)
    if not base.satisfied:
        raise ValueError(
            f"language does not satisfy the property (witness {base.witness!r}); "
            "maximality is only defined for satisfying languages"
        )
    if p.kind == S_KIND:
        _check_assertion(p, INPUT_ALTERING, assertion_bound)
    cap = resolve_state_cap(state_cap)  # a bad cap raises even when ε answers
    stats = {"route": "empty-word", "universe_states": 0, "assertion_bound": assertion_bound}
    if not _blocks_empty_word(p, l, tl):
        return Verdict(False, "", "is_maximal", stats)
    universe = nfa_union(Nfa.epsilon(l.alphabet), _extension_universe(p, l, tl))  # ε is blocked, as just decided
    w, forward, backward, answered_by = _missing_word(universe, cap)
    stats.update(route="subsets", universe_states=universe.n_states, forward_subsets=forward,
                 backward_subsets=backward, answered_by=answered_by)
    if w is None:
        return Verdict(True, None, "is_maximal", stats)
    if p.kind == S_KIND and accepts_pair(p.transducer, w, p.theta(w)):
        raise ClassAssertionRefuted(_REFUTED[INPUT_ALTERING].format(w), w)
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
    w = is_maximal(p, l, assertion_bound, state_cap).witness
    return w if w is not None and len(w) <= max_len else None
