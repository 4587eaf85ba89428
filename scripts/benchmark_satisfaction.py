#!/usr/bin/env python3
"""Measure strict- and weak-satisfaction throughput on random machines.

Generates random transducers and NFAs of configurable size, runs the strict
decider on each pair, and reports how many product states its search
explored, the wall time of the whole call (the garbage collector runs
before each timed call and is off during it, so the times compare across
cases and commits), and how much of the transducer's normal form the
call built: the states of the transducer it filled and the word-label
edges it split into chains.  The search reads the transducer through its
on-demand view, which splits the edges of a state when it first touches
it, so a violation found early leaves most of it unbuilt.  The same call
is then timed again by phase on a fresh copy of the machine: building the
view's edge index, the theta-image plus the grouped restriction search,
the bit walk that finishes a satisfied search (``transducers._bit_walk``,
timed through a wrapper; 0 where the search stops before it), and decoding
the witness.  The weak decider then runs on another fresh copy,
as a W-kind descriptor, and its wall time and the lengths of its witness
are printed beside.

Random machines are almost always violated early, so every third case is
a parity-structured pair that satisfies the property: every path into a
final state of the transducer has odd ``|x| + |y|``, while the language
and its theta-image hold only words of even length.  Such a call explores
the whole product, and shows the walk that finishes a satisfied search.

``--universality K`` times ``missing_word`` instead, for k = 1..K, on two
near-universal DNA languages: "the (k+1)-th letter from the end is not C",
whose forward subset search grows exponentially with k, and its mirror
"the (k+1)-th letter from the start is not C", whose backward search does.
Beside each time it prints how many subsets the forward and the backward
search saw, as the two take turns, and which of them answered.

``--maximality N`` times ``is_maximal`` instead, per named DNA property
(every weak one and every input-altering normal one), on N random codes
over {A,C} of four words each, which satisfy all of them.  Beside the
whole call it splits the time into its phases, through the private helpers
``is_maximal`` runs them with: building theta(L) once, the hypotheses check
(satisfaction and class assertion), the empty-word check, building the
extension universe and ``missing_word`` on it.  The last two are timed on
every code, as a decider that always builds the universe would run them;
``is_maximal`` runs them only on the codes whose empty word is blocked,
which the ``built`` column counts.

Usage:
    python scripts/benchmark_satisfaction.py
    python scripts/benchmark_satisfaction.py --transducer-edges 5000 --cases 8
    python scripts/benchmark_satisfaction.py --universality 13
    python scripts/benchmark_satisfaction.py --maximality 12
"""

from __future__ import annotations

import argparse
import gc
import random
import statistics
import time
from typing import Optional

from dnacodec import automata, properties, transducers
from dnacodec.alphabets import DNA, dna_delta
from dnacodec.automata import Nfa, missing_word
from dnacodec.dna import NORMAL, PROPERTY_NAMES, WEAK, named_property
from dnacodec.errors import DnaCodecError
from dnacodec.properties import S_KIND, W_KIND, PropertyDescriptor, satisfies_S, satisfies_W_general
from dnacodec.transducers import Transducer, restriction_search


def random_transducer(rng: random.Random, n_states: int, n_edges: int) -> Transducer:
    letters = sorted(DNA)
    edges = []
    for q in range(n_states - 1):
        edges.append((q, rng.choice(letters), rng.choice(letters), q + 1))
    while len(edges) < n_edges:
        a = rng.choice(letters) if rng.random() > 0.1 else ""
        b = rng.choice(letters) if rng.random() > 0.1 else ""
        edges.append((rng.randrange(n_states), a, b, rng.randrange(n_states)))
    finals = frozenset(rng.sample(range(n_states), max(1, n_states // 4)))
    return Transducer(DNA, n_states, tuple(edges), frozenset({0}), finals)


def random_language(rng: random.Random, n_states: int, dense: bool) -> Nfa:
    letters = sorted(DNA)
    if dense:
        edges = [
            (q, a, rng.randrange(n_states)) for q in range(n_states) for a in letters
        ]
    else:
        edges = [(q, rng.choice(letters), q + 1) for q in range(n_states - 1)]
        while len(edges) < 2 * n_states:
            edges.append(
                (rng.randrange(n_states), rng.choice(letters), rng.randrange(n_states))
            )
    finals = frozenset(rng.sample(range(n_states), max(1, n_states // 2)))
    return Nfa(DNA, n_states, tuple(edges), frozenset({0}), finals)


def parity_transducer(rng: random.Random, n_states: int, n_edges: int) -> Transducer:
    """A random transducer whose final states are all reached with odd |x| + |y|."""
    letters = sorted(DNA)
    par = [0] + [rng.randrange(2) for _ in range(n_states - 1)]  # of |x| + |y| into each state

    def edge(p: int, q: int) -> tuple[int, str, str, int]:
        if par[p] == par[q]:
            if rng.random() < 0.05:
                return (p, "", "", q)
            return (p, rng.choice(letters), rng.choice(letters), q)
        if rng.random() < 0.5:
            return (p, rng.choice(letters), "", q)
        return (p, "", rng.choice(letters), q)

    edges = [edge(q, q + 1) for q in range(n_states - 1)]
    while len(edges) < n_edges:
        edges.append(edge(rng.randrange(n_states), rng.randrange(n_states)))
    odd = [q for q in range(n_states) if par[q]]
    finals = frozenset(rng.sample(odd, min(len(odd), max(1, n_states // 4))))
    return Transducer(DNA, n_states, tuple(edges), frozenset({0}), finals)


def even_language(rng: random.Random, n_states: int) -> Nfa:
    """A complete random NFA that accepts only words of even length."""
    letters = sorted(DNA)
    par = [0] + [rng.randrange(2) for _ in range(n_states - 1)]
    if 1 not in par:
        par[-1] = 1
    even = [q for q in range(n_states) if not par[q]]
    odd = [q for q in range(n_states) if par[q]]
    edges = [(q, a, rng.choice(even if par[q] else odd)) for q in range(n_states) for a in letters]
    finals = frozenset(rng.sample(even, len(even) // 2 + 1))
    return Nfa(DNA, n_states, tuple(edges), frozenset({0}), finals)


def near_universal(k: int, letter: str) -> Nfa:
    """DNA words of length <= k, or whose (k+1)-th letter from the end is not ``letter``."""
    edges = [(i, a, i + 1) for i in range(k) for a in DNA]
    guess = k + 1
    edges += [(guess, a, guess) for a in DNA]
    edges += [(guess, a, guess + 1) for a in DNA if a != letter]
    edges += [(guess + 1 + j, a, guess + 2 + j) for j in range(k) for a in DNA]
    n = guess + 2 + k
    return Nfa(DNA, n, tuple(edges), frozenset({0, guess}), frozenset(range(k + 1)) | {n - 1})


def reverse(m: Nfa) -> Nfa:
    """``m`` read backwards: its edges flipped, its initial and final states swapped."""
    return Nfa(m.alphabet, m.n_states, tuple((d, a, s) for s, a, d in m.edges), m.final, m.initial)


def universality(max_k: int) -> None:
    for k in range(1, max_k + 1):
        end = near_universal(k, "C")
        for shape, m in (("from the end", end), ("from the start", reverse(end))):
            times = sorted(timed(missing_word, m)[1] for _ in range(5))
            word, forward, backward, answered_by = automata._missing_word(m)
            print(
                f"k={k:2} {shape:14} {word}: {times[2] * 1e3:.2f}ms (median of 5), "
                f"forward {forward:,} subsets, backward {backward:,}, answered {answered_by}"
            )


def phases(p: PropertyDescriptor, language: Nfa) -> tuple[float, float, float, float]:
    """Seconds of ``satisfies_S`` by phase on a fresh copy of the machine: the view's
    edge index, the theta-image plus the grouped restriction search, the bit walk,
    the witness decoding."""
    t = p.transducer
    fresh = PropertyDescriptor(Transducer(DNA, t.n_states, t.edges, t.initial, t.final), p.theta, kind=S_KIND)
    index = timed(fresh.transducer.view)[1]
    walk, walked = transducers._bit_walk, []

    def timed_walk(*args):
        start = time.perf_counter()
        try:
            return walk(*args)
        finally:
            walked.append(time.perf_counter() - start)

    transducers._bit_walk = timed_walk  # restriction_search looks the walk up when it runs it
    try:
        (y, _, _), search = timed(
            lambda: restriction_search(fresh.transducer, language, properties._theta_l(fresh, language))
        )
    finally:
        transducers._bit_walk = walk
    decode = 0.0 if y is None else timed(properties._decode_intersection_witness, fresh, language, y)[1]
    return index, search - sum(walked), sum(walked), decode


def hypotheses(p: PropertyDescriptor, code: Nfa, tl: Nfa) -> None:
    """``is_maximal``'s hypotheses check on theta(L) = ``tl``: satisfaction, then a strict descriptor's class."""
    properties._decide(p, code, tl, p.asserted_class, 6)
    if p.kind == S_KIND:
        properties._check_assertion(p, properties.INPUT_ALTERING, 6)


def maximality(n_codes: int, seed: int) -> None:
    rng = random.Random(seed)
    codes = [Nfa.finite(DNA, ["".join(rng.choice("AC") for _ in range(n)) for n in (6, 8, 10, 12)])
             for _ in range(n_codes)]
    print("median ms per code: is_maximal = theta(L) + hypotheses + empty word [+ universe + missing_word if built]")
    for name in PROPERTY_NAMES:
        for variant in (NORMAL, WEAK):
            try:
                p = named_property(name, variant, dna_delta())
            except DnaCodecError:  # nonoverlapping exists only in the strict variant
                continue
            if p.kind == S_KIND and p.asserted_class != properties.INPUT_ALTERING:
                continue  # maximality is undecidable for it
            phases: dict[str, list[float]] = {"is_maximal": [], "theta(L)": [], "hypotheses": [],
                                              "empty word": [], "universe": [], "missing_word": []}
            built = 0
            for code in codes:
                phases["is_maximal"].append(timed(properties.is_maximal, p, code)[1])
                tl, seconds = timed(properties._theta_l, p, code)
                phases["theta(L)"].append(seconds)
                phases["hypotheses"].append(timed(hypotheses, p, code, tl)[1])
                blocked, seconds = timed(properties._blocks_empty_word, p, code, tl)
                phases["empty word"].append(seconds)
                built += blocked
                universe, seconds = timed(properties._extension_universe, p, code, tl)
                phases["universe"].append(seconds)
                phases["missing_word"].append(timed(missing_word, universe)[1])
            split = ", ".join(f"{phase} {statistics.median(times) * 1e3:.3f}" for phase, times in phases.items())
            print(f"{name}.{variant}: {split}; built {built}/{n_codes}")


def timed(decide, *args):
    """``(result, seconds)`` of one call, with the garbage collector off."""
    gc.collect()  # no collection lands in the timed call
    gc.disable()
    try:
        start = time.perf_counter()
        result = decide(*args)
        return result, time.perf_counter() - start
    finally:
        gc.enable()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--cases", type=int, default=6)
    parser.add_argument("--transducer-states", type=int, default=800)
    parser.add_argument("--transducer-edges", type=int, default=3000)
    parser.add_argument("--language-states", type=int, default=4)
    parser.add_argument("--universality", type=int, default=0, metavar="K")
    parser.add_argument("--maximality", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if args.universality or args.maximality:
        if args.universality:
            universality(args.universality)
        if args.maximality:
            maximality(args.maximality, args.seed)
        return 0

    rng = random.Random(args.seed)
    theta = dna_delta()
    total_work = 0
    total_states = 0
    total_filled = 0
    total_split = 0
    total_words = 0
    start = time.perf_counter()
    for i in range(args.cases):
        if i % 3 == 2:  # satisfied: the whole product is explored
            t = parity_transducer(rng, args.transducer_states, args.transducer_edges)
            language = even_language(rng, max(args.language_states, 2))
        else:
            t = random_transducer(rng, args.transducer_states, args.transducer_edges)
            language = random_language(rng, args.language_states, dense=i % 2 == 0)
        strict = PropertyDescriptor(t, theta, kind=S_KIND)
        verdict, decide_time = timed(satisfies_S, strict, language)
        view = t.view()
        filled = sum(fin is not None for fin in view.final[: t.n_states])
        # the first chain state of word label i is n + i, made when the label is split
        words = [i for i, (_, x, y, _) in enumerate(t.edges) if len(x) + len(y) > 1]
        split = sum(view.ins[t.n_states + i] is not None for i in words)
        total_filled += filled
        total_split += split
        total_words += len(words)
        work = len(t.edges) * len(language.edges) ** 2
        total_work += work
        total_states += verdict.stats["restriction_states"]
        outcome = "satisfied" if verdict else f"witness {verdict.witness}"
        index, search, walk, decode = phases(strict, language)
        # a fresh copy of the machine, so the weak call builds its own view
        fresh = Transducer(DNA, t.n_states, t.edges, t.initial, t.final)
        weak, weak_time = timed(satisfies_W_general, PropertyDescriptor(fresh, theta, kind=W_KIND), language)
        weak_outcome = "satisfied" if weak else "witness {}+{} letters".format(*map(len, weak.witness))
        print(
            f"case {i}: |T|={len(t.edges)} |A|={len(language.edges)} "
            f"work={work:,} explored states={verdict.stats['restriction_states']:,} "
            f"filled {filled:,}/{t.n_states:,} states, split {split:,}/{len(words):,} word labels, "
            f"decide {decide_time * 1e3:.1f}ms {outcome} (view index {index * 1e3:.2f}ms, "
            f"theta-image + grouped search {search * 1e3:.2f}ms, bit walk {walk * 1e3:.2f}ms, "
            f"decode {decode * 1e3:.2f}ms); "
            f"weak {weak_time * 1e3:.1f}ms {weak_outcome}"
        )
    elapsed = time.perf_counter() - start
    print(
        f"\ntotal work {total_work:,} (transducer edges x language edges^2), "
        f"{total_states:,} explored states, filled {total_filled:,}/"
        f"{args.cases * args.transducer_states:,} states, split {total_split:,}/{total_words:,} "
        f"word labels, {elapsed:.2f}s wall"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
