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
extension universe and ``missing_word`` on it.  The theta(L) phase also
shows the median states and initial states of the machine it built: under
the antimorphic DNA involution a code becomes the trie of its theta-words,
with one initial state, where ``theta_image`` would keep one per word.  The
last two phases are timed on every code, as a decider that always builds
the universe would run them; ``is_maximal`` runs them only on the codes
whose empty word is blocked, which the ``built`` column counts.

``--handover N[,N...]`` times ``satisfies_S`` instead, on the cases of the
default mode, once per threshold N at which the grouped restriction search
hands a satisfied search over to the bit walk (``transducers._BIT_AFTER``,
set here for the sweep and restored after it).  The thresholds take turns
per case, each call on a fresh copy of the machines, and every threshold
must give the same verdict, witness and stats.  Per threshold it prints
the median and summed time of the satisfied and of the violated calls, how
many of them entered the walk, and the p50 and p90 of all the calls.

``--parse N`` times ``parse_fado`` instead, as ``dnacodec satisfies`` reads its
inputs, over DNA: on N seeded code files of four DNA words (lengths 6, 8, 10
and 12, as the benchmark's ``dna-cli`` codes) and on the benchmark's 27
``dna-cli`` descriptor transducers: every named property in every variant and
three trajectory pairs, as ``build-property`` writes them, and the two Hamming
machines.  Beside each median time per parse it prints the document's lines.

Usage:
    python scripts/benchmark_satisfaction.py
    python scripts/benchmark_satisfaction.py --transducer-edges 5000 --cases 8
    python scripts/benchmark_satisfaction.py --universality 13
    python scripts/benchmark_satisfaction.py --maximality 12
    python scripts/benchmark_satisfaction.py --handover 1500,800,400,300,200 --cases 60
    python scripts/benchmark_satisfaction.py --parse 50
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import random
import statistics
import time
import timeit
from contextlib import redirect_stdout
from typing import Optional

from dnacodec import automata, cli, properties, transducers
from dnacodec.alphabets import DNA, dna_delta
from dnacodec.automata import Nfa, missing_word
from dnacodec.dna import NORMAL, PROPERTY_NAMES, STRICT, VARIANTS, WEAK, hamming_property, named_property
from dnacodec.errors import DnaCodecError
from dnacodec.fado import parse_fado, serialize_fado
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


def case(rng: random.Random, i: int, args: argparse.Namespace) -> tuple[Transducer, Nfa]:
    """Case ``i`` of the default mode: every third one a satisfied parity pair, the rest random."""
    if i % 3 == 2:  # satisfied: the whole product is explored
        t = parity_transducer(rng, args.transducer_states, args.transducer_edges)
        return t, even_language(rng, max(args.language_states, 2))
    t = random_transducer(rng, args.transducer_states, args.transducer_edges)
    return t, random_language(rng, args.language_states, dense=i % 2 == 0)


def handover(thresholds: list[int], args: argparse.Namespace) -> None:
    rng, theta = random.Random(args.seed), dna_delta()
    times: dict[int, dict[str, list[float]]] = {n: {"satisfied": [], "violated": []} for n in thresholds}
    walks = {n: {"satisfied": 0, "violated": 0} for n in thresholds}  # calls that entered the walk
    walk, after, walked = transducers._bit_walk, transducers._BIT_AFTER, []

    def counted_walk(*walk_args):
        walked.append(None)
        return walk(*walk_args)

    transducers._bit_walk = counted_walk  # restriction_search looks both up when it runs
    try:
        for i in range(args.cases):
            t, m = case(rng, i, args)
            outcomes = set()
            for n in thresholds[i % len(thresholds):] + thresholds[: i % len(thresholds)]:
                transducers._BIT_AFTER = n
                fresh = Transducer(DNA, t.n_states, t.edges, t.initial, t.final)
                language = Nfa(DNA, m.n_states, m.edges, m.initial, m.final)
                walked.clear()
                verdict, seconds = timed(satisfies_S, PropertyDescriptor(fresh, theta, kind=S_KIND), language)
                label = "satisfied" if verdict else "violated"
                times[n][label].append(seconds)
                walks[n][label] += bool(walked)
                outcomes.add((verdict.satisfied, verdict.witness, tuple(sorted(verdict.stats.items()))))
            if len(outcomes) != 1:
                raise RuntimeError(f"case {i}: the thresholds disagree: {sorted(outcomes)}")
    finally:
        transducers._bit_walk, transducers._BIT_AFTER = walk, after
    for n in thresholds:
        split = "; ".join(
            f"{label} {statistics.median(ts) * 1e3:.2f} ms median, {sum(ts) * 1e3:.1f} ms summed, "
            f"walked {walks[n][label]}/{len(ts)}"
            for label, ts in times[n].items() if ts
        )
        plan = sorted(t for ts in times[n].values() for t in ts)
        p90 = plan[math.ceil(0.9 * len(plan)) - 1]
        print(f"handover {n:,}: {split}; plan p50 {statistics.median(plan) * 1e3:.2f} ms, p90 {p90 * 1e3:.2f} ms")


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
            states, starts = [], []  # of each theta(L) built
            for code in codes:
                phases["is_maximal"].append(timed(properties.is_maximal, p, code)[1])
                tl, seconds = timed(properties._theta_l, p, code)
                phases["theta(L)"].append(seconds)
                states.append(tl.n_states)
                starts.append(len(tl.initial))
                phases["hypotheses"].append(timed(hypotheses, p, code, tl)[1])
                blocked, seconds = timed(properties._blocks_empty_word, p, code, tl)
                phases["empty word"].append(seconds)
                built += blocked
                universe, seconds = timed(properties._extension_universe, p, code, tl)
                phases["universe"].append(seconds)
                phases["missing_word"].append(timed(missing_word, universe)[1])
            label = {"theta(L)": f"theta(L) (states {statistics.median(states):g}, "
                                 f"initial {statistics.median(starts):g})"}
            split = ", ".join(f"{label.get(phase, phase)} {statistics.median(times) * 1e3:.3f}"
                              for phase, times in phases.items())
            print(f"{name}.{variant}: {split}; built {built}/{n_codes}")


TRAJECTORY_PAIRS = (("1*0+1*", "0+", True), ("1*0+1*", "0+", False), ("0+", "0+", True))  # as dna-cli's


def descriptor_texts() -> list[tuple[str, str]]:
    """``(name, transducer text)`` of each ``dna-cli`` descriptor, built as that workload builds it."""
    argvs = [(f"{name}.{variant}", ["--dna", name, "--variant", variant])
             for name in PROPERTY_NAMES for variant in VARIANTS if name != "nonoverlapping" or variant == STRICT]
    argvs += [(f"trajectory.{i}", ["--trajectory", e1, e2] + ["--strict"] * strict)
              for i, (e1, e2, strict) in enumerate(TRAJECTORY_PAIRS)]
    texts = []
    for name, argv in argvs:
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(["build-property", *argv])
        texts.append((name, json.loads(out.getvalue())["transducer"]))
    return texts + [(f"hamming.ge2{'-min-len-2' * m}", serialize_fado(hamming_property(m, dna_delta()).transducer))
                    for m in (False, True)]


def parse(n_codes: int, seed: int) -> None:
    rng = random.Random(seed)
    codes = [serialize_fado(Nfa.finite(DNA, ["".join(rng.choice("ACGT") for _ in range(n)) for n in (6, 8, 10, 12)]))
             for _ in range(n_codes)]

    def micros(text: str) -> float:
        """The median of five runs of 50 parses, in microseconds per parse (timeit keeps the collector off)."""
        return statistics.median(timeit.repeat(lambda: parse_fado(text, DNA), number=50, repeat=5)) / 50 * 1e6

    print(f"codes: {n_codes} files, median {statistics.median(len(c.splitlines()) for c in codes):g} lines, "
          f"median {statistics.median(map(micros, codes)):.1f} us per parse")
    descriptors = descriptor_texts()
    times = []
    for name, text in descriptors:
        times.append(micros(text))
        print(f"{name}: {len(text.splitlines())} lines, {times[-1]:.1f} us")
    print(f"descriptors: {len(descriptors)}, median {statistics.median(times):.1f} us, summed {sum(times):.1f} us")


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
    parser.add_argument("--handover", type=lambda s: [int(n) for n in s.split(",")], default=[],
                        metavar="N[,N...]")
    parser.add_argument("--parse", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    if args.handover:
        handover(args.handover, args)
        return 0
    if args.parse:
        parse(args.parse, args.seed)
        return 0
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
        t, language = case(rng, i, args)
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
