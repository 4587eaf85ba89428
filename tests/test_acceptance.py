"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single summary line,
so a verbose run reads as a seven-line scorecard.  The tests deliberately
re-derive every expected answer through the word-level oracles in
``oracles.py`` rather than trusting the library's own machinery.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from dnacodec.alphabets import DNA, Alphabet, Permutation, dna_delta
from dnacodec.automata import Nfa, accepts, enumerate_words, missing_word
from dnacodec.cli import _load_descriptor
from dnacodec.dna import hamming_property, hierarchy_edges, named_property
from dnacodec.fado import parse_fado
from dnacodec.pcp import (
    PcpInstance,
    ThetaPcpInstance,
    check_solution,
    map_solution,
    pcp_to_preserving_transducer,
    reduce_pcp_to_theta_pcp,
    solve_bounded,
    theta_pcp_to_one_state_transducer,
)
from dnacodec.properties import (
    S_KIND,
    W_KIND,
    PropertyDescriptor,
    is_maximal,
    satisfies,
    satisfies_S,
    satisfies_W_general,
)
from dnacodec.trajectories import (
    TrajectoryPair,
    compile_trajectory_property,
    delete_on_trajectory,
    shuffle_on_trajectory,
)
from dnacodec.transducers import (
    Transducer,
    bounded_counterexample,
    image,
    inverse,
    normalize,
    relation_empty,
    trim,
)
from dnacodec.transducers import union as t_union
from oracles import (
    INFIX_IMAGE_ON_AB,
    INFIX_TRANSDUCER_TEXT,
    K_NOT_FREE,
    L_HAMMING_BAD,
    L_HAMMING_GOOD,
    L_SINGLE_LETTERS,
    PCP_PRESERVING_WITNESS,
    PCP_SOLVABLE,
    PCP_SOLVABLE_SOLUTION,
    PCP_UNSOLVABLE,
    brute_bond_free,
    brute_is_maximal,
    brute_theta_free,
    enumerate_pairs,
    is_universal,
    pair_in_relation,
    violates_W,
    violates_constellation,
)

DELTA = dna_delta()
BINARY = Alphabet.of("01")
MIRROR = Permutation.identity(BINARY, antimorphic=True)
ASWAP = Permutation.from_mapping(BINARY, {"0": "1", "1": "0"}, antimorphic=True)
MSWAP = Permutation.from_mapping(BINARY, {"0": "1", "1": "0"}, antimorphic=False)


def words_up_to(alphabet: Alphabet, max_len: int) -> list[str]:
    """All words of length <= max_len in shortlex order."""
    letters = sorted(alphabet)
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(w) for w in itertools.product(letters, repeat=n))
    return out


def subsets_up_to(words: list[str], max_size: int):
    for k in range(max_size + 1):
        yield from itertools.combinations(words, k)


def fixture_path(*parts: str) -> str:
    import os

    return os.path.join(os.path.dirname(__file__), "fixtures", *parts)


def load_fixture_machine(*parts: str, alphabet: Alphabet):
    with open(fixture_path(*parts), encoding="utf-8") as fh:
        return parse_fado(fh.read(), alphabet)


def report(number: int, label: str, detail: str, elapsed: float) -> None:
    print(f"[acceptance {number}] {label}: PASS — {detail} ({elapsed:.2f}s)")


# ---------------------------------------------------------------------------
# 1. worked examples


def test_criterion_1_worked_examples():
    start = time.perf_counter()
    hamming = hamming_property(False, DELTA)

    bad = satisfies(hamming, Nfa.finite(DNA, list(L_HAMMING_BAD)))
    assert not bad
    assert set(bad.witness) == set(L_HAMMING_BAD)

    good = satisfies(hamming, Nfa.finite(DNA, list(L_HAMMING_GOOD)))
    assert good and good.witness is None

    letters = satisfies(hamming, Nfa.finite(DNA, list(L_SINGLE_LETTERS)))
    assert not letters
    u, v = letters.witness
    assert {u, v} <= set(L_SINGLE_LETTERS) and u != v

    nonoverlapping = named_property("nonoverlapping", "strict", DELTA)
    self_bond = satisfies(nonoverlapping, Nfa.finite(DNA, ["AT"]))
    assert not self_bond and self_bond.witness == ("AT", "AT")

    assert not brute_theta_free(DELTA, K_NOT_FREE)
    for subset in subsets_up_to(list(K_NOT_FREE), 2):
        if len(subset) < len(K_NOT_FREE):
            assert brute_theta_free(DELTA, subset)

    infix = parse_fado(INFIX_TRANSDUCER_TEXT)
    assert isinstance(infix, Transducer)
    ab = infix.alphabet
    image_words = set(enumerate_words(image(infix, Nfa.finite(ab, ["ab"])), 2))
    assert image_words == INFIX_IMAGE_ON_AB

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "worked examples", "5 fixed verdicts reproduced", elapsed)


# ---------------------------------------------------------------------------
# 2. compiled trajectory properties vs word-level evaluation


TRAJECTORY_CONFIGS = [
    ("1*0+1*", "0+", True),
    ("1*0+1*", "0+", False),
    ("0+", "0+", True),
]


def test_criterion_2_trajectory_compilation_exhaustive():
    start = time.perf_counter()
    words = words_up_to(DNA, 3)
    assert len(words) == 85
    languages = list(subsets_up_to(words, 2))
    assert len(languages) == 3656

    disagreements = []
    for e1, e2, strict in TRAJECTORY_CONFIGS:
        descriptor = compile_trajectory_property(TrajectoryPair(e1, e2, strict), DELTA)
        for subset in languages:
            got = bool(satisfies(descriptor, Nfa.finite(DNA, list(subset))))
            want = brute_bond_free(set(subset), e1, e2, strict, DELTA, "ACGT")
            if got != want:
                disagreements.append((e1, e2, strict, subset, got, want))
    assert disagreements == []

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        2,
        "trajectory compilation",
        f"{len(TRAJECTORY_CONFIGS)} operators x {len(languages)} languages, 0 disagreements",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 3. general weak decider vs exhaustive pair search


WGEN_MACHINES = [
    ("b1_identity.fa", BINARY, MIRROR),
    ("b2_swap.fa", BINARY, ASWAP),
    ("b3_infix.fa", BINARY, MIRROR),
    ("b4_drop_one_1.fa", BINARY, MSWAP),
    ("b5_insert_one.fa", BINARY, ASWAP),
    ("b6_doubler.fa", BINARY, MIRROR),
    ("b7_mixed_eps.fa", BINARY, ASWAP),
    ("d1_identity.fa", DNA, DELTA),
    ("d2_one_mismatch.fa", DNA, DELTA),
    ("d3_trim_suffix.fa", DNA, DELTA),
]


def test_criterion_3_general_decider_exhaustive():
    start = time.perf_counter()
    assert len(WGEN_MACHINES) >= 10

    cases = 0
    disagreements = []
    for name, alphabet, theta in WGEN_MACHINES:
        machine = load_fixture_machine("wgen", name, alphabet=alphabet)
        assert machine.n_states <= 3
        descriptor = PropertyDescriptor(machine, theta, kind=W_KIND)
        words = words_up_to(alphabet, 3)
        for subset in subsets_up_to(words, 3):
            cases += 1
            verdict = satisfies_W_general(descriptor, Nfa.finite(alphabet, list(subset)))
            want = violates_W(machine, theta, subset) is None
            if bool(verdict) != want:
                disagreements.append((name, subset, bool(verdict), want))
                continue
            if not verdict:
                u, v = verdict.witness
                assert u in subset and v in subset and u != v
                assert pair_in_relation(machine, u, theta(v))
    assert disagreements == []
    assert cases == 7 * 576 + 3 * 102426

    elapsed = time.perf_counter() - start
    report(
        3,
        "weak-satisfaction decider",
        f"{len(WGEN_MACHINES)} machines, {cases} languages, 0 disagreements",
        elapsed,
    )


# ---------------------------------------------------------------------------
# 4. maximality vs exhaustive extension search


def load_maximality_case(descriptor_name: str, language_name: str):
    descriptor = _load_descriptor(fixture_path("maximal", descriptor_name))
    language = load_fixture_machine(
        "maximal", language_name, alphabet=descriptor.transducer.alphabet
    )
    return descriptor, language


def test_criterion_4_maximality_vs_extension_search():
    start = time.perf_counter()
    dna_universe = words_up_to(DNA, 4)
    assert len(dna_universe) == 341
    binary_universe = words_up_to(BINARY, 4)

    # Empty relation: maximality must coincide with universality, both ways.
    empty_desc, universal = load_maximality_case(
        "desc_empty_altering.json", "lang_universal_dna.fa"
    )
    assert relation_empty(empty_desc.transducer)
    verdict = is_maximal(empty_desc, universal)
    assert verdict and verdict.witness is None
    assert is_universal(universal)
    assert all(accepts(universal, w) for w in dna_universe)

    _, nonempty = load_maximality_case(
        "desc_empty_altering.json", "lang_nonempty_dna.fa"
    )
    verdict = is_maximal(empty_desc, nonempty)
    assert not verdict and verdict.witness == ""
    assert not is_universal(nonempty)
    assert missing_word(nonempty) == ""
    assert [w for w in dna_universe if not accepts(nonempty, w)] == [""]

    # Finite-language fixtures, cross-checked against word-level search.
    finite_cases = [
        ("desc_ph_minus_identity.json", "lang_aaa_cct.fa", "S", DELTA, dna_universe, 0),
        ("desc_hamming_w.json", "lang_aaa_cct.fa", "W", DELTA, dna_universe, 6),
        ("desc_compliant_normal.json", "lang_acg.fa", "S", DELTA, dna_universe, 6),
    ]
    for descriptor_name, language_name, kind, theta, universe, bound in finite_cases:
        descriptor, language = load_maximality_case(descriptor_name, language_name)
        assert descriptor.kind == kind
        words = {w for w in universe if accepts(language, w)}
        verdict = is_maximal(descriptor, language, assertion_bound=bound)
        want_max, want_witness = brute_is_maximal(
            kind, descriptor.transducer, theta, words, universe
        )
        assert bool(verdict) == want_max
        assert not verdict
        assert verdict.witness == want_witness == ""

    # Compliant case again through the fully definitional oracle.
    compliant, acg = load_maximality_case(
        "desc_compliant_normal.json", "lang_acg.fa"
    )
    extension = next(
        w
        for w in dna_universe
        if not accepts(acg, w)
        and violates_constellation({"ACG", w}, DELTA, ("uv",), "normal") is None
    )
    assert extension == "" == is_maximal(compliant, acg).witness

    # Binary case where the empty word must *not* be offered as an extension.
    loop_desc = _load_descriptor(fixture_path("maximal", "desc_zero_one_loop.json"))
    zero = Nfa.finite(BINARY, ["0"])
    verdict = is_maximal(loop_desc, zero)
    want_max, want_witness = brute_is_maximal(
        "S", loop_desc.transducer, MIRROR, {"0"}, binary_universe
    )
    assert bool(verdict) == want_max is False
    assert verdict.witness == want_witness == "00"

    elapsed = time.perf_counter() - start
    report(4, "maximality", "6 fixtures agree with extension search", elapsed)


# ---------------------------------------------------------------------------
# 5. correspondence-problem pipeline


SWAP3 = Permutation.from_mapping(
    Alphabet.of("012"), {"0": "1", "1": "0", "2": "2"}, antimorphic=True
)


def test_criterion_5_correspondence_pipeline():
    start = time.perf_counter()
    inst = PcpInstance(*PCP_SOLVABLE)

    assert solve_bounded(inst, 3) == PCP_SOLVABLE_SOLUTION

    for theta in (MIRROR, SWAP3):
        reduced = reduce_pcp_to_theta_pcp(inst, theta)
        mapped = map_solution(inst, PCP_SOLVABLE_SOLUTION)
        assert check_solution(reduced, mapped).ok
        found = solve_bounded(reduced, 6)
        assert found is not None and check_solution(reduced, found).ok

    preserving = pcp_to_preserving_transducer(inst, MIRROR)
    witness = bounded_counterexample(preserving, MIRROR, "preserving", 10)
    assert witness == PCP_PRESERVING_WITNESS

    hopeless = pcp_to_preserving_transducer(PcpInstance(*PCP_UNSOLVABLE), MIRROR)
    assert bounded_counterexample(hopeless, MIRROR, "preserving", 12) is None

    solvable = theta_pcp_to_one_state_transducer(
        ThetaPcpInstance(("01",), ("10",), MIRROR)
    )
    assert solvable.n_states == 1
    assert bounded_counterexample(solvable, MIRROR, "altering", 4) == "01"
    unsolvable = theta_pcp_to_one_state_transducer(
        ThetaPcpInstance(("0",), ("1",), MIRROR)
    )
    assert bounded_counterexample(unsolvable, MIRROR, "altering", 8) is None

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(5, "correspondence problems", "solver, 2 reductions, 2 encodings", elapsed)


# ---------------------------------------------------------------------------
# 6. randomized invariants


def random_small_transducer(rng: random.Random, alphabet: Alphabet) -> Transducer:
    letters = sorted(alphabet)
    n_states = rng.randint(1, 3)
    edges = []
    for _ in range(rng.randint(2, 6)):
        a = rng.choice(letters) if rng.random() > 0.2 else ""
        b = rng.choice(letters) if rng.random() > 0.2 else ""
        edges.append((rng.randrange(n_states), a, b, rng.randrange(n_states)))
    finals = frozenset(rng.sample(range(n_states), rng.randint(1, n_states)))
    return Transducer(alphabet, n_states, tuple(edges), frozenset({0}), finals)


def random_involution(rng: random.Random, alphabet: Alphabet) -> Permutation:
    letters = sorted(alphabet)
    rng.shuffle(letters)
    table = {}
    while len(letters) >= 2:
        a, b = letters.pop(), letters.pop()
        table[a], table[b] = b, a
    if letters:
        table[letters[0]] = letters[0]
    return Permutation.from_mapping(
        alphabet, table, antimorphic=rng.random() < 0.5
    )


def random_word(rng: random.Random, alphabet: Alphabet, max_len: int) -> str:
    return "".join(
        rng.choice(sorted(alphabet)) for _ in range(rng.randint(0, max_len))
    )


def relation_up_to(t: Transducer, max_len: int) -> set[tuple[str, str]]:
    return set(enumerate_pairs(t, max_len))


def test_criterion_6_randomized_invariants():
    start = time.perf_counter()
    rng = random.Random(20260815)
    cases = 0

    # Shuffling along a trajectory, then deleting along it, round-trips.
    for _ in range(2000):
        alphabet = rng.choice([BINARY, DNA])
        kept = random_word(rng, alphabet, 5)
        inserted = random_word(rng, alphabet, 4)
        slots = ["0"] * len(kept) + ["1"] * len(inserted)
        rng.shuffle(slots)
        trajectory = "".join(slots)
        shuffled = shuffle_on_trajectory(kept, trajectory, inserted)
        assert shuffled is not None
        assert delete_on_trajectory(shuffled, trajectory, inserted) == kept
        if trajectory:
            bad = trajectory + "0"
            assert shuffle_on_trajectory(kept, bad, inserted) is None
        cases += 1

    # Inverting a transducer swaps every realized pair.
    for _ in range(2000):
        t = random_small_transducer(rng, rng.choice([BINARY, DNA]))
        pairs = relation_up_to(t, 2)
        assert relation_up_to(inverse(t), 2) == {(v, u) for u, v in pairs}
        cases += 1

    # Involutions square to the identity; general bijections invert.
    for _ in range(2000):
        alphabet = rng.choice([BINARY, DNA, Alphabet.of("xyz")])
        theta = random_involution(rng, alphabet)
        w = random_word(rng, alphabet, 8)
        assert theta.is_involution()
        assert theta(theta(w)) == w
        assert theta.inverse()(theta(w)) == w
        cases += 1

    # Strict satisfaction implies weak satisfaction.
    for _ in range(2000):
        alphabet, theta = rng.choice([(BINARY, MIRROR), (BINARY, ASWAP), (DNA, DELTA)])
        t = random_small_transducer(rng, alphabet)
        words = rng.sample(words_up_to(alphabet, 3), rng.randint(0, 3))
        language = Nfa.finite(alphabet, words)
        strict = satisfies(PropertyDescriptor(t, theta, kind=S_KIND), language)
        weak = satisfies(PropertyDescriptor(t, theta, kind=W_KIND), language)
        if strict:
            assert weak
        if not weak:
            assert not strict
        cases += 1

    # Property-family orderings: strict -> plain -> weak, and the
    # documented strength edges between the named bonding properties.
    chain_names = [
        "3-overhang-free",
        "5-overhang-free",
        "compliant",
        "overhang-free",
        "p-compliant",
        "s-compliant",
        "sticky-free",
    ]
    descriptors = {
        (name, variant): named_property(name, variant, DELTA)
        for name in chain_names
        for variant in ("strict", "normal", "weak")
    }
    descriptors[("nonoverlapping", "strict")] = named_property(
        "nonoverlapping", "strict", DELTA
    )
    edges = hierarchy_edges()
    assert len(edges) == 10
    for _ in range(65):
        words = rng.sample(words_up_to(DNA, 4)[1:], rng.randint(1, 4))
        language = Nfa.finite(DNA, words)
        verdicts = {
            key: bool(satisfies(descriptor, language))
            for key, descriptor in descriptors.items()
        }
        for name in chain_names:
            if verdicts[(name, "strict")]:
                assert verdicts[(name, "normal")]
            cases += 1
            if verdicts[(name, "normal")]:
                assert verdicts[(name, "weak")]
            cases += 1
        for stronger, weaker in edges:
            if verdicts[(stronger, "strict")]:
                assert verdicts[(weaker, "strict")]
            cases += 1

    # Structural transforms preserve the realized relation.
    for _ in range(125):
        t = random_small_transducer(rng, rng.choice([BINARY, DNA]))
        pairs = relation_up_to(t, 2)
        assert relation_up_to(normalize(t), 2) == pairs
        cases += 1
        assert relation_up_to(trim(t), 2) == pairs
        cases += 1
        assert relation_up_to(inverse(inverse(t)), 2) == pairs
        cases += 1
        other = random_small_transducer(rng, t.alphabet)
        assert relation_up_to(t_union(t, other), 2) == pairs | relation_up_to(other, 2)
        cases += 1

    assert cases >= 10_000
    elapsed = time.perf_counter() - start
    report(6, "randomized invariants", f"{cases} cases, seed 20260815", elapsed)


# ---------------------------------------------------------------------------
# 7. decider throughput on large random inputs


def random_large_transducer(rng: random.Random, n_states: int, n_edges: int) -> Transducer:
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


def random_sparse_nfa(rng: random.Random, n_states: int, n_edges: int) -> Nfa:
    letters = sorted(DNA)
    edges = [(q, rng.choice(letters), q + 1) for q in range(n_states - 1)]
    while len(edges) < n_edges:
        edges.append(
            (rng.randrange(n_states), rng.choice(letters), rng.randrange(n_states))
        )
    finals = frozenset(rng.sample(range(n_states), max(1, n_states // 3)))
    return Nfa(DNA, n_states, tuple(edges), frozenset({0}), finals)


def random_dense_nfa(rng: random.Random, n_states: int) -> Nfa:
    edges = [
        (q, a, rng.randrange(n_states)) for q in range(n_states) for a in sorted(DNA)
    ]
    finals = frozenset(rng.sample(range(n_states), max(1, n_states // 2)))
    return Nfa(DNA, n_states, tuple(edges), frozenset({0}), finals)


def test_criterion_7_throughput():
    rng = random.Random(1729)
    instances = []
    for _ in range(3):
        instances.append(
            (random_large_transducer(rng, 600, 2500), random_sparse_nfa(rng, 8, 10))
        )
    instances.append((random_large_transducer(rng, 1200, 2000), random_dense_nfa(rng, 3)))

    total_work = sum(len(t.edges) * len(a.edges) ** 2 for t, a in instances)
    assert total_work >= 10**6

    start = time.perf_counter()
    explored = 0
    for t, a in instances:
        verdict = satisfies_S(PropertyDescriptor(t, DELTA, kind=S_KIND), a)
        explored += verdict.stats["restriction_states"]
        if not verdict:
            u, v = verdict.witness
            assert accepts(a, u) and accepts(a, v)
            assert pair_in_relation(t, u, DELTA(v))
    elapsed = time.perf_counter() - start

    assert elapsed < 10.0
    report(
        7,
        "throughput",
        f"work {total_work:,}, {explored:,} product states explored",
        elapsed,
    )
