"""Correspondence problems, bounded solving, and transducer encodings."""

import itertools
import math
import random
import re
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from dnacodec.alphabets import Alphabet, Permutation
from dnacodec.automata import Nfa, complement, concat, plus, union
from dnacodec.pcp import (
    PcpInstance,
    SolutionCheck,
    ThetaPcpInstance,
    check_solution,
    map_solution,
    pcp_to_preserving_transducer,
    reduce_pcp_to_theta_pcp,
    solve_bounded,
    _block_code,
    theta_pcp_to_one_state_transducer,
)
from dnacodec.transducers import Transducer, bounded_counterexample, union as t_union
from oracles import (
    PCP_PRESERVING_WITNESS,
    PCP_SOLVABLE,
    PCP_SOLVABLE_SOLUTION,
    PCP_UNSOLVABLE,
    brute_pcp_solution,
    outputs_up_to,
    pair_in_relation,
)

ZO = Alphabet.of("01")
MIRROR = Permutation.identity(ZO, antimorphic=True)
SWAP = Permutation.from_mapping(ZO, {"0": "1", "1": "0"})  # morphic
THREE = Alphabet.of("012")
SWAP3 = Permutation.from_mapping(THREE, {"0": "1", "1": "0", "2": "2"}, antimorphic=True)


def classic(pairs=PCP_SOLVABLE):
    return PcpInstance(pairs[0], pairs[1])


# -- instances and solution checking -------------------------------------------


def test_instance_validation():
    with pytest.raises(ValueError):
        PcpInstance(("0",), ("0", "1"))
    with pytest.raises(ValueError):
        PcpInstance((), ())
    with pytest.raises(ValueError):
        PcpInstance(("0", ""), ("1", "0"))
    with pytest.raises(ValueError):
        ThetaPcpInstance(("0",), ("2",), MIRROR)  # letter outside the alphabet


def test_instance_rejects_tiles_that_are_not_words():
    # accepted once, and solve_bounded then failed concatenating str and int
    with pytest.raises(ValueError, match=r"^field 'alpha' must list nonempty words, not 5$"):
        PcpInstance((5,), (6,))


def test_instance_rejects_a_str_for_its_tiles():
    # "01" was split into the tiles '0' and '1'
    with pytest.raises(ValueError, match=r"^field 'alpha' must be a list, not str$"):
        PcpInstance("01", "10")


def test_theta_instance_rejects_tiles_that_are_not_words():
    # raised TypeError: 'int' object is not iterable
    with pytest.raises(ValueError, match=r"^field 'alpha' must list nonempty words over '01', not 5$"):
        ThetaPcpInstance((5,), (6,), MIRROR)


@pytest.mark.parametrize(
    "alpha, beta, theta, message",
    [
        # alpha is checked before beta, each side in full before the counts
        (("0", ""), None, None, "field 'alpha' must list nonempty words, not ''"),
        ((), ["0", 1], None, "field 'alpha' must list at least one tile"),
        (["0", "1"], "01", None, "field 'beta' must be a list, not str"),
        (("0",), ("1", b"0"), None, "field 'beta' must list nonempty words, not b'0'"),
        (("0",), [], None, "field 'beta' must list at least one tile"),
        (("0", "1"), ("1",), None, "field 'beta' must list as many tiles as field 'alpha' (2), not 1"),
        (("01", "2"), ("x",), MIRROR, "field 'alpha' must list nonempty words over '01', not '2'"),
        (("012",), ("0", "3"), SWAP3, "field 'beta' must list nonempty words over '012', not '3'"),
        (("0",), ("1", "0"), MIRROR, "field 'beta' must list as many tiles as field 'alpha' (1), not 2"),
    ],
)
def test_instance_checks_run_in_order(alpha, beta, theta, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PcpInstance(alpha, beta) if theta is None else ThetaPcpInstance(alpha, beta, theta)


def test_instance_stores_tuples():
    inst = ThetaPcpInstance(["01", "1"], ("10", "0"), MIRROR)
    assert inst.alpha == ("01", "1") and inst.beta == ("10", "0") and len(inst) == 2


def test_check_solution_classic():
    inst = classic()
    good = check_solution(inst, PCP_SOLVABLE_SOLUTION)
    assert good and good.left == good.right == "001"
    bad = check_solution(inst, (0,))
    assert not bad and (bad.left, bad.right) == ("0", "00")
    with pytest.raises(ValueError):
        check_solution(inst, ())
    with pytest.raises(ValueError):
        check_solution(inst, (5,))


def test_check_solution_theta():
    inst = ThetaPcpInstance(("01",), ("10",), MIRROR)
    chk = check_solution(inst, (0,))
    assert chk.ok and chk.left == "01" and chk.right == "01"  # mirror(10) = 01
    assert not check_solution(ThetaPcpInstance(("01",), ("01",), MIRROR), (0,)).ok


# -- bounded solving --------------------------------------------------------------


def test_solve_bounded_pinned_instances():
    assert solve_bounded(classic(), 3) == PCP_SOLVABLE_SOLUTION
    assert solve_bounded(classic(PCP_UNSOLVABLE), 12) is None
    with pytest.raises(ValueError):
        solve_bounded(classic(), 0)


def test_solve_bounded_theta_instances():
    solvable = ThetaPcpInstance(("01",), ("10",), MIRROR)
    assert solve_bounded(solvable, 3) == (0,)
    unsolvable = ThetaPcpInstance(("0",), ("1",), MIRROR)
    assert solve_bounded(unsolvable, 8) is None


def tiles_over(letters):
    word = st.text(letters, min_size=1, max_size=2)
    return st.lists(st.tuples(word, word), min_size=1, max_size=3)


tiles = tiles_over("01")
# a permutation, mirror, the morphic swap or the three-letter one, and tiles over its letters
theta_tiles = st.sampled_from([MIRROR, SWAP, SWAP3]).flatmap(
    lambda theta: st.tuples(st.just(theta), tiles_over("".join(theta.alphabet.symbols)))
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(tiles, tiles_over("012")))
def test_solver_matches_brute_force_classic(pairs):
    alpha = tuple(a for a, _ in pairs)
    beta = tuple(b for _, b in pairs)
    inst = PcpInstance(alpha, beta)
    got = solve_bounded(inst, 4)
    want = brute_pcp_solution(alpha, beta, 4)
    assert got == want
    if got is not None:
        assert check_solution(inst, got).ok


@settings(max_examples=150, deadline=None)
@given(theta_tiles)
def test_solver_matches_brute_force_theta(case):
    theta, pairs = case
    alpha = tuple(a for a, _ in pairs)
    beta = tuple(b for _, b in pairs)
    inst = ThetaPcpInstance(alpha, beta, theta)
    got = solve_bounded(inst, 4)
    want = brute_pcp_solution(alpha, beta, 4, theta)
    assert got == want
    if got is not None:
        assert check_solution(inst, got).ok


# -- reduction to the theta problem -------------------------------------------------


@pytest.mark.parametrize("theta", [MIRROR, SWAP3], ids=["mirror", "three-letter"])
def test_reduction_solves_pinned_instance(theta):
    inst = classic()
    reduced = reduce_pcp_to_theta_pcp(inst, theta)
    assert len(reduced) == len(inst) + 2
    mapped = map_solution(inst, PCP_SOLVABLE_SOLUTION)
    assert mapped == (0, 1, 3, 2, 2)  # solution word 001 replayed in reverse
    assert check_solution(reduced, mapped).ok
    found = solve_bounded(reduced, 6)
    assert found is not None
    assert check_solution(reduced, found).ok


def test_map_solution_rejects_non_solutions():
    with pytest.raises(ValueError):
        map_solution(classic(), (0,))


def test_reduction_requires_binary_instance_and_antimorphic_theta():
    with pytest.raises(ValueError):
        reduce_pcp_to_theta_pcp(PcpInstance(("2",), ("2",)), SWAP3)
    with pytest.raises(ValueError):
        reduce_pcp_to_theta_pcp(classic(), Permutation.identity(ZO))
    ab = Permutation.identity(Alphabet.of("ab"), antimorphic=True)
    with pytest.raises(ValueError):
        reduce_pcp_to_theta_pcp(classic(), ab)


@settings(max_examples=25, deadline=None)
@given(tiles)
def test_reduction_preserves_solvability_on_small_instances(pairs):
    alpha = tuple(a for a, _ in pairs)
    beta = tuple(b for _, b in pairs)
    inst = PcpInstance(alpha, beta)
    reduced = reduce_pcp_to_theta_pcp(inst, MIRROR)
    classic_sol = solve_bounded(inst, 3)
    if classic_sol is not None:
        mapped = map_solution(inst, classic_sol)
        assert check_solution(reduced, mapped).ok
        found = solve_bounded(reduced, len(mapped))
        assert found is not None
    else:
        # any short reduced solution must decode to a classic solution,
        # which would contradict the exhaustive classic search
        found = solve_bounded(reduced, 5)
        if found is not None:
            ell = len(inst)
            body = list(itertools.takewhile(lambda j: j < ell, found))
            assert len(body) > 3 or not body or not check_solution(inst, body).ok


# -- transducer encodings -------------------------------------------------------------


def test_preserving_encoding_of_solvable_instance():
    t = pcp_to_preserving_transducer(classic(), MIRROR)
    # unformatted inputs are related to everything, including their image
    assert pair_in_relation(t, "0", "0")
    assert pair_in_relation(t, "010", "111")
    # the shortest preservation failure is the encoded solution
    witness = bounded_counterexample(t, MIRROR, "preserving", 10)
    assert witness == PCP_PRESERVING_WITNESS
    assert not pair_in_relation(t, witness, MIRROR(witness))


def test_preserving_encoding_of_unsolvable_instance():
    t = pcp_to_preserving_transducer(classic(PCP_UNSOLVABLE), MIRROR)
    assert bounded_counterexample(t, MIRROR, "preserving", 12) is None


def reference_block_code(inst, theta):
    """The block code as first built, keyed by ``("s", letter)`` and ``("i", index)``:
    ``(sorted letters, key -> block)``."""
    sigma = sorted(set("".join(inst.alpha) + "".join(inst.beta)))
    keys = [("s", c) for c in sigma] + [("i", j) for j in range(len(inst))]
    m = max(1, math.ceil(math.log2(len(keys))))
    b = theta.alphabet.symbols[:2]
    h = {
        key: "".join(b[(idx >> (m - 1 - bit)) & 1] for bit in range(m))
        for idx, key in enumerate(keys)
    }
    return sigma, h


def test_block_code_matches_the_reference():
    rng = random.Random(31)
    for theta in (MIRROR, SWAP, SWAP3):
        letters = "".join(theta.alphabet.symbols)
        for _ in range(200):
            n = rng.randint(1, 9)
            words = [["".join(rng.choices(letters, k=rng.randint(1, 4))) for _ in range(n)] for _ in "ab"]
            inst = PcpInstance(*words)
            sigma, h = reference_block_code(inst, theta)
            letter, index = _block_code(inst, theta)
            assert list(letter) == sigma
            assert letter == {c: h[("s", c)] for c in sigma}
            assert index == [h[("i", j)] for j in range(n)]


def wrong_sequence_encoding(inst, theta):
    """The preserving encoding as first built: one escape edge per wrong letter sequence of up to
    a tile's length, not per first deviation.  The reference for the relation of the current one."""
    alphabet, (sigma, h) = theta.alphabet, reference_block_code(inst, theta)
    idx_keys = [("i", j) for j in range(len(inst))]
    all_keys = [("s", c) for c in sigma] + idx_keys

    def h_sigma(w):
        return "".join(h[("s", c)] for c in w)

    blocks = [reduce(union, [Nfa.word(alphabet, h[k]) for k in keys]) for keys in (all_keys[: len(sigma)], idx_keys)]
    outside = complement(concat(plus(blocks[0]), plus(blocks[1])))
    sink = outside.n_states
    edges = [(src, sym, "", dst) for src, sym, dst in outside.edges] + [(f, "", "", sink) for f in outside.final]
    edges += [(sink, "", a, sink) for a in alphabet.symbols]
    t_r = Transducer(alphabet, sink + 1, tuple(edges), frozenset(outside.initial), frozenset({sink}))

    def chain_component(tiles):
        e = []
        for j, tile in enumerate(tiles):
            out_block = theta(h[("i", j)])
            e.append((0, h_sigma(tile), out_block, 0))
            e += [(0, h[key], out_block, 1) for key in idx_keys]
            for r in range(1, len(tile) + 1):
                for z in itertools.product(sigma, repeat=r):
                    if not tile.startswith("".join(z)):
                        e.append((0, h_sigma("".join(z)), out_block, 1))
            for cut in range(1, len(tile)):
                e += [(0, h_sigma(tile[:cut]) + h[key], out_block, 1) for key in idx_keys]
        e += [(0, h[("s", a)], theta(h[("s", b)]), 1) for a, b in itertools.product(sigma, repeat=2)]
        for key in all_keys:
            e += [(1, h[key], "", 1), (1, "", theta(h[key]), 1)]
        return Transducer(alphabet, 2, tuple(e), frozenset({0}), frozenset({1}))

    return t_union(t_r, t_union(chain_component(inst.alpha), chain_component(inst.beta)))


def long_tiles(n):
    return PcpInstance(("01" * (n // 2), "1"), ("0", "10" * (n // 2)))


@pytest.mark.parametrize("n", [4, 8, 14])
def test_preserving_encoding_has_one_escape_per_first_deviation(n):
    # the wrong-sequence escapes grew as 2^n: 142, 1,110 and 65,634 edges
    assert len(pcp_to_preserving_transducer(long_tiles(n), MIRROR).edges) <= 80 + 6 * n


@pytest.mark.parametrize("inst", [classic(), classic(PCP_UNSOLVABLE), long_tiles(4)], ids=["solvable", "unsolvable", "long"])
def test_preserving_encoding_keeps_the_relation_of_the_wrong_sequence_escapes(inst):
    t, reference = pcp_to_preserving_transducer(inst, MIRROR), wrong_sequence_encoding(inst, MIRROR)
    assert len(t.edges) <= len(reference.edges)
    for n in range(9):
        for x in map("".join, itertools.product("01", repeat=n)):
            assert outputs_up_to(t, x, 4) == outputs_up_to(reference, x, 4), x


def test_one_state_encoding_altering_iff_unsolvable():
    with_solution = ThetaPcpInstance(("01",), ("10",), MIRROR)
    t = theta_pcp_to_one_state_transducer(with_solution)
    assert t.n_states == 1
    assert bounded_counterexample(t, MIRROR, "altering", 4) == "01"
    without = ThetaPcpInstance(("0",), ("1",), MIRROR)
    t2 = theta_pcp_to_one_state_transducer(without)
    assert bounded_counterexample(t2, MIRROR, "altering", 8) is None


@settings(max_examples=100, deadline=None)
@given(theta_tiles)
def test_one_state_encoding_matches_solver(case):
    theta, pairs = case
    alpha = tuple(a for a, _ in pairs)
    beta = tuple(b for _, b in pairs)
    inst = ThetaPcpInstance(alpha, beta, theta)
    t = theta_pcp_to_one_state_transducer(inst)
    max_word = 3 * max(len(a) for a in alpha)
    witness = bounded_counterexample(t, theta, "altering", max_word)
    solution = solve_bounded(inst, 3)
    if solution is not None:
        assert witness is not None and len(witness) <= max_word
    if witness is None:
        assert solution is None