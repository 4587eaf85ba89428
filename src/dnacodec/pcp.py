"""Post correspondence problems, their theta variant, and reductions.

A classic instance is a list of tile pairs (alpha_i, beta_i); a solution is
a nonempty index sequence whose alpha- and beta-concatenations agree.  The
theta variant instead demands that the alpha-concatenation equal the
theta-image of the beta-concatenation.

Besides bounded solvers (complete solving is impossible), this module
builds two transducer encodings: a classic instance becomes a transducer
whose input-preserving failures are exactly the encodings of solutions,
and a theta instance becomes a one-state transducer that is
theta-input-altering iff the instance has no solution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Union

from .alphabets import Permutation, compose as perm_compose
from .automata import Nfa, complement, concat, plus, union as nfa_union
from .transducers import Transducer, union as t_union


def _check_tiles(inst) -> None:
    """Store the tiles as tuples; require equally many nonempty alpha and beta tiles."""
    object.__setattr__(inst, "alpha", tuple(inst.alpha))
    object.__setattr__(inst, "beta", tuple(inst.beta))
    if len(inst.alpha) != len(inst.beta) or not inst.alpha:
        raise ValueError("need equally many alpha and beta tiles, at least one pair")
    if any(not w for w in inst.alpha + inst.beta):
        raise ValueError("tiles must be nonempty words")


@dataclass(frozen=True)
class PcpInstance:
    """Tile pairs of a classic correspondence problem."""

    alpha: tuple[str, ...]
    beta: tuple[str, ...]

    def __post_init__(self):
        _check_tiles(self)

    def __len__(self) -> int:
        return len(self.alpha)


@dataclass(frozen=True)
class ThetaPcpInstance:
    """Tile pairs whose correspondence is taken modulo a permutation."""

    alpha: tuple[str, ...]
    beta: tuple[str, ...]
    theta: Permutation

    def __post_init__(self):
        _check_tiles(self)
        for w in self.alpha + self.beta:
            self.theta.alphabet.check_word(w)

    __len__ = PcpInstance.__len__


AnyInstance = Union[PcpInstance, ThetaPcpInstance]


@dataclass(frozen=True)
class SolutionCheck:
    """Result of validating an index sequence, with both concatenations."""

    ok: bool
    left: str
    right: str

    def __bool__(self) -> bool:
        return self.ok


def check_solution(inst: AnyInstance, seq) -> SolutionCheck:
    """Validate an index sequence against the instance's equation."""
    seq = tuple(seq)
    if not seq:
        raise ValueError("solution sequences must be nonempty")
    if any(not 0 <= j < len(inst) for j in seq):
        raise ValueError("tile index out of range")
    left = "".join(inst.alpha[j] for j in seq)
    right = "".join(inst.beta[j] for j in seq)
    if isinstance(inst, ThetaPcpInstance):
        right = inst.theta(right)
    return SolutionCheck(left == right, left, right)


def solve_bounded(inst: AnyInstance, max_seq_len: int) -> Optional[tuple[int, ...]]:
    """Shortest (then lexicographically first) solution of length ≤ the bound.

    Returns None for "no solution within the bound" — never a proof of
    unsolvability.  Classic instances prune partial sequences whose two
    concatenations are not prefix-compatible; theta instances prune on the
    achievable length balance, since the image side only becomes comparable
    once the sequence is complete.
    """
    if max_seq_len < 1:
        raise ValueError("max_seq_len must be at least 1")
    ell = len(inst)
    themed = isinstance(inst, ThetaPcpInstance)
    if themed:
        deltas = [len(a) - len(b) for a, b in zip(inst.alpha, inst.beta)]
        lo, hi = min(deltas), max(deltas)

    for depth in range(1, max_seq_len + 1):

        def walk(seq: list[int], a: str, b: str) -> Optional[tuple[int, ...]]:
            if len(seq) == depth:
                if themed:
                    if a == inst.theta(b):
                        return tuple(seq)
                elif a == b:
                    return tuple(seq)
                return None
            remaining = depth - len(seq)
            for j in range(ell):
                na, nb = a + inst.alpha[j], b + inst.beta[j]
                if themed:
                    diff = len(na) - len(nb)
                    if diff + (remaining - 1) * hi < 0 or diff + (remaining - 1) * lo > 0:
                        continue
                elif not (na.startswith(nb) or nb.startswith(na)):
                    continue
                seq.append(j)
                found = walk(seq, na, nb)
                if found is not None:
                    return found
                seq.pop()
            return None

        found = walk([], "", "")
        if found is not None:
            return found
    return None


def reduce_pcp_to_theta_pcp(inst: PcpInstance, theta: Permutation) -> ThetaPcpInstance:
    """Encode a binary classic instance as a theta instance.

    Letters are tagged into two-letter blocks (0c for alpha material, 1c
    for beta material); each beta tile is reversed, block-coded and pulled
    back through theta's inverse, and two extra tile pairs (one per letter)
    let a solution replay its own solution word in reverse.
    """
    letters = set("".join(inst.alpha) + "".join(inst.beta))
    if not letters <= {"0", "1"}:
        raise ValueError("reduction requires an instance over the letters 0 and 1")
    if not theta.antimorphic:
        raise ValueError("reduction requires an antimorphic permutation")
    if "0" not in theta.alphabet or "1" not in theta.alphabet:
        raise ValueError("theta's alphabet must contain the letters 0 and 1")

    def g(w: str) -> str:
        return "".join("0" + c for c in w)

    def h(w: str) -> str:
        return "".join("1" + c for c in w)

    tinv = theta.inverse()
    gamma = tuple(g(a) for a in inst.alpha) + (h("0"), h("1"))
    delta = tuple(tinv(h(b[::-1])) for b in inst.beta) + (tinv(g("0")), tinv(g("1")))
    return ThetaPcpInstance(gamma, delta, theta)


def map_solution(inst: PcpInstance, seq) -> tuple[int, ...]:
    """Lift a classic solution to a solution of the reduced instance.

    Appends the solution word, reversed and recoded through the two extra
    tiles (index ℓ for letter 0, ℓ+1 for letter 1).
    """
    chk = check_solution(inst, seq)
    if not chk.ok:
        raise ValueError(f"sequence is not a solution ({chk.left!r} != {chk.right!r})")
    ell = len(inst)
    tail = tuple(ell if c == "0" else ell + 1 for c in reversed(chk.left))
    return tuple(seq) + tail


def _block_code(inst: PcpInstance, theta: Permutation):
    """Fixed-width binary block code over theta's first two letters for the
    instance's letters followed by its tile indices."""
    sigma = sorted(set("".join(inst.alpha) + "".join(inst.beta)))
    keys = [("s", c) for c in sigma] + [("i", j) for j in range(len(inst))]
    m = max(1, math.ceil(math.log2(len(keys))))
    b = theta.alphabet.symbols[:2]
    h = {
        key: "".join(b[(idx >> (m - 1 - bit)) & 1] for bit in range(m))
        for idx, key in enumerate(keys)
    }
    return sigma, h


def pcp_to_preserving_transducer(inst: PcpInstance, theta: Permutation) -> Transducer:
    """A transducer that fails to be theta-input-preserving exactly on
    encoded solutions of the classic instance.

    The input format is h(u·v): a block-coded letter word u followed by
    block-coded tile indices v.  Words outside that format get the full
    output relation.  For formatted words, one component per tile side
    reads the theta-image output: it emits the reversed index blocks while
    consuming the corresponding tile chain from u, and can escape to an
    absorbing state at any certified mismatch.  No escape exists exactly
    when u is the tile chain spelled by v — for both sides at once, i.e.
    when the input encodes a solution.
    """
    if len(theta.alphabet) < 2:
        raise ValueError("need at least two letters to block-code the instance")
    alphabet = theta.alphabet
    sigma, h = _block_code(inst, theta)
    ell = len(inst)

    def h_sigma(w: str) -> str:
        return "".join(h[("s", c)] for c in w)

    idx_keys = [("i", j) for j in range(ell)]
    all_keys = [("s", c) for c in sigma] + idx_keys

    # Component 1: full relation on inputs outside the h(Σ⁺ A_ℓ⁺) format.
    sigma_blocks = reduce(nfa_union, [Nfa.word(alphabet, h[("s", c)]) for c in sigma])
    index_blocks = reduce(nfa_union, [Nfa.word(alphabet, h[k]) for k in idx_keys])
    formatted = concat(plus(sigma_blocks), plus(index_blocks))
    outside = complement(formatted)
    edges: list[tuple[int, str, str, int]] = [
        (src, sym, "", dst) for src, sym, dst in outside.edges
    ]
    sink = outside.n_states
    for f in outside.final:
        edges.append((f, "", "", sink))
    for a in alphabet.symbols:
        edges.append((sink, "", a, sink))
    t_r = Transducer(
        alphabet, sink + 1, tuple(edges), frozenset(outside.initial), frozenset({sink})
    )

    def chain_component(tiles: tuple[str, ...]) -> Transducer:
        e: list[tuple[int, str, str, int]] = []
        for j, tile in enumerate(tiles):
            out_block = theta(h[("i", j)])
            # on-track loop: consume the tile's chain part, emit its index
            e.append((0, h_sigma(tile), out_block, 0))
            # escapes: the letter word ran out while index output remains…
            for key in idx_keys:
                e.append((0, h[key], out_block, 1))
            # …or it continues with a wrong letter sequence…
            for r in range(1, len(tile) + 1):
                for z in itertools.product(sigma, repeat=r):
                    cand = "".join(z)
                    if tile.startswith(cand):
                        continue
                    e.append((0, h_sigma(cand), out_block, 1))
            # …or it stops partway into the tile at an index block.
            for cut in range(1, len(tile)):
                prefix = h_sigma(tile[:cut])
                for key in idx_keys:
                    e.append((0, prefix + h[key], out_block, 1))
        for a, b in itertools.product(sigma, repeat=2):
            # letter-vs-letter position: the index outputs were exhausted
            # before the letter word was, which no solution encoding allows
            e.append((0, h[("s", a)], theta(h[("s", b)]), 1))
        for key in all_keys:
            e.append((1, h[key], "", 1))
            e.append((1, "", theta(h[key]), 1))
        return Transducer(alphabet, 2, tuple(e), frozenset({0}), frozenset({1}))

    return t_union(t_r, t_union(chain_component(inst.alpha), chain_component(inst.beta)))


def theta_pcp_to_one_state_transducer(inst: ThetaPcpInstance) -> Transducer:
    """One-state transducer looping (alpha_i, theta²(beta_i)) per tile.

    Its realized pairs are the per-sequence concatenations, so theta(w)
    is among its outputs on w exactly when w is the alpha-concatenation of
    a solution: the machine is theta-input-altering iff no solution exists.
    """
    theta2 = perm_compose(inst.theta, inst.theta)
    edges = tuple((0, a, theta2(b), 0) for a, b in zip(inst.alpha, inst.beta))
    return Transducer(inst.theta.alphabet, 1, edges, frozenset({0}), frozenset({0}))
