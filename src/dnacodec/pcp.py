"""Post correspondence problems, their theta variant, and reductions.

A classic instance is a list of tile pairs (alpha_i, beta_i); a solution is
a nonempty index sequence whose alpha- and beta-concatenations agree.  The
theta variant instead demands that the alpha-concatenation equal the
theta-image of the beta-concatenation.

The instance constructors validate alpha, then beta: a list or tuple (not a
str) of nonempty str tiles, over theta's letters for a theta instance, and at
least one; last, equally many of both.  Each failure is a ``ValueError`` that
names the field, e.g. ``field 'beta' must list nonempty words over '01', not '2'``.

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


def _check_tiles(inst, letters: str = "") -> None:
    """The module docstring's checks, in its order, over ``letters`` if given; stores tuples."""
    for name in ("alpha", "beta"):
        tiles = getattr(inst, name)
        if not isinstance(tiles, (list, tuple)):
            raise ValueError(f"field {name!r} must be a list, not {type(tiles).__name__}")
        for w in tiles:
            if not isinstance(w, str) or not w or letters and w.strip(letters):
                over = f" over {letters!r}" if letters else ""
                raise ValueError(f"field {name!r} must list nonempty words{over}, not {w!r}")
        if not tiles:
            raise ValueError(f"field {name!r} must list at least one tile")
        object.__setattr__(inst, name, tuple(tiles))
    if len(inst.beta) != len(inst):
        raise ValueError(f"field 'beta' must list as many tiles as field 'alpha' ({len(inst)}), not {len(inst.beta)}")


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
        _check_tiles(self, "".join(self.theta.alphabet.symbols))

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
    themed = isinstance(inst, ThetaPcpInstance)
    if themed:
        deltas = [len(a) - len(b) for a, b in zip(inst.alpha, inst.beta)]
        lo, hi = min(deltas), max(deltas)

    def walk(seq: tuple[int, ...], a: str, b: str, left: int) -> Optional[tuple[int, ...]]:
        """The first solution that extends ``seq`` by exactly ``left`` tiles."""
        if not left:
            return seq if a == (inst.theta(b) if themed else b) else None
        for j, (x, y) in enumerate(zip(inst.alpha, inst.beta)):
            na, nb = a + x, b + y
            if themed:
                diff = len(na) - len(nb)
                if diff + (left - 1) * hi < 0 or diff + (left - 1) * lo > 0:
                    continue
            elif not (na.startswith(nb) or nb.startswith(na)):
                continue
            found = walk(seq + (j,), na, nb, left - 1)
            if found is not None:
                return found
        return None

    return next(filter(None, (walk((), "", "", depth) for depth in range(1, max_seq_len + 1))), None)


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


def _block_code(inst: PcpInstance, theta: Permutation) -> tuple[dict[str, str], list[str]]:
    """Fixed-width binary blocks over theta's first two letters, numbered first for the
    instance's letters in sorted order, then for its tile indices: ``(letter -> block, index blocks)``."""
    sigma = sorted(set("".join(inst.alpha + inst.beta)))
    n = len(sigma) + len(inst)
    m = max(1, math.ceil(math.log2(n)))
    b = theta.alphabet.symbols[:2]
    blocks = ["".join(b[(idx >> (m - 1 - bit)) & 1] for bit in range(m)) for idx in range(n)]
    return dict(zip(sigma, blocks)), blocks[len(sigma):]


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
    letter, index = _block_code(inst, theta)

    def h_sigma(w: str) -> str:
        return "".join(letter[c] for c in w)

    # Component 1: full relation on inputs outside the h(Σ⁺ A_ℓ⁺) format.
    sigma_blocks = reduce(nfa_union, [Nfa.word(alphabet, x) for x in letter.values()])
    index_blocks = reduce(nfa_union, [Nfa.word(alphabet, x) for x in index])
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
        for tile, block in zip(tiles, index):
            out_block = theta(block)
            # on-track loop: consume the tile's chain part, emit its index
            e.append((0, h_sigma(tile), out_block, 0))
            # escapes: the letter word ran out while index output remains…
            for x in index:
                e.append((0, x, out_block, 1))
            # …or it continues with a wrong letter, read up to its first
            # deviation from the tile; state 1 absorbs whatever follows…
            for k, c in itertools.product(range(len(tile)), letter):
                if c != tile[k]:
                    e.append((0, h_sigma(tile[:k] + c), out_block, 1))
            # …or it stops partway into the tile at an index block.
            for cut in range(1, len(tile)):
                prefix = h_sigma(tile[:cut])
                for x in index:
                    e.append((0, prefix + x, out_block, 1))
        for x, y in itertools.product(letter.values(), repeat=2):
            # letter-vs-letter position: the index outputs were exhausted
            # before the letter word was, which no solution encoding allows
            e.append((0, x, theta(y), 1))
        for x in [*letter.values(), *index]:
            e.append((1, x, "", 1))
            e.append((1, "", theta(x), 1))
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
