"""Trajectory-directed shuffle/deletion and bond-free property compilation.

A *trajectory* is a word over {0, 1} that directs how two words interleave:
reading the trajectory left to right, a ``0`` takes the next letter of the
core word and a ``1`` takes the next letter of the inserted word.  Deletion
is the converse reading: ``1`` positions are removed and must spell the
deleted word, ``0`` positions spell the result.

A regular expression over {0, 1} then denotes a set of trajectories, and a
pair of such expressions (one for deletion, one for insertion) describes a
language operator: delete something from a language word, keep a nonempty
core, insert something else.  A language avoids unwanted bonds when the
theta-image of the language never meets the operator's output.  This module
provides the word-level operations, the four elementary transducers the
operator factors through (T4 is T2 on the trajectories that hold a 1), and
the compilation of a trajectory pair into a property descriptor; the
language-level operator is the image under the compiled machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .alphabets import BINARY, Alphabet, Permutation
from .automata import Nfa, intersect as nfa_intersect, parse_regex, remove_epsilon
from .properties import PropertyDescriptor, S_KIND, UNRESTRICTED
from .transducers import (
    Transducer,
    compose,
    image,
    inverse,
    restrict_input,
    trim,
    union as t_union,
)


def shuffle_on_trajectory(x: str, t: str, w: str) -> Optional[str]:
    """Interleave ``x`` (on the 0s of ``t``) with ``w`` (on the 1s).

    Returns None when the trajectory does not fit the two lengths.
    """
    if not set(t) <= {"0", "1"} or (t.count("0"), t.count("1")) != (len(x), len(w)):
        return None
    letters = iter(x), iter(w)
    return "".join(next(letters[int(c)]) for c in t)


def delete_on_trajectory(y: str, t: str, w: str) -> Optional[str]:
    """Remove the 1-positions of ``y`` (which must spell ``w``); return the rest.

    Returns None when lengths disagree or the removed letters are not ``w``.
    """
    if len(t) != len(y) or not set(t) <= {"0", "1"}:
        return None
    if "".join(a for c, a in zip(t, y) if c == "1") != w:
        return None
    return "".join(a for c, a in zip(t, y) if c == "0")


@dataclass(frozen=True)
class TrajectoryPair:
    """A deletion/insertion pair of trajectory regular expressions.

    ``strict`` lets the operator also delete and insert nothing (where e1
    and e2 allow it), which makes the property stricter.
    """

    e1: str
    e2: str
    strict: bool = False

    def __post_init__(self):
        for expr in (self.e1, self.e2):
            parse_regex(expr, BINARY)


def trajectory_nfa(e: str) -> Nfa:
    """Compile a trajectory regular expression to a trimmed ε-free NFA."""
    return trim(remove_epsilon(parse_regex(e, BINARY)))


_OPS = ("T1", "T2", "T3", "T4")

# Trajectories that hold a 1: state 0 is "no 1 yet", state 1 "a 1 seen".
_ONE_SEEN = Nfa(BINARY, 2, ((0, "0", 0), (0, "1", 1), (1, "0", 1), (1, "1", 1)), {0}, {1})


def build_op_transducer(which: str, e: str, alphabet: Alphabet) -> Transducer:
    """One of the four elementary trajectory operators as a transducer.

    * ``T2``: insert any word along ``e``   (x ↦ every shuffle of x with A*)
    * ``T4``: insert a nonempty word along ``e``
    * ``T1``: delete any word along ``e``   — the inverse of T2
    * ``T3``: delete a nonempty word along ``e`` — the inverse of T4

    T2 reads the trajectory automaton directly: 0-transitions copy an input
    letter, 1-transitions emit a fresh output letter.  T4 is T2 on the
    trajectories of ``e`` that hold a 1.
    """
    if which not in _OPS:
        raise ValueError(f"operator must be one of {_OPS}, got {which!r}")
    if which == "T1":
        return inverse(build_op_transducer("T2", e, alphabet))
    if which == "T3":
        return inverse(build_op_transducer("T4", e, alphabet))
    n = trajectory_nfa(e)
    if n.n_states == 0:
        return Transducer.empty(alphabet)
    if which == "T4":
        n = nfa_intersect(n, _ONE_SEEN)
    edges = tuple((src, a if sym == "0" else "", a, dst) for src, sym, dst in n.edges for a in alphabet)
    return Transducer(alphabet, n.n_states, edges, n.initial, n.final)


def _operator(p: TrajectoryPair, alphabet: Alphabet) -> Transducer:
    """The bond-free operator of ``p`` as one trimmed machine: delete along
    e1, keep a nonempty core, insert along e2.  The non-strict variant must
    delete or insert something: the union of "deleted something" and
    "inserted something".  T1/T3 with a nonempty core are the inverses of
    T2/T4 on nonempty inputs: the view of T2/T4 splits each two-letter edge
    input letter first, and the compiled properties come out smaller than
    from T1/T3 on nonempty outputs (62 rather than 94 states for
    ``1*0+1*``/``0+`` strict)."""
    nonempty = Nfa.nonempty(alphabet)

    def deleting(op: str) -> Transducer:  # T1 from "T2", T3 from "T4"
        return inverse(restrict_input(build_op_transducer(op, p.e1, alphabet), nonempty))

    t2 = build_op_transducer("T2", p.e2, alphabet)
    if p.strict:
        return trim(compose(t2, deleting("T2")))
    t4 = build_op_transducer("T4", p.e2, alphabet)
    return trim(t_union(compose(t2, deleting("T4")), compose(t4, deleting("T2"))))


def bond_free_operator(p: TrajectoryPair, l: Nfa) -> Nfa:
    """The bond-free operator applied to a language: its image under the
    machine that ``compile_trajectory_property`` compiles."""
    return image(_operator(p, l.alphabet), l)


def compile_trajectory_property(p: TrajectoryPair, theta: Permutation) -> PropertyDescriptor:
    """Compile a trajectory pair into a strict-kind property descriptor.

    The compiled transducer realizes exactly the bond-free operator, so a
    language satisfies the property iff its theta-image avoids the
    operator's output on it.
    """
    if not theta.antimorphic or not theta.is_involution():
        raise ValueError("trajectory properties require an antimorphic involution")
    flavor = "strict" if p.strict else "nonstrict"
    return PropertyDescriptor(
        _operator(p, theta.alphabet), theta, kind=S_KIND, asserted_class=UNRESTRICTED,
        name=f"bond-free({p.e1}; {p.e2}; {flavor})",
    )
