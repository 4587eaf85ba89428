"""Constructors for the DNA-motivated family of code properties.

Every property here forbids a *constellation*: a language word u·w·v and a
second word theta(x·w·y) sharing the nonempty core w, where the four
context words u, v (input side) and x, y (output side) may or may not be
allowed to be nonempty.  A transducer reads u·w·v and outputs x·w·y; the
strict machine also allows all four contexts empty (so a word may not even
bond with its own theta-image), while the weak-family machine forces at
least one context letter.

Three variants per named property: ``strict`` (strict family, strict
reading), ``normal`` (weak family, strict reading) and ``weak`` (weak
family, weak reading where a word may bond with itself).
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabets import Alphabet, Permutation
from .errors import DnaCodecError
from .properties import (
    INPUT_ALTERING,
    PropertyDescriptor,
    S_KIND,
    UNRESTRICTED,
    W_KIND,
)
from .transducers import Transducer, trim, union as t_union

STRICT = "strict"
NORMAL = "normal"
WEAK = "weak"
VARIANTS = (STRICT, NORMAL, WEAK)


@dataclass(frozen=True)
class ConstellationPattern:
    """Which context words of the forbidden constellation may be nonempty.

    ``u``/``v`` flank the core on the input side, ``x``/``y`` on the
    output side.
    """

    u_allowed: bool = False
    v_allowed: bool = False
    x_allowed: bool = False
    y_allowed: bool = False

    @classmethod
    def of(cls, letters: str) -> "ConstellationPattern":
        extra = set(letters) - set("uvxy")
        if extra:
            raise ValueError(f"unknown context letters {sorted(extra)}")
        return cls("u" in letters, "v" in letters, "x" in letters, "y" in letters)


def build_pattern_transducer(
    pat: ConstellationPattern, family: str, alphabet: Alphabet
) -> Transducer:
    """The constellation transducer (input u·w·v, output x·w·y, w nonempty).

    ``family="strict"`` is the 3-state machine that also realizes the pure
    core pairs (w, w); ``family="weak"`` is the 4-state machine that
    demands at least one context letter — an upper path forcing a right
    context and a lower path forcing a left context.  The machine is
    returned trimmed: a pattern that bans both contexts of one side leaves
    a path's state with no way in (state 2) or out (state 1).
    """
    symbols = alphabet.symbols
    edges: list[tuple[int, str, str, int]] = []

    def contexts(state: int, input_side: bool, output_side: bool) -> None:
        for a in symbols:
            if input_side:
                edges.append((state, a, "", state))
            if output_side:
                edges.append((state, "", a, state))

    if family == STRICT:
        contexts(0, pat.u_allowed, pat.x_allowed)  # left contexts
        for a in symbols:
            edges.append((0, a, a, 1))
            edges.append((1, a, a, 1))
        edges.append((1, "", "", 2))
        contexts(2, pat.v_allowed, pat.y_allowed)  # right contexts
        return Transducer(alphabet, 3, tuple(edges), frozenset({0}), frozenset({2}))
    if family == WEAK:
        contexts(0, pat.u_allowed, pat.x_allowed)
        for a in symbols:
            edges.append((0, a, a, 1))
            edges.append((1, a, a, 1))
            edges.append((2, a, a, 2))
            edges.append((2, a, a, 3))
            # upper path: core first, one right-context letter to reach 3
            if pat.v_allowed:
                edges.append((1, a, "", 3))
            if pat.y_allowed:
                edges.append((1, "", a, 3))
            # lower path: one left-context letter before the core
            if pat.u_allowed:
                edges.append((0, a, "", 2))
            if pat.x_allowed:
                edges.append((0, "", a, 2))
        contexts(3, pat.v_allowed, pat.y_allowed)
        return trim(Transducer(alphabet, 4, tuple(edges), frozenset({0}), frozenset({3})))
    raise ValueError(f"family must be '{STRICT}' or '{WEAK}', got {family!r}")


_PATTERNS = {
    "nonoverlapping": "",
    "compliant": "uv",
    "p-compliant": "v",
    "s-compliant": "u",
    "5-overhang-free": "uy",
    "3-overhang-free": "vx",
    "sticky-free": "vy",
}

PROPERTY_NAMES = tuple(sorted(_PATTERNS)) + ("overhang-free",)


def _is_altering(pat: ConstellationPattern) -> bool:
    """The weak-family machine forces a strict length change exactly when
    one whole side of contexts is banned."""
    return (not pat.x_allowed and not pat.y_allowed) or (
        not pat.u_allowed and not pat.v_allowed
    )


def named_property(name: str, variant: str, theta: Permutation) -> PropertyDescriptor:
    """A named DNA property as a ready-to-decide descriptor."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not theta.antimorphic or not theta.is_involution():
        raise ValueError("DNA properties require an antimorphic involution")
    if name == "nonoverlapping" and variant != STRICT:
        raise DnaCodecError("nonoverlapping exists only in the strict variant")
    family = STRICT if variant == STRICT else WEAK
    if name == "overhang-free":
        five = build_pattern_transducer(ConstellationPattern.of("uy"), family, theta.alphabet)
        three = build_pattern_transducer(ConstellationPattern.of("vx"), family, theta.alphabet)
        machine = t_union(five, three)
        altering = False
    elif name in _PATTERNS:
        pat = ConstellationPattern.of(_PATTERNS[name])
        machine = build_pattern_transducer(pat, family, theta.alphabet)
        altering = family == WEAK and _is_altering(pat)
    else:
        raise ValueError(f"unknown property name {name!r}; expected one of {PROPERTY_NAMES}")
    return PropertyDescriptor(
        machine,
        theta,
        kind=W_KIND if variant == WEAK else S_KIND,
        asserted_class=INPUT_ALTERING if altering else UNRESTRICTED,
        name=f"{name} ({variant})",
    )


def hamming_property(min_len_2: bool, theta: Permutation) -> PropertyDescriptor:
    """Words may not come within Hamming distance 1 of a theta-image.

    Both machines realize the same relation — equal-length pairs with at
    most one mismatch; the ``min_len_2`` machine spells out the mismatch
    position cases with four states instead of two.
    """
    symbols = theta.alphabet.symbols
    edges: list[tuple[int, str, str, int]] = []
    if not min_len_2:
        for a in symbols:
            edges.append((0, a, a, 0))
            edges.append((1, a, a, 1))
            for b in symbols:
                if b != a:
                    edges.append((0, a, b, 1))
        machine = Transducer(
            theta.alphabet, 2, tuple(edges), frozenset({0}), frozenset({0, 1})
        )
        label = "hamming-ge-2"
    else:
        for a in symbols:
            edges.append((0, a, a, 1))
            edges.append((0, a, a, 2))
            edges.append((2, a, a, 2))
            edges.append((3, a, a, 3))
            for b in symbols:
                if b != a:
                    edges.append((0, a, b, 3))
                    edges.append((2, a, b, 3))
        machine = Transducer(
            theta.alphabet, 4, tuple(edges), frozenset({0}), frozenset({0, 1, 2, 3})
        )
        label = "hamming-ge-2-min-len-2"
    return PropertyDescriptor(machine, theta, kind=S_KIND, asserted_class=UNRESTRICTED, name=label)


def hierarchy_edges() -> tuple[tuple[str, str], ...]:
    """Implication edges (stronger, weaker) among the named properties,
    valid variant-wise (edges into nonoverlapping apply to strict only)."""
    return (
        ("overhang-free", "5-overhang-free"),
        ("overhang-free", "3-overhang-free"),
        ("5-overhang-free", "s-compliant"),
        ("3-overhang-free", "p-compliant"),
        ("sticky-free", "s-compliant"),
        ("sticky-free", "p-compliant"),
        ("compliant", "s-compliant"),
        ("compliant", "p-compliant"),
        ("s-compliant", "nonoverlapping"),
        ("p-compliant", "nonoverlapping"),
    )
