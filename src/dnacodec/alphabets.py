"""Alphabets and (anti)morphic permutations on words.

Words are plain Python strings over a declared alphabet of single
characters.  A *morphic* permutation maps a word letter by letter; an
*antimorphic* one additionally reverses the word, so it satisfies
``theta(uv) == theta(v) + theta(u)``.  The DNA involution (A<->T, C<->G,
antimorphic) and the mirror map (identity table, antimorphic) are the two
instances used throughout, but any letter bijection works.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Alphabet:
    """An ordered, duplicate-free tuple of single-character symbols.

    The declared symbol order is semantic: lexicographic comparisons,
    shortest-word tie-breaking and word enumeration all follow it.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet needs at least one symbol")
        for s in self.symbols:
            if not (isinstance(s, str) and len(s) == 1):
                raise ValueError(f"alphabet symbols must be single characters, got {s!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError(f"duplicate symbols in alphabet {self.symbols!r}")
        object.__setattr__(self, "_pos", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def of(cls, chars: Iterable[str]) -> "Alphabet":
        return cls(tuple(chars))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, sym: object) -> bool:
        return sym in self._pos  # type: ignore[attr-defined]

    def position(self, sym: str) -> int:
        return self._pos[sym]  # type: ignore[attr-defined]

    def check_word(self, word: str) -> str:
        for ch in word:
            if ch not in self:
                raise ValueError(f"symbol {ch!r} not in alphabet {''.join(self.symbols)!r}")
        return word


DNA = Alphabet.of("ACGT")
BINARY = Alphabet.of("01")


@dataclass(frozen=True)
class Permutation:
    """A letter bijection extended to words, morphically or antimorphically.

    ``table[i]`` is the image of ``alphabet.symbols[i]``.  Applying an
    antimorphic permutation to a word maps each letter and reverses the
    result; a morphic one only maps letters.  Either way the length is
    preserved and the word map is a bijection on each ``A^n``.
    """

    alphabet: Alphabet
    table: tuple[str, ...]
    antimorphic: bool = False

    def __post_init__(self):
        if len(self.table) != len(self.alphabet):
            raise ValueError("permutation table must cover the whole alphabet")
        if set(self.table) != set(self.alphabet.symbols):
            raise ValueError(f"table {self.table!r} is not a bijection on {self.alphabet.symbols!r}")
        object.__setattr__(
            self, "_map", dict(zip(self.alphabet.symbols, self.table))
        )

    @classmethod
    def identity(cls, alphabet: Alphabet, antimorphic: bool = False) -> "Permutation":
        return cls(alphabet, tuple(alphabet.symbols), antimorphic)

    @classmethod
    def mirror(cls, alphabet: Alphabet) -> "Permutation":
        """Word reversal: the antimorphic permutation with identity table."""
        return cls(alphabet, tuple(alphabet.symbols), antimorphic=True)

    @classmethod
    def from_mapping(
        cls, alphabet: Alphabet, mapping: dict[str, str], antimorphic: bool = False
    ) -> "Permutation":
        missing = [s for s in alphabet.symbols if s not in mapping]
        if missing:
            raise ValueError(f"mapping misses symbols {missing!r}")
        table = tuple(mapping[s] for s in alphabet.symbols)
        return cls(alphabet, table, antimorphic)

    def image(self, sym: str) -> str:
        """Image of a single letter (mode plays no role on letters)."""
        return self._map[sym]  # type: ignore[attr-defined]

    def __call__(self, word: str) -> str:
        m = self._map  # type: ignore[attr-defined]
        out = [m[ch] for ch in word]
        if self.antimorphic:
            out.reverse()
        return "".join(out)

    def inverse(self) -> "Permutation":
        """The inverse permutation, of the same mode; built once and stored on the instance."""
        if "_inverse" not in self.__dict__:
            mapping = {img: src for src, img in zip(self.alphabet.symbols, self.table)}
            inv = Permutation.from_mapping(self.alphabet, mapping, self.antimorphic)
            object.__setattr__(self, "_inverse", inv)
        return self._inverse  # type: ignore[attr-defined]

    def order(self) -> int:
        """Multiplicative order of the letter table (mode ignored)."""
        seen: set[str] = set()
        result = 1
        for start in self.alphabet.symbols:
            if start in seen:
                continue
            length = 0
            cur = start
            while True:
                seen.add(cur)
                length += 1
                cur = self.image(cur)
                if cur == start:
                    break
            result = math.lcm(result, length)
        return result

    def is_involution(self) -> bool:
        """True when applying the letter table twice is the identity (stored once computed)."""
        if "_involution" not in self.__dict__:
            object.__setattr__(self, "_involution", self.order() <= 2)
        return self._involution  # type: ignore[attr-defined]


@cache
def dna_delta() -> Permutation:
    """The antimorphic DNA involution: A<->T, C<->G, word reversed; one shared instance."""
    return Permutation.from_mapping(DNA, {"A": "T", "T": "A", "C": "G", "G": "C"}, antimorphic=True)


def compose(outer: Permutation, inner: Permutation) -> Permutation:
    """The permutation mapping ``w`` to ``outer(inner(w))``.

    ``inner`` is applied first.  On letters the tables simply compose; the
    result is morphic exactly when the two modes agree (two reversals
    cancel).
    """
    if outer.alphabet != inner.alphabet:
        raise ValueError("cannot compose permutations over different alphabets")
    table = tuple(outer.image(inner.image(s)) for s in outer.alphabet.symbols)
    return Permutation(outer.alphabet, table, outer.antimorphic != inner.antimorphic)
