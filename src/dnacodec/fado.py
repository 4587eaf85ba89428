"""Plain-text machine format compatible with the FAdo toolkit.

Documents start with a header line naming the machine kind and listing
final states, a ``*`` separator, and initial states::

    @Transducer 2 * 0        @NFA 1 * 0
    0 a @epsilon 0           0 a 1
    0 a a 1

Each following line is one transition: ``src input output dst`` for
transducers, ``src symbol dst`` for automata, with ``@epsilon`` denoting
the empty label.  State names are arbitrary tokens; labels must be single
characters.  The alphabet is inferred from the labels unless given
explicitly (an explicit alphabet must cover the inferred one).  Machines
with no labelled transitions and no explicit alphabet default to {a, b}.

``parse_fado`` checks, in this order: the header's kind and its one ``*``;
each transition line's field count and one-character labels, reporting the
first line at fault; then that a given alphabet holds every label, reporting
the first line with one outside it.  States are numbered as they first appear
(the header's finals, its initials, then each line's source before its
target), so every edge is in range, and the machine is built through
``_trusted``: the constructor does not check it a second time.
"""

from __future__ import annotations

from typing import Optional

from .alphabets import Alphabet
from .automata import Machine, Nfa
from .errors import FormatError
from .transducers import Transducer, normalize

_EPSILON = "@epsilon"
_ARITY = {"@NFA": 3, "@Transducer": 4}  # the fields of a transition line


def unescape_cli_text(text: str) -> str:
    """Turn literal two-character ``\\n`` sequences into real newlines.

    Command-line arguments often carry machine documents on one line; files
    are never unescaped.
    """
    return text.replace("\\n", "\n")


def parse_fado(text: str, alphabet: Optional[Alphabet] = None) -> Machine:
    """Parse a machine document; returns an Nfa or Transducer by header.

    One pass reads the lines in order and checks each once, so the first malformed line
    is the one reported; the machine is built unchecked (see the module docstring).
    """
    lines = enumerate(text.splitlines(), start=1)
    for header_no, line in lines:
        tokens = line.split()
        if tokens:
            break
    else:
        raise FormatError("empty document", 1)
    kind = tokens[0]
    if kind not in _ARITY:
        raise FormatError(f"unknown machine kind {kind!r}", header_no)
    if tokens.count("*") != 1:
        raise FormatError("header needs exactly one '*' separating finals from initials", header_no)
    sep = tokens.index("*")
    names: dict[str, int] = {}  # each state name -> its number, in order of first appearance
    number = names.setdefault
    final = [number(q, len(names)) for q in tokens[1:sep]]
    initial = [number(q, len(names)) for q in tokens[sep + 1 :]]
    edges: list[tuple] = []
    add, arity = edges.append, _ARITY[kind]
    labels: dict[str, int] = {}  # each label, @epsilon too -> the line it first appears on
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != arity:
            if parts:
                fault = FormatError(f"expected {arity} fields per transition, got {len(parts)}", lineno)
                raise _first_fault(labels, fault)
        elif arity == 3:
            src, a, dst = parts
            if a not in labels:
                labels[a] = lineno
            add((number(src, len(names)), None if a == _EPSILON else a, number(dst, len(names))))
        else:
            src, a, b, dst = parts
            if a not in labels:
                labels[a] = lineno
            if b not in labels:
                labels[b] = lineno
            a, b = "" if a == _EPSILON else a, "" if b == _EPSILON else b
            add((number(src, len(names)), a, b, number(dst, len(names))))
    fault = _first_fault(labels)
    if fault:
        raise fault
    if alphabet is None:
        alphabet = Alphabet.of(sorted(labels.keys() - {_EPSILON}) or "ab")
    else:
        missing = labels.keys() - {_EPSILON, *alphabet.symbols}
        if missing:
            raise FormatError(f"labels {sorted(missing)} not in the given alphabet", min(map(labels.get, missing)))
    return (Nfa if arity == 3 else Transducer)._trusted(alphabet, max(len(names), 1), edges, initial, final)


def _first_fault(labels: dict[str, int], fault: Optional[FormatError] = None) -> Optional[FormatError]:
    """``fault``, found on the line being read, unless a line before it carries a
    multi-symbol label: then the error for the first such label."""
    bad = [a for a in labels if len(a) != 1 and a != _EPSILON]
    if not bad:
        return fault
    first = min(bad, key=labels.__getitem__)  # ties keep line order: labels holds first appearances
    return FormatError(f"multi-symbol label {first!r}", labels[first])


def serialize_fado(machine: Machine) -> str:
    """Render a machine as a document; ``parse_fado`` round-trips it.

    Transducers are label-normalized first so every emitted label is a
    single symbol or ``@epsilon``; output ordering is deterministic.
    """
    if isinstance(machine, Transducer):
        machine, kind = normalize(machine), "@Transducer"
        body = sorted((src, inp or _EPSILON, out or _EPSILON, dst) for src, inp, out, dst in machine.edges)
    else:
        kind = "@NFA"
        body = sorted((src, _EPSILON if sym is None else sym, dst) for src, sym, dst in machine.edges)
    header = (kind, *sorted(machine.final), "*", *sorted(machine.initial))
    return "\n".join(" ".join(map(str, row)) for row in (header, *body)) + "\n"
