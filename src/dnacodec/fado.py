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
"""

from __future__ import annotations

from typing import Optional

from .alphabets import Alphabet
from .automata import Machine, Nfa
from .errors import FormatError
from .transducers import Transducer, normalize

_EPSILON = "@epsilon"


def unescape_cli_text(text: str) -> str:
    """Turn literal two-character ``\\n`` sequences into real newlines.

    Command-line arguments often carry machine documents on one line; files
    are never unescaped.
    """
    return text.replace("\\n", "\n")


def parse_fado(text: str, alphabet: Optional[Alphabet] = None) -> Machine:
    """Parse a machine document; returns an Nfa or Transducer by header."""
    numbered = [
        (lineno, line.strip())
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not numbered:
        raise FormatError("empty document", 1)
    header_no, header = numbered[0]
    tokens = header.split()
    kind = tokens[0]
    if kind not in ("@Transducer", "@NFA"):
        raise FormatError(f"unknown machine kind {kind!r}", header_no)
    if tokens.count("*") != 1:
        raise FormatError("header needs exactly one '*' separating finals from initials", header_no)
    sep = tokens.index("*")
    final_names = tokens[1:sep]
    initial_names = tokens[sep + 1 :]

    names: dict[str, int] = {}

    def state(name: str) -> int:
        if name not in names:
            names[name] = len(names)
        return names[name]

    finals = frozenset(state(n) for n in final_names)
    initials = frozenset(state(n) for n in initial_names)

    arity = 4 if kind == "@Transducer" else 3
    rows: list[tuple] = []
    labels: dict[str, int] = {}  # each label -> the line it first appears on
    for lineno, line in numbered[1:]:
        parts = line.split()
        if len(parts) != arity:
            raise FormatError(
                f"expected {arity} fields per transition, got {len(parts)}", lineno
            )
        for label in parts[1:-1]:
            if label != _EPSILON and len(label) != 1:
                raise FormatError(f"multi-symbol label {label!r}", lineno)
            if label != _EPSILON:
                labels.setdefault(label, lineno)
        rows.append((state(parts[0]),) + tuple(parts[1:-1]) + (state(parts[-1]),))

    if alphabet is None:
        alphabet = Alphabet.of(sorted(labels)) if labels else Alphabet.of("ab")
    else:
        missing = labels.keys() - set(alphabet.symbols)
        if missing:
            raise FormatError(
                f"labels {sorted(missing)} not in the given alphabet", min(labels[a] for a in missing)
            )
    n_states = max(len(names), 1)

    if kind == "@NFA":
        edges = tuple(
            (src, None if sym == _EPSILON else sym, dst) for src, sym, dst in rows
        )
        return Nfa(alphabet, n_states, edges, initials, finals)
    edges_t = tuple(
        (
            src,
            "" if inp == _EPSILON else inp,
            "" if out == _EPSILON else out,
            dst,
        )
        for src, inp, out, dst in rows
    )
    return Transducer(alphabet, n_states, edges_t, initials, finals)


def serialize_fado(machine: Machine) -> str:
    """Render a machine as a document; ``parse_fado`` round-trips it.

    Transducers are label-normalized first so every emitted label is a
    single symbol or ``@epsilon``; output ordering is deterministic.
    """
    if isinstance(machine, Transducer):
        machine = normalize(machine)
        kind = "@Transducer"
        body = sorted(
            (src, inp if inp else _EPSILON, out if out else _EPSILON, dst)
            for src, inp, out, dst in machine.edges
        )
    else:
        kind = "@NFA"
        body = sorted(
            (src, sym if sym is not None else _EPSILON, dst)
            for src, sym, dst in machine.edges
        )
    header = " ".join(
        [kind]
        + [str(q) for q in sorted(machine.final)]
        + ["*"]
        + [str(q) for q in sorted(machine.initial)]
    )
    lines = [header]
    for row in body:
        lines.append(" ".join(str(part) for part in row))
    return "\n".join(lines) + "\n"
