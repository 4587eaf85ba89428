"""Command-line front end.

Subcommands::

    dnacodec satisfies --property desc.json --language lang.fa [--json]
    dnacodec maximal   --property desc.json --language lang.fa [--json]
    dnacodec build-property (--dna NAME [--variant V] | --trajectory E1 E2
                             [--strict]) --theta T [--alphabet SYMS] [-o OUT]
    dnacodec pcp {reduce,solve,check} --instance inst.json [--theta T]
                             [--bound N] [--solution 0,1] [-o OUT]
    dnacodec transducer check --mode {altering,preserving,functional,identity}
                             [--bound N] MACHINE [--theta T]

Exit codes: 0 for a positive verdict, 1 for a negative one (witness
printed), 2 for errors (parse failures, resource caps, refuted class
assertions).  ``--language`` may name a directory, in which case every
``*.fa`` file inside is checked, one after another in sorted order; the
descriptor's class assertion is checked once for all of them.

Property descriptors are JSON documents::

    {"kind": "S"|"W", "class": "unrestricted"|"altering"|"preserving",
     "theta": "dna-delta"|"identity"|"mirror"|{"table": {...}, "mode": ...},
     "transducer": "...fado text or path..."
                   | {"trajectory": {"e1": ..., "e2": ..., "strict": ...}}
                   | {"dna": {"name": ..., "variant": ...}},
     "alphabet": "ACGT"  (optional; for built-in theta names)}
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import cache
from typing import Optional

from .alphabets import BINARY, DNA, Alphabet, Permutation, dna_delta
from .automata import Nfa, parse_regex
from .dna import PROPERTY_NAMES, VARIANTS, named_property
from .errors import DnaCodecError, FormatError
from .fado import parse_fado, serialize_fado, unescape_cli_text
from .pcp import (
    PcpInstance,
    ThetaPcpInstance,
    check_solution,
    reduce_pcp_to_theta_pcp,
    solve_bounded,
)
from .properties import (
    CLASSES,
    INPUT_ALTERING,
    INPUT_PRESERVING,
    S_KIND,
    W_KIND,
    PropertyDescriptor,
    Verdict,
    is_maximal,
    satisfies,
)
from .trajectories import TrajectoryPair, compile_trajectory_property
from .transducers import Transducer, bounded_counterexample, is_functional, is_partial_identity, normalize, trim

_REQUIRED = object()
_TYPE_NAMES = {str: "a string", dict: "an object", list: "a list", bool: "a boolean"}


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise FormatError(f"{what} must be a JSON object, not {type(value).__name__}")
    return value


def _field(doc: dict, name: str, types: tuple, default=_REQUIRED, path: str = "", choices=None):
    """``doc[name]`` if it has one of ``types`` (and is one of ``choices``,
    when given); ``default`` when absent.

    A missing required field or a value of another type or outside the
    choices raises a :class:`FormatError` naming the field (``path`` + ``name``).
    """
    if name not in doc:
        if default is _REQUIRED:
            raise FormatError(f"missing field {path + name!r}")
        return default
    value = doc[name]
    if not isinstance(value, types):
        expected = " or ".join(_TYPE_NAMES[t] for t in types)
        raise FormatError(f"field {path + name!r} must be {expected}, not {type(value).__name__}")
    if choices is not None and value not in choices:
        raise FormatError(f"field {path + name!r} must be one of {', '.join(choices)}, not {value!r}")
    return value


def _tiles(doc: dict, name: str, theta: Optional[Permutation]) -> tuple[str, ...]:
    """Field ``name`` of a correspondence instance: nonempty words, over theta's letters if given."""
    tiles, letters = _field(doc, name, (list,)), "".join(theta.alphabet.symbols) if theta else ""
    for w in tiles:
        if not isinstance(w, str) or not w or letters and w.strip(letters):
            over = f" over {letters!r}" if letters else ""
            raise FormatError(f"field {name!r} must list nonempty words{over}, not {w!r}")
    if not tiles:
        raise FormatError(f"field {name!r} must list at least one tile")
    return tuple(tiles)


def _machine(
    source: str, kind: type, where: str, alphabet: Optional[Alphabet] = None, base_dir: str = "", inline: bool = True
):
    """The machine of ``kind`` (``Nfa`` or ``Transducer``) that ``source`` holds.

    Under ``inline``, ``source`` is the document itself, literal \\n sequences
    unescaped, when it holds a line break or starts with ``@``; otherwise it is a
    path, relative to ``base_dir``.  A parse, decoding or kind error names ``where``.
    """
    try:
        if inline and ("\n" in source or source.lstrip().startswith("@")):
            text = unescape_cli_text(source)
        else:
            with open(os.path.join(base_dir, source), encoding="utf-8") as fh:
                text = fh.read()
        machine = parse_fado(text, alphabet)
    except (FormatError, UnicodeDecodeError) as exc:
        raise FormatError(f"{where}: {exc}") from None
    if not isinstance(machine, kind):
        want, got = ("an NFA", "a transducer") if kind is Nfa else ("a transducer", "an NFA")
        raise FormatError(f"{where} must hold {want}, but holds {got}")
    return machine


def _theta_from_spec(spec, hint: Optional[Alphabet] = None, where: str = "field 'theta'") -> Permutation:
    if isinstance(spec, str):
        name, _, alpha_part = spec.partition(":")
        alphabet = Alphabet.of(alpha_part) if alpha_part else hint
        if name == "dna-delta":
            if alphabet not in (None, DNA):
                raise FormatError(f"{where} dna-delta acts on ACGT, not {''.join(alphabet)!r}")
            return dna_delta()
        if name in ("identity", "mirror"):
            if alphabet is None:
                raise FormatError(f"theta {name!r} needs an alphabet: {name}:SYMBOLS in --theta or field 'theta'")
            maker = Permutation.identity if name == "identity" else Permutation.mirror
            return maker(alphabet)
        raise FormatError(f"{where} must name dna-delta, identity or mirror, not {name!r}")
    if isinstance(spec, dict):
        table = _field(spec, "table", (dict,), path="theta.")
        if not all(isinstance(img, str) for img in table.values()):
            raise FormatError("field 'theta.table' must map symbols to strings")
        symbols = _field(spec, "alphabet", (str,), None, "theta.")
        alphabet = Alphabet.of(symbols if symbols is not None else sorted(table))
        mode = _field(spec, "mode", (str,), "antimorphic", "theta.", ("antimorphic", "morphic"))
        try:
            return Permutation.from_mapping(alphabet, table, antimorphic=mode == "antimorphic")
        except ValueError as exc:
            raise FormatError(f"field 'theta.table': {exc}") from None
    raise FormatError(f"field 'theta' must be a string or an object, not {type(spec).__name__}")


def _theta_first(spec, source: str, where: str, alphabet=None, base_dir="", theta_where="field 'theta'"):
    """``(theta, transducer)``: unless ``alphabet`` is given, a spec that fixes its own (dna-delta,
    NAME:SYMBOLS or a table) is resolved first and the transducer parsed over theta's alphabet."""
    fixed = alphabet is None and (isinstance(spec, dict) or spec == "dna-delta" or spec.partition(":")[2] != "")
    theta = _theta_from_spec(spec, where=theta_where) if fixed else None
    machine = _machine(source, Transducer, where, theta.alphabet if theta else alphabet, base_dir)
    return theta or _theta_from_spec(spec, machine.alphabet, theta_where), machine


def _trajectory_property(e1: str, e2: str, strict: bool, theta: Permutation, where: str) -> PropertyDescriptor:
    """Compile a trajectory pair; an error in E1 or E2 names it as ``where.format(1)`` or ``(2)``."""
    for i, expr in enumerate((e1, e2), 1):
        try:
            parse_regex(expr, BINARY)
        except (FormatError, ValueError) as exc:
            raise FormatError(f"{where.format(i)}: {exc}") from None
    return compile_trajectory_property(TrajectoryPair(e1, e2, strict), theta)


def _descriptor_from_doc(doc, base_dir: str) -> PropertyDescriptor:
    doc = _object(doc, "descriptor document")
    source = _field(doc, "transducer", (str, dict))
    symbols = _field(doc, "alphabet", (str,), None)
    alphabet = Alphabet.of(symbols) if symbols is not None else None
    theta_spec = _field(doc, "theta", (str, dict), "dna-delta")

    if isinstance(source, dict) and "dna" in source:
        theta = _theta_from_spec(theta_spec, alphabet or DNA)
        spec = _object(source["dna"], "field 'transducer.dna'")
        name = _field(spec, "name", (str,), path="transducer.dna.", choices=PROPERTY_NAMES)
        variant = _field(spec, "variant", (str,), path="transducer.dna.", choices=VARIANTS)
        built = named_property(name, variant, theta)
    elif isinstance(source, dict) and "trajectory" in source:
        spec = _object(source["trajectory"], "field 'transducer.trajectory'")
        theta = _theta_from_spec(theta_spec, alphabet or DNA)
        built = _trajectory_property(
            _field(spec, "e1", (str,), path="transducer.trajectory."),
            _field(spec, "e2", (str,), path="transducer.trajectory."),
            _field(spec, "strict", (bool,), False, "transducer.trajectory."),
            theta, "field 'transducer.trajectory.e{}'",
        )
    elif isinstance(source, dict):
        raise FormatError("field 'transducer' must hold a 'dna' or a 'trajectory' entry")
    else:
        theta, machine = _theta_first(theta_spec, source, "field 'transducer'", alphabet, base_dir)
        built = PropertyDescriptor(machine, theta)

    changes = {}
    if "kind" in doc:
        changes["kind"] = _field(doc, "kind", (str,), choices=(S_KIND, W_KIND))
    if "class" in doc:
        changes["asserted_class"] = _field(doc, "class", (str,), choices=CLASSES)
    if "name" in doc:
        changes["name"] = _field(doc, "name", (str,))
    return dataclasses.replace(built, **changes) if changes else built


def _refuse(args, where: str, owners: dict) -> None:
    """Raise a FormatError for a flag given to ``where`` that only its owner in ``owners`` reads."""
    for flag, owner in owners.items():
        if owner != where and getattr(args, flag[2:]) is not None:
            raise FormatError(f"{flag} applies only to {owner}, not {where}")


def _json_arg(arg: str, flag: str) -> tuple[object, str]:
    """The JSON document that ``arg``, the value of ``flag``, holds inline or names
    by path, and the directory that relative paths inside it start from."""
    inline = arg.lstrip().startswith("{")
    try:
        if inline:
            return json.loads(arg), os.getcwd()
        with open(arg, encoding="utf-8") as fh:
            return json.load(fh), os.path.dirname(os.path.abspath(arg))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        where = flag if inline else f"{flag} file {arg!r}"
        raise FormatError(f"{where}: {exc}") from None


def _write_json(doc: dict, output: Optional[str]) -> None:
    """Write ``doc`` to the file ``output``, or to stdout when there is none."""
    text = json.dumps(doc, indent=2)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_descriptor(arg: str) -> PropertyDescriptor:
    return _descriptor_from_doc(*_json_arg(arg, "--property"))


def _language_files(arg: str) -> list[str]:
    if os.path.isdir(arg):
        files = sorted(
            os.path.join(arg, name) for name in os.listdir(arg) if name.endswith(".fa")
        )
        if not files:
            raise FormatError(f"--language directory {arg!r} holds no .fa files")
        return files
    return [arg]


def _verdict_payload(v: Verdict) -> dict:
    witness = v.witness
    if isinstance(witness, tuple):
        witness = list(witness)
    return {"satisfied": v.satisfied, "witness": witness, "decider": v.decider, "stats": v.stats}


def _run_over_languages(args, decide) -> int:
    """Apply ``decide`` (``satisfies`` or ``is_maximal``) to each language file."""
    if args.assertion_bound < 0:  # 0 is the least: it checks no word and trusts the assertion
        raise FormatError(f"--assertion-bound must be at least 0, not {args.assertion_bound}")
    p = _load_descriptor(args.property)
    results = []
    for path in _language_files(args.language):
        lang = _machine(path, Nfa, f"language file {path!r}", p.theta.alphabet, inline=False)
        results.append((path, decide(p, lang, assertion_bound=args.assertion_bound)))
    if args.json:
        payload = [dict(_verdict_payload(v), file=path) for path, v in results]
        _write_json(payload[0] if len(payload) == 1 else {"results": payload}, None)
    else:
        for path, v in results:
            prefix = f"{path}: " if len(results) > 1 else ""
            if v.satisfied:
                print(f"{prefix}{'yes' if v.decider == 'is_maximal' else 'satisfied'}")
            else:
                noun = "not maximal, can add" if v.decider == "is_maximal" else "NOT satisfied, witness"
                print(f"{prefix}{noun}: {v.witness!r}")
    return 0 if all(v.satisfied for _path, v in results) else 1


def _theta_spec_payload(theta: Permutation) -> dict:
    return {
        "table": dict(zip(theta.alphabet.symbols, theta.table)),
        "mode": "antimorphic" if theta.antimorphic else "morphic",
        "alphabet": "".join(theta.alphabet.symbols),
    }


def _cmd_build_property(args) -> int:
    _refuse(args, "--dna" if args.dna else "--trajectory", {"--strict": "--trajectory", "--variant": "--dna"})
    alphabet = Alphabet.of(args.alphabet) if args.alphabet else DNA
    theta = _theta_from_spec(args.theta, alphabet, "--theta")
    if args.dna:
        variant = "strict" if args.variant is None else args.variant
        for flag, value, choices in (("--dna", args.dna, PROPERTY_NAMES), ("--variant", variant, VARIANTS)):
            if value not in choices:
                raise FormatError(f"{flag} must be one of {', '.join(choices)}, not {value!r}")
        built = named_property(args.dna, variant, theta)
    else:
        built = _trajectory_property(*args.trajectory, bool(args.strict), theta, "--trajectory E{}")
    doc = {
        "name": built.name,
        "kind": built.kind,
        "class": built.asserted_class,
        "theta": _theta_spec_payload(built.theta),
        # trimmed after normalizing: a state kept only by epsilon edges is on no path
        "transducer": serialize_fado(trim(normalize(built.transducer))),
    }
    _write_json(doc, args.output)
    return 0


def _load_instance(arg: str):
    doc = _object(_json_arg(arg, "--instance")[0], "instance document")
    theta = _theta_from_spec(doc["theta"]) if "theta" in doc else None
    alpha, beta = _tiles(doc, "alpha", theta), _tiles(doc, "beta", theta)
    if len(alpha) != len(beta):
        raise FormatError(f"field 'beta' must list as many tiles as field 'alpha' ({len(alpha)}), not {len(beta)}")
    return PcpInstance(alpha, beta) if theta is None else ThetaPcpInstance(alpha, beta, theta)


def _cmd_pcp(args) -> int:
    owners = {"--theta": "pcp reduce", "--output": "pcp reduce", "--bound": "pcp solve", "--solution": "pcp check"}
    _refuse(args, f"pcp {args.action}", owners)
    inst = _load_instance(args.instance)
    if args.action == "reduce":
        if not isinstance(inst, PcpInstance):
            raise FormatError("reduce expects a classic --instance, one without field 'theta'")
        if not args.theta:
            raise FormatError("reduce needs --theta")
        reduced = reduce_pcp_to_theta_pcp(inst, _theta_from_spec(args.theta, where="--theta"))
        doc = {
            "alpha": list(reduced.alpha),
            "beta": list(reduced.beta),
            "theta": _theta_spec_payload(reduced.theta),
        }
        _write_json(doc, args.output)
        return 0
    if args.action == "solve":
        bound = 6 if args.bound is None else args.bound
        if bound < 1:
            raise FormatError(f"--bound must be at least 1, not {bound}")
        seq = solve_bounded(inst, bound)
        if seq is None:
            print(f"no solution within {bound} tiles")
            return 1
        print("solution: " + ",".join(str(j) for j in seq))
        return 0
    # check
    if not args.solution:
        raise FormatError("check needs --solution")
    try:  # check_solution raises it too, for an index out of range
        result = check_solution(inst, [int(part) for part in args.solution.split(",")])
    except ValueError:
        raise FormatError(f"--solution must list indices below {len(inst)} as 0,1,..., not {args.solution!r}") from None
    print(f"{'valid' if result.ok else 'invalid'}: {result.left!r} vs {result.right!r}")
    return 0 if result.ok else 1


def _cmd_transducer_check(args) -> int:
    where = f"argument MACHINE {args.machine!r}"
    if args.mode in (INPUT_ALTERING, INPUT_PRESERVING):
        bound = 6 if args.bound is None else args.bound
        if not args.theta:
            raise FormatError(f"--mode {args.mode} needs --theta")
        if bound < 0:
            raise FormatError(f"--bound: word bound must be at least 0, not {bound}")
        theta, machine = _theta_first(args.theta, args.machine, where, theta_where="--theta")
        witness = bounded_counterexample(machine, theta, args.mode, bound)
        if witness is None:
            print(f"no {args.mode} counterexample up to length {bound}")
            return 0
        print(f"counterexample: {witness!r}")
        return 1
    _refuse(args, f"--mode {args.mode}", dict.fromkeys(("--bound", "--theta"), "--mode altering or preserving"))
    machine = _machine(args.machine, Transducer, where)
    if args.mode == "functional":
        ok, witness = is_functional(machine)
    else:
        ok, witness = is_partial_identity(machine)
    if ok:
        print(f"machine is {args.mode.replace('identity', 'a partial identity')}")
        return 0
    print(f"not {args.mode}: {witness!r}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnacodec",
        description="Decide transducer-described code properties of regular languages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sat = sub.add_parser("satisfies", help="does a language satisfy a property?")
    p_max = sub.add_parser("maximal", help="is a satisfying language maximal?")
    for p in (p_sat, p_max):
        p.add_argument("--property", required=True, help="descriptor JSON (path or inline)")
        p.add_argument("--language", required=True, help="NFA file or directory of .fa files")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--assertion-bound",
            type=int,
            default=6,
            help="word length up to which class assertions are sanity-checked",
        )
    p_sat.set_defaults(handler=lambda args: _run_over_languages(args, satisfies))
    p_max.set_defaults(handler=lambda args: _run_over_languages(args, is_maximal))

    p_build = sub.add_parser("build-property", help="emit a descriptor for a built-in property")
    group = p_build.add_mutually_exclusive_group(required=True)
    group.add_argument("--dna", help="named DNA property (e.g. compliant)")
    group.add_argument("--trajectory", nargs=2, metavar=("E1", "E2"), help="trajectory regexes")
    p_build.add_argument("--variant", help="strict (the default), normal or weak (with --dna)")
    p_build.add_argument("--strict", action="store_true", default=None, help="strict reading (with --trajectory)")
    p_build.add_argument("--theta", default="dna-delta", help="permutation specification")
    p_build.add_argument("--alphabet", help="alphabet symbols for built-in theta names")
    p_build.add_argument("-o", "--output", help="write descriptor JSON here instead of stdout")
    p_build.set_defaults(handler=_cmd_build_property)

    p_pcp = sub.add_parser("pcp", help="correspondence-problem utilities")
    p_pcp.add_argument("action", choices=("reduce", "solve", "check"))
    p_pcp.add_argument("--instance", required=True, help="instance JSON (path or inline)")
    p_pcp.add_argument("--theta", help="permutation (with reduce)")
    p_pcp.add_argument("--bound", type=int, help="max tiles (with solve; default 6)")
    p_pcp.add_argument("--solution", help="comma-separated indices (with check)")
    p_pcp.add_argument("-o", "--output", help="write the reduced instance JSON here (with reduce)")
    p_pcp.set_defaults(handler=_cmd_pcp)

    p_t = sub.add_parser("transducer", help="transducer class checks")
    t_sub = p_t.add_subparsers(dest="action", required=True)
    p_check = t_sub.add_parser("check")
    p_check.add_argument("machine", help="transducer file or inline text")
    p_check.add_argument(
        "--mode", required=True, choices=(INPUT_ALTERING, INPUT_PRESERVING, "functional", "identity")
    )
    p_check.add_argument("--bound", type=int, help="word bound for class modes (default 6)")
    p_check.add_argument("--theta", help="permutation for class modes")
    p_check.set_defaults(handler=_cmd_transducer_check)

    return parser


_parser = cache(build_parser)  # the parser of ``main``, built once per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (DnaCodecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
