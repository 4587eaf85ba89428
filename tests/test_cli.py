"""End-to-end command-line interface tests (all through ``main(argv)``)."""

import json
import os
import re
import subprocess
import sys

import pytest

from dnacodec import cli, transducers
from dnacodec.alphabets import DNA
from dnacodec.automata import Nfa
from dnacodec.cli import build_parser, main
from dnacodec.dna import PROPERTY_NAMES, VARIANTS
from dnacodec.errors import FormatError
from dnacodec.fado import parse_fado, serialize_fado
from dnacodec.graphs import trim_keep
from dnacodec.transducers import Transducer

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


def write_language(tmp_path, name, words):
    path = tmp_path / name
    path.write_text(serialize_fado(Nfa.finite(DNA, words)))
    return str(path)


# -- satisfies ----------------------------------------------------------------


def test_satisfies_positive(capsys):
    rc = main(
        [
            "satisfies",
            "--property",
            fixture("maximal", "desc_hamming_w.json"),
            "--language",
            fixture("maximal", "lang_aaa_cct.fa"),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "satisfied"


def test_satisfies_negative_with_witness(tmp_path, capsys):
    lang = write_language(tmp_path, "bad.fa", ["AGG", "CCA"])
    rc = main(
        ["satisfies", "--property", fixture("maximal", "desc_hamming_w.json"), "--language", lang]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert out.startswith("NOT satisfied, witness:")
    assert "AGG" in out and "CCA" in out


def test_satisfies_json_output(capsys):
    rc = main(
        [
            "satisfies",
            "--property",
            fixture("maximal", "desc_hamming_w.json"),
            "--language",
            fixture("maximal", "lang_aaa_cct.fa"),
            "--json",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["satisfied"] is True
    assert doc["witness"] is None
    assert doc["decider"]
    assert doc["file"].endswith("lang_aaa_cct.fa")


def test_satisfies_directory_fanout(tmp_path, capsys):
    write_language(tmp_path, "a_good.fa", ["AAA", "CCT"])
    write_language(tmp_path, "b_bad.fa", ["AGG", "CCA"])
    rc = main(
        [
            "satisfies",
            "--property",
            fixture("maximal", "desc_hamming_w.json"),
            "--language",
            str(tmp_path),
        ]
    )
    assert rc == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("satisfied") and "a_good.fa" in lines[0]
    assert "NOT satisfied" in lines[1] and "b_bad.fa" in lines[1]


def test_satisfies_directory_json(tmp_path, capsys):
    write_language(tmp_path, "one.fa", ["AAA"])
    write_language(tmp_path, "two.fa", ["ACG"])
    rc = main(
        [
            "satisfies",
            "--property",
            fixture("maximal", "desc_hamming_w.json"),
            "--language",
            str(tmp_path),
            "--json",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert {entry["file"].split(os.sep)[-1] for entry in doc["results"]} == {"one.fa", "two.fa"}


def test_satisfies_directory_checks_class_once(tmp_path, monkeypatch, capsys):
    desc = str(tmp_path / "p_compliant_weak.json")
    assert main(["build-property", "--dna", "p-compliant", "--variant", "weak", "-o", desc]) == 0
    codes = tmp_path / "codes"
    codes.mkdir()
    words = {
        "d_bad.fa": ["CA", "TGAC"],
        "a_bad.fa": ["AC", "GTAA"],
        "c_good.fa": ["AC", "AAGT"],
        "b_good.fa": ["AAC", "CCA"],
    }
    for name, code in words.items():
        write_language(codes, name, code)
    scans = []
    real_scan = transducers._scan_words
    monkeypatch.setattr(transducers, "_scan_words", lambda *a: scans.append(a) or real_scan(*a))

    rc = main(["satisfies", "--property", desc, "--language", str(codes), "--json"])
    assert rc == 1
    assert len(scans) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert [os.path.basename(r["file"]) for r in results] == sorted(words)
    assert [r["satisfied"] for r in results] == [False, True, True, False]
    for row in results:
        main(["satisfies", "--property", desc, "--language", row["file"], "--json"])
        assert json.loads(capsys.readouterr().out) == row
    assert len(scans) == 1 + len(words)


def test_satisfies_inline_descriptor(tmp_path, capsys):
    lang = write_language(tmp_path, "l.fa", ["AC", "GT"])
    desc = json.dumps(
        {
            "kind": "S",
            "theta": "dna-delta",
            "transducer": "@Transducer 0 * 0\\n0 A A 0\\n0 C C 0\\n0 G G 0\\n0 T T 0",
        }
    )
    rc = main(["satisfies", "--property", desc, "--language", lang])
    assert rc == 1  # delta(GT) = AC is reproduced by the identity machine
    assert "NOT satisfied" in capsys.readouterr().out


def test_satisfies_inline_trajectory_descriptor(tmp_path, capsys):
    # the descriptor compiled on the fly decides as the one build-property writes
    lang = write_language(tmp_path, "l.fa", ["ACG", "CGTA"])
    built = str(tmp_path / "built.json")
    assert main(["build-property", "--trajectory", "1*0+1*", "0+", "--strict", "-o", built]) == 0
    inline = json.dumps({"transducer": {"trajectory": {"e1": "1*0+1*", "e2": "0+", "strict": True}}})
    verdicts = []
    for desc in (built, inline):
        assert main(["satisfies", "--property", desc, "--language", lang, "--json"]) == 1
        verdicts.append({k: v for k, v in json.loads(capsys.readouterr().out).items() if k != "stats"})
    assert verdicts[0] == verdicts[1] and verdicts[0]["witness"] == ["CGTA", "ACG"]


# labels over A and T only; the second spelling adds an edge over C and G from a state no path reaches
PARTIAL = "@Transducer 1 * 0\n0 A T 1\n"
SPELLED_OUT = PARTIAL + "2 C G 2\n"


@pytest.mark.parametrize(
    "theta, words, rc",
    [
        (None, ["A", "CC"], 1),  # dna-delta, the default: delta(A) = T is reproduced
        ("dna-delta", ["AA"], 0),
        ("mirror:ACGT", ["A", "T"], 1),
        ({"table": dict(zip("ACGT", "TGCA")), "mode": "morphic"}, ["A", "G"], 1),
    ],
)
def test_satisfies_reads_a_transducer_over_some_of_thetas_letters(tmp_path, capsys, theta, words, rc):
    lang = write_language(tmp_path, "l.fa", words)
    outputs = []
    for machine in (PARTIAL, SPELLED_OUT):
        doc = {"transducer": machine} if theta is None else {"transducer": machine, "theta": theta}
        assert main(["satisfies", "--property", json.dumps(doc), "--language", lang, "--json"]) == rc
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_theta_with_an_empty_symbol_list_takes_the_transducers_letters(tmp_path, capsys):
    # "mirror:" fixes no alphabet, so theta is built over the letters the machine uses, A and T
    lang = write_language(tmp_path, "l.fa", ["A", "T"])
    doc = json.dumps({"transducer": PARTIAL, "theta": "mirror:"})
    assert main(["satisfies", "--property", doc, "--language", lang]) == 1
    assert capsys.readouterr().out == "NOT satisfied, witness: ('A', 'T')\n"


def test_transducer_check_reads_a_machine_over_some_of_thetas_letters(capsys):
    outputs = []
    for machine in (PARTIAL, SPELLED_OUT):
        assert main(["transducer", "check", machine, "--mode", "altering", "--theta", "dna-delta"]) == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == "counterexample: 'A'\n"


def test_satisfies_empty_directory_errors(tmp_path, capsys):
    rc = main(
        [
            "satisfies",
            "--property",
            fixture("maximal", "desc_hamming_w.json"),
            "--language",
            str(tmp_path),
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# -- maximal ------------------------------------------------------------------


def test_maximal_positive(capsys):
    rc = main(
        [
            "maximal",
            "--property",
            fixture("maximal", "desc_empty_altering.json"),
            "--language",
            fixture("maximal", "lang_universal_dna.fa"),
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "yes"


def test_maximal_negative_suggests_word(capsys):
    rc = main(
        [
            "maximal",
            "--property",
            fixture("maximal", "desc_empty_altering.json"),
            "--language",
            fixture("maximal", "lang_nonempty_dna.fa"),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().out.strip() == "not maximal, can add: ''"


@pytest.mark.parametrize(
    "language, route, built", [("lang_nonempty_dna.fa", "empty-word", False), ("lang_universal_dna.fa", "subsets", True)]
)
def test_maximal_json_names_the_route_and_the_universe_built(language, route, built, capsys):
    args = ["maximal", "--json", "--property", fixture("maximal", "desc_empty_altering.json")]
    main(args + ["--language", fixture("maximal", language)])
    stats = json.loads(capsys.readouterr().out)["stats"]
    assert stats["route"] == route and (stats["universe_states"] > 0) == built
    search_keys = {"forward_subsets", "backward_subsets", "answered_by"}  # how missing_word went
    assert search_keys & stats.keys() == (search_keys if built else set())


def test_maximal_malformed_state_cap_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("DNACODEC_STATE_CAP", "abc")
    args = ["maximal", "--property", fixture("maximal", "desc_empty_altering.json")]
    rc = main(args + ["--language", fixture("maximal", "lang_universal_dna.fa")])
    assert rc == 2
    assert "DNACODEC_STATE_CAP must be a positive integer, not 'abc'" in capsys.readouterr().err


def test_maximal_trusted_assertion_via_bound_zero(capsys):
    args = [
        "maximal",
        "--property",
        fixture("maximal", "desc_ph_minus_identity.json"),
        "--language",
        fixture("maximal", "lang_aaa_cct.fa"),
    ]
    rc = main(args + ["--assertion-bound", "0"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "not maximal, can add: ''"
    # at the default bound the machine is exposed as not input-altering
    rc = main(args)
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["satisfies", "maximal"])
def test_negative_assertion_bound_is_rejected(command, capsys):
    # rejected before the descriptor is read or any class check runs
    rc = main(
        [
            command,
            "--property",
            fixture("maximal", "desc_zero_one_loop.json"),
            "--language",
            fixture("maximal", "lang_empty.fa"),
            "--assertion-bound",
            "-1",
        ]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--assertion-bound must be at least 0, not -1" in captured.err


def test_maximal_rejects_non_satisfying_language(tmp_path, capsys):
    lang = write_language(tmp_path, "bad.fa", ["AT"])
    rc = main(
        [
            "maximal",
            "--property",
            fixture("maximal", "desc_zero_one_loop.json"),
            "--language",
            lang,
        ]
    )
    assert rc == 2  # alphabet mismatch: property over 01, language over DNA
    assert "error:" in capsys.readouterr().err


def test_maximal_epsilon_fix(tmp_path, capsys):
    zo_lang = tmp_path / "zero.fa"
    zo_lang.write_text("@NFA 1 * 0\n0 0 1\n")
    rc = main(
        [
            "maximal",
            "--property",
            fixture("maximal", "desc_zero_one_loop.json"),
            "--language",
            str(zo_lang),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().out.strip() == "not maximal, can add: '00'"


# -- build-property ------------------------------------------------------------


def test_build_dna_property_descriptor(capsys):
    rc = main(["build-property", "--dna", "compliant", "--variant", "normal"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "compliant (normal)"
    assert doc["kind"] == "S"
    assert doc["class"] == "altering"
    assert doc["theta"]["table"] == {"A": "T", "C": "G", "G": "C", "T": "A"}
    machine = parse_fado(doc["transducer"])
    assert isinstance(machine, Transducer)


def test_build_trajectory_property_descriptor(capsys):
    rc = main(
        ["build-property", "--trajectory", "1*0+1*", "0+", "--strict", "--theta", "dna-delta"]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "bond-free(1*0+1*; 0+; strict)"
    assert doc["kind"] == "S" and doc["class"] == "unrestricted"


BUILT = [  # (build-property arguments, the states of the machine it writes or None)
    (["--trajectory", "1*0+1*", "0+", "--strict"], 46),
    (["--trajectory", "1*0+1*", "0+"], 68),
    (["--trajectory", "0+", "0+", "--strict"], 27),
] + [
    (["--dna", name, "--variant", v], None)
    for name in PROPERTY_NAMES
    for v in VARIANTS
    if name != "nonoverlapping" or v == "strict"
]


@pytest.mark.parametrize("argv, states", BUILT, ids=[" ".join(argv) for argv, _ in BUILT])
def test_build_property_writes_a_trim_machine(argv, states, capsys):
    # the normal form is trimmed before it is written: the compiled machines'
    # epsilon edges keep states that lie on no path once they are closed
    assert main(["build-property", *argv]) == 0
    t = parse_fado(json.loads(capsys.readouterr().out)["transducer"], DNA)
    assert trim_keep(t.n_states, t.edges, t.initial, t.final) == list(range(t.n_states))
    assert states is None or t.n_states == states


def test_build_property_to_file_then_use_it(tmp_path, capsys):
    out = tmp_path / "desc.json"
    rc = main(["build-property", "--dna", "nonoverlapping", "--variant", "strict", "-o", str(out)])
    assert rc == 0
    lang = write_language(tmp_path, "l.fa", ["AT"])
    rc = main(["satisfies", "--property", str(out), "--language", lang])
    assert rc == 1  # AT is its own delta-image
    assert "NOT satisfied" in capsys.readouterr().out


def test_build_property_unknown_name_errors(capsys):
    rc = main(["build-property", "--dna", "nope", "--variant", "strict"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# -- pcp -----------------------------------------------------------------------


SOLVABLE = json.dumps({"alpha": ["0", "01"], "beta": ["00", "1"]})


def test_pcp_solve_inline(capsys):
    rc = main(["pcp", "solve", "--instance", SOLVABLE, "--bound", "3"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "solution: 0,1"


def test_pcp_solve_unsolvable(capsys):
    inst = json.dumps({"alpha": ["0"], "beta": ["1"]})
    rc = main(["pcp", "solve", "--instance", inst, "--bound", "5"])
    assert rc == 1
    assert "no solution within 5 tiles" in capsys.readouterr().out


def test_pcp_check(capsys):
    assert main(["pcp", "check", "--instance", SOLVABLE, "--solution", "0,1"]) == 0
    assert "valid" in capsys.readouterr().out
    assert main(["pcp", "check", "--instance", SOLVABLE, "--solution", "0"]) == 1
    assert "invalid" in capsys.readouterr().out
    assert main(["pcp", "check", "--instance", SOLVABLE]) == 2


@pytest.mark.parametrize("solution", ["0,x", "0,,1", "1.5"])
def test_pcp_check_malformed_solution_names_the_flag(solution, capsys):
    assert main(["pcp", "check", "--instance", SOLVABLE, "--solution", solution]) == 2
    err = capsys.readouterr().err
    assert "--solution" in err and repr(solution) in err
    assert "invalid literal" not in err


def test_pcp_reduce_then_solve(tmp_path, capsys):
    out = tmp_path / "reduced.json"
    rc = main(
        ["pcp", "reduce", "--instance", SOLVABLE, "--theta", "mirror:01", "-o", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["alpha"]) == 4 and doc["theta"]["mode"] == "antimorphic"
    rc = main(["pcp", "solve", "--instance", str(out), "--bound", "6"])
    assert rc == 0
    out_text = capsys.readouterr().out
    assert out_text.strip().startswith("solution:")


def test_pcp_reduce_requires_theta(capsys):
    rc = main(["pcp", "reduce", "--instance", SOLVABLE])
    assert rc == 2


def test_pcp_theta_instance_solve(capsys):
    inst = json.dumps({"alpha": ["01"], "beta": ["10"], "theta": "mirror:01"})
    rc = main(["pcp", "solve", "--instance", inst, "--bound", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "solution: 0"


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"alpha": [], "beta": []}, "field 'alpha'"),
        ({"alpha": ["0", ""], "beta": ["1", "0"]}, "field 'alpha'"),
        ({"alpha": ["0"], "beta": [""]}, "field 'beta'"),
        ({"alpha": ["0", "1"], "beta": ["1"]}, "field 'beta'"),
        ({"alpha": ["0x"], "beta": ["1"], "theta": "mirror:01"}, "field 'alpha'"),
        ({"alpha": ["0"], "beta": ["2"], "theta": "mirror:01"}, "field 'beta'"),
        ({"alpha": ["0"], "beta": ["1"], "theta": 5}, "field 'theta' must be a string or an object, not int"),
    ],
)
def test_malformed_instance_names_the_field(doc, named, capsys):
    args = build_parser().parse_args(["pcp", "solve", "--instance", json.dumps(doc)])
    with pytest.raises(FormatError, match=re.escape(named)):
        args.handler(args)
    assert main(["pcp", "solve", "--instance", json.dumps(doc)]) == 2
    assert named in capsys.readouterr().err


# -- transducer check -----------------------------------------------------------


def test_transducer_check_identity_modes(capsys):
    rc = main(
        ["transducer", "check", fixture("fado", "t_identity_ab.fa"), "--mode", "identity"]
    )
    assert rc == 0
    rc = main(["transducer", "check", fixture("fado", "t_swap_ab.fa"), "--mode", "identity"])
    assert rc == 1
    assert "not identity" in capsys.readouterr().out


def test_transducer_check_functional(capsys):
    rc = main(
        ["transducer", "check", fixture("fado", "t_identity_ab.fa"), "--mode", "functional"]
    )
    assert rc == 0
    rc = main(
        ["transducer", "check", fixture("fado", "t_insert_one_ab.fa"), "--mode", "functional"]
    )
    assert rc == 1


def test_transducer_check_altering_inline(capsys):
    inline = "@Transducer 0 * 0\\n0 A A 0\\n0 C C 0\\n0 G G 0\\n0 T T 0"
    rc = main(
        ["transducer", "check", inline, "--mode", "altering", "--theta", "dna-delta", "--bound", "3"]
    )
    assert rc == 1
    assert "counterexample: 'AT'" in capsys.readouterr().out


@pytest.mark.parametrize("machine, mode", [("t_swap_ab.fa", "altering"), ("t_identity_ab.fa", "preserving")])
def test_transducer_check_class_mode_holds(machine, mode, capsys):
    rc = main(["transducer", "check", fixture("fado", machine), "--mode", mode, "--theta", "identity"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == f"no {mode} counterexample up to length 6"


@pytest.mark.parametrize("mode", ["altering", "preserving"])
def test_transducer_check_rejects_a_negative_bound(mode, capsys):
    inline = "@Transducer 0 * 0\\n0 A A 0\\n0 C C 0\\n0 G G 0\\n0 T T 0"
    rc = main(["transducer", "check", inline, "--mode", mode, "--theta", "dna-delta", "--bound", "-3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "word bound must be at least 0, not -3" in captured.err


def test_transducer_check_preserving_needs_theta(capsys):
    rc = main(
        ["transducer", "check", fixture("fado", "t_identity_ab.fa"), "--mode", "preserving"]
    )
    assert rc == 2


def test_transducer_check_rejects_nfa_input(capsys):
    rc = main(
        ["transducer", "check", fixture("fado", "nfa_finite.fa"), "--mode", "identity"]
    )
    assert rc == 2


THETA_INSTANCE = json.dumps({"alpha": ["0"], "beta": ["1"], "theta": "mirror:01"})


@pytest.mark.parametrize(
    "argv, named",
    [
        (["transducer", "check", fixture("fado", "nfa_finite.fa"), "--mode", "identity"], "MACHINE"),
        (["transducer", "check", fixture("fado", "t_identity_ab.fa"), "--mode", "altering"], "--theta"),
        (["pcp", "reduce", "--instance", THETA_INSTANCE, "--theta", "mirror:01"], "--instance"),
        (["pcp", "reduce", "--instance", SOLVABLE], "--theta"),
        (["pcp", "check", "--instance", SOLVABLE], "--solution"),
        (["pcp", "reduce", "--instance", SOLVABLE, "--theta", "identity"], "--theta"),
        (["pcp", "solve", "--instance", THETA_INSTANCE.replace("mirror:01", "mirror")], "field 'theta'"),
        (["pcp", "solve", "--instance", SOLVABLE, "--bound", "0"], "--bound must be at least 1, not 0"),
        (["pcp", "check", "--instance", SOLVABLE, "--solution", "5"], "--solution"),
        (["pcp", "check", "--instance", SOLVABLE, "--solution", "0,-1"], "--solution"),
        (
            ["transducer", "check", fixture("fado", "t_identity_ab.fa"), "--mode", "preserving", "--theta", "mirror",
             "--bound", "-3"],
            "--bound: word bound must be at least 0, not -3",
        ),
        (["build-property", "--dna", "bogus"], "--dna must be one of "),
        (["build-property", "--dna", "compliant", "--variant", "bogus"], "--variant must be one of "),
        # a flag the chosen mode never reads
        (["build-property", "--trajectory", "0+", "0+", "--variant", "bogus"],
         "--variant applies only to --dna, not --trajectory"),
        (["build-property", "--dna", "compliant", "--variant", "weak", "--strict"],
         "--strict applies only to --trajectory, not --dna"),
        (["transducer", "check", fixture("fado", "t_identity_ab.fa"), "--mode", "identity", "--bound", "-5"],
         "--bound applies only to --mode altering or preserving, not --mode identity"),
        (["transducer", "check", fixture("fado", "t_identity_ab.fa"), "--mode", "functional", "--theta", "bogus"],
         "--theta applies only to --mode altering or preserving, not --mode functional"),
        (["pcp", "solve", "--instance", SOLVABLE, "--solution", "9"], "--solution applies only to pcp check, not pcp solve"),
        (["pcp", "check", "--instance", SOLVABLE, "--solution", "0,1", "--bound", "-4"],
         "--bound applies only to pcp solve, not pcp check"),
        (["pcp", "solve", "--instance", SOLVABLE, "--theta", "bogus"], "--theta applies only to pcp reduce, not pcp solve"),
        # the directory does not exist, so a write would raise an OSError, not the FormatError
        (["pcp", "check", "--instance", SOLVABLE, "--solution", "0,1", "-o", os.path.join("no-such-dir", "out.json")],
         "--output applies only to pcp reduce, not pcp check"),
        # errors in a --theta flag name the flag
        (["build-property", "--dna", "compliant", "--theta", "bogus"],
         "--theta must name dna-delta, identity or mirror, not 'bogus'"),
        (["transducer", "check", PARTIAL, "--mode", "altering", "--theta", "dna-delta:AT"],
         "--theta dna-delta acts on ACGT, not 'AT'"),
        # errors in a trajectory expression name the flag and which of E1 and E2
        (["build-property", "--trajectory", "0+2", "0+"], "--trajectory E1: symbol '2' not in alphabet '01'"),
        (["build-property", "--trajectory", "0+(", "0+"], "--trajectory E1: empty sub-expression in regex '0+('"),
        (["build-property", "--trajectory", "0+", "(1", "--strict"], "--trajectory E2: unbalanced parenthesis"),
    ],
)
def test_bad_arguments_are_format_errors_naming_the_flag(argv, named, capsys):
    args = build_parser().parse_args(argv)
    with pytest.raises(FormatError, match=re.escape(named)):
        args.handler(args)
    assert main(argv) == 2
    assert named in capsys.readouterr().err


def test_bad_file_in_a_language_directory_is_named(tmp_path, capsys):
    # a foreign label, then a file that is not UTF-8
    for folder, content, fault in (
        ("foreign", b"@NFA 1 * 0\n0 x 1\n", "labels ['x']"),
        ("undecodable", b"\xff@NFA 1 * 0\n0 A 1\n", "'utf-8' codec can't decode byte 0xff"),
    ):
        (tmp_path / folder).mkdir()
        write_language(tmp_path / folder, "code0.fa", ["AC"])
        (tmp_path / folder / "code1.fa").write_bytes(content)
        argv = ["satisfies", "--property", fixture("maximal", "desc_hamming_w.json"), "--language"]
        assert main(argv + [str(tmp_path / folder)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: language file ") and "code1.fa" in err and fault in err


@pytest.mark.parametrize("argv, content, fault", [
    (["satisfies", "--language", "l.fa", "--property"], b'{"kind": ', "Expecting value: line 1 column 10 (char 9)"),
    (["satisfies", "--language", "l.fa", "--property"], b'\xff{}', "'utf-8' codec can't decode byte 0xff"),
    (["pcp", "solve", "--instance"], b'{"alpha": ["0"]', "Expecting ',' delimiter"),
])
def test_unreadable_json_file_names_its_flag(tmp_path, capsys, argv, content, fault):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(argv + [str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[-1]} file {str(path)!r}: ") and fault in err


def test_descriptor_with_a_foreign_label_is_rejected(tmp_path, capsys):
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps({"alphabet": "ACGT", "transducer": "@Transducer 0 * 0\n0 A x 0\n"}))
    rc = main(["satisfies", "--property", str(desc), "--language", write_language(tmp_path, "l.fa", ["AC"])])
    err = capsys.readouterr().err
    assert rc == 2 and "field 'transducer': line 2: labels ['x'] not in the given alphabet" in err


def test_malformed_inline_machine_names_the_argument(capsys):
    rc = main(["transducer", "check", "@Transducer 0 * 0\\n0 A 0", "--mode", "identity"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: argument MACHINE ") and "expected 4 fields per transition" in err


def test_transducer_check_on_a_missing_path_names_it(tmp_path, capsys):
    missing = str(tmp_path / "no-such-machine.fa")
    rc = main(["transducer", "check", missing, "--mode", "identity"])
    err = capsys.readouterr().err
    assert rc == 2 and missing in err and "unknown machine kind" not in err


# -- misc ------------------------------------------------------------------------


def test_main_builds_its_parser_once(capsys):
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["transducer", "check", fixture("fado", "nfa_finite.fa"), "--mode", "identity"]) == 2
    with pytest.raises(SystemExit):
        main(["satisfies", "--help"])
    assert cli._parser.cache_info().misses == 1
    assert "--assertion-bound" in capsys.readouterr().out
    assert build_parser() is not build_parser()


def test_malformed_inline_descriptor(capsys):
    rc = main(["satisfies", "--property", "{not json", "--language", "whatever.fa"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --property: Expecting property name")


def test_missing_language_file(capsys):
    rc = main(
        [
            "satisfies",
            "--property",
            fixture("maximal", "desc_hamming_w.json"),
            "--language",
            "no-such-file.fa",
        ]
    )
    assert rc == 2


DNA_PROPERTY = {"dna": {"name": "compliant", "variant": "weak"}}


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"kind": "S"}, "missing field 'transducer'"),
        (
            {"class": "altring", "transducer": {"dna": {"name": "compliant", "variant": "weak"}}},
            "field 'class'",
        ),
        ({"transducer": 5}, "field 'transducer'"),
        ([{"transducer": {"dna": {"name": "compliant", "variant": "weak"}}}], "descriptor document"),
        ({"theta": "nope", "transducer": {"dna": {"name": "compliant", "variant": "weak"}}}, "field 'theta'"),
        ({"kind": "X", "transducer": {"dna": {"name": "compliant", "variant": "weak"}}}, "field 'kind'"),
        ({"theta": "dna-delta:01", "transducer": {"trajectory": {"e1": "0+", "e2": "0+"}}}, "field 'theta'"),
        ({"alphabet": "01", "theta": "dna-delta", "transducer": {"trajectory": {"e1": "0+", "e2": "0+"}}}, "field 'theta'"),
        ({"transducer": {"dna": {"name": "bogus", "variant": "weak"}}}, "field 'transducer.dna.name'"),
        ({"transducer": {"dna": {"name": "compliant", "variant": "wek"}}}, "field 'transducer.dna.variant'"),
        ({"transducer": "@NFA 1 * 0\n0 A 1\n"}, "field 'transducer' must hold a transducer"),
        ({"theta": {"table": dict(zip("ACGT", "TTCA"))}, "transducer": DNA_PROPERTY}, "field 'theta.table'"),
        ({"theta": {"table": {"A": "T"}, "alphabet": "AT"}, "transducer": DNA_PROPERTY}, "field 'theta.table'"),
        ({"theta": {"table": {"A": 1}}, "transducer": DNA_PROPERTY}, "field 'theta.table' must map symbols to strings"),
        ({"transducer": {}}, "field 'transducer' must hold a 'dna' or a 'trajectory' entry"),
        ({"transducer": {"trajectory": {"e1": "0+2", "e2": "0+"}}},
         "field 'transducer.trajectory.e1': symbol '2' not in alphabet '01'"),
        ({"transducer": {"trajectory": {"e1": "0+", "e2": "0+("}}},
         "field 'transducer.trajectory.e2': empty sub-expression in regex '0+('"),
    ],
)
def test_malformed_descriptor_names_the_field(tmp_path, capsys, doc, field):
    desc = tmp_path / "desc.json"
    desc.write_text(json.dumps(doc))
    lang = write_language(tmp_path, "l.fa", ["AC"])
    rc = main(["satisfies", "--property", str(desc), "--language", lang])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_transducer_as_language_names_the_file(capsys):
    desc, lang = fixture("maximal", "desc_hamming_w.json"), fixture("fado", "t_dna_mixed.fa")
    rc = main(["satisfies", "--property", desc, "--language", lang])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: language file ") and "t_dna_mixed.fa" in err and "holds a transducer" in err


# -- determinism ----------------------------------------------------------------

_HASH_SEED_PROBE = """
import sys
from dnacodec.alphabets import BINARY, Permutation
from dnacodec.automata import parse_regex
from dnacodec.cli import build_parser, main
from dnacodec.fado import parse_fado
from dnacodec.properties import W_KIND, PropertyDescriptor, satisfies_W_general

with open(sys.argv[1]) as fh:
    machine = parse_fado(fh.read(), BINARY)
p = PropertyDescriptor(machine, Permutation.mirror(BINARY), kind=W_KIND)
print(satisfies_W_general(p, parse_regex("(01|1)*", BINARY)).witness)
main(["build-property", "--trajectory", "0*1*0*", "0*1*0*", "--theta", "dna-delta"])
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    # regexes with epsilon moves go through remove_epsilon, whose edge order
    # once followed the per-process string hash seed
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE, fixture("wgen", "b3_infix.fa")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("('01', '1')\n")
