#!/usr/bin/env python3
"""Record the expected outcome of every pool entry of the benchmark.

Usage (from the root of a checkout):

    PYTHONPATH=src:tests python3 perfbench/record.py [WORKLOAD ...]

Runs every call a workload can make once, cross-checks each outcome
against the word-level oracles in ``tests/oracles.py`` and writes
``perfbench/expected/<workload>.json``.  Re-run only when the benchmark's
pools change; the benchmark compares later commits against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import oracles  # noqa: E402
import workloads as wl  # noqa: E402
from dnacodec import alphabets, automata, fado, properties  # noqa: E402

DELTA = alphabets.dna_delta()


def lang_words(nfa, max_len: int) -> set[str]:
    return set(automata.enumerate_words(nfa, max_len))


def record_strict_large(w: wl.StrictLarge, times) -> dict:
    out = {}
    for key in w.pool():
        desc, lang = w.instance(key)
        t0 = time.perf_counter()
        verdict = properties.satisfies_S(desc, lang)
        outcome = wl._verdict(verdict)
        times[key.split(":")[1] + ("" if outcome[0] else "*")].append(time.perf_counter() - t0)
        if not outcome[0]:
            u, v = outcome[1]
            assert automata.accepts(lang, u) and automata.accepts(lang, v), key
            assert oracles.pair_in_relation(desc.transducer, u, DELTA(v)), key
        out[key] = outcome + [verdict.stats["restriction_states"]]
    return out


def record_weak_sweep(w: wl.WeakSweep, times) -> dict:
    descs = w.descriptors()
    out = {}
    for key in w.pool():
        name = key.split(":")[0]
        desc = descs[name]
        words, starred = w.language(key)
        lang = w.build_language(key, desc.theta.alphabet)
        t0 = time.perf_counter()
        verdict = properties.satisfies_W_general(desc, lang)
        times[f"{name}:{'star' if starred else 'finite'}"].append(time.perf_counter() - t0)
        # A starred language is compared on its words of length <= 6: a
        # violation there must be reported, and a satisfied verdict must
        # not have one.
        finite = lang_words(lang, 6) if starred else set(words)
        bad = oracles.violates_W(desc.transducer, desc.theta, sorted(finite))
        if verdict.satisfied:
            assert bad is None, (key, bad)
        else:
            assert not (not starred and bad is None), key
            u, v = verdict.witness
            member = (lambda x: wl._can_split(x, words)) if starred else words.__contains__
            assert u != v and member(u) and member(v), (key, verdict.witness)
            assert oracles.pair_in_relation(desc.transducer, u, desc.theta(v)), key
        out[key] = verdict.satisfied
    return out


def record_dna_cli(w: wl.DnaCli, times) -> dict:
    work = os.path.join(ROOT, ".perfbench_work", "record-dna-cli")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        paths = w.write_inputs(work, range(w.POOL_DIRS))
        out = {}
        for key in w.pool():
            name, dir_ = key.rsplit(":", 1)
            call = w._call(name, int(dir_), paths[name], os.path.join(work, f"dir{dir_}"))
            t0 = time.perf_counter()
            code, stdout = call.prepare()()
            times[name].append(time.perf_counter() - t0)
            rows = w.per_file(stdout)
            with open(paths[name], encoding="utf-8") as fh:
                doc = json.load(fh)
            machine = fado.parse_fado(doc["transducer"], alphabets.DNA)
            for fname, satisfied, witness, _decider in rows:
                code_words = w.code(int(dir_), int(fname[4:-3]))
                brute = oracles.violates_S if doc["kind"] == "S" else oracles.violates_W
                assert satisfied == (brute(machine, DELTA, code_words) is None), (key, fname)
                if not satisfied:
                    u, v = witness
                    assert u in code_words and v in code_words, (key, fname, witness)
                    assert oracles.pair_in_relation(machine, u, DELTA(v)), (key, fname, witness)
                    assert doc["kind"] == "S" or u != v, (key, fname, witness)
            assert code == (0 if all(r[1] for r in rows) else 1), key
            out[key] = rows
        return out
    finally:
        shutil.rmtree(os.path.dirname(work), ignore_errors=True)


def record_maximality(w: wl.Maximality, times) -> dict:
    descs = w.descriptors()
    # The near-universal generators against exhaustive extension search,
    # at sizes small enough to enumerate.
    for k in (2, 3):
        for x in wl.DNA_LETTERS:
            check_near_universal(descs["desc_empty_altering"], wl.near_universal_dna(k, x), wl.DNA_LETTERS, k)
    for k in (2, 3, 4):
        check_near_universal(descs["desc_zero_one_loop"], wl.near_universal_binary(k), "01", k)
    out = {}
    for key in w.pool():
        call = w._call(key, descs)
        t0 = time.perf_counter()
        outcome = call.prepare()()
        parts = key.split(":")
        times[parts[1] if parts[0] == "a" else f"{parts[1]}:{parts[2]}"].append(time.perf_counter() - t0)
        if parts[0] == "a":
            desc = descs[parts[1]]
            words = set(w.code(int(parts[2])))
            universe = wl.words_up_to(wl.DNA_LETTERS, 2)
            want = oracles.brute_is_maximal(desc.kind, desc.transducer, DELTA, words, universe)
            assert outcome == [want[0], want[1]], (key, outcome, want)
        elif parts[1] == "dna":
            assert outcome == [False, parts[3] + "A" * int(parts[2])], (key, outcome)
        else:
            assert outcome == [False, "0" * (int(parts[2]) + 1)], (key, outcome)
        out[key] = outcome
    return out


def check_near_universal(desc, raw, letters: str, k: int) -> None:
    n, edges, initial, final = raw
    lang = automata.Nfa(desc.theta.alphabet, n, tuple(edges), initial, final)
    universe = wl.words_up_to(letters, k + 1)
    words = {u for u in universe if automata.accepts(lang, u)}
    got = properties.is_maximal(desc, lang)
    want = oracles.brute_is_maximal(desc.kind, desc.transducer, desc.theta, words, universe)
    assert [got.satisfied, got.witness] == [want[0], want[1]], (raw, got, want)


RECORDERS = {
    "strict-large": record_strict_large,
    "weak-sweep": record_weak_sweep,
    "dna-cli": record_dna_cli,
    "maximality": record_maximality,
}


def main(argv: list[str]) -> int:
    for name in argv or list(RECORDERS):
        times = defaultdict(list)
        t0 = time.perf_counter()
        expected = RECORDERS[name](wl.WORKLOADS[name](), times)
        with open(os.path.join(HERE, "expected", f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(expected, fh, indent=0, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"{name}: {len(expected)} entries in {time.perf_counter() - t0:.1f}s")
        for cls, ts in sorted(times.items()):
            print(f"  {cls:28s} n={len(ts):5d} median {statistics.median(ts) * 1e3:8.2f} ms  max {max(ts) * 1e3:8.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
