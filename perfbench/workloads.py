"""The four seeded workloads and the checks applied to their outputs.

Every workload draws its inputs from a fixed *pool*, so that the verdict
and witness of every call the benchmark can make were recorded once
(``record.py`` writes ``expected/<workload>.json``).  The run seed picks
which pool entries are used and in which order; the same seed gives the
same inputs.

Calls are grouped in *rounds* of fixed composition (``ROUND`` calls;
``None`` means one pass over the whole list) and only the order within a
round is shuffled.  The timed loop stops at a round boundary, so every run
has exactly the same mix of call classes and its percentiles do not sit on
a boundary between two classes that moves from seed to seed.

All calls go through module attributes (``properties.satisfies_S`` and so
on) so that the tracing wrappers installed by ``tracing.py`` see them.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from typing import Callable, Optional

from dnacodec import alphabets, automata, cli, dna, fado, properties, transducers

from check import DNA_DELTA, RawMachine, Theta, parse_machine, weak_witness_ok

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
DNA_LETTERS = "ACGT"


@dataclass
class Call:
    """One call of the timed loop.

    ``prepare`` runs untimed right before the call and returns the timed
    closure, which returns a JSON-able outcome.  Most workloads build their
    inputs during set-up and ``prepare`` just hands them over.
    """

    key: str  # names the pool entry whose recorded result this call must match
    prepare: Callable[[], Callable[[], object]]
    data: object = None  # what the check needs besides the outcome


def _ready(key: str, run: Callable[[], object], data: object = None) -> Call:
    return Call(key, lambda: run, data)


def _verdict(v) -> list:
    witness = list(v.witness) if isinstance(v.witness, tuple) else v.witness
    return [bool(v.satisfied), witness]


def _rng(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _rounds(rng: random.Random, n_rounds: int, make_round) -> list:
    out = []
    for r in range(n_rounds):
        items = make_round(r)
        rng.shuffle(items)
        out.extend(items)
    return out


class Workload:
    """``expected`` maps a pool key to its recorded outcome."""

    ROUND: Optional[int] = None

    def __init__(self, expected: Optional[dict] = None):
        self.expected = expected


def load_expected(name: str) -> dict:
    with open(os.path.join(HERE, "expected", f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# strict-large: satisfies_S on large random transducers, small NFAs


class StrictLarge(Workload):
    """Random transducers of 600-1,200 states and 2,000-3,000 edges against
    NFAs of 3-12 states.  A round holds one instance of each stratum:

    * ``sparse``: the unconstrained generator of the criterion-7 test
      against a sparse NFA of 6-12 states; the product stays tiny, so the
      call is dominated by normalizing the transducer;
    * ``violated`` (twice): a parity-structured transducer whose final
      states have either parity, against a dense NFA of 3-5 states that
      accepts only even-length words; the product grows to ~5-20k states
      before a witness is decoded;
    * ``satisfied``: the same, but every final state of the transducer is
      reached with odd ``|x|+|y|``; since L and theta(L) hold only
      even-length words no final triple is reachable, yet the product is
      explored to the same size.
    """

    name = "strict-large"
    POOL_ROUNDS = 192
    STRATA = ("sparse", "violated", "satisfied", "violated2")
    ROUND = len(STRATA)
    ROUNDS_PER_SECOND = 4.8  # a run picks 96 rounds; this commit completes ~75 in 20 s

    def pool(self) -> list[str]:
        return [f"{r}:{s}" for r in range(self.POOL_ROUNDS) for s in self.STRATA]

    def instance(self, key: str):
        rng = _rng(self.name, key)
        stratum = key.split(":")[1]
        n = rng.randint(600, 1200)
        m = rng.randint(2000, 3000)
        if stratum == "sparse":
            t = self._free_transducer(rng, n, m)
            k = rng.randint(6, 12)
            lang = self._sparse_nfa(rng, k, k + rng.randint(1, k))
        else:
            t = self._parity_transducer(rng, n, m, odd_finals=stratum == "satisfied")
            lang = self._even_dense_nfa(rng, rng.randint(3, 5))
        desc = properties.PropertyDescriptor(t, alphabets.dna_delta(), kind=properties.S_KIND)
        return desc, lang

    @staticmethod
    def _free_transducer(rng, n, m):
        edges = [(q, rng.choice(DNA_LETTERS), rng.choice(DNA_LETTERS), q + 1) for q in range(n - 1)]
        while len(edges) < m:
            a = rng.choice(DNA_LETTERS) if rng.random() > 0.1 else ""
            b = rng.choice(DNA_LETTERS) if rng.random() > 0.1 else ""
            edges.append((rng.randrange(n), a, b, rng.randrange(n)))
        finals = rng.sample(range(n), max(1, n // 4))
        return transducers.Transducer(alphabets.DNA, n, tuple(edges), {0}, finals)

    @staticmethod
    def _parity_transducer(rng, n, m, odd_finals):
        # Every path into state q has |x|+|y| of parity par[q].
        par = [0] + [rng.randrange(2) for _ in range(n - 1)]

        def edge(p, q):
            if par[p] == par[q]:
                if rng.random() < 0.05:
                    return (p, "", "", q)
                return (p, rng.choice(DNA_LETTERS), rng.choice(DNA_LETTERS), q)
            if rng.random() < 0.5:
                return (p, rng.choice(DNA_LETTERS), "", q)
            return (p, "", rng.choice(DNA_LETTERS), q)

        edges = [edge(q, q + 1) for q in range(n - 1)]
        while len(edges) < m:
            edges.append(edge(rng.randrange(n), rng.randrange(n)))
        candidates = [q for q in range(n) if par[q]] if odd_finals else list(range(n))
        finals = rng.sample(candidates, max(1, n // 4))
        return transducers.Transducer(alphabets.DNA, n, tuple(edges), {0}, finals)

    @staticmethod
    def _even_dense_nfa(rng, n):
        par = [0] + [rng.randrange(2) for _ in range(n - 1)]
        if 1 not in par:
            par[-1] = 1
        even = [q for q in range(n) if not par[q]]
        odd = [q for q in range(n) if par[q]]
        edges = [
            (q, a, rng.choice(even if par[q] else odd)) for q in range(n) for a in DNA_LETTERS
        ]
        finals = rng.sample(even, len(even) // 2 + 1)
        return automata.Nfa(alphabets.DNA, n, tuple(edges), {0}, finals)

    @staticmethod
    def _sparse_nfa(rng, n, m):
        edges = [(q, rng.choice(DNA_LETTERS), q + 1) for q in range(n - 1)]
        while len(edges) < m:
            edges.append((rng.randrange(n), rng.choice(DNA_LETTERS), rng.randrange(n)))
        finals = rng.sample(range(n), max(1, n // 3))
        return automata.Nfa(alphabets.DNA, n, tuple(edges), {0}, finals)

    SIZE_BLOCKS = 12

    def picks(self, rng: random.Random, stratum: str) -> list[str]:
        """Half of the stratum's pool, in call order.

        The entries are sorted by the size of their restriction product
        (recorded in ``expected/``) and one of each adjacent pair is taken,
        so every seed gets the same spread of sizes.  The picks are then
        cut into SIZE_BLOCKS blocks by size and dealt out one block after
        another, so that the rounds a run gets through before its time is
        up cover all sizes evenly.
        """
        keys = sorted(
            (f"{r}:{stratum}" for r in range(self.POOL_ROUNDS)),
            key=lambda k: (self.expected[k][2], k),
        )
        picked = [rng.choice(keys[i : i + 2]) for i in range(0, len(keys), 2)]
        width = len(picked) // self.SIZE_BLOCKS
        blocks = [picked[b * width : (b + 1) * width] for b in range(self.SIZE_BLOCKS)]
        for block in blocks:
            rng.shuffle(block)
        dealt = []
        for i in range(width):
            rng.shuffle(blocks)
            dealt += [block[i] for block in blocks]
        return dealt

    def setup(self, seed: int, seconds: float, work: str) -> list[Call]:
        """Plan the calls and build the first round's instances.

        The other instances are built right before their calls: keeping
        ~200 large transducers alive would make the peak RSS measure the
        inputs instead of the decider.
        """
        rng = _rng(self.name, "run", seed)
        n_rounds = math.ceil(seconds * self.ROUNDS_PER_SECOND)
        picks = {s: self.picks(rng, s) for s in self.STRATA}
        calls = _rounds(
            rng,
            n_rounds,
            lambda i: [Call(picks[s][i % len(picks[s])], None) for s in self.STRATA],
        )
        for i, call in enumerate(calls):
            call.prepare = self._prepare(call.key, eager=i < len(self.STRATA))
        return calls

    def _prepare(self, key: str, eager: bool):
        def prepare():
            desc, lang = self.instance(key)
            return lambda: _verdict(properties.satisfies_S(desc, lang))

        if eager:
            run = prepare()
            return lambda: run
        return prepare

    def check(self, call: Call, outcome) -> Optional[str]:
        if outcome != self.expected[call.key][:2]:
            return f"got {outcome!r}, recorded {self.expected[call.key][:2]!r}"
        return None


# ---------------------------------------------------------------------------
# weak-sweep: satisfies_W_general on the ten small fixture machines


BINARY_THETAS = {
    "mirror": Theta({"0": "0", "1": "1"}, True),
    "aswap": Theta({"0": "1", "1": "0"}, True),
    "mswap": Theta({"0": "1", "1": "0"}, False),
}

# (fixture file, alphabet, theta), as in the criterion-3 acceptance test
WGEN_MACHINES = (
    ("b1_identity", "01", "mirror"),
    ("b2_swap", "01", "aswap"),
    ("b3_infix", "01", "mirror"),
    ("b4_drop_one_1", "01", "mswap"),
    ("b5_insert_one", "01", "aswap"),
    ("b6_doubler", "01", "mirror"),
    ("b7_mixed_eps", "01", "aswap"),
    ("d1_identity", DNA_LETTERS, "dna"),
    ("d2_one_mismatch", DNA_LETTERS, "dna"),
    ("d3_trim_suffix", DNA_LETTERS, "dna"),
)


def words_up_to(letters: str, max_len: int) -> list[str]:
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(w) for w in itertools.product(letters, repeat=n))
    return out


def _unrank_subset(words: list[str], index: int, max_size: int) -> tuple[str, ...]:
    """The ``index``-th subset in ``itertools.combinations`` order over
    sizes 0..max_size."""
    n = len(words)
    for k in range(max_size + 1):
        if index < math.comb(n, k):
            break
        index -= math.comb(n, k)
    out = []
    start = 0
    while len(out) < k:
        for i in range(start, n):
            c = math.comb(n - i - 1, k - len(out) - 1)
            if index < c:
                out.append(words[i])
                start = i + 1
                break
            index -= c
    return tuple(out)


def _subset_count(n: int, max_size: int) -> int:
    return sum(math.comb(n, k) for k in range(max_size + 1))


def _can_split(word: str, parts: tuple[str, ...]) -> bool:
    """Is ``word`` in ``(p1|p2|...)*``?"""
    ok = [True] + [False] * len(word)
    for i in range(len(word)):
        if ok[i]:
            for p in parts:
                if word.startswith(p, i):
                    ok[i + len(p)] = True
    return ok[len(word)]


class WeakSweep(Workload):
    """``satisfies_W_general`` on all ten ``wgen`` fixture machines.

    Binary machines get every language of at most 3 words of length <= 3
    (576 each).  DNA machines get a seeded sample from a fixed pool of
    2,048 of their 102,426 such languages.  About a tenth of the calls use
    starred languages ``w*`` (|w| <= 3) or ``(w1|w2)*`` (|wi| <= 2); only
    these reach the ``pumping`` route.  Left out, because at this commit
    they take seconds or exceed the decider's item cap
    (``ResourceLimitError``): pairs of length-3 words, and every pair on
    ``d2_one_mismatch`` (``(A|T)*`` and ``(C|G)*`` raise, others take
    ~1.4 s).
    """

    name = "weak-sweep"  # a round is one pass over the run's languages
    DNA_POOL = 2048
    DNA_PER_RUN = 512
    NO_STARRED_PAIRS = ("d2_one_mismatch",)

    def __init__(self, expected: Optional[dict] = None):
        super().__init__(expected)
        self.machines: dict[str, RawMachine] = {}
        self.texts: dict[str, str] = {}
        for name, _letters, _theta in WGEN_MACHINES:
            with open(os.path.join(INPUTS, "wgen", name + ".fa"), encoding="utf-8") as fh:
                self.texts[name] = fh.read()
            self.machines[name] = parse_machine(self.texts[name])

    def _starred_pool(self, name: str, letters: str) -> list[tuple[str, ...]]:
        singles = [(w,) for w in words_up_to(letters, 3)[1:]]
        if name in self.NO_STARRED_PAIRS:
            return singles
        return singles + list(itertools.combinations(words_up_to(letters, 2)[1:], 2))

    def _dna_pool(self, name: str) -> list[int]:
        total = _subset_count(len(words_up_to(DNA_LETTERS, 3)), 3)
        return sorted(_rng(self.name, "pool", name).sample(range(total), self.DNA_POOL))

    def pool(self) -> list[str]:
        keys = []
        for name, letters, _theta in WGEN_MACHINES:
            if letters == DNA_LETTERS:
                keys += [f"{name}:f:{i}" for i in self._dna_pool(name)]
            else:
                keys += [f"{name}:f:{i}" for i in range(_subset_count(len(words_up_to(letters, 3)), 3))]
            keys += [f"{name}:s:{i}" for i in range(len(self._starred_pool(name, letters)))]
        return keys

    def language(self, key: str) -> tuple[tuple[str, ...], bool]:
        """The words of a pool entry and whether the language is their star."""
        name, kind, index = key.split(":")
        letters = dict((m, l) for m, l, _t in WGEN_MACHINES)[name]
        if kind == "s":
            return self._starred_pool(name, letters)[int(index)], True
        return _unrank_subset(words_up_to(letters, 3), int(index), 3), False

    def theta(self, name: str) -> Theta:
        spec = dict((m, t) for m, _l, t in WGEN_MACHINES)[name]
        return DNA_DELTA if spec == "dna" else BINARY_THETAS[spec]

    def descriptors(self) -> dict:
        dna_theta = alphabets.dna_delta()
        binary = alphabets.Alphabet.of("01")
        thetas = {
            "dna": dna_theta,
            "mirror": alphabets.Permutation.mirror(binary),
            "aswap": alphabets.Permutation.from_mapping(binary, {"0": "1", "1": "0"}, antimorphic=True),
            "mswap": alphabets.Permutation.from_mapping(binary, {"0": "1", "1": "0"}),
        }
        out = {}
        for name, letters, theta in WGEN_MACHINES:
            alphabet = alphabets.DNA if letters == DNA_LETTERS else binary
            machine = fado.parse_fado(self.texts[name], alphabet)
            out[name] = properties.PropertyDescriptor(machine, thetas[theta], kind=properties.W_KIND)
        return out

    def build_language(self, key: str, alphabet):
        words, starred = self.language(key)
        lang = automata.Nfa.finite(alphabet, list(words))
        return automata.star(lang) if starred else lang

    def setup(self, seed: int, seconds: float, work: str) -> list[Call]:
        rng = _rng(self.name, "run", seed)
        descs = self.descriptors()
        keys = []
        for name, letters, _theta in WGEN_MACHINES:
            n_starred = len(self._starred_pool(name, letters))
            if letters == DNA_LETTERS:
                keys += [f"{name}:f:{i}" for i in rng.sample(self._dna_pool(name), self.DNA_PER_RUN)]
                starred = rng.sample(range(n_starred), n_starred // 2)
            else:
                keys += [f"{name}:f:{i}" for i in range(_subset_count(len(words_up_to(letters, 3)), 3))]
                starred = range(n_starred)
            keys += [f"{name}:s:{i}" for i in starred]
        rng.shuffle(keys)
        return [self._call(key, descs[key.split(":")[0]]) for key in keys]

    def _call(self, key: str, desc) -> Call:
        lang = self.build_language(key, desc.theta.alphabet)
        return _ready(key, lambda: _verdict(properties.satisfies_W_general(desc, lang)))

    def check(self, call: Call, outcome) -> Optional[str]:
        satisfied, witness = outcome
        if satisfied != self.expected[call.key]:
            return f"verdict {satisfied}, recorded {self.expected[call.key]}"
        if satisfied:
            return None if witness is None else "satisfied verdict carries a witness"
        name = call.key.split(":")[0]
        words, starred = self.language(call.key)
        member = (lambda w: _can_split(w, words)) if starred else (lambda w: w in words)
        if not weak_witness_ok(self.machines[name], self.theta(name), member, witness):
            return f"witness {witness!r} is not a realized pair of distinct language words"
        return None


# ---------------------------------------------------------------------------
# dna-cli: the command line over directories of DNA codes


TRAJECTORY_PAIRS = (("1*0+1*", "0+", True), ("1*0+1*", "0+", False), ("0+", "0+", True))


def descriptor_names() -> list[str]:
    names = [
        f"{prop}.{variant}"
        for prop in dna.PROPERTY_NAMES
        for variant in dna.VARIANTS
        if prop != "nonoverlapping" or variant == dna.STRICT
    ]
    names += ["hamming.ge2", "hamming.ge2-min-len-2"]
    names += [f"trajectory.{i}" for i in range(len(TRAJECTORY_PAIRS))]
    return names


# The weak variants of the input-altering names pay the class-assertion
# check once per file.  They are the slowest calls by far, so their share
# is fixed: compliant and s-compliant once per two half-rounds each, and
# p-compliant four times per half-round, which puts the 90th percentile in
# the middle of the p-compliant calls instead of on a class boundary.
SLOW_ALTERNATING = ("compliant.weak", "s-compliant.weak")
SLOW_REPEATED = "p-compliant.weak"
SLOW_REPEATS = 3


CODE_WORD_LENGTHS = (6, 8, 10, 12)


def random_code(rng: random.Random, letters: str) -> list[str]:
    """Four random words of lengths 6, 8, 10 and 12.  Codes differ in
    their letters, not in their size, so a call's cost varies little with
    the code it gets."""
    return sorted("".join(rng.choice(letters) for _ in range(n)) for n in CODE_WORD_LENGTHS)


class DnaCli(Workload):
    """In-process ``dnacodec.cli.main(["satisfies", ...])`` invocations.

    Every named property in every variant, both Hamming machines and three
    compiled trajectory pairs are written as descriptor JSON during set-up.
    Each call checks one descriptor against one directory of six DNA codes
    (``random_code``): two over {A,C}, which satisfy every property, two
    over {A,C,G} and two over all four letters.  A run uses 16 of the 32
    directories of the pool.
    """

    name = "dna-cli"
    ROUND = 58  # two half-rounds
    POOL_DIRS = 32
    DIRS_PER_RUN = 16
    CODE_ALPHABETS = ("AC", "AC", "ACG", "ACG", DNA_LETTERS, DNA_LETTERS)
    ROUNDS_PER_SECOND = 0.15  # this commit completes three 58-call rounds in 20 s

    def pool(self) -> list[str]:
        return [f"{d}:{dir_}" for d in descriptor_names() for dir_ in range(self.POOL_DIRS)]

    def code(self, dir_: int, index: int) -> list[str]:
        return random_code(_rng(self.name, "code", dir_, index), self.CODE_ALPHABETS[index])

    def write_inputs(self, work: str, dirs) -> dict:
        """Write every descriptor and the chosen code directories; return
        descriptor name -> path."""
        paths = {}
        quiet = io.StringIO()
        for name in descriptor_names():
            path = os.path.join(work, name + ".json")
            paths[name] = path
            kind, _, which = name.partition(".")
            if kind == "hamming":
                desc = dna.hamming_property(which.endswith("min-len-2"), alphabets.dna_delta())
                doc = {
                    "name": desc.name,
                    "kind": desc.kind,
                    "class": "unrestricted",
                    "theta": "dna-delta",
                    "transducer": fado.serialize_fado(desc.transducer),
                }
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
                continue
            if kind == "trajectory":
                e1, e2, strict = TRAJECTORY_PAIRS[int(which)]
                argv = ["build-property", "--trajectory", e1, e2] + (["--strict"] if strict else [])
            else:
                argv = ["build-property", "--dna", kind, "--variant", which]
            with redirect_stdout(quiet):
                if cli.main(argv + ["-o", path]) != 0:
                    raise RuntimeError(f"build-property failed for {name}")
        for dir_ in dirs:
            folder = os.path.join(work, f"dir{dir_}")
            os.makedirs(folder, exist_ok=True)
            for i in range(len(self.CODE_ALPHABETS)):
                lang = automata.Nfa.finite(alphabets.DNA, self.code(dir_, i))
                with open(os.path.join(folder, f"code{i}.fa"), "w", encoding="utf-8") as fh:
                    fh.write(fado.serialize_fado(lang))
        return paths

    def setup(self, seed: int, seconds: float, work: str) -> list[Call]:
        rng = _rng(self.name, "run", seed)
        dirs = rng.sample(range(self.POOL_DIRS), self.DIRS_PER_RUN)
        paths = self.write_inputs(work, dirs)
        base = [n for n in descriptor_names() if n not in SLOW_ALTERNATING]
        n_halves = 2 * math.ceil(seconds * self.ROUNDS_PER_SECOND)

        def half(i):
            names = base + [SLOW_REPEATED] * SLOW_REPEATS + [SLOW_ALTERNATING[i % 2]]
            return [(name, rng.choice(dirs)) for name in names]

        plan = _rounds(rng, n_halves, half)
        return [self._call(name, dir_, paths[name], os.path.join(work, f"dir{dir_}")) for name, dir_ in plan]

    def _call(self, name: str, dir_: int, desc_path: str, folder: str) -> Call:
        argv = ["satisfies", "--property", desc_path, "--language", folder, "--json"]

        def run():
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(argv)
            return [code, out.getvalue()]

        return _ready(f"{name}:{dir_}", run, desc_path)

    @staticmethod
    def per_file(stdout: str) -> list:
        doc = json.loads(stdout)
        rows = doc["results"] if "results" in doc else [doc]
        out = []
        for row in rows:
            witness = row["witness"]
            out.append([os.path.basename(row["file"]), row["satisfied"], witness, row["decider"]])
        return sorted(out)

    def check(self, call: Call, outcome) -> Optional[str]:
        code, stdout = outcome
        try:
            rows = self.per_file(stdout)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output ({exc}): {stdout[:200]!r}"
        want = self.expected[call.key]
        if [r[:2] for r in rows] != [w[:2] for w in want]:
            return f"verdicts {[r[:2] for r in rows]}, recorded {[w[:2] for w in want]}"
        if code != (0 if all(r[1] for r in rows) else 1):
            return f"exit code {code}"
        dir_ = int(call.key.rsplit(":", 1)[1])
        transducer = None
        for (fname, satisfied, witness, decider), recorded in zip(rows, want):
            if satisfied:
                continue
            if decider == "satisfies_S":
                if witness != recorded[2]:
                    return f"{fname}: witness {witness!r}, recorded {recorded[2]!r}"
                continue
            if transducer is None:
                with open(call.data, encoding="utf-8") as fh:
                    transducer = parse_machine(json.load(fh)["transducer"])
            words = set(self.code(dir_, int(fname[4:-3])))
            if not weak_witness_ok(transducer, DNA_DELTA, words.__contains__, witness):
                return f"{fname}: witness {witness!r} is not a realized pair of distinct code words"
        return None


# ---------------------------------------------------------------------------
# maximality: is_maximal on satisfying codes and near-universal languages


MAXIMALITY_PROPERTIES = tuple(
    f"{prop}.{variant}"
    for prop in dna.PROPERTY_NAMES
    if prop != "nonoverlapping"
    for variant in (dna.NORMAL, dna.WEAK)
    if variant == dna.WEAK or prop in ("compliant", "p-compliant", "s-compliant")
)


def near_universal_dna(k: int, letter: str) -> tuple[int, list, set, set]:
    """Words of length <= k, or whose (k+1)-th letter from the end is not
    ``letter``.  The shortest word outside is ``letter + "A" * k``."""
    edges = [(i, a, i + 1) for i in range(k) for a in DNA_LETTERS]
    guess = k + 1
    edges += [(guess, a, guess) for a in DNA_LETTERS]
    edges += [(guess, a, guess + 1) for a in DNA_LETTERS if a != letter]
    edges += [(guess + 1 + j, a, guess + 2 + j) for j in range(k) for a in DNA_LETTERS]
    n = guess + 2 + k
    return n, edges, {0, guess}, set(range(k + 1)) | {n - 1}


def near_universal_binary(k: int) -> tuple[int, list, set, set]:
    """Nonempty binary words containing a 0 that have length <= k or a 1
    as their (k+1)-th letter from the end.  A second bit in each state
    records whether a 0 was read.  Together with the images 1^n of the
    words 0^n (n <= k) this leaves 0^(k+1) as the shortest addable word."""

    def st(base, i, z):
        return base + 2 * i + z

    edges = []
    for i in range(k):  # short words
        for z in (0, 1):
            for a in "01":
                edges.append((st(0, i, z), a, st(0, i + 1, z or a == "0")))
    guess = 2 * (k + 1)
    for z in (0, 1):
        for a in "01":
            edges.append((guess + z, a, guess + (z or a == "0")))
        edges.append((guess + z, "1", st(guess + 2, 0, z)))
    for j in range(k):
        for z in (0, 1):
            for a in "01":
                edges.append((st(guess + 2, j, z), a, st(guess + 2, j + 1, z or a == "0")))
    n = guess + 2 + 2 * (k + 1)
    finals = {st(0, i, 1) for i in range(1, k + 1)} | {st(guess + 2, k, 1)}
    return n, edges, {0, guess}, finals


class Maximality(Workload):
    """``is_maximal`` on two kinds of input, ten calls of each per round.

    (a) Codes over {A,C} (``random_code``; they satisfy every property) under the seven weak named properties and the three
        input-altering normal ones.  The cost is the class-assertion check
        plus building the extension universe; the shortest addable word is
        always the empty word.
    (b) Near-universal languages under the two maximality fixtures with
        trivial restrictions: DNA languages ``near_universal_dna`` under
        ``desc_empty_altering`` and binary ones ``near_universal_binary``
        under ``desc_zero_one_loop``.  Here the subset search of
        ``missing_word`` does the work, doubling with every k.

    A round of 20 calls has the ten (a) calls, five DNA calls with k = 12,
    four with k = 13 and one binary call with k = 12.  The k = 13 calls are
    the slowest fifth and hold the 90th percentile; the k = 12 DNA calls
    and the s-compliant checks, at about the same cost, hold the median.
    """

    name = "maximality"
    ROUND = 20
    POOL_CODES = 32
    CODES_PER_RUN = 12
    DNA_CALLS = {12: 5, 13: 4}  # k -> (b) calls per round
    BINARY_K = 12
    ROUNDS_PER_SECOND = 0.6

    def pool(self) -> list[str]:
        keys = [f"a:{p}:{c}" for p in MAXIMALITY_PROPERTIES for c in range(self.POOL_CODES)]
        keys += [f"b:dna:{k}:{x}" for k in self.DNA_CALLS for x in DNA_LETTERS]
        keys.append(f"b:bin:{self.BINARY_K}")
        return keys

    def code(self, index: int) -> list[str]:
        return random_code(_rng(self.name, "code", index), "AC")

    def fixture(self, name: str):
        with open(os.path.join(INPUTS, "maximal", name + ".json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        alphabet = alphabets.Alphabet.of(doc.get("alphabet", "01"))
        machine = fado.parse_fado(doc["transducer"], alphabet)
        if doc["theta"] == "dna-delta":
            theta = alphabets.dna_delta()
        else:
            theta = alphabets.Permutation.mirror(alphabet)
        return properties.PropertyDescriptor(
            machine, theta, kind=doc["kind"], asserted_class=properties.INPUT_ALTERING, name=doc["name"]
        )

    def raw_language(self, key: str) -> tuple[str, tuple[int, list, set, set]]:
        parts = key.split(":")
        if parts[1] == "dna":
            return DNA_LETTERS, near_universal_dna(int(parts[2]), parts[3])
        return "01", near_universal_binary(int(parts[2]))

    def _call(self, key: str, descs: dict) -> Call:
        parts = key.split(":")
        if parts[0] == "a":
            desc = descs[parts[1]]
            lang = automata.Nfa.finite(alphabets.DNA, self.code(int(parts[2])))
        else:
            letters, (n, edges, initial, final) = self.raw_language(key)
            desc = descs["desc_empty_altering" if letters == DNA_LETTERS else "desc_zero_one_loop"]
            lang = automata.Nfa(desc.theta.alphabet, n, tuple(edges), initial, final)
        return _ready(key, lambda: _verdict(properties.is_maximal(desc, lang)))

    def descriptors(self) -> dict:
        delta = alphabets.dna_delta()
        descs = {}
        for name in MAXIMALITY_PROPERTIES:
            prop, variant = name.rsplit(".", 1)
            descs[name] = dna.named_property(prop, variant, delta)
        for fixture in ("desc_empty_altering", "desc_zero_one_loop"):
            descs[fixture] = self.fixture(fixture)
        return descs

    def setup(self, seed: int, seconds: float, work: str) -> list[Call]:
        rng = _rng(self.name, "run", seed)
        descs = self.descriptors()
        codes = rng.sample(range(self.POOL_CODES), self.CODES_PER_RUN)
        n_rounds = math.ceil(seconds * self.ROUNDS_PER_SECOND)

        def one_round(_i):
            keys = [f"a:{p}:{rng.choice(codes)}" for p in MAXIMALITY_PROPERTIES]
            for k, count in self.DNA_CALLS.items():
                keys += [f"b:dna:{k}:{rng.choice(DNA_LETTERS)}" for _ in range(count)]
            keys.append(f"b:bin:{self.BINARY_K}")
            return keys

        return [self._call(key, descs) for key in _rounds(rng, n_rounds, one_round)]

    def check(self, call: Call, outcome) -> Optional[str]:
        if outcome != self.expected[call.key]:
            return f"got {outcome!r}, recorded {self.expected[call.key]!r}"
        return None


WORKLOADS = {w.name: w for w in (StrictLarge, WeakSweep, DnaCli, Maximality)}
