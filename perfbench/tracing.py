"""Per-layer spans and counters for the traced run.

``Tracer.install`` replaces public functions of ``dnacodec`` with wrappers
in every module namespace where callers look them up (a module's own
globals and every ``from ... import`` copy), and constructor and method
attributes on their classes.  Spans are kept in memory:
``[name, call_id, parent, thread, wall_start, wall_end, cpu_start,
cpu_end]``.

Self time is measured on the per-thread CPU clock: a span's CPU time minus
that of its children on the same thread.  The CLI's worker threads take
turns on the interpreter lock, so their wall-clock spans overlap; on the
thread clock the self times of one call add up to the CPU time of all of
its threads, which for this CPU-bound program is the call's wall time.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter, defaultdict
from functools import wraps

# (module, attribute, metric name); a dotted attribute is a class member.
SPANS = (
    ("properties", "satisfies", "properties"),
    ("properties", "satisfies_S", "properties"),
    ("properties", "satisfies_W_general", "properties"),
    ("properties", "satisfies_W_preserving", "properties"),
    ("properties", "is_maximal", "properties"),
    ("properties", "find_extension", "properties"),
    ("transducers", "bounded_counterexample", "bounded_counterexample"),
    ("transducers", "normalize", "normalize"),
    ("transducers", "trim", "trim"),
    ("transducers", "relation_empty", "relation_empty"),
    ("transducers", "is_functional", "is_functional"),
    ("transducers", "is_length_preserving", "is_length_preserving"),
    ("transducers", "restrict_input", "restrict_input"),
    ("transducers", "image", "image"),
    ("transducers", "compose", "compose"),
    ("transducers", "included_in_recognizable", "included_in_recognizable"),
    ("transducers", "Transducer.__init__", "Transducer.init"),
    ("automata", "remove_epsilon", "remove_epsilon"),
    ("automata", "shortest_word", "shortest_word"),
    ("automata", "intersect", "intersect"),
    ("automata", "missing_word", "missing_word"),
    ("automata", "theta_image", "theta_image"),
    ("automata", "Nfa.__init__", "Nfa.init"),
    ("dna", "named_property", "dna.named_property"),
    ("trajectories", "compile_trajectory_property", "trajectories.compile_trajectory_property"),
    ("fado", "parse_fado", "fado.parse_fado"),
    ("cli", "main", "cli.main"),
)
COUNTS = (
    ("transducers", "accepts_pair", "accepts_pair"),
    ("automata", "Nfa.step", "Nfa.step"),
    ("alphabets", "Permutation.inverse", "Permutation.inverse"),
    ("alphabets", "Permutation.is_involution", "Permutation.is_involution"),
)
STAT_KEYS = ("restriction_states", "restriction_edges", "universe_states")

# Every per-layer metric the traced run prints: name -> unit.
PER_LAYER = {
    "properties.self_s": "s",
    "properties.restriction_states": "count",
    "properties.restriction_edges": "count",
    "properties.universe_states": "count",
    "bounded_counterexample.calls": "count",
    "bounded_counterexample.self_s": "s",
    "bounded_counterexample.repeat_ratio": "ratio",
    "accepts_pair.calls": "count",
    **{
        f"{fn}.self_s": "s"
        for fn in (
            "normalize",
            "trim",
            "relation_empty",
            "is_functional",
            "is_length_preserving",
            "restrict_input",
            "image",
            "compose",
            "included_in_recognizable",
        )
    },
    "Transducer.constructed": "count",
    "Transducer.init_s": "s",
    "remove_epsilon.calls": "count",
    "remove_epsilon.self_s": "s",
    "remove_epsilon.noop_ratio": "ratio",
    "shortest_word.self_s": "s",
    "intersect.self_s": "s",
    "missing_word.self_s": "s",
    "Nfa.step.calls": "count",
    "theta_image.self_s": "s",
    "Nfa.constructed": "count",
    "Nfa.init_s": "s",
    "Permutation.inverse.calls": "count",
    "Permutation.is_involution.calls": "count",
    "dna.named_property.self_s": "s",
    "trajectories.compile_trajectory_property.self_s": "s",
    "fado.parse_fado.calls": "count",
    "fado.parse_fado.self_s": "s",
    "cli.main.self_s": "s",
    "trace.calls": "count",
    "trace.call_s": "s",
    "trace.self_sum_s": "s",
    "trace.untraced_call_s": "s",
    "trace.overhead_ratio": "ratio",
}

SETUP = -1  # call id of spans recorded while setting up
PREPARE = -2  # call id while inputs are built between calls; not reported


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.call_id = SETUP
        self.root = None  # outermost span of the current call, for worker threads
        self._local = threading.local()
        self._counters: list[Counter] = []  # one per thread, merged at the end
        self._counterexample_keys: set = set()
        self._keys_lock = threading.Lock()
        self._verdicts: dict[int, object] = {}

    # -- recording ---------------------------------------------------------

    def _thread_counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            self._counters.append(counter)
        return counter

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start_call(self, call_id: int) -> None:
        self.call_id = call_id
        self.root = None
        self._verdicts.clear()

    def start_prepare(self) -> None:
        self.start_call(PREPARE)

    def span(self, name: str, fn):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            thread = threading.get_ident()
            if stack:
                parent = stack[-1]
            else:
                # A worker thread's outermost span belongs to the call's
                # root span while that is open on another thread.
                root = tracer.root
                open_elsewhere = root is not None and root[3] != thread and not root[5]
                parent = root if open_elsewhere else None
            rec = [name, tracer.call_id, parent, thread, 0.0, 0.0, 0.0, 0.0]
            if parent is None:
                tracer.root = rec
            stack.append(rec)
            tracer.spans.append(rec)
            rec[6] = time.thread_time()
            rec[4] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = time.perf_counter()
                rec[7] = time.thread_time()
                stack.pop()
            if name == "properties" and hasattr(result, "stats"):
                tracer._add_verdict(result)
            return result

        return wrapper

    def count(self, name: str, fn):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.call_id != PREPARE:
                tracer._thread_counter()[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add_verdict(self, verdict) -> None:
        # satisfies() returns the Verdict of the decider it dispatched to;
        # count each Verdict object once.
        if id(verdict) in self._verdicts:
            return
        self._verdicts[id(verdict)] = verdict
        counter = self._thread_counter()
        for key in STAT_KEYS:
            counter[key] += verdict.stats.get(key, 0)

    def _remove_epsilon(self, fn):
        span = self.span("remove_epsilon", fn)
        tracer = self

        @wraps(fn)
        def wrapper(m, *args, **kwargs):
            if all(sym is not None for _src, sym, _dst in m.edges):
                tracer._thread_counter()["remove_epsilon.noop"] += 1
            return span(m, *args, **kwargs)

        return wrapper

    def _bounded_counterexample(self, fn):
        span = self.span("bounded_counterexample", fn)
        tracer = self

        @wraps(fn)
        def wrapper(t, theta, mode, max_len):
            key = (  # by value: the CLI parses a fresh machine per call
                t.alphabet.symbols,
                t.n_states,
                t.edges,
                t.initial,
                t.final,
                theta.table,
                theta.antimorphic,
                mode,
                max_len,
            )
            with tracer._keys_lock:
                repeated = key in tracer._counterexample_keys
                tracer._counterexample_keys.add(key)
            if repeated:
                tracer._thread_counter()["bounded_counterexample.repeat"] += 1
            return span(t, theta, mode, max_len)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "dnacodec" or name.startswith("dnacodec.")]
        for kinds, make in ((SPANS, self.span), (COUNTS, self.count)):
            for module, attr, metric in kinds:
                owner = sys.modules[f"dnacodec.{module}"]
                if "." in attr:
                    cls_name, member = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, member, make(metric, cls.__dict__[member]))
                    continue
                original = getattr(owner, attr)
                if attr == "remove_epsilon":
                    wrapped = self._remove_epsilon(original)
                elif attr == "bounded_counterexample":
                    wrapped = self._bounded_counterexample(original)
                else:
                    wrapped = make(metric, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        """Self seconds per metric name, summed over the set-up and the
        calls."""
        self.spans = [rec for rec in self.spans if rec[1] != PREPARE]
        cpu_children: dict[int, float] = defaultdict(float)
        for _name, _call, parent, thread, _w0, _w1, c0, c1 in self.spans:
            if parent is not None and parent[3] == thread:
                cpu_children[id(parent)] += c1 - c0
        out: dict[str, float] = defaultdict(float)
        self.call_self_s = 0.0
        for rec in self.spans:
            own = rec[7] - rec[6] - cpu_children[id(rec)]
            out[rec[0]] += own
            if rec[1] != SETUP:
                self.call_self_s += own
        return out

    def metrics(self, calls: int, call_s: float, untraced_call_s: float) -> dict:
        selfs = self.self_times()
        counts = Counter()
        for counter in self._counters:
            counts.update(counter)
        for rec in self.spans:
            counts[rec[0]] += 1

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "properties.self_s": selfs["properties"],
            **{f"properties.{k}": counts[k] for k in STAT_KEYS},
            "bounded_counterexample.calls": counts["bounded_counterexample"],
            "bounded_counterexample.repeat_ratio": ratio(
                counts["bounded_counterexample.repeat"], counts["bounded_counterexample"]
            ),
            "accepts_pair.calls": counts["accepts_pair"],
            "Transducer.constructed": counts["Transducer.init"],
            "Transducer.init_s": selfs["Transducer.init"],
            "remove_epsilon.calls": counts["remove_epsilon"],
            "remove_epsilon.noop_ratio": ratio(counts["remove_epsilon.noop"], counts["remove_epsilon"]),
            "Nfa.step.calls": counts["Nfa.step"],
            "Nfa.constructed": counts["Nfa.init"],
            "Nfa.init_s": selfs["Nfa.init"],
            "Permutation.inverse.calls": counts["Permutation.inverse"],
            "Permutation.is_involution.calls": counts["Permutation.is_involution"],
            "fado.parse_fado.calls": counts["fado.parse_fado"],
            "trace.calls": calls,
            "trace.call_s": call_s,
            "trace.self_sum_s": self.call_self_s,
            "trace.untraced_call_s": untraced_call_s,
            "trace.overhead_ratio": ratio(call_s, untraced_call_s) - 1.0,
        }
        for metric in PER_LAYER:
            if metric not in values and metric.endswith(".self_s"):
                values[metric] = selfs[metric[: -len(".self_s")]]
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
