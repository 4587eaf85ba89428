#!/usr/bin/env python3
"""Benchmark of the dnacodec deciders: one closed-loop client, one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload strict-large --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` and set up three
times; ``setup_s`` is the import time plus the median set-up.  The timed
loop then calls the public API of ``dnacodec`` one call at a time until
``--seconds`` have passed (and at least 100 calls and a whole round of
the workload were made), and every outcome is compared with the results
recorded in ``expected/``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes one
pass over the first half of the calls (in whole rounds) without tracing,
then sets up again with tracing wrappers installed and makes the same
pass traced; it prints the per-layer metrics and the tracing overhead.  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 0 only when every call was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3
MIN_CALLS = 100
HARD_STOP_S = 140.0  # stop early rather than overrun the 180 s budget of a run
UNITS = {
    "call_ms_p50": "ms",
    "call_ms_p90": "ms",
    "calls_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "failed_share": "ratio",
}
# failed_share is 0 on a correct run, and a metric of BENCHMARK.json must
# never be 0; the JSON line carries it as ``failed`` / ``attempted``.
JSON_METRICS = tuple(name for name in UNITS if name != "failed_share")

# The speed of the shared host drifts by 20-50% within seconds.  A fixed
# pure-Python probe, independent of dnacodec, is timed before and after
# each set-up and about every PROBE_EVERY_S of the timed loop, always
# outside the timed intervals.  Each timed interval is divided by the host
# slowdown around it: the mean of the probes on either side over
# REFERENCE_PROBE_S, the probe's time on this host when idle.  The raw
# values are printed alongside.
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 0.0009


def probe_s() -> float:
    """Mean time of three runs of a fixed dict/set/list loop.  The mean,
    not the minimum: calls last 0.1-300 ms and pay the host's average
    speed, not its best moment."""
    t0 = time.perf_counter()
    for _ in range(3):
        counts: dict = {}
        seen = set()
        out = []
        for i in range(4000):
            k = (i * 7919) & 1023
            counts[k] = counts.get(k, 0) + 1
            if k not in seen:
                seen.add(k)
            out.append((k, i))
    return (time.perf_counter() - t0) / 3


class Speed:
    """Probe samples taken between timed intervals: ``marks`` holds
    ``(number of intervals timed so far, probe seconds)``."""

    def __init__(self):
        self.marks: list[tuple[int, float]] = []
        self.next_at = 0.0

    def sample(self, done: int) -> None:
        self.marks.append((done, probe_s()))
        self.next_at = time.perf_counter() + PROBE_EVERY_S

    def maybe_sample(self, done: int, now: float) -> None:
        if now >= self.next_at:
            self.sample(done)

    def normalize(self, durations) -> list[float]:
        """Each duration divided by the slowdown measured around it."""
        out = []
        marks = self.marks
        for k in range(len(marks) - 1):
            (start, before), (end, after) = marks[k], marks[k + 1]
            factor = (before + after) / 2 / REFERENCE_PROBE_S
            out.extend(d / factor for d in durations[start:end])
        return out

    def slowdown(self) -> float:
        return statistics.median(p for _n, p in self.marks) / REFERENCE_PROBE_S


def import_program():
    """Import the package from this checkout's ``src``, never another copy."""
    if not os.path.isfile(os.path.join(SRC, "dnacodec", "__init__.py")):
        raise SystemExit(f"error: no dnacodec package under {SRC}")
    sys.path.insert(0, SRC)
    import dnacodec

    if os.path.dirname(os.path.dirname(os.path.abspath(dnacodec.__file__))) != SRC:
        raise SystemExit(f"error: imported dnacodec from {dnacodec.__file__}, not {SRC}")
    import tracing
    import workloads

    return workloads, tracing


def run_calls(workload, calls, seconds, started, speed, tracer=None, one_pass=False):
    """Make calls in order (cycling) until ``seconds`` have passed, at
    least MIN_CALLS were made and a round of the workload is complete; or
    just one pass over ``calls``.

    Each outcome is checked right after its call, outside the timed part,
    so that no per-call results are kept.  Returns ``(durations,
    failures)``: the seconds of each call and one message per failed call.
    """
    durations = array("d")
    failures = []
    verdicts: dict = {}
    round_ = workload.ROUND or len(calls)
    speed.sample(0)
    loop_start = time.perf_counter()
    i = 0
    while True:
        call = calls[i % len(calls)]
        if tracer is not None:
            tracer.start_prepare()
        run = call.prepare()
        if tracer is not None:
            tracer.start_call(i)
        t0 = time.perf_counter()
        try:
            outcome, error = run(), None
        except Exception as exc:  # a failed call is counted, not fatal
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        durations.append(t1 - t0)
        if error is None:
            memo = (call.key, json.dumps(outcome))
            if memo not in verdicts:
                verdicts[memo] = workload.check(call, outcome)
            error = verdicts[memo]
        if error is not None:
            failures.append(f"{call.key}: {error}")
        i += 1
        speed.maybe_sample(i, t1)
        t2 = time.perf_counter()
        if one_pass and i == len(calls):
            break
        if not one_pass and i >= MIN_CALLS and t2 - loop_start >= seconds and i % round_ == 0:
            break
        if t2 - started > HARD_STOP_S:
            print(f"warning: hard stop after {i} calls", file=sys.stderr)
            break
    if speed.marks[-1][0] != i:
        speed.sample(i)
    return durations, failures


def latency_metrics(durations) -> dict:
    """Median and 90th percentile of the call times, and calls per second
    of time spent in calls (closed loop, one client)."""
    times_ms = [dt * 1e3 for dt in durations]
    return {
        "call_ms_p50": statistics.median(times_ms),
        "call_ms_p90": statistics.quantiles(times_ms, n=10)[-1],
        "calls_per_s": len(durations) / sum(durations),
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads, tracing = import_program()
    import_s = time.perf_counter() - started
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](workloads.load_expected(args.workload))

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        setup_speed = Speed()
        setup_times = []
        calls = None
        for i in range(SETUP_REPEATS):
            folder = os.path.join(work, f"setup{i}")
            os.makedirs(folder)
            setup_speed.sample(i)
            s0 = time.perf_counter()
            built = workload.setup(args.seed, args.seconds, folder)
            setup_times.append(time.perf_counter() - s0)
            if calls is None:
                calls = built
            del built
        setup_speed.sample(SETUP_REPEATS)
        first_probe = setup_speed.marks[0][1]
        raw_setup_s = import_s + statistics.median(setup_times)
        setup_s = import_s * REFERENCE_PROBE_S / first_probe + statistics.median(
            setup_speed.normalize(setup_times)
        )

        speed = Speed()
        if args.trace:
            # Two passes must fit in one run: trace the first half of the
            # calls, in whole rounds.
            round_ = workload.ROUND or len(calls)
            calls = calls[: max(round_, len(calls) // 2 // round_ * round_)]
        durations, failures = run_calls(
            workload, calls, args.seconds, started, speed, one_pass=bool(args.trace)
        )
        traced_count = len(calls)
        del calls
        attempted = len(durations)
        raw = latency_metrics(durations)
        e2e = latency_metrics(speed.normalize(durations))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.start_call(tracing.SETUP)
            folder = os.path.join(work, "traced")
            os.makedirs(folder)
            traced_calls = workload.setup(args.seed, args.seconds, folder)[:traced_count]
            traced_speed = Speed()
            traced, traced_failures = run_calls(
                workload, traced_calls, args.seconds, started, traced_speed, tracer, one_pass=True
            )
            metrics = tracer.metrics(len(traced), sum(traced), sum(durations))
            traced_e2e = latency_metrics(traced_speed.normalize(traced))
            attempted += len(traced)
            failures += traced_failures
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    failed_share = len(failures) / attempted
    e2e.update(peak_rss_mb=rss_mb, setup_s=setup_s, failed_share=failed_share)
    raw.update(peak_rss_mb=rss_mb, setup_s=raw_setup_s, failed_share=failed_share)
    label = "untraced pass" if args.trace else "timed loop"
    print(
        f"{args.workload} seed={args.seed}: {attempted} calls; median host slowdown "
        f"{speed.slowdown():.3f} over {len(speed.marks)} probes"
    )
    print(f"{label}, at reference host speed (raw):")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {UNITS[name]} ({raw[name]:.6g})")
    if args.trace:
        print("traced pass, at reference host speed (traced - untraced):")
        for name, value in traced_e2e.items():
            print(f"  {name} = {value:.6g} {UNITS[name]} ({value - e2e[name]:+.6g})")
        print("per-layer metrics of the traced pass and set-up (raw):")
        for name, entry in metrics.items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": UNITS[name]} for name in JSON_METRICS}
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
