"""Run one workload of the forlean benchmark and print its metrics.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it reads forlean from ``src/`` and
writes its scratch files (the ``forlean corpus`` input, the spans) under
``.bench_out/``.  Each metric is printed on its own line with its unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

A single caller sends the workload's texts to ``run_pipeline`` in a closed
loop, one after the other, cycling through the seeded pool for
``--seconds`` (and at least twice through it).  Every call's outputs are
checked against the workload's reference.  Each text's latency is the best
of its calls in the run, and the process moves to another CPU after each
pass: other tenants of a shared machine only ever add time, and on a 2-vCPU
VM each virtual CPU slowed down on its own, by up to 75% for seconds at a
time, which moved raw means and percentiles by 20-40% between identical
runs.

``--trace 1`` alternates untraced passes over the pool with traced ones,
whose spans (see spans.py) give the per-layer numbers; for each text the
traced call with the shortest root span is the one reported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from spans import Tracer, count_nodes, span_times, stage_targets, wrapper_cost_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CORPUS = SRC / "forlean" / "data" / "corpus.txt"

# one fresh interpreter for setup_s (the median is reported) and, in the
# traced run, one fresh `forlean corpus` process for cli_s (the best is
# reported) per this many seconds of measuring, and at least MIN_PROBES
PROBE_EVERY_S = 1.5
MIN_PROBES = 3
MIN_PASSES = 2  # so that every text has a call after its first (per mode with --trace 1)

# import forlean and make the first call, which loads the lexicon, in a
# fresh interpreter; the text is the same for every workload and seed, so
# that the figure is the cost of set-up, not of a workload's first text
SETUP_SCRIPT = """\
import time
t0 = time.perf_counter()
import forlean
t1 = time.perf_counter()
forlean.run_pipeline("Ex. Assume n is an odd integer. Then 3 * n + 7 is even.")
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


class Checker:
    """Counts the calls and compares each call's printed set with the
    reference set of its text."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, tuple[workloads.Case, str]] = {}
        self._verified: dict[str, tuple[str, ...]] = {}

    def check(self, case: workloads.Case, traces, error) -> None:
        self.attempted += 1
        problem = self._problem(case, traces, error)
        if problem is not None:
            self.failed += 1
            self.failures.setdefault(case.id, (case, problem))

    def _problem(self, case, traces, error) -> str | None:
        if error is not None:
            return f"raised {error!r}"
        diagnostics = [d for trace in traces for d in trace.diagnostics]
        if diagnostics:
            return f"diagnostics {diagnostics}"
        printed = tuple(p for trace in traces for p in trace.printed)
        if self._verified.get(case.id) == printed:
            return None
        got = frozenset(workloads.canonical(p) for p in printed)
        if got != case.canonical:
            return "printed " + " | ".join(sorted(got))
        self._verified[case.id] = printed
        return None


def timed_call(fn, text: str):
    start = time.perf_counter_ns()
    try:
        traces, error = fn(text), None
    except Exception as err:  # a failure of the program under test, counted
        traces, error = None, err
    return time.perf_counter_ns() - start, traces, error


class Probes:
    """Fresh processes timed between passes of the loop, spread over the
    run rather than bunched at its start, so that a slow spell of the
    machine does not take all of them: ``forlean`` imported and called once
    (setup), and, given a corpus file, one ``forlean corpus`` run (cli)."""

    def __init__(self, cli_path: Path | None, checker: Checker, runs: int):
        self.runs = runs
        self.setup: list[tuple[float, float]] = []
        self.cli: list[float] = []
        self._setup_command = [sys.executable, "-c", SETUP_SCRIPT]
        self._cli_path = cli_path
        self._checker = checker
        self._setup_once()  # writes the bytecode caches; not recorded

    def run_one(self, cpus: list[int]) -> None:
        """Probe once, on the next of ``cpus`` in turn."""
        os.sched_setaffinity(0, {cpus[len(self.setup) % len(cpus)]})
        self.setup.append(self._setup_once())
        if self._cli_path is not None:
            self.cli.append(self._cli_once())

    def _setup_once(self) -> tuple[float, float]:
        """(import seconds, first-call seconds), timed inside the process."""
        done = subprocess.run(
            self._setup_command,
            env=subprocess_env(),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        import_s, first_call_s = map(float, done.stdout.split())
        return import_s, first_call_s

    def _cli_once(self) -> float:
        """Wall seconds of one ``forlean corpus`` process; one that does not
        exit with 0 counts as a failed operation."""
        command = [sys.executable, "-m", "forlean.cli", "corpus", str(self._cli_path)]
        start = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=subprocess_env(), capture_output=True, text=True, timeout=120
        )
        elapsed = time.perf_counter() - start
        self._checker.attempted += 1
        if done.returncode != 0:
            self._checker.failed += 1
            tail = (done.stdout + done.stderr).strip().splitlines()[-5:]
            self._checker.failures.setdefault(
                "forlean corpus", (None, f"exit {done.returncode}: " + " / ".join(tail))
            )
        return elapsed


def closed_loop(seconds: float, min_passes: int, run_pass, probes: Probes, per_cpu: int = 1) -> None:
    """Call ``run_pass(number)``, which sends every text of the pool in
    order, until ``seconds`` of passes and ``min_passes`` passes are done;
    run the probes between passes, evenly over those seconds.

    The process moves to the next CPU it may use after every ``per_cpu``
    passes.  On a shared VM each virtual CPU slows down on its own (by up to
    70% for seconds at a time), so the best time of a text over passes on
    different CPUs is far steadier than over passes on one."""
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    paused = 0.0
    number = 0
    try:
        while number < min_passes or time.perf_counter() - paused < start + seconds:
            os.sched_setaffinity(0, {cpus[number // per_cpu % len(cpus)]})
            run_pass(number)
            number += 1
            elapsed = time.perf_counter() - paused - start
            if len(probes.setup) < probes.runs * min(1.0, elapsed / seconds):
                before = time.perf_counter()
                probes.run_one(cpus)
                paused += time.perf_counter() - before
        while len(probes.setup) < probes.runs:
            probes.run_one(cpus)
    finally:
        os.sched_setaffinity(0, cpus)


def pass_order(size: int, number: int) -> list[int]:
    """The pool in its seeded order, starting ``number`` texts later, so
    that no text always runs first after a move to another CPU."""
    first = number % size
    return list(range(first, size)) + list(range(first))


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def write_cli_corpus(path: Path, cases) -> None:
    blocks = []
    for case in cases:
        if case.in_cli:
            expects = "".join(f"-- expect\n{e}\n" for e in case.expected)
            blocks.append(f"== {case.id}\n-- input\n{case.text}\n{expects}")
    path.write_text("\n".join(blocks), encoding="utf-8")


def weighted_percentiles(best: list[int], calls: list[int]) -> tuple[float, float, int]:
    """p50 and p99 over the calls, each call taking its text's best time,
    and the number of calls at or beyond p99."""
    samples = sorted(b for b, c in zip(best, calls) for _ in range(c))
    cuts = statistics.quantiles(samples, n=100)
    beyond = sum(1 for s in samples if s >= cuts[98])
    return cuts[49], cuts[98], beyond


class Report:
    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def untraced_run(cases, seconds: float, checker: Checker, report: Report, probes: Probes) -> None:
    from forlean import preprocess, run_pipeline, tokenize

    best = [float("inf")] * len(cases)
    calls = [0] * len(cases)
    raw: list[int] = []

    def run_pass(number: int) -> None:
        for k in pass_order(len(cases), number):
            case = cases[k]
            ns, traces, error = timed_call(run_pipeline, case.text)
            checker.check(case, traces, error)
            best[k] = min(best[k], ns)
            calls[k] += 1
            raw.append(ns)

    closed_loop(seconds, MIN_PASSES, run_pass, probes)
    p50, p99, beyond = weighted_percentiles(best, calls)
    tokens = sum(len(tokenize(preprocess(case.text))) for case in cases) / len(cases)
    report.add(
        "texts_per_s",
        len(cases) / (sum(best) / 1e9),
        "1/s",
        f"{tokens:.1f} tokens per text; {len(cases)} texts, each at its best"
        f" of {min(calls)}-{max(calls)} calls",
    )
    report.add("latency_p50_us", p50 / 1e3, "us", f"{len(raw)} calls")
    report.add("latency_p99_us", p99 / 1e3, "us", f"{len(raw)} calls, {beyond} at or beyond it")
    raw_cuts = statistics.quantiles(raw, n=100)
    print(
        f"raw, every call at its own time: {len(raw) / (sum(raw) / 1e9):.1f} texts/s,"
        f" p50 {raw_cuts[49] / 1e3:.1f} us, p99 {raw_cuts[98] / 1e3:.1f} us"
    )


STAGES = (
    "lexicon.preprocess",
    "lexicon.tokenize",
    "pipeline.split_texts",
    "parsing.parse_text",
    "simplify.simplify",
    "translate.translate_text",
    "lean.print_command",
)


def traced_run(cases, seconds: float, checker: Checker, report: Report, probes: Probes) -> Tracer:
    from forlean import lean, lean_reader, run_pipeline

    tracer = Tracer()
    targets = stage_targets()
    root = tracer.wrap("pipeline.run_pipeline", run_pipeline)

    def reread(printed):
        # what the corpus harness does to every output
        for p in printed:
            lean.print_command(lean.normalize_names(lean_reader.read_command(p)))

    recheck = tracer.wrap("lean_reader.check", reread)
    untraced = [float("inf")] * len(cases)
    traced = [float("inf")] * len(cases)
    best_call = [-1] * len(cases)
    sizes: list[Counter] = [Counter() for _ in cases]

    def untraced_call(k: int) -> None:
        ns, traces, error = timed_call(run_pipeline, cases[k].text)
        checker.check(cases[k], traces, error)
        untraced[k] = min(untraced[k], ns)

    def traced_call(k: int) -> None:
        tracer.text_id += 1
        first = len(tracer.spans)
        _, traces, error = timed_call(root, cases[k].text)
        checker.check(cases[k], traces, error)
        if error is not None:
            return
        recheck([p for trace in traces for p in trace.printed])
        _, start, end, *_ = tracer.spans[first]
        if end - start < traced[k]:
            traced[k] = end - start
            best_call[k] = tracer.text_id
        if not sizes[k]:
            sizes[k] = ir_sizes(traces)

    def run_pass(number: int) -> None:
        # whole passes in one mode: installing the wrappers per call would
        # also cost the untraced calls, by undoing the interpreter's
        # specialization of the patched lookups
        if number % 2 == 0:
            for k in pass_order(len(cases), number // 2):
                untraced_call(k)
        else:
            with tracer.installed(targets):
                for k in pass_order(len(cases), number // 2):
                    traced_call(k)

    # an untraced and a traced pass on each CPU in turn
    closed_loop(seconds, 2 * MIN_PASSES, run_pass, probes, per_cpu=2)
    cost_ns = wrapper_cost_ns()
    profiles = text_profiles(tracer, set(best_call), cost_ns)
    chosen = [k for k, call in enumerate(best_call) if call >= 0]
    n = len(chosen)
    total = sum((profiles[best_call[k]] for k in chosen), Counter())
    size = sum((sizes[k] for k in chosen), Counter())

    def us(*names: str) -> float:
        return sum(total[name] for name in names) / n / 1e3

    run_us = sum(untraced[k] for k in chosen) / n / 1e3
    glue_us = run_us - us(*STAGES)
    add = report.add
    add("lexicon.tokenize_us", us("lexicon.preprocess", "lexicon.tokenize"), "us")
    add("lexicon.tokens", total["tokens"] / n, "count")
    add("lexicon.match_calls", total["match_calls"] / n, "count")
    add("lexicon.match_us", us("lexicon.match"), "us")
    add("lexicon.match_hit_ratio", total["match_hits"] / total["match_calls"], "ratio")
    add("parsing.parse_us", us("parsing.parse_text"), "us")
    add("parsing.self_us", us("parsing.self"), "us", "parse_us minus match_us")
    add("parsing.parses", size["parses"] / n, "count")
    add("parsing.nodes", size["parse_nodes"] / n, "count")
    add("simplify.simplify_us", us("simplify.simplify"), "us")
    add("simplify.nodes", size["normal_nodes"] / n, "count")
    add("translate.translate_us", us("translate.translate_text"), "us")
    add("translate.nodes", size["command_nodes"] / n, "count")
    add("lean.print_us", us("lean.print_command"), "us")
    add("lean.output_bytes", size["output_bytes"] / n, "B")
    add("lean.printed", size["printed"] / n, "count")
    add("lean.dedup_ratio", size["printed"] / size["parses"], "ratio")
    add("lean_reader.check_us", us("lean_reader.check"), "us")
    add("pipeline.split_us", us("pipeline.split_texts"), "us")
    add("pipeline.run_us", run_us, "us", "untraced")
    add("pipeline.glue_us", glue_us, "us", "untraced run_us minus the stage spans")
    add(
        "trace.overhead_ratio",
        sum(untraced[k] for k in chosen) / sum(traced[k] for k in chosen),
        "ratio",
        "traced texts/s over untraced texts/s",
    )
    parts = [
        "lexicon.tokenize_us",
        "pipeline.split_us",
        "parsing.self_us",
        "lexicon.match_us",
        "simplify.simplify_us",
        "translate.translate_us",
        "lean.print_us",
        "pipeline.glue_us",
    ]
    values = [report.metrics[name]["value"] for name in parts]
    print(
        "accounting: "
        + " + ".join(f"{name} {value:.1f}" for name, value in zip(parts, values))
        + f" = {sum(values):.1f} us = pipeline.run_us {run_us:.1f} us"
        + f"; spans less {cost_ns:.0f} ns per traced call nested in them"
    )
    return tracer


def text_profiles(tracer: Tracer, wanted: set[int], cost_ns: float) -> dict[int, Counter]:
    """Per traced call in ``wanted``: nanoseconds by span name, parse self
    time as "parsing.self", tokens, and calls to and hits of ``Lexicon.match``."""
    out: dict[int, Counter] = {}
    times = span_times(tracer.spans, cost_ns)
    for (name, _, _, _, text_id, size), (duration, own) in zip(tracer.spans, times):
        if text_id not in wanted:
            continue
        t = out.setdefault(text_id, Counter())
        t[name] += duration
        if name == "parsing.parse_text":
            t["parsing.self"] += own
        elif name == "lexicon.tokenize":
            t["tokens"] += size
        elif name == "lexicon.match":
            t["match_calls"] += 1
            t["match_hits"] += size > 0
    return out


def ir_sizes(traces) -> Counter:
    return Counter({
        "parses": sum(len(t.parses) for t in traces),
        "parse_nodes": sum(count_nodes(t.parses) for t in traces),
        "normal_nodes": sum(count_nodes(t.normals) for t in traces),
        "command_nodes": sum(count_nodes(t.commands) for t in traces),
        "printed": sum(len(t.printed) for t in traces),
        "output_bytes": sum(len(p.encode("utf-8")) for t in traces for p in t.printed),
    })


def write_spans(tracer: Tracer, path: Path) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(list(span)) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "forlean" / "__init__.py").is_file() or not CORPUS.is_file():
        print(f"error: no forlean sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    cases = workloads.cases_for(args.workload, args.seed, CORPUS)
    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} texts, closed loop, 1 caller")
    checker = Checker()
    report = Report()
    probe_runs = max(MIN_PROBES, round(args.seconds / PROBE_EVERY_S))
    if args.trace:
        # the `forlean corpus` process is timed in the traced run: its figure
        # moved twice as much as the others between runs, more than any bound
        # the end-to-end metrics may have
        cli_path = OUT / f"cli-{args.workload}.txt"
        write_cli_corpus(cli_path, cases)
        probes = Probes(cli_path, checker, probe_runs)
        tracer = traced_run(cases, args.seconds, checker, report, probes)
        report.add(
            "cli_s",
            min(probes.cli),
            "s",
            f"best of {probe_runs} `forlean corpus` runs over {sum(c.in_cli for c in cases)} texts,"
            f" median {statistics.median(probes.cli):.4f} s",
        )
        report.add("setup.import_s", statistics.median(s[0] for s in probes.setup), "s")
        report.add("setup.lexicon_load_s", statistics.median(s[1] for s in probes.setup), "s")
        write_spans(tracer, OUT / f"spans-{args.workload}.jsonl")
    else:
        probes = Probes(None, checker, probe_runs)
        untraced_run(cases, args.seconds, checker, report, probes)
        report.add(
            "setup_s",
            statistics.median(a + b for a, b in probes.setup),
            "s",
            f"median of {probe_runs} fresh interpreters",
        )
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        report.add("peak_rss_mib", peak, "MiB")
    fail_ratio = checker.failed / checker.attempted
    print(
        f"fail_ratio = {fail_ratio!r} ratio  ({checker.failed} of {checker.attempted}"
        " run_pipeline calls and `forlean corpus` runs failed)"
    )
    for case_id, (case, problem) in checker.failures.items():
        print(f"FAIL {case_id}: {problem}")
        if case is not None:
            print(f"  text: {case.text}")
            for expected in case.expected:
                print(f"  expected: {expected}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": report.metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
