#!/usr/bin/env python3
"""The fano212 benchmark: time to verdict on two workloads, traced per module.

    python3 perfbench/run.py --workload survey_charts --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each run starts fresh single-threaded
worker processes (perfbench/worker.py) and prints every metric by name with
its unit, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

`--trace 0` gives the end-to-end metrics.  Each pass of verdicts runs in a
fresh interpreter, so every pass starts cold and does the same work, and a
run holds round(`--seconds` / PASS_S) whole passes, PASS_S being a pass's
time on the VM this was tuned on: every run of the same `--seconds` does
the same verdicts, whatever the host's or the program's speed.  `setup_s`
is the median, over those interpreters and enough set-up-only ones to make
at least five, of the time from starting the interpreter to the workload's
inputs being built.  Every end-to-end time is scaled to a reference host speed, measured
alongside the program (reference.py), and printed as measured beside it.
`--trace 1` gives the per-layer metrics: one worker runs
TRACE_PASSES whole passes with every public fano212 function wrapped
(perfbench/tracer.py), a second one runs the same passes untraced, and
`trace.overhead_ratio` is the ratio of their verdict times.  The traced
work is fixed by the seed, not by `--seconds`, so the per-layer counts and
times are totals over the same verdicts whatever the program's speed.
`--smoke` runs one tiny pass of every workload, traced and untraced, plus
the checkers' own self-test, and exits 0 only if all of it passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("survey_charts", "conductor_sampler")
SETUPS = 5            # fewest fresh interpreters timed per run for setup_s
TAIL_BEYOND = 10      # samples beyond the tail percentile
TRACE_PASSES = 1      # whole passes traced (and replayed untraced) per run
PASS_S = 13.0         # one pass of either workload on the VM this was tuned on
BUDGET_S = 170        # every worker of one run must be done by then

UNITS = {
    "setup_s": "s", "verdicts_per_s": "1/s", "verdict_s.p50": "s",
    "verdict_s.tail": "s", "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("per_verdict"):
        return "charts/verdict"
    return "count"


class Runner:
    """Starts workers one at a time and makes sure none outlives the run."""

    def __init__(self, workload, seed, smoke=False):
        self.base = [sys.executable, WORKER, "--root", ROOT, "--workload", workload,
                     "--seed", str(seed)] + (["--smoke"] if smoke else [])
        self.started = perf_counter()

    def remaining(self) -> float:
        return max(1.0, BUDGET_S - (perf_counter() - self.started))

    def run(self, *extra):
        """Start a worker; returns (seconds to READY, result dict or None)."""
        t0 = perf_counter()
        proc = subprocess.Popen(self.base + list(extra), stdout=subprocess.PIPE,
                                text=True, cwd=ROOT)
        try:
            if not select.select([proc.stdout], [], [], self.remaining())[0]:
                raise WorkerError("worker set-up ran out of time")
            ready = proc.stdout.readline().split()
            setup = perf_counter() - t0
            if len(ready) != 2 or ready[0] != "READY":
                raise WorkerError("worker failed during set-up")
            setup -= float(ready[1])  # the host sampler's share
            try:
                tail, _ = proc.communicate(timeout=self.remaining())
            except subprocess.TimeoutExpired:
                raise WorkerError("worker ran out of time") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0:
            raise WorkerError("worker exited with code %d" % proc.returncode)
        lines = tail.strip().splitlines()
        return setup, (json.loads(lines[-1]) if lines else None)


def tail_percentile(samples):
    """The highest percentile with TAIL_BEYOND samples beyond it: the
    (TAIL_BEYOND + 1)-th largest sample.  Returns (value, percentile, beyond);
    with too few samples it is the maximum, with nothing beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def metadata(args, result, extra):
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": result.get("python", platform.python_version()),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "commit": commit, "passes": result["passes"],
        "verdicts": len(result["durations"]),
        "verdict_kinds": result["kinds"], "failed": len(result["failures"]),
    }
    meta.update(extra)
    return meta


def merge(parts):
    """One result from the results of several workers, in run order."""
    out = {"durations": [], "raw_durations": [], "failures": [], "elapsed": 0.0,
           "kinds": {}, "passes": 0, "peak_rss_kb": 0, "python": parts[0]["python"]}
    for part in parts:
        offset = len(out["durations"])
        out["failures"] += [[offset + index, why] for index, why in part["failures"]]
        out["durations"] += part["durations"]
        out["raw_durations"] += part["raw_durations"]
        out["elapsed"] += part["elapsed"]
        out["passes"] += part["passes"]
        out["peak_rss_kb"] = max(out["peak_rss_kb"], part["peak_rss_kb"])
        for kind, n in part["kinds"].items():
            out["kinds"][kind] = out["kinds"].get(kind, 0) + n
    return out


def end_to_end(args, runner):
    setups, raw_setups, parts = [], [], []

    def timed(*extra):
        setup, part = runner.run(*extra)
        raw_setups.append(setup)
        setups.append(setup * part["setup_scale"])
        return part

    for index in range(max(1, round(args.seconds / PASS_S))):
        parts.append(timed("--first-pass", str(index)))
    while len(setups) < SETUPS:
        timed("--setup-only")
    result = merge(parts)
    durations, raw = result["durations"], result["raw_durations"]
    tail, pct, beyond = tail_percentile(durations)
    metrics = {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": len(durations) / sum(durations),
        "verdict_s.p50": statistics.median(durations),
        "verdict_s.tail": tail,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    notes = {
        "setup_s": "median of %d set-ups: %s; as measured %.4f" % (
            len(setups), ", ".join("%.4f" % s for s in setups),
            statistics.median(raw_setups)),
        "verdicts_per_s": "%d verdicts in %d passes, %.3f s; as measured %.4f in %.3f s"
        % (len(durations), result["passes"], sum(durations),
           len(raw) / sum(raw), result["elapsed"]),
        "verdict_s.p50": "as measured %.4f" % statistics.median(raw),
        "verdict_s.tail": "p%.1f, %d of %d samples beyond it; as measured %.4f" % (
            pct, beyond, len(durations), tail_percentile(raw)[0]),
    }
    return result, metrics, notes, {"tail_percentile": pct, "tail_beyond": beyond}


def per_layer(args, runner):
    spans = os.path.join(ROOT, ".bench_work", "spans-%s-%d.tsv.gz" % (args.workload, args.seed))
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    _, traced = runner.run("--passes", str(TRACE_PASSES), "--trace", "--spans", spans)
    _, plain = runner.run("--passes", str(TRACE_PASSES))
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = sum(traced["durations"]) / sum(plain["durations"])
    notes = {"trace.overhead_ratio": "%d passes (%d verdicts) traced, then run untraced"
             % (TRACE_PASSES, len(plain["durations"]))}
    # the untraced pass is checked like any other
    extra = {"spans": traced.get("spans", 0), "spans_file": os.path.relpath(spans, ROOT)}
    return merge([traced, plain]), metrics, notes, extra


def report(args, result, metrics, notes, extra, units):
    row = "%-34s %-22r %-14s %s"
    for name, value in metrics.items():
        print(row % (name, value, units(name), notes.get(name, "")))
    attempted = len(result["durations"])
    failed = len(result["failures"])
    # 0 on a correct program, and the metrics in BENCHMARK.json must never
    # read 0: `failed` and `attempted` in the result line carry it instead
    print(row % ("fail_ratio", failed / attempted, "ratio",
                 "%d of %d verdicts wrong, inconclusive or raised" % (failed, attempted)))
    for index, why in result["failures"][:20]:
        print("FAILED verdict %d: %s" % (index, why.strip().replace("\n", " | ")),
              file=sys.stderr)
    print("meta " + json.dumps(metadata(args, result, extra)))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units(name)}
                    for name, value in metrics.items()},
    }))


def smoke() -> int:
    """One tiny pass of every workload, untraced and traced, and the checkers'
    own self-test.  Prints one line per part; 0 iff every part passed."""
    import selftest

    ok = selftest.run()
    for workload in WORKLOADS:
        for trace in ([], ["--trace"]):
            label = "%s%s" % (workload, " traced" if trace else "")
            try:
                _, result = Runner(workload, 1, smoke=True).run(*trace)
            except WorkerError as exc:
                print("smoke %-26s ERROR %s" % (label, exc))
                ok = False
                continue
            failures = result["failures"]
            layers = result.get("layers", {})
            print("smoke %-26s %d verdicts, %d failed%s" % (
                label, len(result["durations"]), len(failures),
                ", %d layer metrics" % len(layers) if trace else ""))
            for index, why in failures:
                print("    verdict %d: %s" % (index, why.strip().replace("\n", " | ")))
            ok = ok and not failures and bool(result["durations"])
    print("smoke %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input set through every workload and checker")
    args = parser.parse_args(argv)
    # on SIGTERM unwind normally, so Runner.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "fano212", "__init__.py")):
        print("run.py: no src/fano212 in %s; run from a fano212 checkout" % ROOT,
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    runner = Runner(args.workload, args.seed)
    print("workload %s  seed %d  seconds %d  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    try:
        if args.trace:
            outcome = per_layer(args, runner)
            units = layer_unit
        else:
            outcome = end_to_end(args, runner)
            units = UNITS.get
    except WorkerError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    report(args, *outcome, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
