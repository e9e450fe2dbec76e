"""One benchmark process: import fano212, build a workload's inputs, then run
whole passes of its verdicts in this single thread.

Started by run.py, one fresh interpreter per pass, so the package's
per-process caches start cold in every pass, as they do for a user of the
command line, and every pass does the same work.
Protocol on standard output: the line `READY <s>` once set-up is done, where
<s> is the time the host sampler took out of set-up, then one JSON line with
the results.  fano212's own output is captured per command.

Untraced workers time the host with reference.HostSampler from their first
line on, and report every time twice: as measured, and scaled to the
reference host speed (reference.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

SETUP_CALIBRATION_S = 0.3   # back-to-back host chunks after set-up


def load_fano(root: str):
    sys.path.insert(0, os.path.join(root, "src"))
    import fano212.action
    import fano212.cli
    import fano212.cyclotomic
    import fano212.instancefile
    import fano212.model

    return SimpleNamespace(action=fano212.action, cli=fano212.cli,
                           cyclotomic=fano212.cyclotomic,
                           instancefile=fano212.instancefile, model=fano212.model)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout holding src/fano212")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--first-pass", type=int, default=0)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here (gzip)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    args = parser.parse_args(argv)

    from reference import HostSampler

    sampler = None if args.trace else HostSampler()
    if sampler is not None:
        sampler.start()
    fano = load_fano(args.root)
    from checks import CheckFailed
    from workloads import WORKLOADS

    workdir = os.path.join(args.root, ".bench_work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](fano, args.seed, workdir, smoke=args.smoke)
        workload.build()
        out = sys.__stdout__
        out.write("READY %r\n" % (sampler.spent if sampler else 0.0))
        out.flush()
        setup_scale = 1.0
        if sampler is not None:
            sampler.stop()
            sampler.calibrate(SETUP_CALIBRATION_S)
            setup_scale = sampler.scale(0.0, perf_counter())  # every chunk so far
        if args.setup_only:
            out.write(json.dumps({"setup_scale": setup_scale}) + "\n")
            out.flush()
            return 0
        if sampler is not None:
            sampler.start()

        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        durations, spans, failures, kinds = [], [], [], {}
        start, spent = perf_counter(), sampler.spent if sampler else 0.0
        for index in range(args.first_pass, args.first_pass + args.passes):
            for verdict in workload.one_pass(index):
                kinds[verdict.kind] = kinds.get(verdict.kind, 0) + 1
                t0, s0 = perf_counter(), sampler.spent if sampler else 0.0
                try:
                    if tracer is not None:
                        tracer.verdict(verdict)
                    else:
                        verdict()
                except CheckFailed as exc:
                    failures.append([len(durations), str(exc)])
                except Exception:  # a raised verdict is a failed one; keep measuring
                    failures.append([len(durations), traceback.format_exc(limit=-3)])
                t1 = perf_counter()
                spans.append((t0, t1))
                durations.append(t1 - t0 - ((sampler.spent - s0) if sampler else 0.0))
        elapsed = perf_counter() - start
        scaled = durations
        if sampler is not None:
            sampler.stop()
            elapsed -= sampler.spent - spent
            scaled = [d * sampler.scale(*span) for d, span in zip(durations, spans)]

        result = {
            "durations": scaled,
            "raw_durations": durations,
            "setup_scale": setup_scale,
            "failures": failures,
            "elapsed": elapsed,
            "kinds": kinds,
            "passes": args.passes,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "python": sys.version.split()[0],
        }
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.metrics()
            if args.spans:
                result["spans"] = tracer.write_spans(args.spans)
        out.write(json.dumps(result) + "\n")
        out.flush()
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
