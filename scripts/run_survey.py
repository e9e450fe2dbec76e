#!/usr/bin/env python3
"""Survey a grid of cyclic actions: generate one smooth equivariant instance
per cell and run the CLI's verify, verdict and hilbert on both sides on
each, so that "verified" means here what it means to fano212.  A row gives
each command's exit code, the verdict and the Hilbert polynomials; a cell
fails when the generator refuses it or a command exits non-zero.
scripts/report_sweep.py draws its corpus with generate and runs it with run.

Usage:
    python scripts/run_survey.py [--seed N]
"""

import argparse
import contextlib
import io
import os
import sys
import tempfile
import time
from math import lcm

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from fano212.action import random_diagonal_model, random_equivariant_model
from fano212.cli import main as cli_main
from fano212.instancefile import Instance, serialize_instance
from fano212.model import InputError

SWAP_GRID = [
    (2, (0, 0, 0, 0), (0, 0, 0)),
    (2, (0, 0, 0, 0), (0, 0, 1)),
    (2, (1, 1, 1, 1), (0, 1, 1)),
    (4, (0, 0, 2, 2), (0, 1, 2)),
    (4, (0, 0, 2, 2), (1, 2, 3)),
    (4, (1, 1, 3, 3), (0, 2, 3)),
    (6, (0, 0, 2, 4), (0, 2, 4)),
    (6, (0, 2, 2, 4), (0, 2, 5)),
    (6, (1, 1, 3, 5), (1, 3, 4)),
    (8, (0, 2, 4, 6), (0, 1, 4)),
    (8, (0, 2, 4, 6), (0, 4, 5)),
    (8, (1, 3, 5, 7), (0, 1, 5)),
]

DIAGONAL_GRID = [
    (2, (0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1)),
    (4, (0, 1, 2, 3), (0, 2, 1, 3), (0, 0, 1)),
    (4, (0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 1)),
]

# (order, weights, weights2, exponents): weights2 is None for a swap cell
CELLS = [(n, w, None, s) for n, w, s in SWAP_GRID] + DIAGONAL_GRID
# the commands of a survey row, each with the report key whose value it shows
COMMANDS = [(["verify"], None), (["verdict"], "verdict")] + [
    (["hilbert", "--side", side], "hilbert.polynomial") for side in ("first", "second")]


def generate(n, weights, weights2, exponents, seed):
    """The generator's Instance for a swap cell (weights2 None) or a diagonal
    one, declaring the cell's exponents, or the text of its refusal."""
    try:
        if weights2 is None:
            model, spec = random_equivariant_model(n, weights, exponents, seed=seed)
        else:
            model, spec = random_diagonal_model(n, weights, weights2, exponents, seed=seed)
    except InputError as exc:
        return str(exc)
    return Instance(model=model, spec=spec, conductor=lcm(model.conductor, n),
                    declared_exponents=exponents)


def run(argv):
    """The exit code and --format tree report of fano212 on argv, in process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv + ["--format", "tree"])
    return code, buf.getvalue()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed

    started = time.monotonic()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.txt")
        for n, weights, weights2, exponents in CELLS:
            label = "n=%d r=%s r2=%s s=%s seed=%d" % (n, weights, weights2, exponents, seed)
            inst = generate(n, weights, weights2, exponents, seed)
            if isinstance(inst, str):
                print("%s  generation failed: %s  FAIL" % (label, inst))
                failures += 1
                continue
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(serialize_instance(inst))
            fields, failed = [label], False
            for argv, key in COMMANDS:
                code, out = run(argv + ["--input", path])
                values = dict(line.partition(" = ")[::2] for line in out.splitlines())
                field = "%s=%d" % ("-".join(argv[::2]), code)
                fields.append("%s (%s)" % (field, values[key]) if key in values else field)
                failed |= code != 0
            failures += failed
            print("  ".join(fields + ["FAIL"] * failed))
    print("\n%d cells, %d failures, %.1fs" % (len(CELLS), failures, time.monotonic() - started))
    return 1 if failures else 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at devnull, so that the
        # flush at exit raises no second error (the idiom of Python's docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
