#!/usr/bin/env python3
"""Print the deterministic output of the toolkit on a fixed corpus, so that
two checkouts can be compared byte for byte.

Usage (from the root of a checkout; takes no options, writes to stdout):
    python scripts/report_sweep.py > sweep.txt
    cmp sweep_before.txt sweep_after.txt

The corpus is the files of tests/data but dense_n1021.txt, whose verify
and chars --oracle take seconds each in the exact quartic over
Q(zeta_1021), plus the instance that run_survey.generate draws for each
cell of run_survey.py's grids at seeds 0 and 1.  The sweep runs
the CLI in process (run_survey.run) and prints, for every instance, the
--format tree report and the exit code of validate, smooth, verify,
chars --oracle, verdict, gfano, hilbert on both sides and picard;
then smooth --full on tests/data and on a fixed rational triple with a
double point (exit 1: full_smoothness finds the singular coordinate point
(e0, e0) by substitution and an exact rank, and quartic_smooth refuses
that model's quartic by substitution at a coordinate point of P2, so the
sweep makes no exact Groebner run).  Then
validate on hostile files, each exit 2 with a short error line: one that
is not UTF-8, tests/data/swap_n8.txt with a swap flag, a key, a section
header (unknown, unterminated, or with a bad matrix index) or a literal
(malformed, or with a bad term) of about 100,000 characters or with a key
of 100,000 control characters, and a path of 312 characters that does
not exist.  Then tests/data/swap_n8.txt declared at conductors 24, 504 and 1024, its literals lifted from z^j to
z^(kj) for k = N/8, and read unlifted at conductors 105 and 210, where z is
no longer zeta_8 (validate exits 2): for each, validate, verify, chars --oracle,
verdict, smooth --full and hilbert.  Then the commands that run without an
instance: cohomology for every twist (a, b) in -5..3 (some are exit 3),
then at (10^10, 1) (row 0), at (-10^10, -1) (row 6) and at a twist above
the bound (exit 2), picard for both swap flags, and random for a valid
cell, then, each exit 2, an order above the field limit, a valid action
(order 8) with an empty eigenspace and antisymmetric forms, whose quartic
is a square: the generator gives up, and its last failure is in the report.  Last come the serialized
text of each generated instance and of each conductor variant of swap_n8 as
parsed back, the sample_curve_points output on both sides for the generated
instances of order 2, and a line counting the reports.
"""

import os
import re
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))

from fano212.instancefile import load_instance, serialize_instance  # noqa: E402
from fano212.model import Side, sample_curve_points  # noqa: E402
from run_survey import CELLS, generate, run  # noqa: E402

DATA = os.path.join(ROOT, "tests", "data")
SEEDS = (0, 1)
COMMANDS = (
    ["validate"],
    ["smooth"],
    ["verify"],
    ["chars", "--oracle"],
    ["verdict"],
    ["gfano"],
    ["hilbert", "--side", "first"],
    ["hilbert", "--side", "second"],
    ["picard"],
)
CONDUCTOR_COMMANDS = (
    ["validate"],
    ["verify"],
    ["chars", "--oracle"],
    ["verdict"],
    ["smooth", "--full"],
    ["hilbert"],
)
# swap_n8 is defined over Q(zeta_8): lifted to these conductors it is the
# same model; read unlifted at these others, z is another root of unity.
LIFTED = (24, 504, 1024)
UNLIFTED = (105, 210)
WITHOUT_INPUT = (
    [["cohomology", "--a", str(a), "--b", str(b)] for a in range(-5, 4) for b in range(-5, 4)]
    + [["cohomology", "--a", str(a), "--b", str(b)]
       for a, b in ((10**10, 1), (-10**10, -1), (10**100 + 1, 0))]
    + [["picard", "--swap", swap] for swap in ("true", "false")]
    + [
        ["random", "--order", "4", "--weights", "0,0,2,2", "--exponents", "0,1,2"],
        ["random", "--order", "2048", "--weights", "0,0,0,0", "--exponents", "0,0,0"],
        ["random", "--order", "8", "--weights", "0,0,0,2", "--exponents", "0,0,3"],
        ["random", "--order", "2", "--weights", "0,0,0,0", "--exponents", "1,1,1",
         "--seed", "1"],
    ]
)

# Every form vanishes at (e0, e0), where F1 has no linear term: the first row
# and column of M1 and the (0, 0) entries of M2, M3 are zero.
DOUBLE_POINT = """\
conductor = 1
order = 1
swap = false
weights = 0, 0, 0, 0
weights2 = 0, 0, 0, 0

[matrix.1]
0, 0, 0, 0
0, 1, 0, 1
0, -1, 1, -1
0, 0, 1, -1

[matrix.2]
0, 1, 0, 1
1, 0, 0, 1
-1, -1, 1, -1
1, 0, 1, -1

[matrix.3]
0, -1, -1, 1
-1, 0, -1, 0
0, 1, 1, 0
1, 0, 0, 1
"""

# (label, text of swap_n8.txt, its overlong replacement)
LONG = 100000
OVERLONG = (
    ("swap flag", "swap = true", "swap = " + "t" * LONG),
    ("unknown key", "swap = true", "swap = true\n" + "k" * LONG + " = 1"),
    ("unknown section", "[matrix.1]", "[" + "s" * LONG + "]"),
    ("unterminated section", "[matrix.1]", "[matrix.1" + " " * LONG + "x"),
    ("bad matrix index", "[matrix.1]", "[matrix." + "i" * LONG + "]"),
    ("malformed literal", "-3, 6, 0, 0", "1" + "+" * LONG + ", 6, 0, 0"),
    ("bad term", "-3, 6, 0, 0", "1 + " + "x" * LONG + ", 6, 0, 0"),
    ("control-character key", "swap = true", "swap = true\n" + "\x01" * LONG + " = 1"),
)
LONG_PATH = "/nonexistent" + "/a" * 150


def report(label, path, argv):
    code, out = run(argv if path is None else argv + ["--input", path])
    print("== %s: %s -> exit %d" % (label, " ".join(argv), code))
    sys.stdout.write(out)


def generated():
    """(label, Instance or error text) for every grid cell and seed."""
    for seed in SEEDS:
        for n, weights, weights2, exponents in CELLS:
            label = "n=%d r=%s r2=%s s=%s seed=%d" % (n, weights, weights2, exponents, seed)
            yield label, generate(n, weights, weights2, exponents, seed)


def conductor_variants():
    """(conductor, text) of swap_n8 at each conductor of LIFTED and UNLIFTED."""
    with open(os.path.join(DATA, "swap_n8.txt"), encoding="utf-8") as handle:
        text = handle.read()
    for n in LIFTED + UNLIFTED:
        variant = text.replace("conductor = 8\n", "conductor = %d\n" % n)
        if n in LIFTED:
            variant = re.sub(r"z(?:\^(\d+))?",
                             lambda m: "z^%d" % (int(m.group(1) or 1) * n // 8), variant)
        yield n, variant


def main():
    reports = 0
    data = sorted(f for f in os.listdir(DATA) if f.endswith(".txt") and f != "dense_n1021.txt")
    with tempfile.TemporaryDirectory() as tmp:
        corpus = [(name, os.path.join(DATA, name)) for name in data]
        instances = []
        for k, (label, inst) in enumerate(generated()):
            if isinstance(inst, str):
                print("== %s: generation failed: %s" % (label, inst))
                continue
            path = os.path.join(tmp, "instance%d.txt" % k)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(serialize_instance(inst))
            corpus.append((label, path))
            instances.append((label, inst))
        for label, path in corpus:
            for argv in COMMANDS:
                report(label, path, argv)
                reports += 1
        for name in data:
            report(name, os.path.join(DATA, name), ["smooth", "--full"])
            reports += 1
        path = os.path.join(tmp, "double_point.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(DOUBLE_POINT)
        report("double point", path, ["smooth", "--full"])
        reports += 1
        path = os.path.join(tmp, "not_utf8.txt")
        with open(path, "wb") as handle:
            handle.write(b"\xff\xfe\x00conductor = 8\n")
        report("not UTF-8", path, ["validate"])
        reports += 1
        with open(os.path.join(DATA, "swap_n8.txt"), encoding="utf-8") as handle:
            text = handle.read()
        for k, (label, old, new) in enumerate(OVERLONG):
            path = os.path.join(tmp, "overlong%d.txt" % k)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text.replace(old, new, 1))
            report("swap_n8 with an overlong " + label, path, ["validate"])
            reports += 1
        report("an overlong path", LONG_PATH, ["validate"])
        reports += 1
        for n, text in conductor_variants():
            path = os.path.join(tmp, "swap_n8_at_%d.txt" % n)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            label = "swap_n8 at conductor %d" % n
            for argv in CONDUCTOR_COMMANDS:
                report(label, path, argv)
                reports += 1
            instances.append((label, load_instance(path)))
    for argv in WITHOUT_INPUT:
        report("no input", None, argv)
        reports += 1
    for label, inst in instances:
        print("== %s: serialized" % label)
        sys.stdout.write(serialize_instance(inst))
    for label, inst in instances:
        if inst.spec.order != 2:
            continue
        for side in Side:
            points = sample_curve_points(inst.model, side)
            print("== %s: sample_curve_points %s" % (label, side.value))
            for point in points:
                print("(%s)" % ", ".join(str(v) for v in point))
    print("== %d reports" % reports)
    return 0


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
