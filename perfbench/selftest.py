"""Self-test of the checkers and input builders: each check must accept a
right answer and reject a wrong one, so a broken checker cannot pass every
verdict.  Needs no fano212; run by `run.py --smoke`."""

from __future__ import annotations

import random
from fractions import Fraction

import checks
import workloads


def _rejects(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def _cases():
    good = "validate.ok = True\nerror = none\n"
    yield "report accepted", not _rejects(
        checks.expect_report, 0, good, 0, {"validate.ok": "True"})
    yield "wrong exit code rejected", _rejects(
        checks.expect_report, 3, good, 0, {"validate.ok": "True"})
    yield "wrong value rejected", _rejects(
        checks.expect_report, 0, good, 0, {"validate.ok": "False"})
    yield "missing key rejected", _rejects(
        checks.expect_report, 0, good, 0, {"verify.ok": "True"})
    yield "bad table rejected", _rejects(checks.parse_table, "inconclusive: x")
    yield "table parsed", checks.parse_table("(0, 0, 0, 1)") == (0, 0, 0, 1)

    yield "det", checks.det([[2, 1], [4, 3]]) == 2 and checks.det([[1, 2], [2, 4]]) == 0
    yield "rank", checks.rank([[1, 2, 3], [2, 4, 6], [0, 1, 0]]) == 2
    yield "projective equality", (checks.proj_equal([1, 2, 3], [2, 4, 6])
                                  and not checks.proj_equal([1, 2, 3], [1, 2, 4])
                                  and not checks.proj_equal([0, 0, 0], [0, 0, 0]))

    # M1 = diag(0, 1, 1, 1) and two cyclic shifts: det M1 = 0 puts (1, 0, 0)
    # on the quartic, det(shift) = -1 keeps (0, 1, 0) off it; the rows at e0
    # have rank 2 (on the first centre), those at e1 rank 3 (off it)
    def shift(s):
        return [[Fraction(int(j == (i + s) % 4)) for j in range(4)] for i in range(4)]

    m1 = [[Fraction(int(i == j and i > 0)) for j in range(4)] for i in range(4)]
    mats = [m1, shift(1), shift(2)]
    yield "point on quartic", checks.on_quartic(mats, [1, 0, 0])
    yield "point off quartic", not checks.on_quartic(mats, [0, 1, 0])
    yield "point on centre", checks.on_centre(mats, [1, 0, 0, 0], False)
    yield "point off centre", not checks.on_centre(mats, [0, 1, 0, 0], False)
    yield "zero is no point", not checks.on_centre(mats, [0, 0, 0, 0], True)

    yield "chi(O_X) = 1", checks.chi_on_x(0, 0) == 1
    yield "chi(O_X(-1,-1)) = -1", checks.chi_on_x(-1, -1) == -1
    twists = checks.single_column_twists(4)
    yield "twist pool", (0, 0) in twists and (1, 1) not in twists and (-2, -2) not in twists

    yield "lift", (workloads.lift("-5*z^2", 15) == "-5*z^30"
                   and workloads.lift("6*z", 15) == "6*z^15"
                   and workloads.lift("1/2*z^3 - 2", 2) == "1/2*z^6-2")
    yield "negate", (workloads.negate("-5*z^2") == "5*z^2"
                     and workloads.negate("1/2*z^3 - 2") == "-1/2*z^3+2"
                     and workloads.negate("0") == "0")
    dp = workloads.double_point_matrices(0)
    yield "double point at (e0, e0)", (
        all(dp[0][0][k] == 0 and dp[0][k][0] == 0 for k in range(4))
        and dp[1][0][0] == 0 and dp[2][0][0] == 0)
    rng = random.Random(1)
    flipped = workloads.signed(dp, workloads.signs(rng, 4), workloads.signs(rng, 4),
                               workloads.signs(rng, 3))
    yield "sign changes keep zeros and magnitudes", all(
        abs(flipped[i][j][k]) == abs(dp[i][j][k])
        for i in range(3) for j in range(4) for k in range(4))
    n8 = workloads.SWAP_N8
    text = workloads.instance_text(8, 8, True, n8["weights"], n8["matrices"],
                                   exponents=n8["exponents"])
    flipped = workloads.signed_text(text, [-1, 1, 1, 1], [-1, 1, 1, 1], [1, 1, -1])
    rows = [line for line in flipped.split("\n")
            if line.count(",") == 3 and "=" not in line]
    yield "signed text flips the entries it should", (
        flipped.split("[matrix.1]")[0] == text.split("[matrix.1]")[0]
        and rows[0] == "-3, -6, 0, 0" and rows[1] == "-6*z, 0, 0, -5*z^2"
        and rows[9] == "6*z, 0, 0, 6*z^2")
    moved, weights, exponents = workloads.moved_swap_n8(random.Random(1))
    yield "moved swap_n8 keeps weights and exponents", (
        sorted(weights) == [0, 2, 4, 6] and sorted(exponents) == [0, 1, 4])


def run() -> bool:
    ok = True
    for name, passed in _cases():
        if not passed:
            print("selftest FAILED: %s" % name)
            ok = False
    print("selftest %s" % ("passed" if ok else "FAILED"))
    return ok
