#!/usr/bin/env python3
"""Survey a grid of cyclic actions: generate smooth equivariant instances,
compare character formulas against the symbolic oracles, and tabulate the
linearisability verdicts.

Usage:
    python scripts/run_survey.py [--seed N] [--per-combo K] [--hilbert]
"""

import argparse
import sys
import time

sys.path.insert(0, "src")

from fano212.action import (
    invariant_pencil,
    random_diagonal_model,
    random_equivariant_model,
)
from fano212.characters import (
    characters_differ,
    curve_action_oracle,
    ij_characters,
    ij_oracle,
    jac_curve_characters,
    verdict,
)
from fano212.groebner import hilbert_polynomial, qp_str
from fano212.model import InputError, Side, minor_cubics

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


def fmt_chars(c):
    return "{%s}" % ",".join(str(e) for e in c.exponents)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--per-combo", type=int, default=1,
                        help="instances per (order, weights, exponents) cell")
    parser.add_argument("--hilbert", action="store_true",
                        help="also verify the 6t-2 Hilbert polynomial per instance")
    args = parser.parse_args()

    started = time.monotonic()
    rows = []
    failures = 0
    for n, weights, exps in SWAP_GRID:
        for k in range(args.per_combo):
            seed = args.seed + 1000 * k
            try:
                model, spec = random_equivariant_model(n, weights, exps, seed=seed)
            except InputError as exc:
                rows.append((n, weights, exps, "generation failed: %s" % exc))
                failures += 1
                continue
            pencil = invariant_pencil(model, spec)
            jac = jac_curve_characters(pencil.exponents, weights, n)
            ij = ij_characters(pencil.exponents, weights, n)
            ok = (
                jac == curve_action_oracle(pencil)
                and ij == ij_oracle(pencil)
                and characters_differ(jac, ij)
            )
            extra = ""
            if args.hilbert:
                hp = hilbert_polynomial(minor_cubics(model, Side.FIRST))
                extra = " hilbert=%s" % qp_str(hp)
                ok = ok and qp_str(hp) == "6*t - 2"
            if not ok:
                failures += 1
            rows.append(
                (
                    n,
                    weights,
                    exps,
                    "jac=%s ij=%s verdict=%s %s%s"
                    % (
                        fmt_chars(jac),
                        fmt_chars(ij),
                        verdict(spec).value,
                        "OK" if ok else "MISMATCH",
                        extra,
                    ),
                )
            )

    for n, a, b, exps in DIAGONAL_GRID:
        try:
            model, spec = random_diagonal_model(n, a, b, exps, seed=args.seed)
        except InputError as exc:
            rows.append((n, a, exps, "generation failed: %s" % exc))
            failures += 1
            continue
        pencil = invariant_pencil(model, spec)
        curve = curve_action_oracle(pencil)
        same = ij_oracle(pencil) == curve
        if not same:
            failures += 1
        rows.append(
            (
                n,
                (a, b),
                exps,
                "curve=%s ij=curve:%s verdict=%s"
                % (fmt_chars(curve), same, verdict(spec).value),
            )
        )

    for n, weights, exps, summary in rows:
        print("n=%d r=%s s=%s  %s" % (n, weights, exps, summary))
    print(
        "\n%d cells, %d failures, %.1fs"
        % (len(rows), failures, time.monotonic() - started)
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
