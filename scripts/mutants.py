#!/usr/bin/env python3
"""Mutation check: each entry of MUTANTS breaks one place of the package on
purpose, and the tests it names must fail on the broken copy.

An entry is (file under src, exact old text, new text, test node ids).  For
each, src is copied to a temporary directory, the old text, which must occur
exactly once, is replaced by the new one, and pytest runs the nodes with the
copy on the path: PYTHONPATH and pytest's `pythonpath` option, which
pyproject.toml otherwise sets to the checkout's src.  A mutant is killed
when pytest reports a failed test (exit 1).  Exits 0 when every mutant is
killed; 1 when one survives, pytest cannot run its nodes, or an old text
does not occur exactly once (then nothing is run).

Usage:
    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
SRC = os.path.join(ROOT, "src")

MUTANTS = [
    # the width of _cofactors' packed fields one bit short (never below 0, so
    # the test fails on a wrong minor, not on a negative shift)
    ("fano212/multipoly.py",
     "w = (len(rows) * max(map(sum, exps), default=0)).bit_length()\n",
     "w = max((len(rows) * max(map(sum, exps), default=0)).bit_length() - 1, 0)\n",
     ["tests/test_multipoly.py::test_cofactors_pack_monomials_without_overflow"]),
    # _derivative without the factor e
    ("fano212/multipoly.py",
     ": c * e[index]\n",
     ": c\n",
     ["tests/test_multipoly.py::test_derivative_product_rule"]),
    # _derivative without the filter on e[index]
    ("fano212/multipoly.py",
     "for e, c in terms.items() if e[index]}",
     "for e, c in terms.items()}",
     ["tests/test_model.py::test_each_matrix_of_forms_is_built_once_for_both_rings"
      "[swap_n8.txt]"]),
    # the record's is_homogeneous refusing the zero polynomial
    ("fano212/multipoly.py",
     "return len(degrees) <= 1\n",
     "return len(degrees) == 1\n",
     ["tests/test_groebner.py::TestHilbert::test_zero_ideal"]),
    # full_smoothness dropping the image that validate_model checked
    ("fano212/model.py",
     "        return False\n    image = m.image\n",
     "        return False\n    image = None\n",
     ["tests/test_model.py::TestCertificateDecides::test_charts_not_unit_mod_p_run_exactly"]),
    # the Kronecker bound without the factor size!, the number of Leibniz terms
    ("fano212/multipoly.py",
     "bound = factorial(size) * prod(",
     "bound = prod(",
     ["tests/test_multipoly.py::test_kronecker_bound_is_met_exactly"]),
    # _singular_coordinate_point taking an exact rank 2 for a smooth point
    ("fano212/model.py",
     "matrix_rank(jacobian(m.matrices)) < 3",
     "matrix_rank(jacobian(m.matrices)) < 2",
     ["tests/test_model.py::TestStrata::test_a_singular_coordinate_point_needs_no_groebner_run"]),
    # rref's cross-multiplication without the pivot factor
    ("fano212/linalg.py",
     "[p * a - f * b if b else",
     "[a - f * b if b else",
     ["tests/test_linalg.py::test_rref_against_gauss_jordan_on_fractions"]),
    # rref's integer rows over Q without the row-scale update
    ("fano212/linalg.py",
     "                scales[r] *= scales[k]\n",
     "",
     ["tests/test_linalg.py::"
      "test_rref_over_q_keeps_the_values_of_the_cyclotomic_elimination"]),
    # rref's mod-p branch without the reduction, which eliminates over Q
    ("fano212/linalg.py",
     "[(p * a - f * b) % prime for",
     "[(p * a - f * b) for",
     ["tests/test_model.py::test_rank_mod_p_is_the_largest_nonzero_minor"]),
    # invariant_pencil accepting on the eigen-row count alone, not on the
    # block ranks' sum
    ("fano212/action.py",
     "if not len(found) == rank == 3:",
     "if len(found) != 3:",
     ["tests/test_action.py::test_a_block_that_sigma_leaves_is_refused",
      "tests/test_action.py::test_a_block_that_sigma_leaves_is_refused_exactly"]),
    # invariant_pencil's refusal in F_p reading a rank of 3 as outside
    ("fano212/action.py",
     "prime) == 4:",
     "prime) >= 3:",
     ["tests/test_action.py::test_a_stable_pencil_outside_the_field_is_accepted"]),
    # invariant_pencil's -lambda group built from sums, as the lambda group
    ("fano212/action.py",
     "[[a - b for a, b in p] for p in pairs]",
     "[[a + b for a, b in p] for p in pairs]",
     ["tests/test_action.py::TestInvariantPencil::test_pencil_spans_model"]),
    # the emptiness stop of _basis firing at pure powers of nvars - 1
    # variables
    ("fano212/groebner.py",
     "        return len(powers) == nvars\n",
     "        return len(powers) == nvars - 1\n",
     ["tests/test_groebner.py::test_an_emptiness_run_stops_at_pure_powers_of_every_variable"]),
    # the coordinate-point substitution without the monomial x_0^3 x_1
    ("fano212/model.py",
     "for k in range(3)) for i in range(3)]\n",
     "for k in range(3)) for i in range(3) if (j, i) != (0, 1)]\n",
     ["tests/test_model.py::TestSmoothImage::test_every_coordinate_monomial_counts"]),
    # _rejection deciding on the eigenforms with the third one dropped
    ("fano212/action.py",
     "forms[spans[k]][e] += coeffs[k] * r\n",
     "forms[spans[k]][e] += coeffs[k] * r * (spans[k] < 2)\n",
     ["tests/test_action.py::test_generated_instances_are_pinned"]),
    # Cyclotomic.inverse ignoring the sign of the constant remainder, which
    # flips the inverse whenever the Euclidean run ends at a negative one
    ("fano212/cyclotomic.py",
     "scale = self.den if r1[0] > 0 else -self.den",
     "scale = self.den",
     ["tests/test_cyclotomic.py::test_integer_form_against_fraction_reference"]),
    # combine summing the matrix of a non-rational coefficient as if the
    # coefficient were 1
    ("fano212/model.py",
     "(a, d), v = (1, 1), c * v\n",
     "(a, d) = (1, 1)\n",
     ["tests/test_model.py::TestCurveQuarticMaps::"
      "test_roundtrip_through_an_irrational_centre_point"]),
]


def unmatched(mutants, src=SRC):
    """(file, old text) of each entry whose old text does not occur exactly
    once in its file under src."""
    found = []
    for path, old, _, _ in mutants:
        with open(os.path.join(src, path), encoding="utf-8") as handle:
            if handle.read().count(old) != 1:
                found.append((path, old))
    return found


def run_mutant(path, old, new, nodes) -> int:
    """pytest's exit code on the nodes, run on a copy of src with old
    replaced by new in path."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = os.path.join(scratch, "src")
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(copy, path)
        with open(target, encoding="utf-8") as handle:
            text = handle.read()
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=copy, PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "-o", "pythonpath=" + copy, *nodes],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def main() -> int:
    missing = unmatched(MUTANTS)
    for path, old in missing:
        print("old text not found exactly once in %s: %r" % (path, old))
    if missing:
        return 1
    killed = 0
    for path, old, new, nodes in MUTANTS:
        code = run_mutant(path, old, new, nodes)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, "pytest exit %d" % code)
        print("%-8s %s: %r -> %r" % (verdict, path, old.strip(), new.strip()))
        killed += code == 1
    print("%d of %d mutants killed" % (killed, len(MUTANTS)))
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
