import hashlib
import os
import random
import subprocess
import sys
import time
from math import lcm

import pytest

from conftest import (exact_hilbert_runs, planted_centre_point_model, random_rational_matrix,
                      rank_one_at_vertex_model)

from fano212 import cli, cohomology
from fano212 import model as model_module
from fano212.action import ActionSpec, random_diagonal_model
from fano212.cli import main
from fano212.cohomology import CohTable
from fano212.cyclotomic import Cyclotomic
from fano212.instancefile import Instance, save_instance
from fano212.model import model_from_matrices

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "scripts"))
import run_survey  # noqa: E402

DATA = os.path.join(os.path.dirname(__file__), "data")
SYMMETRIC = os.path.join(DATA, "symmetric_n2.txt")
SWAP8 = os.path.join(DATA, "swap_n8.txt")
BAD_PARITY = os.path.join(DATA, "bad_parity.txt")
BAD_SHAPE = os.path.join(DATA, "bad_shape.txt")
# symmetric_n2 at the trivial action over Q(zeta_1021), one entry dense
DENSE = os.path.join(DATA, "dense_n1021.txt")


# perfbench/workloads.py's double_point_matrices at seeds 0, 1 and 3: X has a
# double point at (e0, e0), and both centres contain a surface
DOUBLE_POINTS = {
    0: ([[0, 0, 0, 0], [0, 1, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 1]],
        [[0, 0, 1, 0], [-1, 0, -1, -1], [0, 0, 0, 0], [0, -1, -1, 0]]),
    1: ([[0, 0, 0, 0], [0, 0, 0, 0], [0, -1, 1, 0], [0, 0, 0, 0]],
        [[0, 1, 0, 0], [0, -1, 0, 0], [0, 0, 0, -1], [0, 1, 0, 1]],
        [[0, 0, 1, 0], [-1, 0, 0, -1], [0, 0, 0, -1], [-1, 0, 0, 1]]),
    3: ([[0, 0, 0, 0], [0, 0, 0, -1], [0, 1, 0, 0], [0, 0, 0, 0]],
        [[0, -1, 0, -1], [-1, 0, 0, 1], [-1, 0, 1, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 1, 0], [1, 0, 1, 0]]),
}
DOUBLE_POINT_HILBERT = {0: "t^2 + 3*t", 1: "1/2*t^2 + 9/2*t - 1", 3: "1/2*t^2 + 9/2*t - 1"}


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def write_model(tmp_path, model):
    """The model with the trivial action, saved as an instance file; its
    path."""
    path = str(tmp_path / "model.txt")
    spec = ActionSpec(1, (0, 0, 0, 0), swap=False, weights2=(0, 0, 0, 0))
    save_instance(Instance(model=model, spec=spec, conductor=model.conductor), path)
    return path


def write_variant(tmp_path, old, new):
    """A copy of swap_n8.txt with one piece of text replaced; its path."""
    with open(SWAP8) as handle:
        text = handle.read()
    assert old in text
    path = tmp_path / "variant.txt"
    path.write_text(text.replace(old, new, 1))
    return str(path)


class TestExitCodes:
    def test_validate_ok(self, capsys):
        code, out = run_cli(capsys, "validate", "--input", SYMMETRIC)
        assert code == 0
        assert "validate.ok" in out

    @pytest.mark.parametrize("conductor", [2310, 10**6])
    def test_oversized_conductor_is_2(self, tmp_path, capsys, conductor):
        path = write_variant(tmp_path, "conductor = 8", "conductor = %d" % conductor)
        started = time.monotonic()
        code, out = run_cli(capsys, "--format", "tree", "validate", "--input", path)
        assert time.monotonic() - started < 1
        assert code == 2
        assert out == ("error = conductor-too-large: line 1: working field "
                       "lcm(conductor, order) is above the limit 1024\n")

    def test_order_zero_is_2(self, tmp_path, capsys):
        path = write_variant(tmp_path, "order = 8", "order = 0")
        code, out = run_cli(capsys, "--format", "tree", "validate", "--input", path)
        assert (code, out) == (2, "error = bad-order: order must be positive\n")
        code, out = run_cli(capsys, "--format", "tree", "random", "--order", "0",
                            "--weights", "0,0,0,0", "--exponents", "0,0,0")
        assert (code, out) == (2, "error = bad-order: order must be positive\n")

    def test_overlong_literal_is_2(self, tmp_path, capsys):
        path = write_variant(tmp_path, "-3, 6, 0, 0", "%s, 6, 0, 0" % ("9" * 5000))
        code, out = run_cli(capsys, "--format", "tree", "validate", "--input", path)
        assert code == 2
        assert out.startswith("error = bad-literal: line 8: term '9999")

    def test_non_utf8_file_is_2(self, tmp_path, capsys):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"\xff\xfe\x00conductor = 8\n")
        code, out = run_cli(capsys, "--format", "tree", "validate", "--input", str(path))
        assert (code, out) == (
            2, "error = bad-encoding: the instance file is not UTF-8 text (byte 0xff)\n")

    def test_inconclusive_cohomology_is_3(self, capsys):
        code, out = run_cli(capsys, "cohomology", "--a", "4", "--b", "-4")
        assert code == 3
        assert "inconclusive" in out
        assert "row 3" in out and "columns [0, 1, 2, 3]" in out

    def test_undecided_euler_chase_is_3(self, monkeypatch, capsys):
        # a middle term with cohomology leaves the chase to connecting maps
        monkeypatch.setattr(cohomology, "koszul_cohomology_on_X",
                            lambda a, b: CohTable((0, 1, 0, 0)))
        code, out = run_cli(capsys, "--format", "tree", "cohomology", "--a", "0", "--b", "0")
        assert code == 3
        assert out.endswith("\nerror = inconclusive: middle term of the Euler sequence "
                            "has cohomology; the chase needs connecting-map ranks\n")

    @pytest.mark.parametrize("a, b", [("1" + "0" * 720, "1" + "0" * 720),
                                      ("1" + "0" * 1500, "0"),
                                      ("0", "-1" + "0" * 99 + "1")])
    def test_oversized_twist_is_2(self, capsys, a, b):
        code, out = run_cli(capsys, "--format", "tree", "cohomology", "--a", a, "--b", b)
        assert (code, out) == (2, "error = twist-too-large: |a| and |b| "
                                  "must be at most 10^100\n")

    @pytest.mark.parametrize("a, b", [("9" * 5000, "0"), ("0", "-" + "9" * 5000)],
                             ids=["a", "b"])
    def test_twist_past_the_int_digit_limit_is_2(self, capsys, a, b):
        # more than the 4300 digits int() reads: the report, not a usage error
        code, out = run_cli(capsys, "--format", "tree", "cohomology", "--a", a, "--b", b)
        assert (code, out) == (2, "error = twist-too-large: |a| and |b| "
                                  "must be at most 10^100\n")

    @pytest.mark.parametrize("a, b", [("x", "0"), ("0", "1.5"), ("", "0"),
                                      ("0", "-"), ("1__0", "0"), ("9" * 5000 + "x", "0")],
                             ids=["letter", "decimal", "empty", "sign", "underscores",
                                  "5000-digits-then-letter"])
    def test_malformed_twist_is_2(self, capsys, a, b):
        code, out = run_cli(capsys, "--format", "tree", "cohomology", "--a", a, "--b", b)
        assert (code, out) == (2, "error = bad-twist: --a and --b must be "
                                  "integers\n")

    @pytest.mark.parametrize("a, b, twist", [("0" * 5000 + "1", "-2", "(1, -2)"),
                                             (" +1_0 ", "-0", "(10, 0)")],
                             ids=["leading-zeros", "blanks-sign-underscore"])
    def test_twist_reads_as_int_does(self, capsys, a, b, twist):
        code, out = run_cli(capsys, "--format", "tree", "cohomology", "--a", a, "--b", b)
        assert code == 0
        assert "twist = %s" % twist in out

    @pytest.mark.parametrize("a", ["1" + "0" * 100, "-1" + "0" * 100])
    def test_twist_at_the_bound_is_decided(self, capsys, a):
        code, out = run_cli(capsys, "--format", "tree", "cohomology", "--a", a, "--b", a)
        assert code == 0
        assert "twist = (%s, %s)" % (a, a) in out
        assert "cohomology.on-X = (" in out

    @pytest.mark.parametrize("argv, error", [
        (["validate", "--input", BAD_PARITY],
         "parity: swap weights must share parity; the declared order 2 is wrong "
         "(computed projective order 4)"),
        (["validate", "--input", BAD_SHAPE],
         "matrix-shape: line 9: matrix.1 has 3 rows, expected 4"),
        (["validate", "--input", ("conductor = 8", "conductor = 2310")],
         "conductor-too-large: line 1: working field lcm(conductor, order) is above "
         "the limit 1024"),
        (["validate", "--input", ("order = 8", "order = 0")],
         "bad-order: order must be positive"),
        (["validate", "--input", ("-3, 6, 0, 0", "1/0, 6, 0, 0")],
         "bad-literal: line 8: term '1/0' has a zero denominator or a number over "
         "4300 digits"),
        (["validate", "--input", ("conductor = 8", "conductor = 105")],
         "pencil-not-invariant: the action does not preserve the span of the three "
         "forms (form 1 maps outside the pencil)"),
        (["random", "--order", "4", "--weights", "0,0,x,2", "--exponents", "0,1,2"],
         "bad-weights: weights wants four integers, got '0,0,x,2'"),
        (["random", "--order", "4", "--weights", "0,0,2,2", "--exponents", "0,1"],
         "bad-exponents: exponents wants three integers, got '0,1'"),
        (["random", "--order", "x", "--weights", "0,0,2,2", "--exponents", "0,1,2"],
         "bad-order: --order must be an integer"),
        (["random", "--order", "9" * 5000, "--weights", "0,0,2,2", "--exponents", "0,1,2"],
         "conductor-too-large: working field lcm(conductor, order) is above the limit "
         "1024"),
        (["random", "--order", "8", "--weights", "0,0,0,2", "--exponents", "0,0,3"],
         "empty-eigenspace: the eigenspace for exponent 3 mod 8 is zero"),
        # the action is checked before any eigenspace is built
        (["random", "--order", "4", "--weights", "0,0,0,0", "--exponents", "1,1,1"],
         "order-mismatch: declared order 4 but sigma has projective order 2"),
        (["random", "--order", "3", "--weights", "0,0,0,0", "--exponents", "1,1,1"],
         "odd-order: a swap action has even order, got 3"),
        (["cohomology", "--a", "0", "--b", "1.5"], "bad-twist: --a and --b must be integers"),
        (["cohomology", "--a", "9" * 5000, "--b", "0"],
         "twist-too-large: |a| and |b| must be at most 10^100"),
        (["validate", "--input", "/nonexistent.txt"],
         "io-error: [Errno 2] No such file or directory: '/nonexistent.txt'"),
        # past the 4300 digits int() reads: the bound, and no echo of the text
        (["validate", "--input", ("conductor = 8", "conductor = " + "9" * 5000)],
         "conductor-too-large: line 1: working field lcm(conductor, order) is above "
         "the limit 1024"),
        (["validate", "--input", ("order = 8", "order = " + "9" * 5000)],
         "conductor-too-large: line 1: working field lcm(conductor, order) is above "
         "the limit 1024"),
        (["validate", "--input", ("order = 8", "order = -" + "9" * 5000)],
         "bad-order: order must be positive"),
        (["validate", "--input", ("conductor = 8", "conductor = " + "9" * 5000 + "x")],
         "syntax: line 1: conductor wants an integer, got '99999999999999999999...'"),
        (["random", "--order", "4", "--weights", "0,0,2,2", "--exponents", "0,1,2",
          "--seed", "x"], "bad-seed: --seed must be an integer"),
        (["random", "--order", "4", "--weights", "0,0,2,2", "--exponents", "0,1,2",
          "--seed", "9" * 5000], "seed-too-large: |--seed| must be at most 10^100"),
        (["random", "--order", "4", "--weights", "0,0,2,2", "--exponents", "0,1,2",
          "--seed", "-1" + "0" * 99 + "1"], "seed-too-large: |--seed| must be at most 10^100"),
        # an overlong piece of text is echoed as its first 20 characters
        (["validate", "--input", ("swap = true", "swap = " + "t" * 100000)],
         "syntax: line 3: swap wants true or false, got 'tttttttttttttttttttt...'"),
        (["validate", "--input", ("swap = true", "swap = true\n" + "k" * 100000 + " = 1")],
         "syntax: line 4: unknown key 'kkkkkkkkkkkkkkkkkkkk...'"),
        (["validate", "--input", ("[matrix.1]", "[" + "s" * 100000 + "]")],
         "syntax: line 7: unknown section 'ssssssssssssssssssss...'"),
        (["validate", "--input", ("[matrix.1]", "[matrix.1" + " " * 100000 + "x")],
         "syntax: line 7: unterminated section header '[matrix.1           ...'"),
        (["validate", "--input", ("[matrix.1]", "[matrix." + "i" * 100000 + "]")],
         "syntax: line 7: bad matrix index in 'matrix.iiiiiiiiiiiii...'"),
        (["validate", "--input", ("-3, 6, 0, 0", "1" + "+" * 100000 + ", 6, 0, 0")],
         "bad-literal: line 8: malformed literal '1+++++++++++++++++++...'"),
        (["validate", "--input", ("-3, 6, 0, 0", "1 + " + "x" * 100000 + ", 6, 0, 0")],
         "bad-literal: line 8: bad term 'xxxxxxxxxxxxxxxxxxxx...' in literal "
         "'1 + xxxxxxxxxxxxxxxx...'"),
        # a control character counts as the four characters of its escape
        (["validate", "--input", ("swap = true", "swap = true\n" + "\x01" * 100000 + " = 1")],
         "syntax: line 4: unknown key '\\x01\\x01\\x01\\x01\\x01...'"),
        # and a path is cut as any other echoed text
        (["validate", "--input", "/nonexistent" + "/a" * 150],
         "io-error: [Errno 2] No such file or directory: '/nonexistent/a/a/a/a...'"),
    ], ids=["parity", "matrix-shape", "conductor-too-large", "bad-order", "bad-literal",
            "pencil-not-invariant", "random-bad-weights", "random-bad-exponents",
            "random-bad-order", "random-conductor-too-large", "random-empty-eigenspace",
            "random-order-mismatch", "random-odd-order",
            "bad-twist", "twist-too-large", "io-error", "conductor-past-the-digit-limit",
            "order-past-the-digit-limit", "negative-order-past-the-digit-limit",
            "malformed-long-conductor", "random-bad-seed", "random-seed-too-large",
            "random-seed-just-above-the-bound", "overlong-swap", "overlong-unknown-key",
            "overlong-unknown-section", "overlong-unterminated-section",
            "overlong-bad-matrix-index", "overlong-malformed-literal", "overlong-bad-term",
            "overlong-control-characters", "overlong-io-path"])
    def test_refusal_is_one_error_line(self, tmp_path, capsys, argv, error):
        # a (text, replacement) pair stands for that variant of swap_n8.txt
        argv = [write_variant(tmp_path, *a) if isinstance(a, tuple) else a for a in argv]
        code, out = run_cli(capsys, "--format", "tree", *argv)
        assert code == 2
        assert [line for line in out.splitlines() if line.startswith("error")] == [
            "error = " + error]
        assert out.endswith("error = %s\n" % error)

    def test_ample_twist_exact_sections(self, capsys):
        code, out = run_cli(capsys, "--format", "tree", "cohomology",
                            "--a", "10000000000", "--b", "1")
        assert code == 0
        assert "cohomology.on-X = (166666666916666666730000000004, 0, 0, 0)" in out


class TestVerify:
    def test_verify_symmetric_instance(self, capsys):
        code, out = run_cli(capsys, "verify", "--input", SYMMETRIC)
        assert code == 0
        assert "{0, 0, 0} mod 2" in out
        assert "{1, 1, 1} mod 2" in out
        assert "verify.ok" in out

    def test_verify_n8_instance(self, capsys):
        code, out = run_cli(capsys, "verify", "--input", SWAP8)
        assert code == 0
        assert "jacobian.agree" in out

    def test_verdict_swap(self, capsys):
        code, out = run_cli(capsys, "verdict", "--input", SWAP8)
        assert code == 0
        assert "not linearisable" in out
        assert "witness.characters-differ = True" not in out  # plain format

    def test_verdict_checks_declared_exponents(self, tmp_path, capsys):
        # a linearisable (diagonal) action whose pencil exponents are 0, 0, 1
        model, spec = random_diagonal_model(
            2, (0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1), seed=0
        )
        reports = {}
        for name, declared in (("wrong", (1, 1, 1)), ("undeclared", None)):
            path = str(tmp_path / (name + ".txt"))
            conductor = lcm(model.conductor, spec.order)
            save_instance(Instance(model, spec, conductor, declared), path)
            code, out = run_cli(capsys, "--format", "tree", "verdict", "--input", path)
            reports[name] = code, dict(line.split(" = ", 1) for line in out.splitlines())
        code, report = reports["wrong"]
        assert code == 2
        assert "exponents" in report["error"]
        code, report = reports["undeclared"]
        assert code == 0
        assert report["verdict"] == "linearisable"
        assert report["pencil.exponents"] == "0, 0, 1"

    def test_chars_with_oracle(self, capsys):
        code, out = run_cli(capsys, "chars", "--oracle", "--input", SWAP8)
        assert code == 0
        assert "oracle.agrees" in out


class TestReports:
    def test_tree_format_deterministic(self, capsys):
        code1, out1 = run_cli(capsys, "--format", "tree", "verify", "--input", SWAP8)
        code2, out2 = run_cli(capsys, "--format", "tree", "verify", "--input", SWAP8)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "timing" not in out1

    def test_format_position(self, capsys):
        cohomology = ("cohomology", "--a", "0", "--b", "0")
        _, before = run_cli(capsys, "--format", "tree", *cohomology)
        _, after = run_cli(capsys, *cohomology, "--format", "tree")
        assert after == before
        assert "cohomology.on-X = (1, 0, 0, 0)" in after
        assert "timing" not in after
        _, plain = run_cli(capsys, *cohomology)
        assert "timing" in plain and " = " not in plain
        # given on both sides, the flag after the subcommand wins
        _, out = run_cli(capsys, "--format", "plain", *cohomology, "--format", "tree")
        assert out == after
        _, out = run_cli(capsys, "--format", "tree", *cohomology, "--format", "plain")
        assert "timing" in out and " = " not in out

    def test_plain_format_has_timing(self, capsys):
        _, out = run_cli(capsys, "gfano", "--input", SYMMETRIC)
        assert "timing" in out

    def test_convention_always_reported(self, capsys):
        _, out = run_cli(capsys, "chars", "--input", SYMMETRIC)
        assert "omega = zeta_n" in out


class TestSubcommands:
    def test_cohomology_table(self, capsys):
        code, out = run_cli(capsys, "--format", "tree", "cohomology", "--a", "0", "--b", "0")
        assert code == 0
        assert "cohomology.on-X = (1, 0, 0, 0)" in out

    def test_hilbert(self, capsys):
        code, out = run_cli(capsys, "hilbert", "--input", SYMMETRIC)
        assert code == 0
        assert "6*t - 2" in out

    def test_hilbert_second_side(self, capsys):
        code, out = run_cli(capsys, "hilbert", "--side", "second", "--input", SYMMETRIC)
        assert code == 0
        assert "6*t - 2" in out

    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize("name", ["swap_n8.txt", "symmetric_n2.txt"])
    def test_hilbert_on_the_data_files_makes_no_exact_run(self, monkeypatch, capsys, name,
                                                          side):
        # the line certificate answers both files: a return to the exact
        # engine, in either namespace it could be called from, fails here
        def refuse(generators):
            raise AssertionError("the exact Hilbert polynomial ran")

        monkeypatch.setattr(cli, "hilbert_polynomial", refuse, raising=False)
        monkeypatch.setattr(model_module, "hilbert_polynomial", refuse)
        code, out = run_cli(capsys, "--format", "tree", "hilbert", "--side", side,
                            "--input", os.path.join(DATA, name))
        assert code == 0
        assert "hilbert.polynomial = 6*t - 2" in out

    @pytest.mark.parametrize("seed", sorted(DOUBLE_POINTS))
    def test_hilbert_of_a_centre_with_a_surface_is_exact(self, tmp_path, monkeypatch, capsys,
                                                         seed):
        # a centre that contains a surface meets the line, so the certificate
        # declines on each side and the exact run gives its polynomial
        runs = exact_hilbert_runs(monkeypatch)
        path = write_model(tmp_path, model_from_matrices(DOUBLE_POINTS[seed]))
        for count, side in enumerate(["first", "second"], start=1):
            code, out = run_cli(capsys, "--format", "tree", "hilbert", "--side", side,
                                "--input", path)
            assert (code, len(runs)) == (1, count)
            assert "hilbert.polynomial = %s\n" % DOUBLE_POINT_HILBERT[seed] in out

    def test_hilbert_falls_back_when_the_line_meets_the_centre(self, tmp_path, monkeypatch,
                                                               capsys):
        # X is smooth and its first centre passes through a point of the
        # certificate's line: that side takes the exact run, the second none
        runs = exact_hilbert_runs(monkeypatch)
        path = write_model(tmp_path, planted_centre_point_model(seed=0))
        for side in ["first", "second"]:
            code, out = run_cli(capsys, "--format", "tree", "hilbert", "--side", side,
                                "--input", path)
            assert (code, len(runs)) == (0, 1)
            assert "hilbert.polynomial = 6*t - 2" in out

    def test_picard_without_input(self, capsys):
        code, out = run_cli(capsys, "--format", "tree", "picard", "--swap", "true")
        assert code == 0
        assert "invariant-sublattice.rank = 1" in out
        code, out = run_cli(capsys, "--format", "tree", "picard", "--swap", "false")
        assert "invariant-sublattice.rank = 2" in out

    def test_picard_rejects_unknown_swap(self, capsys):
        for value in ("True", "yes", "1"):
            with pytest.raises(SystemExit) as exc:
                main(["picard", "--swap", value])
            assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_smooth_default(self, capsys):
        code, out = run_cli(capsys, "smooth", "--input", SYMMETRIC)
        assert code == 0
        assert "quartic.smooth" in out

    def test_smooth_singular_quartic_with_empty_rank_locus(self, tmp_path, capsys,
                                                           singular_model):
        # the quartic is singular, so smooth answers False
        code, out = run_cli(capsys, "--format", "tree", "smooth",
                            "--input", write_model(tmp_path, singular_model))
        assert code == 1
        assert "quartic.smooth = False\n" in out
        assert "smooth.ok = False\n" in out

    def test_smooth_expands_no_exact_quartic_when_f_p_proves_it(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the exact quartic was expanded")

        monkeypatch.setattr(model_module, "determinantal_quartic", refuse)
        code, out = run_cli(capsys, "--format", "tree", "smooth", "--input", SWAP8)
        assert code == 0
        assert "quartic.smooth = True\n" in out

    def test_smooth_of_a_double_point_takes_the_exact_route(self, tmp_path, monkeypatch,
                                                            capsys):
        calls, quartic = [], model_module.determinantal_quartic
        monkeypatch.setattr(model_module, "determinantal_quartic",
                            lambda m: calls.append(m) or quartic(m))
        path = write_model(tmp_path, model_from_matrices(DOUBLE_POINTS[0]))
        code, out = run_cli(capsys, "--format", "tree", "smooth", "--input", path)
        assert (code, len(calls)) == (1, 1)
        assert "quartic.smooth = False\n" in out

    @pytest.mark.parametrize("args", [["smooth", "--full"], ["smooth"], ["hilbert"],
                                      ["hilbert", "--side", "second"]], ids=" ".join)
    def test_a_command_maps_the_model_to_f_p_once(self, monkeypatch, capsys, args):
        # validate_model, the quartic's image, the coordinate points, the
        # charts and hilbert on either side all read the model's one image
        calls, image = [], model_module._fp_image
        monkeypatch.setattr(model_module, "_fp_image",
                            lambda values: calls.append(values) or image(values))
        code, _ = run_cli(capsys, *args, "--input", SWAP8)
        assert (code, len(calls)) == (0, 1)

    def test_smooth_of_a_zero_pencil_exits_2(self, tmp_path, capsys):
        # a common left kernel: the first rows of all three matrices are zero
        rng = random.Random(9)
        grids = [random_rational_matrix(rng) for _ in range(3)]
        for g in grids:
            g[0] = [0, 0, 0, 0]
        path = write_model(tmp_path, model_from_matrices(grids))
        code, out = run_cli(capsys, "--format", "tree", "smooth", "--input", path)
        assert code == 2
        assert "error = degenerate-pencil: " in out

    def test_smooth_rank_one_at_vertex(self, tmp_path, capsys):
        code, out = run_cli(capsys, "--format", "tree", "smooth",
                            "--input", write_model(tmp_path, rank_one_at_vertex_model()))
        assert code == 1
        assert "quartic.smooth = False\n" in out

    def test_gfano_explanations(self, capsys):
        _, out = run_cli(capsys, "gfano", "--input", SYMMETRIC)
        assert "rank 1" in out

    def test_one_picard_rank_across_commands(self, tmp_path, capsys):
        # gfano, verdict and picard --input all answer from the one invariant
        # Picard rank: a swap gives rank 1, a diagonal action rank 2
        diagonal = str(tmp_path / "diagonal.txt")
        save_instance(run_survey.generate(2, (0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1), 0), diagonal)
        ranks = []
        for path in (SWAP8, SYMMETRIC, diagonal):
            answers = [run_cli(capsys, "--format", "tree", cmd, "--input", path)[1]
                       for cmd in ("gfano", "verdict", "picard")]
            rank_one = "invariant-sublattice.rank = 1\n" in answers[2]
            assert ("gfano = True\n" in answers[0]) is rank_one
            assert ("verdict = not linearisable\n" in answers[1]) is rank_one
            ranks.append(rank_one)
        assert ranks == [True, True, False]


class TestRandomGeneration:
    def test_write_and_verify(self, tmp_path, capsys):
        out_file = str(tmp_path / "instance.txt")
        code, _ = run_cli(
            capsys,
            "random",
            "--order", "4",
            "--weights", "0,0,2,2",
            "--exponents", "0,1,2",
            "--seed", "3",
            "--out", out_file,
        )
        assert code == 0
        code, out = run_cli(capsys, "verify", "--input", out_file)
        assert code == 0
        assert "verify.ok" in out

    def test_seed_reproducibility(self, tmp_path, capsys):
        paths = [str(tmp_path / ("i%d.txt" % k)) for k in range(2)]
        for p in paths:
            run_cli(
                capsys,
                "random", "--order", "6", "--weights", "0,0,2,4",
                "--exponents", "0,2,4", "--seed", "9", "--out", p,
            )
        a, b = (open(p).read() for p in paths)
        assert a == b

    def test_seed_reads_as_int_does(self, capsys):
        outs = []
        for seed in ("3", " +0_3 ", "1" + "0" * 100):
            code, out = run_cli(capsys, "--format", "tree", "random", "--order", "4",
                                "--weights", "0,0,2,2", "--exponents", "0,1,2",
                                "--seed", seed)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1] and outs[0].endswith("random.seed = 3\n")
        assert outs[2].endswith("random.seed = 1%s\n" % ("0" * 100))

    def test_oversized_order_is_2(self, capsys):
        # the working field Q(zeta_2048) is above the limit parse_instance keeps
        started = time.monotonic()
        code, out = run_cli(
            capsys, "--format", "tree",
            "random", "--order", "2048", "--weights", "0,2,4,6",
            "--exponents", "0,1,4", "--seed", "1",
        )
        assert time.monotonic() - started < 1
        assert (code, out) == (
            2,
            "error = conductor-too-large: working field lcm(conductor, "
            "order) is above the limit 1024\n",
        )
        code, out = run_cli(
            capsys, "--format", "tree",
            "random", "--order", "8", "--weights", "0,2,4,6",
            "--exponents", "0,1,4", "--seed", "1",
        )
        assert code == 0
        assert out.startswith("random.instance = \nconductor = 8\norder = 8\n")

    @pytest.mark.parametrize("flag, value, error", [
        ("--weights", "a,b", "bad-weights: weights wants four integers, got 'a,b'"),
        ("--weights", "0,0", "bad-weights: weights wants four integers, got '0,0'"),
        ("--exponents", "0,1",
         "bad-exponents: exponents wants three integers, got '0,1'"),
    ])
    def test_malformed_option_is_2_before_any_draw(self, capsys, flag, value, error):
        argv = {"--order": "4", "--weights": "0,0,2,2", "--exponents": "0,1,2"}
        argv[flag] = value
        started = time.monotonic()
        code, out = run_cli(capsys, "--format", "tree", "random",
                            *[x for pair in argv.items() for x in pair])
        assert time.monotonic() - started < 1
        assert (code, out) == (2, "error = %s\n" % error)

    def test_impossible_exponents_error(self, capsys):
        code, out = run_cli(
            capsys,
            "random", "--order", "2", "--weights", "0,0,0,0",
            "--exponents", "1,1,1", "--seed", "1",
        )
        assert code == 2
        assert ("no-smooth-instance: no smooth instance in 50 attempts (last failure: "
                "determinantal quartic is singular mod p)") in out

    def test_order_1024_refuses_every_draw(self, capsys):
        code, out = run_cli(capsys, "--format", "tree", "random", "--order", "1024",
                            "--weights", "0,2,4,6", "--exponents", "0,1,4", "--seed", "1")
        assert (code, out) == (2, "error = no-smooth-instance: no smooth instance in 50 "
                               "attempts (last failure: determinantal quartic is singular "
                               "mod p)\n")


# verify on DENSE is left out: it takes seconds in the exact quartic over
# Q(zeta_1021) that curve_action_oracle reads
NO_INVERSE_RUNS = ([(command, path) for path in (SWAP8, SYMMETRIC)
                    for command in ("validate", "verify", "verdict", "chars")]
                   + [(command, DENSE) for command in ("validate", "verdict", "chars")])


def test_the_pencil_ranks_and_kernels_take_no_inverse(monkeypatch, capsys):
    # the elimination divides by no pivot: one inverse of DENSE's dense
    # entry took most of a minute, and its validate did not finish
    calls = []

    def refused(self):
        calls.append(self)
        raise AssertionError("Cyclotomic.inverse called")

    monkeypatch.setattr(Cyclotomic, "inverse", refused)
    for command, path in NO_INVERSE_RUNS:
        assert run_cli(capsys, command, "--input", path)[0] == 0, (command, path)
    assert calls == []


# sha256 of the stdout of scripts/report_sweep.py (4,980 lines, 441 reports);
# a declared change of the toolkit's output updates it in the same change
SWEEP_SHA256 = "686ea1cd3fc80d872d6995192e7b371ee1c4c321a0cfd0d857b7e0c88e8649ad"


def test_report_sweep_output_is_pinned():
    script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "report_sweep.py")
    result = subprocess.run([sys.executable, script], capture_output=True, check=True)
    assert hashlib.sha256(result.stdout).hexdigest() == SWEEP_SHA256


def test_bench_smoke_passes():
    # the benchmark's known-answer checks hold on the toolkit as it stands
    script = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py")
    result = subprocess.run([sys.executable, script, "--smoke"], capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] == "smoke passed"


def survey(monkeypatch, capsys, *args):
    """The exit code and rows of scripts/run_survey.py on args, in process."""
    monkeypatch.setattr(sys, "argv", ["run_survey.py", *args])
    code = run_survey.main()
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("seed", ["0", "1"])
def test_survey_passes_every_cell(monkeypatch, capsys, seed):
    code, rows = survey(monkeypatch, capsys, "--seed", seed)
    assert code == 0
    assert rows[-1].startswith("15 cells, 0 failures, ")
    assert all("hilbert-second=0 (6*t - 2)" in row for row in rows[:15])


def test_survey_flags_a_diagonal_formula_that_drops_the_second_weights(monkeypatch, capsys):
    # the survey reads the formula through verify: summed over the first four
    # weights only, it is wrong where the second ones do not sum to 0 mod n,
    # the two diagonal cells of order 4 (the order-2 cell's sum to 2)
    real = cli.jac_curve_characters
    monkeypatch.setattr(cli, "jac_curve_characters", lambda s, r, n: real(s, r[:4], n))
    code, rows = survey(monkeypatch, capsys)
    assert code == 1
    assert rows[-1].startswith("15 cells, 2 failures, ")
    flagged = [row.split(" seed=")[0] for row in rows if row.endswith("  FAIL")]
    assert flagged == ["n=4 r=(0, 1, 2, 3) r2=(0, 2, 1, 3) s=(0, 0, 1)",
                       "n=4 r=(0, 1, 2, 3) r2=(0, 2, 1, 3) s=(0, 1, 1)"]
    assert all(" verify=1 " in row for row in rows if row.endswith("  FAIL"))


def test_survey_runs_from_any_directory(tmp_path):
    # the script finds the package from its own path, not the working directory
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts",
                          "run_survey.py")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("script", ["run_survey.py", "report_sweep.py"])
def test_script_stops_quietly_when_its_reader_closes_the_pipe(script):
    # as `script | head -1` does; unbuffered, so each row is written at once
    # and the next write after the close meets the closed pipe
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts", script)
    proc = subprocess.Popen([sys.executable, path], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONUNBUFFERED="1"))
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.wait()
    assert b"Traceback" not in stderr, stderr.decode()


def test_module_entry_point():
    # the checkout's src first on the path, so no installed package is needed
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "fano212", "cohomology", "--a", "0", "--b", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "cohomology.on-X" in result.stdout
