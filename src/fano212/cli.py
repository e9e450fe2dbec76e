"""Command-line interface: validation, smoothness, characters, cohomology
tables, Picard lattice data, verdicts, and a random instance generator.

Exit codes: 0 success / agreement, 1 mathematical failure (a check that ran
and came out false), 2 invalid input, 3 inconclusive (a computation declined
to decide, e.g. a degree cap was hit).  The commands raise; `main` alone turns
an exception into the report's `error` line and the exit code.
"""

from __future__ import annotations

import argparse
import sys
import time
from math import lcm

from .action import (
    invariant_pencil,
    invariant_sublattice,
    picard_involution,
    projective_order,
    random_equivariant_model,
    DivisorClass,
    H,
    E,
    MINUS_K,
)
from .characters import (
    OracleError,
    Verdict,
    characters_differ,
    curve_action_oracle,
    ij_characters,
    ij_oracle,
    jac_curve_characters,
    verdict,
)
from .cohomology import InconclusiveCohomology, euler_chase, koszul_cohomology_on_X, kunneth
from .cyclotomic import _excerpt
from .groebner import DegreeCapExceeded, qp_str
from .instancefile import (
    Instance,
    check_field,
    load_instance,
    read_integer,
    read_ints,
    save_instance,
    serialize_instance,
)
from .model import (
    InputError,
    Side,
    centre_hilbert_polynomial,
    determinantal_quartic_smooth,
    full_smoothness,
)

EXIT_OK = 0
EXIT_MATH_FAIL = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3

CONVENTION = "omega = zeta_n, the canonical primitive n-th root of unity"

# Largest |a|, |b| (cohomology then has under 600 digits, far below 4300) and |seed|.
_MAX_OPTION = 10 ** 100


class Report:
    """Ordered key-value tree with plain and machine renderings."""

    def __init__(self):
        self.items = []  # (dotted key, value)

    def put(self, key: str, value):
        self.items.append((key, value))

    def render_tree(self) -> str:
        return "\n".join("%s = %s" % (k, v) for k, v in self.items) + "\n"

    def render_plain(self, elapsed: float) -> str:
        width = max((len(k) for k, _ in self.items), default=0)
        lines = ["%-*s  %s" % (width, k, v) for k, v in self.items]
        lines.append("%-*s  %.3fs" % (width, "timing", elapsed))
        return "\n".join(lines) + "\n"


def _echo_instance(report: Report, inst: Instance):
    report.put("instance.conductor", inst.conductor)
    report.put("instance.order", inst.spec.order)
    report.put("instance.swap", "true" if inst.spec.swap else "false")
    report.put("instance.weights", ", ".join(str(w) for w in inst.spec.weights))
    if inst.spec.weights2 is not None:
        report.put("instance.weights2", ", ".join(str(w) for w in inst.spec.weights2))
    if inst.declared_exponents is not None:
        report.put(
            "instance.exponents", ", ".join(str(s) for s in inst.declared_exponents)
        )
    report.put("convention", CONVENTION)


def _pencil_with_validation(inst: Instance, report: Report):
    pencil = invariant_pencil(inst.model, inst.spec)
    report.put("pencil.exponents", ", ".join(str(s) for s in sorted(pencil.exponents)))
    if inst.declared_exponents is not None:
        declared = sorted(s % inst.spec.order for s in inst.declared_exponents)
        if declared != sorted(pencil.exponents):
            raise InputError(
                "exponents-mismatch",
                "declared exponents %s do not match the recovered multiset %s"
                % (declared, sorted(pencil.exponents)),
            )
    return pencil


def _characters(inst: Instance, report: Report):
    """The validated invariant pencil and the formula characters of the curve
    Jacobian and, for a swap action, of the intermediate Jacobian (else None).
    Only the pencil check writes to the report."""
    pencil = _pencil_with_validation(inst, report)
    n = inst.spec.order
    weights = list(inst.spec.weights) + list(inst.spec.weights2 or ())
    jac = jac_curve_characters(pencil.exponents, weights, n)
    ij = ij_characters(pencil.exponents, weights, n) if inst.spec.swap else None
    return pencil, jac, ij


# -- subcommands -----------------------------------------------------------------


def cmd_validate(inst: Instance, args, report: Report) -> int:
    report.put("model.forms-independent", True)  # load_instance already validated
    report.put("action.projective-order", projective_order(inst.spec))
    _pencil_with_validation(inst, report)
    report.put("action.preserves-pencil", True)
    report.put("validate.ok", True)
    return EXIT_OK


def cmd_smooth(inst: Instance, args, report: Report) -> int:
    """`smooth`: X is smooth iff its determinantal quartic Delta(a) =
    det M(a), M(a) = sum a_i M_i, is, so the answer is
    determinantal_quartic_smooth's; --full adds full_smoothness, which
    shares none of this argument.  Its first rung is Delta's image in F_p,
    taken from the entries' images (model._smooth_image): a coordinate point
    of P2 where every partial vanishes refuses it by substitution, and
    partials with no common zero mod p prove Delta smooth.  Only when that
    proves nothing is the exact Delta expanded, and quartic_smooth decides
    it, by the same substitution first; a Delta that is identically zero
    exits 2 there (degenerate-pencil).

    X is singular at (x, y) iff sum a_i grad f_i vanishes there for some
    a != 0, that is M(a) y = 0 and x^T M(a) = 0, as grad_x f_i = M_i y and
    grad_y f_i = M_i^T x; then det M(a) = 0.
    - Delta smooth => X smooth.  Take such (x, y, a).  If M(a) has corank 1,
      adj M(a) = c y x^T with c != 0, and by Jacobi's formula
      dDelta/da_i (a) = tr(adj M(a) M_i) = c x^T M_i y = c f_i(x, y) = 0.
      If the corank is 2 or more, every 3x3 minor of M(a) vanishes, and so
      does every first partial of Delta at a.  Either way Delta is singular
      at a.
    - X smooth => Delta smooth.  Take a singular point a of Delta.  If M(a)
      has corank 1, x and y spanning its left and right kernels give
      adj M(a) = c y x^T, c != 0, so Jacobi's formula makes every f_i(x, y)
      = 0, and sum a_i grad f_i = 0 there: X is singular at (x, y).  If the
      corank is 2 or more, take x and y in the two kernels: f_a =
      x^T M(a) y vanishes there identically, and two other forms of the
      pencil restrict to (1, 1)-forms on P1 x P1 (or on a larger product),
      which always meet, their intersection number being 2.  At a common
      zero every f_i vanishes and sum a_i grad f_i = 0, so X is singular."""
    smooth_q = determinantal_quartic_smooth(inst.model)
    report.put("quartic.smooth", smooth_q)
    ok = smooth_q
    if args.full:
        full = full_smoothness(inst.model)
        report.put("smooth.full", full)
        ok = ok and full
    report.put("smooth.ok", ok)
    return EXIT_OK if ok else EXIT_MATH_FAIL


def cmd_gfano(inst: Instance, args, report: Report) -> int:
    flag = len(invariant_sublattice(inst.spec.swap)) == 1
    report.put("gfano", flag)
    if flag:
        report.put(
            "gfano.invariant-picard",
            "rank 1, generated by -K = %s (the action swaps the two "
            "hyperplane classes)" % MINUS_K,
        )
    else:
        report.put(
            "gfano.invariant-picard",
            "rank 2, generated by H and H' (both hyperplane classes are "
            "preserved)",
        )
    return EXIT_OK


def cmd_chars(inst: Instance, args, report: Report) -> int:
    pencil, jac, ij = _characters(inst, report)
    report.put("characters.jacobian", str(jac))
    if inst.spec.swap:
        report.put("characters.intermediate-jacobian", str(ij))
        report.put("characters.differ", characters_differ(jac, ij))
    if args.oracle:
        jac_o = curve_action_oracle(pencil)
        report.put("oracle.jacobian", str(jac_o))
        ij_o = ij_oracle(pencil)
        report.put("oracle.intermediate-jacobian", str(ij_o))
        agree = jac == jac_o and (not inst.spec.swap or ij == ij_o)
        report.put("oracle.agrees", agree)
        if not agree:
            return EXIT_MATH_FAIL
    return EXIT_OK


def cmd_verify(inst: Instance, args, report: Report) -> int:
    pencil, jac, ij = _characters(inst, report)
    jac_o = curve_action_oracle(pencil)
    report.put("jacobian.formula", str(jac))
    report.put("jacobian.oracle", str(jac_o))
    report.put("jacobian.agree", jac == jac_o)
    ij_o = ij_oracle(pencil)
    report.put("intermediate-jacobian.oracle", str(ij_o))
    if inst.spec.swap:
        report.put("intermediate-jacobian.formula", str(ij))
        report.put("intermediate-jacobian.agree", ij == ij_o)
        report.put("characters.differ", characters_differ(jac, ij))
        ok = jac == jac_o and ij == ij_o and characters_differ(jac, ij)
    else:
        report.put("intermediate-jacobian.matches-curve", ij_o == jac)
        ok = jac == jac_o and ij_o == jac
    report.put("verify.ok", ok)
    return EXIT_OK if ok else EXIT_MATH_FAIL


def cmd_cohomology(inst, args, report: Report) -> int:
    a, b = read_integer(args.a), read_integer(args.b)
    if a is None or b is None:
        raise InputError("bad-twist", "--a and --b must be integers")
    if max(abs(a), abs(b)) > _MAX_OPTION:
        raise InputError("twist-too-large", "|a| and |b| must be at most 10^100")
    report.put("twist", "(%d, %d)" % (a, b))
    report.put("ambient.kunneth", kunneth(a, b).dims)
    report.put("cohomology.on-X", koszul_cohomology_on_X(a, b).dims)
    h2, h3 = euler_chase()
    report.put("euler-chase.h2-vanishes", h2)
    report.put("euler-chase.h3-vanishes", h3)
    return EXIT_OK


def cmd_hilbert(inst: Instance, args, report: Report) -> int:
    side = Side.SECOND if args.side == "second" else Side.FIRST
    hp = qp_str(centre_hilbert_polynomial(inst.model, side))
    report.put("hilbert.polynomial", hp)
    expected = hp == "6*t - 2"
    report.put("hilbert.curve-of-degree-6-genus-3", expected)
    return EXIT_OK if expected else EXIT_MATH_FAIL


def cmd_picard(inst, args, report: Report) -> int:
    swap = args.swap == "true" if inst is None else inst.spec.swap
    iota_h = picard_involution(H)
    iota_e = picard_involution(E)
    report.put("involution.H", str(iota_h))
    report.put("involution.E", str(iota_e))
    sq_ok = (
        picard_involution(iota_h) == H and picard_involution(iota_e) == E
    )
    report.put("involution.squares-to-identity", sq_ok)
    report.put("involution.fixes-minus-K", picard_involution(MINUS_K) == MINUS_K)
    gens = invariant_sublattice(swap)
    report.put("invariant-sublattice.rank", len(gens))
    report.put("invariant-sublattice.generators", ", ".join(str(g) for g in gens))
    anticanonical = DivisorClass(-4, 1)
    h_plus_hprime = -(H + iota_h)
    report.put("identity.K-equals-minus-H-minus-H'", anticanonical == h_plus_hprime)
    return EXIT_OK


def cmd_verdict(inst: Instance, args, report: Report) -> int:
    result = verdict(inst.spec)
    report.put("verdict", result.value)
    _, jac, ij = _characters(inst, report)
    if result is Verdict.NOT_LINEARISABLE:
        report.put("witness.jacobian", str(jac))
        report.put("witness.intermediate-jacobian", str(ij))
        report.put("witness.characters-differ", characters_differ(jac, ij))
        report.put(
            "explanation",
            "the invariant Picard lattice has rank 1; the actions on the two "
            "Lie algebras differ by the sign character and can never match",
        )
    else:
        report.put(
            "explanation",
            "both hyperplane classes are preserved, so the first blowdown to "
            "P3 is equivariant and linearises the action",
        )
    return EXIT_OK


def cmd_random(inst, args, report: Report) -> int:
    # Refuse, before any draw, what parse_instance refuses.  The generated
    # model's conductor is the order, so its working field is Q(zeta_order).
    order = read_integer(args.order)
    if order is None:
        raise InputError("bad-order", "--order must be an integer")
    seed = read_integer(args.seed)
    if seed is None:
        raise InputError("bad-seed", "--seed must be an integer")
    if abs(seed) > _MAX_OPTION:
        raise InputError("seed-too-large", "|--seed| must be at most 10^100")
    weights = read_ints(args.weights, "weights")
    exponents = read_ints(args.exponents, "exponents")
    check_field(order, order)
    model, spec = random_equivariant_model(order, weights, exponents, seed=seed)
    inst = Instance(
        model=model,
        spec=spec,
        conductor=lcm(model.conductor, spec.order),
        declared_exponents=exponents,
    )
    if args.out:
        save_instance(inst, args.out)
        report.put("random.written", args.out)
    else:
        report.put("random.instance", "\n" + serialize_instance(inst))
    report.put("random.seed", seed)
    return EXIT_OK


# -- dispatch ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fano212",
        description="Exact verification toolkit for cyclic symmetries of "
        "(1,1)-divisor triples in P3 x P3",
    )
    parser.add_argument("--format", choices=("plain", "tree"), default=None,
                        help="report style: human table or machine key-value tree")
    parser.set_defaults(input=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, needs_input=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        # Accepted before or after the subcommand.  SUPPRESS keeps an absent
        # flag from overwriting the global one; given after, it wins.
        p.add_argument("--format", choices=("plain", "tree"),
                       default=argparse.SUPPRESS)
        if needs_input:
            p.add_argument("--input", required=True, help="instance file")
        return p

    add("validate", cmd_validate, "check the model and the action declaration")
    p = add("smooth", cmd_smooth, "quartic smoothness check")
    p.add_argument("--full", action="store_true",
                   help="run the 16-chart Jacobian criterion (slow)")
    add("gfano", cmd_gfano, "report whether the invariant Picard rank is 1")
    p = add("chars", cmd_chars, "character multisets of both Lie algebras")
    p.add_argument("--oracle", action="store_true",
                   help="also run the symbolic eigenvalue oracles")
    add("verify", cmd_verify, "formula-versus-oracle agreement for both Jacobians")
    p = add("cohomology", cmd_cohomology, "line-bundle cohomology tables on X", needs_input=False)
    # integers are read as text, so that main reports an oversized one
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p = add("hilbert", cmd_hilbert, "Hilbert polynomial of the blowdown centre")
    p.add_argument("--side", choices=("first", "second"), default="first")
    p = add("picard", cmd_picard, "Picard lattice involution and invariant sublattice",
            needs_input=False)
    p.add_argument("--input", help="instance file (for its swap flag)")
    p.add_argument("--swap", choices=("true", "false"), default="true",
                   help="swap flag when no instance is given")
    add("verdict", cmd_verdict, "linearisability verdict for the declared action")
    p = add("random", cmd_random, "generate a random equivariant instance", needs_input=False)
    p.add_argument("--order", required=True)
    p.add_argument("--weights", required=True, help="r0,r1,r2,r3")
    p.add_argument("--exponents", required=True, help="s1,s2,s3")
    p.add_argument("--seed", default="0")
    p.add_argument("--out", help="write the instance file here")
    return parser


_PARSER = build_parser()

def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    report = Report()
    started = time.monotonic()
    try:
        # picard reads only the swap flag of its optional instance
        inst = None if args.input is None else load_instance(args.input)
        if inst is not None and args.command != "picard":
            _echo_instance(report, inst)
        code = args.handler(inst, args, report)
    except InputError as exc:
        report.put("error", "%s: %s" % (exc.code, exc))
        code = EXIT_INVALID
    except OSError as exc:
        if exc.filename is not None:
            exc.filename = _excerpt(exc.filename)
        report.put("error", "io-error: %s" % exc)
        code = EXIT_INVALID
    except (DegreeCapExceeded, InconclusiveCohomology) as exc:
        report.put("error", "inconclusive: %s" % exc)
        code = EXIT_INCONCLUSIVE
    except OracleError as exc:
        report.put("error", str(exc))
        code = EXIT_MATH_FAIL
    elapsed = time.monotonic() - started
    if args.format == "tree":
        sys.stdout.write(report.render_tree())
    else:
        sys.stdout.write(report.render_plain(elapsed))
    return code


if __name__ == "__main__":
    sys.exit(main())
