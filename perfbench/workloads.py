"""The workloads: their inputs, built from the seed, and their verdicts.

Four input sets (survey, charts, sampler, conductor) run as two workloads,
`survey_charts` and `conductor_sampler`, each interleaving two of them.  The
host this was tuned on changes speed by 15-100% over seconds to minutes, so
each run must be long, and the time budget of a full set of runs fits two
workloads of two-pass runs but not four.  The pairs keep one workload
on each side of the Groebner engine: `survey_charts` spends most of its time
there, `conductor_sampler` none.

A workload builds its inputs once (set-up); the worker then runs its passes
one after another, always whole (worker.py).  A verdict is every command run for one
instance; it returns nothing and raises `CheckFailed` when any output
disagrees with the instance's known answer.  Each pass has the same shape on
every seed (the same cells, the same conductors, the same instance families
in the same order); the seed changes only the instances themselves, so runs
on different seeds measure the same mix of work.

User commands go through `fano212.cli.main(argv)` in-process, with
`--format tree` placed after the subcommand.  The sampler has no command, so
that workload calls the public `fano212.model` functions.  Every call goes
through the module attribute, so the traced run sees the wrapped names.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
import re
from fractions import Fraction

from checks import (
    chi_on_x,
    expect,
    expect_report,
    forms_independent,
    on_centre,
    on_quartic,
    parse_table,
    pencil_member,
    proj_equal,
    det,
    single_column_twists,
)

# -- fixed data -------------------------------------------------------------------

# (order, weights, exponents) cells known to admit smooth swap instances,
# orders 2 to 8 (the grid of the acceptance suite).
SWAP_COMBOS = [
    (2, (0, 0, 0, 0), (0, 0, 0)),
    (2, (0, 0, 0, 0), (0, 0, 1)),
    (2, (1, 1, 1, 1), (0, 1, 1)),
    (2, (1, 1, 1, 1), (1, 1, 1)),
    (4, (0, 0, 2, 2), (0, 1, 2)),
    (4, (0, 0, 2, 2), (0, 1, 3)),
    (4, (0, 0, 2, 2), (0, 2, 3)),
    (4, (0, 0, 2, 2), (1, 2, 3)),
    (4, (1, 1, 3, 3), (0, 1, 2)),
    (4, (1, 1, 3, 3), (0, 2, 3)),
    (6, (0, 0, 2, 4), (0, 2, 4)),
    (6, (0, 0, 2, 4), (0, 3, 4)),
    (6, (0, 0, 2, 4), (0, 2, 3)),
    (6, (0, 2, 2, 4), (0, 2, 5)),
    (6, (0, 2, 2, 4), (0, 2, 4)),
    (6, (1, 1, 3, 5), (1, 3, 4)),
    (6, (1, 1, 3, 5), (1, 3, 5)),
    (6, (0, 2, 4, 4), (0, 1, 4)),
    (6, (0, 2, 4, 4), (1, 2, 4)),
    (8, (0, 2, 4, 6), (0, 1, 4)),
    (8, (0, 2, 4, 6), (0, 3, 4)),
    (8, (0, 2, 4, 6), (0, 4, 5)),
    (8, (1, 3, 5, 7), (0, 1, 5)),
    (8, (1, 3, 5, 7), (0, 3, 7)),
    (8, (1, 3, 5, 7), (1, 2, 5)),
]

# (order, weights, weights2, exponents) cells for diagonal (non-swap) actions.
DIAGONAL_COMBOS = [
    (2, (0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1)),
    (2, (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1)),
    (2, (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 1)),
    (4, (0, 1, 2, 3), (0, 2, 1, 3), (0, 0, 1)),
    (4, (0, 1, 2, 3), (0, 2, 1, 3), (0, 0, 3)),
    (4, (0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 1)),
]

# The curated order-8 swap instance of the repository's examples
# (tests/data/swap_n8.txt), copied so the benchmark reads nothing outside its
# own directory.  Its whole intersection X is smooth: `smooth --full` is
# pinned True for it, and each copy below is the same variety in other
# coordinates.
SWAP_N8 = {
    "conductor": 8,
    "order": 8,
    "weights": (0, 2, 4, 6),
    "exponents": (0, 1, 4),
    "matrices": (
        (("-3", "6", "0", "0"), ("6*z", "0", "0", "-5*z^2"),
         ("0", "0", "4", "-4"), ("0", "-1", "4*z", "0")),
        (("-3", "0", "0", "0"), ("0", "0", "0", "-2*z^2"),
         ("0", "0", "-2", "0"), ("0", "-4", "0", "0")),
        (("-6", "6", "0", "0"), ("6*z", "0", "0", "-6*z^2"),
         ("0", "0", "0", "-4"), ("0", "-6", "4*z", "0")),
    ),
}

# Construction seeds of two double-point models (see `double_point_matrices`)
# whose one non-unit chart takes about 0.45 s and 0.2 s here; dense models
# take 3 to 16 s each, so a run would hold a handful of verdicts whose cost
# changes several-fold with the seed.  A charts pass is swap_n8 once, then
# (slow, fast, fast) eight times.
DOUBLE_POINT_SEEDS = (1, 0, 0) * 8

# Conductors 8k of the ladder, ascending; phi(N) grows from 4 to 144.
LADDER = (8, 16, 24, 40, 56, 72, 120, 168, 240, 280, 360, 504)
# Conductors at which the swap_n8 literals are read although 8 does not
# divide them: zeta_8 is then not in the field, and `validate` must exit 2.
MISMATCHED = (105, 210)

SAMPLER_ATTEMPTS = 5
# Construction seeds of the planted-point models (see
# `planted_quartic_point_model`).  They are fixed, and the run's seed only
# changes signs of coordinates, because the sampler's cost depends on the
# model's coefficients: models drawn per seed would change the work.
PLANTED_SEEDS = tuple(range(12))
# The point of P2 planted on each sampler model's quartic.
PLANTED_POINT = (Fraction(1), Fraction(1), Fraction(2))


# -- instance text ----------------------------------------------------------------


def instance_text(conductor, order, swap, weights, matrices, weights2=None,
                  exponents=None) -> str:
    lines = ["conductor = %d" % conductor, "order = %d" % order,
             "swap = %s" % ("true" if swap else "false"),
             "weights = %s" % ", ".join(map(str, weights))]
    if weights2 is not None:
        lines.append("weights2 = %s" % ", ".join(map(str, weights2)))
    if exponents is not None:
        lines.append("exponents = %s" % ", ".join(map(str, exponents)))
    for index, grid in enumerate(matrices, start=1):
        lines += ["", "[matrix.%d]" % index]
        lines += [", ".join(str(v) for v in row) for row in grid]
    return "\n".join(lines) + "\n"


_TERM = re.compile(r"([+-]?)([^+-]+)")


def _terms(literal: str):
    """Signed terms of a literal in z: '-5*z^2 + 1' -> [('-', '5*z^2'), ('+', '1')]."""
    compact = literal.replace(" ", "")
    return [(sign or "+", body) for sign, body in _TERM.findall(compact)]


def negate(literal: str) -> str:
    if literal == "0":
        return literal
    flipped = "".join(("-" if s == "+" else "+") + b for s, b in _terms(literal))
    return flipped[1:] if flipped.startswith("+") else flipped


def lift(literal: str, step: int) -> str:
    """Rewrite a literal in zeta_8 for conductor 8*step: z^j -> z^(j*step)."""
    out = []
    for sign, body in _terms(literal):
        coef, star, power = body.partition("z")
        if star:
            exp = int(power[1:]) if power.startswith("^") else 1
            body = "%sz^%d" % (coef, exp * step)
        out.append(sign + body)
    text = "".join(out)
    return text[1:] if text.startswith("+") else text


def signs(rng: random.Random, count: int):
    return [rng.choice((1, -1)) for _ in range(count)]


def signed(mats, x, y, forms=(1, 1, 1)):
    """The triple after the sign changes x_j -> x[j] x_j, y_k -> y[k] y_k and
    F_i -> forms[i] F_i.  The variety is the same up to isomorphism, and so
    is every Groebner computation on it (same monomials, same coefficient
    sizes), so a seed that draws the signs changes the input but not the
    amount of work.  Equal signs on both factors (y = x) keep a swap action
    in normal form; sign changes commute with diagonal actions.  Entries are
    integers, Fractions or literals in z."""

    def sign(value, s):
        if s > 0:
            return value
        return negate(value) if isinstance(value, str) else -value

    return [[[sign(m[j][k], forms[i] * x[j] * y[k]) for k in range(4)]
             for j in range(4)] for i, m in enumerate(mats)]


def signed_text(text: str, x, y, forms) -> str:
    """An instance file's text with `signed` applied to its matrices."""
    lines = text.split("\n")
    starts = [i for i, line in enumerate(lines) if line.startswith("[matrix.")]
    mats = [[lines[i + 1 + j].split(", ") for j in range(4)] for i in starts]
    for i, grid in zip(starts, signed(mats, x, y, forms)):
        lines[i + 1:i + 5] = [", ".join(row) for row in grid]
    return "\n".join(lines)


def moved_swap_n8(rng: random.Random):
    """swap_n8 in other coordinates: one permutation P of both factors
    (x -> Px, y -> Py keeps the swap normal form and permutes the weights)
    and the three forms reordered.  The variety and its exponent multiset
    are unchanged.  Returns (matrices, weights, exponents)."""
    p = rng.sample(range(4), 4)
    f = rng.sample(range(3), 3)
    mats = SWAP_N8["matrices"]
    moved = [[[mats[f[i]][p[j]][p[k]] for k in range(4)] for j in range(4)]
             for i in range(3)]
    weights = [SWAP_N8["weights"][p[j]] for j in range(4)]
    exponents = [SWAP_N8["exponents"][f[i]] for i in range(3)]
    return moved, weights, exponents


def double_point_matrices(seed: int):
    """A sparse {-1, 0, 1} triple whose X is singular by construction.

    The first row and column of M1 and the (0, 0) entries of M2, M3 are zero,
    so every form vanishes at (e0, e0) and F1 has no linear term there: X
    has a double point at (e0, e0), in the first chart x0 = y0 = 1, and
    `smooth --full` must report False.  The construction seed fixes the
    entries; the rest of the draw only rejects dependent forms and a pencil
    with identically vanishing determinant.
    """
    rng = random.Random(seed)
    while True:
        mats = [[[rng.choice((-1, 1)) if rng.random() < 0.35 else 0
                  for _ in range(4)] for _ in range(4)] for _ in range(3)]
        for k in range(4):
            mats[0][0][k] = mats[0][k][0] = 0
        mats[1][0][0] = mats[2][0][0] = 0
        fracs = [[[Fraction(v) for v in row] for row in m] for m in mats]
        if forms_independent(fracs) and det(pencil_member(fracs, (1, 2, 3))):
            return mats


def planted_quartic_point_model(fano, seed: int):
    """A valid rational model with PLANTED_POINT on its determinantal
    quartic: the third matrix is corrected by a rank-one term so the pencil
    member there acquires a kernel.  Returns (matrices as Fractions,
    fano212 model)."""
    model_mod, cyc = fano.model, fano.cyclotomic.cyc
    rng = random.Random(seed)
    p = PLANTED_POINT

    def rand_matrix():
        return [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]

    while True:
        m1, m2, m3 = rand_matrix(), rand_matrix(), rand_matrix()
        u = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        uu = sum(x * x for x in u)
        if uu == 0:
            continue
        b = [[p[0] * m1[j][k] + p[1] * m2[j][k] + p[2] * m3[j][k] for k in range(4)]
             for j in range(4)]
        bu = [sum(b[j][k] * u[k] for k in range(4)) for j in range(4)]
        m3 = [[m3[j][k] - bu[j] * u[k] / (p[2] * uu) for k in range(4)]
              for j in range(4)]
        mats = [m1, m2, m3]
        try:
            model = model_mod.model_from_matrices(mats)
            model_mod.validate_model(model)
            q = model_mod.determinantal_quartic(model)
        except model_mod.InvalidModel:
            continue
        if not q.evaluate([cyc(v) for v in p]).is_zero():
            continue
        if not model_mod.quartic_smooth(q):
            continue
        return mats, model


# -- running commands -------------------------------------------------------------


def run_cli(fano, *argv):
    """fano212.cli.main in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = fano.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def rational_point(values):
    """A point returned by fano212 as Fractions; it must be rational."""
    for v in values:
        expect(v.is_rational(), "point coordinate %s is not rational" % v)
    return [v.to_rational() for v in values]


def labelled(kind: str, verdict):
    """Tag a verdict with the kind of input it checks, for the run's counts."""
    verdict.kind = kind
    return verdict


class Workload:
    name = ""

    def __init__(self, fano, seed: int, workdir: str, smoke: bool = False):
        self.fano = fano
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke

    def rng(self, *key) -> random.Random:
        return random.Random(":".join(str(k) for k in (self.name, self.seed) + key))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def build(self) -> None:
        """Set-up: everything the verdicts need that a user has on disk."""

    def one_pass(self, index: int) -> list:
        """The verdict callables of one pass."""
        raise NotImplementedError


class Survey(Workload):
    """Generated instances over the SWAP_COMBOS grid (orders 2 to 8) and the
    diagonal cells, as `scripts/run_survey.py` and users survey them.

    Known answers, from the paper: a swap action is not linearisable and a
    diagonal one is; formula and oracle characters agree (`verify.ok`); the
    blowdown centre has Hilbert polynomial 6t - 2.  `smooth.ok` is the
    generator's contract (it only returns instances with a smooth quartic).
    Each pass also checks three cohomology tables against the Euler
    characteristic of the Koszul resolution.
    """

    name = "survey"

    def build(self):
        groups = {}
        for combo in SWAP_COMBOS + DIAGONAL_COMBOS:
            groups.setdefault((len(combo), combo[0]), []).append(combo)
        # interleave orders and action kinds so any prefix of a pass is mixed
        self.cells = [c for row in itertools.zip_longest(*groups.values())
                      for c in row if c is not None]
        self.twists = single_column_twists(4)
        if self.smoke:
            self.cells = [SWAP_COMBOS[19], DIAGONAL_COMBOS[3]]

    def one_pass(self, index):
        # The generator's seeds depend on the pass, not on the run's seed:
        # the cost of a generated instance varies several-fold with its
        # draw, so runs on different seeds would do different amounts of
        # work.  The run's seed changes signs of the generated matrices.
        generator = random.Random("survey:%d" % index)
        rng = self.rng(index)
        tables = 1 if self.smoke else 3
        out = []
        for cell in self.cells:
            x = signs(rng, 4)
            y = x if len(cell) == 3 else signs(rng, 4)
            out.append(self._instance_verdict(cell, generator.randrange(1 << 30),
                                              (x, y, signs(rng, 3))))
        out += [self._table_verdict(*rng.choice(self.twists)) for _ in range(tables)]
        return out

    def _instance_verdict(self, cell, seed, flips):
        fano = self.fano

        def verdict():
            if len(cell) == 3:
                n, weights, exponents = cell
                model, spec = fano.action.random_equivariant_model(
                    n, weights, exponents, seed=seed)
            else:
                n, weights, weights2, exponents = cell
                model, spec = fano.action.random_diagonal_model(
                    n, weights, weights2, exponents, seed=seed)
            inst = fano.instancefile.Instance(
                model=model, spec=spec, conductor=math.lcm(model.conductor, n),
                declared_exponents=exponents)
            path = self.path("survey.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(signed_text(fano.instancefile.serialize_instance(inst),
                                         *flips))
            swap = len(cell) == 3
            for argv, want in (
                (["validate"], {"validate.ok": "True"}),
                (["smooth"], {"smooth.ok": "True"}),
                (["verify"], {"verify.ok": "True"}),
                (["hilbert"], {"hilbert.polynomial": "6*t - 2"}),
                (["verdict"], {"verdict": "not linearisable" if swap else "linearisable"}),
            ):
                code, out = run_cli(fano, *argv, "--input", path, "--format", "tree")
                expect_report(code, out, 0, want)

        return labelled("swap" if len(cell) == 3 else "diagonal", verdict)

    def _table_verdict(self, a, b):
        def verdict():
            code, out = run_cli(self.fano, "cohomology", "--a=%d" % a, "--b=%d" % b,
                                "--format", "tree")
            report = expect_report(code, out, 0, {})
            table = parse_table(report.get("cohomology.on-X", ""))
            euler = sum((-1) ** i * h for i, h in enumerate(table))
            expect(euler == chi_on_x(a, b), "chi(O_X(%d, %d)) = %d, table %s"
                   % (a, b, chi_on_x(a, b), table))

        return labelled("cohomology", verdict)


class Charts(Workload):
    """`smooth --full`, the 16-chart Jacobian criterion, on answers of both
    polarities: swap_n8 (pinned True, conductor 8, the cyclotomic Buchberger
    engine, 16 unit charts) and two double-point models (False by
    construction, rational, the integer engine, one non-unit chart), each
    under seeded sign changes."""

    name = "charts"

    def build(self):
        self.shape = [None] + list(DOUBLE_POINT_SEEDS)
        if self.smoke:
            self.shape = [None, DOUBLE_POINT_SEEDS[0]]
        self.files = {}
        for index in range(2):
            for slot, base in enumerate(self.shape):
                self.files[index, slot] = self._write(index, slot, base)

    def _write(self, index, slot, base):
        rng = self.rng(index, slot)
        if base is None:
            x = signs(rng, 4)
            mats = signed(SWAP_N8["matrices"], x, x, signs(rng, 3))
            text = instance_text(8, 8, True, SWAP_N8["weights"], mats,
                                 exponents=SWAP_N8["exponents"])
        else:
            mats = signed(double_point_matrices(base), signs(rng, 4), signs(rng, 4),
                          signs(rng, 3))
            text = instance_text(1, 1, False, (0,) * 4, mats, weights2=(0,) * 4)
        path = self.path("charts-%d-%d.txt" % (index, slot))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path, base is None

    def one_pass(self, index):
        # two sets of files alternate, so consecutive passes differ
        return [self._verdict(*self.files[index % 2, slot])
                for slot in range(len(self.shape))]

    def _verdict(self, path, smooth):
        def verdict():
            code, out = run_cli(self.fano, "smooth", "--input", path, "--full",
                                "--format", "tree")
            want = {"smooth.full": str(smooth)}
            if smooth:
                want["smooth.ok"] = "True"
            expect_report(code, out, 0 if smooth else 1, want)

        return labelled("smooth" if smooth else "singular", verdict)


class Sampler(Workload):
    """Planted-point models (fixed constructions under seeded sign changes of
    x): the kernel maps on both sides and `sample_curve_points`.  The planted
    point p lies on the quartic by construction; every curve point is
    re-checked by evaluating the maximal minors in Fractions, and mapped back
    to the quartic."""

    name = "sampler"

    def build(self):
        rng = self.rng("models")
        self.models = []
        for base in PLANTED_SEEDS[:1] if self.smoke else PLANTED_SEEDS:
            # x sign changes keep the quartic (its equation changes sign at
            # most), so the planted point stays on it; they scale columns of
            # the SECOND side's matrix of linear forms in y, so the sampler
            # searches the same centre, up to signs of its cubics
            mats = signed(planted_quartic_point_model(self.fano, base)[0],
                          signs(rng, 4), (1,) * 4)
            self.models.append((mats, self.fano.model.model_from_matrices(mats)))
        self.attempts = 2 if self.smoke else SAMPLER_ATTEMPTS

    def one_pass(self, index):
        # search seeds fixed by the pass, as the models are by PLANTED_SEEDS
        return [self._verdict(mats, model, index * len(self.models) + slot)
                for slot, (mats, model) in enumerate(self.models)]

    def _verdict(self, mats, model, seed):
        fano = self.fano
        planted = list(PLANTED_POINT)

        def verdict():
            model_mod, cyc = fano.model, fano.cyclotomic.cyc
            point = [cyc(v) for v in planted]
            for side in (model_mod.Side.FIRST, model_mod.Side.SECOND):
                second = side is model_mod.Side.SECOND
                c = model_mod.quartic_point_to_curve_point(model, point, side)
                c_q = rational_point(c)
                expect(on_centre(mats, c_q, second),
                       "kernel image %s is off the %s centre" % (c_q, side.value))
                back = rational_point(
                    model_mod.curve_point_to_quartic_point(model, c, side))
                expect(proj_equal(back, planted),
                       "planted point %s came back as %s" % (planted, back))
            found = model_mod.sample_curve_points(
                model, model_mod.Side.SECOND, seed=seed, attempts=self.attempts)
            for c in found:
                c_q = rational_point(c)
                expect(on_centre(mats, c_q, True),
                       "sampled point %s is off the centre" % c_q)
                back = rational_point(model_mod.curve_point_to_quartic_point(
                    model, c, model_mod.Side.SECOND))
                expect(on_quartic(mats, back),
                       "sampled point %s maps to %s, off the quartic" % (c_q, back))

        return labelled("planted", verdict)


class Conductor(Workload):
    """One valid swap instance (a copy of swap_n8) declared at a ladder of
    conductors 8k, its literals lifted so z^(k*j) stands for zeta_8^j; then
    swap_n8 read at conductors 105 and 210.

    Known answers: the lift is the same model, so `validate`, `verify` and
    `chars --oracle` agree exactly as at conductor 8 (formula and oracle
    agree, the two character multisets differ, per the paper).  At 105 and
    210, 8 does not divide N, so the twisted forms leave the span of the
    pencil and `validate` exits 2.
    """

    name = "conductor"

    def build(self):
        ladder = (8, 24) if self.smoke else LADDER
        mismatched = MISMATCHED[:1] if self.smoke else MISMATCHED
        mats, weights, exponents = moved_swap_n8(self.rng("base"))
        # the lift is plain text: building Phi_N here would warm the cache
        # that a CLI user starts cold
        self.files = []
        for n in ladder:
            lifted = [[[lift(v, n // 8) for v in row] for row in grid] for grid in mats]
            text = instance_text(n, 8, True, weights, lifted, exponents=exponents)
            self.files.append((self._write("ladder-%d.txt" % n, text), True))
        for n in mismatched:
            text = instance_text(n, 8, True, SWAP_N8["weights"], SWAP_N8["matrices"],
                                 exponents=SWAP_N8["exponents"])
            self.files.append((self._write("mismatched-%d.txt" % n, text), False))

    def _write(self, name, text):
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def one_pass(self, index):
        return [self._verdict(path, valid) for path, valid in self.files]

    def _verdict(self, path, valid):
        fano = self.fano

        def verdict():
            if not valid:
                code, out = run_cli(fano, "validate", "--input", path, "--format", "tree")
                report = expect_report(code, out, 2, {})
                expect("error" in report, "exit 2 without an error key")
                return
            for argv, want in (
                (["validate"], {"validate.ok": "True"}),
                (["verify"], {"verify.ok": "True"}),
                (["chars", "--oracle"], {"oracle.agrees": "True",
                                         "characters.differ": "True"}),
            ):
                code, out = run_cli(fano, argv[0], "--input", path, *argv[1:],
                                    "--format", "tree")
                expect_report(code, out, 0, want)

        return labelled("ladder" if valid else "mismatched", verdict)


class Merged(Workload):
    """The passes of two input sets, interleaved in proportion, so every
    stretch of a run holds both in the same mix."""

    parts = ()

    def __init__(self, fano, seed: int, workdir: str, smoke: bool = False):
        super().__init__(fano, seed, workdir, smoke)
        self.members = [part(fano, seed, workdir, smoke) for part in self.parts]

    def build(self):
        for member in self.members:
            member.build()

    def one_pass(self, index):
        keyed = [((i + 0.5) / len(verdicts), k, v)
                 for k, verdicts in enumerate(m.one_pass(index) for m in self.members)
                 for i, v in enumerate(verdicts)]
        return [v for _, _, v in sorted(keyed, key=lambda t: t[:2])]


class SurveyCharts(Merged):
    """Groebner-bound verdicts at conductor <= 8: survey and charts."""

    name = "survey_charts"
    parts = (Survey, Charts)


class ConductorSampler(Merged):
    """Exact arithmetic without Groebner work: conductor and sampler."""

    name = "conductor_sampler"
    parts = (Conductor, Sampler)


WORKLOADS = {w.name: w for w in (SurveyCharts, ConductorSampler)}
