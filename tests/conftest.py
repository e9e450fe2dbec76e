"""Shared instance builders, verified parameter pools and independent
oracles for the suite."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd, isqrt, lcm

import pytest

from fano212 import model as model_module
from fano212.cohomology import InconclusiveCohomology, koszul_cohomology_on_X
from fano212.cyclotomic import Cyclotomic, _fold_terms, _literal_terms, cyc, euler_phi
from fano212.groebner import (_exact_basis, _guard, _interreduce, _mod_p_basis, _unpack,
                              hilbert_polynomial, monomial_divides, projective_empty)
from fano212.linalg import mat_transpose, nullspace, rref
from fano212.model import (
    _LINE,
    InputError,
    ModelTriple,
    Side,
    determinantal_quartic,
    model_from_matrices,
    quartic_smooth,
    validate_model,
)
from fano212.multipoly import MultiPoly

# (order, weights, exponents) combinations verified to admit smooth swap
# instances; spans orders 2, 4, 6, 8 with varied weights and exponents.
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

# (order, weights, weights2, exponents) for diagonal non-swap actions.
DIAGONAL_COMBOS = [
    (2, (0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1)),
    (2, (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1)),
    (2, (0, 1, 1, 0), (0, 0, 1, 1), (0, 0, 1)),
    (4, (0, 1, 2, 3), (0, 2, 1, 3), (0, 0, 1)),
    (4, (0, 1, 2, 3), (0, 2, 1, 3), (0, 0, 3)),
    (4, (0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 1)),
]


def from_coeffs(n: int, coeffs) -> Cyclotomic:
    """The element of Q(zeta_n) with these power-basis coefficients, phi(n)
    ints or Fractions, in lowest terms: the checked construction that the
    package's trusted Cyclotomic(n, num, den) leaves to its callers."""
    coeffs = [Fraction(c) for c in coeffs]
    if len(coeffs) != euler_phi(n):
        raise ValueError("coefficient vector has wrong length for conductor %d" % n)
    # the lcm of lowest-terms denominators leaves no common factor
    den = lcm(*(c.denominator for c in coeffs))
    return Cyclotomic(n, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)


class Poly(MultiPoly):
    """The suite's polynomials: the package's MultiPoly record with the
    arithmetic the oracles are built from.  The constructor checks each
    exponent tuple's arity, coerces coefficients to Cyclotomic (cyc) and
    drops zero terms; +, -, * take a MultiPoly or a scalar (int, Fraction,
    Cyclotomic) on either side and give a Poly; == compares term by term,
    across conductors, with any MultiPoly."""

    def __init__(self, nvars: int, terms=None):
        clean = {}
        for exps, coef in (terms or {}).items():
            if len(exps) != nvars:
                raise ValueError("exponent vector %r has wrong arity" % (exps,))
            if coef:
                clean[tuple(exps)] = cyc(coef)
        super().__init__(nvars, clean)

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, value, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: value})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _coerce(self, other) -> "Poly":
        """other as a Poly in self's variables: a scalar as a constant."""
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return Poly.constant(other, self.nvars)
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch: %d vs %d" % (self.nvars, other.nvars))
        return other if isinstance(other, Poly) else Poly(other.nvars, other.terms)

    def __add__(self, other):
        other = self._coerce(other)
        return Poly(self.nvars, {e: self.terms.get(e, 0) + other.terms.get(e, 0)
                                 for e in {**self.terms, **other.terms}})

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other, terms = self._coerce(other), {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.nvars, terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and not (self - other).terms


def variables(nvars: int) -> list:
    """x_0, ..., x_{nvars-1} as polynomials in nvars variables."""
    return [Poly(nvars, {tuple(int(i == j) for j in range(nvars)): 1})
            for i in range(nvars)]


def power(p: MultiPoly, k: int) -> Poly:
    """p to the power k >= 0, by repeated multiplication."""
    result = Poly.constant(1, p.nvars)
    for _ in range(k):
        result = result * p
    return result


def derivative(p: MultiPoly, index: int) -> Poly:
    """The partial derivative of p in x_index, term by term: c * x^e goes to
    e_index * c * x^e with e_index lowered by one."""
    return Poly(p.nvars, {e[:index] + (e[index] - 1,) + e[index + 1:]: c * e[index]
                          for e, c in p.terms.items() if e[index]})


def leibniz(rows):
    """The determinant as the signed sum over permutations, with the
    entries' own arithmetic; independent of the cofactor expansion."""
    total = 0
    for perm in permutations(range(len(rows))):
        term = (-1) ** sum(perm[i] > perm[j] for i, j in combinations(range(len(perm)), 2))
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        total = total + term
    return total


def leibniz_minors(rows, k: int) -> list:
    """Every k x k minor of a matrix, row subsets in lexicographic order and,
    within each, column subsets in lexicographic order, each its own Leibniz
    sum."""
    return [leibniz([[row[c] for c in cols] for row in sub]) for sub in combinations(rows, k)
            for cols in combinations(range(len(rows[0])), k)]


def maximal_minors(rows) -> tuple:
    """The four 3x3 minors (f0, f1, f2, f3) of a 3x4 matrix, f_i the Leibniz
    sum of the matrix without column i."""
    return tuple(leibniz([[row[c] for c in range(4) if c != i] for row in rows])
                 for i in range(4))


def bilinear_forms(m) -> list:
    """The three forms x^T M_k y as polynomials in x0..x3, y0..y3, summed
    from variables."""
    v = variables(8)
    return [sum((v[a] * v[4 + b] * mat[a][b] for a in range(4) for b in range(4)),
                Poly.zero(8)) for mat in m.matrices]


def coeff_matrix(m, side=Side.FIRST) -> list:
    """The 3x4 matrix of linear forms in x0..x3 whose row k is x^T M_k, on the
    sided triple, summed from variables."""
    x = variables(4)
    return [[sum((x[a] * mat[a][j] for a in range(4)), Poly.zero(4)) for j in range(4)]
            for mat in m.sided(side).matrices]


def dehomogenize(p: MultiPoly, chart) -> MultiPoly:
    """p with 1 put for each variable index in chart: the sum of its terms
    with those exponents set to 0."""
    return sum((Poly(p.nvars, {tuple(0 if i in chart else k for i, k in enumerate(e)): c})
                for e, c in p.terms.items()), Poly.zero(p.nvars))


def term_rows(rows) -> list:
    """A matrix of MultiPoly or scalar (int, Fraction, Cyclotomic) entries as
    the {exponent tuple: Cyclotomic} dicts that multipoly.minors and
    poly_det take, a scalar c as c times the monomial of degree 0 in the
    polynomials' variables (none for a scalar matrix)."""
    nvars = next((e.nvars for row in rows for e in row if isinstance(e, MultiPoly)), 0)
    return [[e.terms if isinstance(e, MultiPoly) else {(0,) * nvars: cyc(e)} if e else {}
             for e in row] for row in rows]


def random_rational_matrix(rng, lo=-3, hi=3):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(4)] for _ in range(4)]


def planted_quartic_point_model(seed: int, point=(1, 1, 2), entry_range=3):
    """A valid model with a known rational point on its determinantal
    quartic: the third matrix is corrected by a rank-one term so the pencil
    member at `point` acquires a kernel."""
    rng = random.Random(seed)
    p = [Fraction(v) for v in point]
    while True:
        m1 = random_rational_matrix(rng, -entry_range, entry_range)
        m2 = random_rational_matrix(rng, -entry_range, entry_range)
        m3 = random_rational_matrix(rng, -entry_range, entry_range)
        u = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        uu = sum(x * x for x in u)
        if uu == 0:
            continue
        b = [
            [p[0] * m1[j][k] + p[1] * m2[j][k] + p[2] * m3[j][k] for k in range(4)]
            for j in range(4)
        ]
        bu = [sum(b[j][k] * u[k] for k in range(4)) for j in range(4)]
        delta = [
            [Fraction(-bu[j] * u[k], p[2] * uu) for k in range(4)] for j in range(4)
        ]
        m3 = [[m3[j][k] + delta[j][k] for k in range(4)] for j in range(4)]
        try:
            model = model_from_matrices([m1, m2, m3])
            validate_model(model)
            q = determinantal_quartic(model)
        except Exception:
            continue
        pt = [cyc(v) for v in p]
        if not q.evaluate(pt).is_zero():
            continue
        if not quartic_smooth(q):
            continue
        return model, tuple(pt)


def planted_centre_point_model(seed: int):
    """A valid model with a smooth determinantal quartic whose first centre
    holds the point a of the line that centre_hilbert_polynomial tests: the
    third matrix is corrected by a rank-one term so that a^T M(c) = 0 for
    c = (1, 1, 2), which makes the rows a^T M_i dependent."""
    rng = random.Random(seed)
    a, c = [Fraction(v) for v in _LINE[0]], (1, 1, 2)
    aa = sum(v * v for v in a)
    while True:
        m1, m2, m3 = (random_rational_matrix(rng) for _ in range(3))
        w = [sum(a[j] * (c[0] * m1[j][k] + c[1] * m2[j][k] + c[2] * m3[j][k]) for j in range(4))
             for k in range(4)]
        m3 = [[m3[j][k] - a[j] * w[k] / (c[2] * aa) for k in range(4)] for j in range(4)]
        model = model_from_matrices([m1, m2, m3])
        try:
            validate_model(model)
            if quartic_smooth(determinantal_quartic(model)):
                return model
        except InputError:
            continue


def exact_hilbert_runs(monkeypatch):
    """The generator lists that reach the exact hilbert_polynomial, the
    fallback of centre_hilbert_polynomial, recorded on their way through."""
    runs = []

    def record(generators):
        runs.append(generators)
        return hilbert_polynomial(generators)

    monkeypatch.setattr(model_module, "hilbert_polynomial", record)
    return runs


def adjugate4(m):
    a = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            rows = [r for r in range(4) if r != i]
            cols = [c for c in range(4) if c != j]
            s = [[m[r][c] for c in cols] for r in rows]
            d = (
                s[0][0] * (s[1][1] * s[2][2] - s[1][2] * s[2][1])
                - s[0][1] * (s[1][0] * s[2][2] - s[1][2] * s[2][0])
                + s[0][2] * (s[1][0] * s[2][1] - s[1][1] * s[2][0])
            )
            a[j][i] = (-1) ** (i + j) * d
    return a


def singular_quartic_model(seed: int, entry_range=1):
    """A valid model whose determinantal quartic is singular at (1, 0, 0):
    the first matrix is singular and the trace pairings of its adjugate with
    the other two matrices are corrected to zero."""
    rng = random.Random(seed)
    while True:
        m1 = random_rational_matrix(rng, -entry_range, entry_range)
        m1[3] = [m1[0][k] + m1[1][k] for k in range(4)]
        adj = adjugate4(m1)
        if all(v == 0 for row in adj for v in row):
            continue
        m2 = random_rational_matrix(rng, -entry_range, entry_range)
        m3 = random_rational_matrix(rng, -entry_range, entry_range)

        def fix(m):
            t = sum(adj[i][j] * m[j][i] for i in range(4) for j in range(4))
            for i in range(4):
                for j in range(4):
                    if adj[i][j] != 0:
                        m[j][i] -= t / adj[i][j]
                        return True
            return False

        if not (fix(m2) and fix(m3)):
            continue
        try:
            model = model_from_matrices([m1, m2, m3])
            validate_model(model)
            q = determinantal_quartic(model)
        except Exception:
            continue
        p = [cyc(1), cyc(0), cyc(0)]
        if q.evaluate(p).is_zero() and all(
            derivative(q, i).evaluate(p).is_zero() for i in range(3)
        ):
            return model


def rank_one_at_vertex_model():
    """A valid model whose linear-form matrix has rank 1 at x = e0: M2 and M3
    have a zero first row, so only the first row of M1 is left there."""
    rng = random.Random(31)
    g1, g2, g3 = (random_rational_matrix(rng) for _ in range(3))
    g2[0] = [0, 0, 0, 0]
    g3[0] = [0, 0, 0, 0]
    return model_from_matrices([g1, g2, g3])


def rank_locus_oracle(m):
    """True iff the matrix of linear forms never drops to rank <= 1 on P3:
    its 2x2 minors have empty projective vanishing locus.

    The lemma that lets `smooth` read its answer off the quartic alone: say
    L(x), the 3x4 matrix with rows x^T M_i, has rank <= 1 at some x != 0.
    The a with x^T M(a) = 0 then form a space of dimension >= 2, so det M(a)
    vanishes on a line l in P2; it is not identically zero, so it is l*C
    for a cubic C, and it is singular on the nonempty l meet C.  The same
    holds on the second side, which is this oracle on m.transposed()."""
    quadrics = [f for f in leibniz_minors(coeff_matrix(m), 2) if not f.is_zero()]
    return bool(quadrics) and projective_empty(quadrics)


def _intersect(d1, d2, d3):
    """Triple intersection on X of classes x*H1 + y*H2, given as (x, y):
    H1^3 = H2^3 = 1 and H1^2*H2 = H1*H2^2 = 3."""
    numbers = {0: 1, 1: 3, 2: 3, 3: 1}  # keyed by the power of H2
    total = 0
    for i in range(2):
        for j in range(2):
            for k in range(2):
                total += d1[i] * d2[j] * d3[k] * numbers[i + j + k]
    return total


def hrr_euler(a: int, b: int) -> Fraction:
    """chi(O_X(a, b)) by Hirzebruch-Riemann-Roch on the threefold X, with
    c1 = H1 + H2 and c2.H1 = c2.H2 = 12, so c1*c2 = 24."""
    d, c1 = (a, b), (1, 1)
    c2_d = 12 * (a + b)
    return (Fraction(_intersect(d, d, d), 6) + Fraction(_intersect(c1, d, d), 4)
            + Fraction(_intersect(c1, c1, d) + c2_d, 12) + Fraction(24, 24))


def decided_table(a: int, b: int):
    """The dims of the table of O_X(a, b), or None where it is inconclusive."""
    try:
        return koszul_cohomology_on_X(a, b).dims
    except InconclusiveCohomology:
        return None


def decided_tables(span):
    """{(a, b): decided_table(a, b)} for a, b in span."""
    return {(a, b): decided_table(a, b) for a in span for b in span}


# -- oracles -------------------------------------------------------------------


def proj_equal(u, v) -> bool:
    """Projective equality: u = c*v for some nonzero scalar."""
    if len(u) != len(v):
        return False
    if all(x.is_zero() for x in u) or all(x.is_zero() for x in v):
        return False
    for i in range(len(u)):
        for j in range(len(u)):
            if not (u[i] * v[j] - u[j] * v[i]).is_zero():
                return False
    # supports must agree
    return all(x.is_zero() == y.is_zero() for x, y in zip(u, v))


def dense_sum(coeffs, matrices):
    """The matrix sum of cyc(c) * M over paired coefficients and matrices,
    entry by entry with Cyclotomic's * and +, zero entries included: an
    oracle of model.combine."""
    products = [[[cyc(c) * v for v in row] for row in mat] for c, mat in zip(coeffs, matrices)]
    return tuple(tuple(sum(terms[1:], terms[0]) for terms in zip(*rows))
                 for rows in zip(*products))


def mat_mul(a, b):
    """The matrix product of two grids of Cyclotomic entries."""
    return [[sum((x * y for x, y in zip(row, col)), cyc(0)) for col in zip(*b)] for row in a]


def action_image(mat, spec):
    """sigma . M for a form matrix M, as the matrix product D M^T for a swap
    and A M B for a diagonal action, where D (or A) and B are the diagonal
    matrices of w^weights and w^weights2."""
    n = spec.order

    def diagonal(weights):
        return [[Cyclotomic.zeta(n, r) if i == j else cyc(0) for j in range(4)]
                for i, r in enumerate(weights)]

    if spec.swap:
        return mat_mul(diagonal(spec.weights), mat_transpose(mat))
    return mat_mul(mat_mul(diagonal(spec.weights), mat), diagonal(spec.weights2))


def eigen_relation_holds(mat, spec, s: int) -> bool:
    """Whether sigma . M = w^s M for a form matrix M."""
    image, lam = action_image(mat, spec), Cyclotomic.zeta(spec.order, s)
    return all((image[j][k] - lam * mat[j][k]).is_zero() for j in range(4) for k in range(4))


def pencil_eigen_check(pencil) -> bool:
    """The eigen-relation defining the invariant pencil, on each member."""
    return all(eigen_relation_holds(mat, pencil.spec, s)
               for mat, s in zip(pencil.matrices, pencil.exponents))


def solve(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent.  Free
    variables are set to zero; with full column rank this is the unique
    solution.  rref keeps each pivot value, so the oracle divides by it."""
    ncols = len(rows[0])
    red, pivots = rref([list(r) + [v] for r, v in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [cyc(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols] * red[r][pc].inverse()
    return x


def action_matrix(m, spec):
    """The 3x3 matrix S with sigma(M_j) = sum_i S[i][j] M_i, from one solve
    per form against action_image; InputError("pencil-not-invariant") names
    the first form whose image leaves the span of the three."""
    cols = [[mat[j][k] for mat in m.matrices] for j in range(4) for k in range(4)]
    columns = []
    for j, mat in enumerate(m.matrices):
        x = solve(cols, [v for row in action_image(mat, spec) for v in row])
        if x is None:
            raise InputError(
                "pencil-not-invariant",
                "the action does not preserve the span of the three forms "
                "(form %d maps outside the pencil)" % (j + 1))
        columns.append(x)
    return [[columns[j][i] for j in range(3)] for i in range(3)]


def oracle_pencil(m, spec):
    """The exponents of an eigenbasis of the action on the pencil, ascending:
    each k in 0..n-1 at which the characteristic polynomial det(S - w^k)
    vanishes (leibniz), once per vector of the nullspace of S - w^k."""
    s = action_matrix(m, spec)
    exponents = []
    for k in range(spec.order):
        lam = Cyclotomic.zeta(spec.order, k)
        shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(s)]
        if not leibniz(shifted):
            exponents += [k] * len(nullspace(shifted))
    return exponents


def exact_rejection(bases, coeffs, rows, n: int):
    """Why a draw of the generator is rejected, on its exact forms, or None
    when it is kept: form j is the combination of bases[j] with coeffs[j],
    the pencil is changed by the integer rows, validate_model and
    determinantal_quartic refuse dependent forms and a zero pencil, and the
    quartic is kept when the images of its exact partials under _fp_image
    (groebner._mod_p_basis) have an empty projective locus mod p: a leading
    ideal with a pure power of every variable.  It shares the Groebner run
    with action._rejection, which decides on the images in F_p of the
    eigenforms instead, before the change of basis rows, and refuses a
    singular coordinate point by substitution; so it checks the eigenform
    argument, the substitution and that image arithmetic, not the run."""
    forms = [dense_sum(cs, basis) for cs, basis in zip(coeffs, bases)]
    model = ModelTriple(tuple(dense_sum(row, forms) for row in rows), n)
    try:
        validate_model(model)
        q = determinantal_quartic(model)
    except InputError as exc:
        return str(exc)
    run = _mod_p_basis([derivative(q, i) for i in range(3)])
    leads = [] if run is None else [_unpack(lm, run[1], 3) for lm, _ in run[0]]
    if all(any(m[v] == sum(m) for m in leads) for v in range(3)):
        return None
    return "determinantal quartic is singular mod p"


def lifted(text, conductor, k):
    """An instance text declared at a new conductor, each z^j written z^(kj)."""
    text = re.sub(r"^conductor = \d+$", "conductor = %d" % conductor, text, flags=re.M)
    return re.sub(r"z(?:\^(\d+))?", lambda m: "z^%d" % (k * int(m.group(1) or 1)), text)


def per_entry_model(text):
    """The model of a valid instance text with no comments, built entry by
    entry: every entry read into its terms, g the gcd of the conductor and
    every exponent of z, and every entry folded on its own into Q(zeta_M),
    M = lcm(N/g, gcd(N, order)).  An oracle of parse_instance, which reads
    and folds each distinct entry text once."""
    head = dict(re.findall(r"^(\w+) = (.*)$", text, flags=re.M))
    conductor, order = int(head["conductor"]), int(head["order"])
    grids = [[[_literal_terms(entry.strip()) for entry in line.split(",")]
              for line in section.splitlines()[1:] if line.strip()]
             for section in text.split("[matrix.")[1:]]
    g = gcd(conductor, *(e for grid in grids for row in grid for terms in row
                         for *_, e in terms if e is not None))
    field = lcm(conductor // g, gcd(conductor, order))
    return model_from_matrices([[[_fold_terms(terms, conductor, field) for terms in row]
                                 for row in grid] for grid in grids])


def fiber_section(m, side, point):
    """The fibre of the chosen projection over a point of P3 off the centre:
    the cofactor kernel vector (f0, -f1, f2, -f3) of the maximal minors,
    evaluated at the point."""
    point = [cyc(v) for v in point]
    values = [f.evaluate(point) for f in maximal_minors(coeff_matrix(m, side))]
    if all(v.is_zero() for v in values):
        raise ValueError("the point lies on the blowdown centre; its fibre is not unique")
    return (values[0], -values[1], values[2], -values[3])


def brute_force_projective_order(weights, n: int) -> int:
    """The smallest k in 1..n with diag(w^{k r_i}) scalar, that is with every
    k*r_i equal mod n, found by trying each k in turn."""
    for k in range(1, n + 1):
        if len({k * w % n for w in weights}) == 1:
            return k


def grevlex_key(mono):
    """Sort key: grevlex-larger monomials get larger keys."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def leading_term(p: MultiPoly):
    """(monomial, coefficient) of the grevlex-leading term."""
    mono = max(p.terms, key=grevlex_key)
    return mono, p.terms[mono]


def normal_form(p: MultiPoly, basis) -> MultiPoly:
    """Full remainder of p under division by the basis: the grevlex-leading
    term of what is left is cancelled by the first basis element whose
    leading monomial divides it, or else moved to the remainder."""
    remainder = Poly.zero(p.nvars)
    while p.terms:
        mono, coef = leading_term(p)
        for g in basis:
            lead, lead_coef = leading_term(g)
            if monomial_divides(lead, mono):
                shift = [a - b for a, b in zip(mono, lead)]
                p = p - g * Poly(p.nvars, {tuple(shift): coef * lead_coef.inverse()})
                break
        else:
            term = Poly(p.nvars, {mono: coef})
            remainder, p = remainder + term, p - term
    return remainder


def _unpacked(basis, w, nvars):
    return [Poly(nvars, {_unpack(m, w, nvars): c for m, c in terms.items()})
            for _, terms in basis]


def exact_basis(generators):
    """The exact Buchberger run's (non-reduced) Groebner basis of the
    generators, as polynomials: the basis whose leading monomials
    groebner.buchberger returns."""
    return _unpacked(*_exact_basis(generators))


def groebner(generators):
    """The reduced Groebner basis of the ideal the generators span: the exact
    Buchberger run, interreduced."""
    basis, w, nvars = _exact_basis(generators)
    return _unpacked(_interreduce(basis, _guard(w, nvars)), w, nvars)


def exactly_unit(generators) -> bool:
    """Whether the generators span the unit ideal over Q(zeta_N): the exact
    basis is the constant 1."""
    return any(g.degree() == 0 for g in exact_basis(generators))


def univariate_coeffs(p: MultiPoly, var: int):
    """The coefficients of a polynomial in the one variable var, constant
    term first, as Cyclotomic values."""
    coeffs = {}
    for exps, coef in p.terms.items():
        if any(e and i != var for i, e in enumerate(exps)):
            raise ValueError("polynomial is not univariate in the given variable")
        coeffs[exps[var]] = coef
    degree = max(coeffs, default=0)
    return [coeffs.get(k, cyc(0)) for k in range(degree + 1)]


def qp_eval(p, t):
    """The value at t of a polynomial in t, its coefficients constant term
    first."""
    return sum(c * t**k for k, c in enumerate(p))


def _divisors(a: int) -> set:
    """The positive divisors of a nonzero integer, by trial up to its square
    root."""
    a = abs(a)
    small = [d for d in range(1, isqrt(a) + 1) if a % d == 0]
    return set(small) | {a // d for d in small}


def rational_roots_oracle(coeffs) -> set:
    """The rational roots of a nonzero polynomial over Q(zeta_N), its
    Cyclotomic coefficients constant term first, by the rational root
    theorem.  A root is a root of each power-basis coordinate polynomial; in
    the first nonzero one, scaled to integers h_0..h_d, t = 0 is read off h_0
    and every other root is some +-u/v with u dividing the lowest nonzero h_i
    and v dividing h_d.  A candidate that is a root of h is kept when the
    whole polynomial vanishes there."""
    n = lcm(*(c.n for c in coeffs))
    column = next(col for col in zip(*(c.lift(n).coeffs for c in coeffs)) if any(col))
    scale = lcm(*(x.denominator for x in column))
    h = [int(x * scale) for x in column]
    while h[-1] == 0:
        h.pop()
    candidates = {Fraction(0)} if h[0] == 0 else set()
    low = next(x for x in h if x)
    for u in _divisors(low):
        for v in _divisors(h[-1]):
            for t in (Fraction(u, v), Fraction(-u, v)):
                if sum(x * t.numerator**k * t.denominator**(len(h) - 1 - k)
                       for k, x in enumerate(h)) == 0:
                    candidates.add(t)
    return {t for t in candidates if qp_eval(coeffs, t) == 0}


@pytest.fixture(scope="session")
def planted_model():
    return planted_quartic_point_model(seed=7)


@pytest.fixture(scope="session")
def singular_model():
    return singular_quartic_model(seed=11)
