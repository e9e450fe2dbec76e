"""Triples of 4x4 matrices cutting out a complete intersection of three
(1,1)-divisors in P3 x P3, the two blowdown centres, the determinantal plane
quartic, and the exact maps identifying the centres with the quartic.

Conventions.  For a triple (M1, M2, M3) the three bilinear forms are
F_i = x^T M_i y.  Side.FIRST refers to the first projection: its centre lives
in the x-copy of P3 and is cut out by the maximal minors of the 3x4 matrix
with rows x^T M_i.  Side.SECOND is the same construction on the transposed
triple, so every sided operation satisfies op(m, SECOND) = op(m^T, FIRST).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, count, permutations
from math import gcd, lcm
from operator import add

from .cyclotomic import (Cyclotomic, _fp_image, _is_prime, _pseudo_remainder,
                         _rational_reconstruction, _trim, cyc, euler_phi)
from .groebner import DegreeCapExceeded, hilbert_polynomial, projective_empty, unit_mod_p_or_q
from .linalg import mat_mul, mat_transpose, matrix_rank, nullspace, proj_normalize
from .multipoly import MultiPoly, maximal_minors, minors, poly_det


class Side(Enum):
    FIRST = "first"
    SECOND = "second"


class InputError(ValueError):
    """An input the toolkit refuses, with a short code; `cli.main` prints it as
    `error = <code>: <message>` and exits 2."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# perfbench/workloads.py catches the model errors under their old name.
InvalidModel = InputError


@dataclass(frozen=True)
class ModelTriple:
    matrices: tuple  # three 4x4 tuples of Cyclotomic
    conductor: int

    def transposed(self) -> "ModelTriple":
        return ModelTriple(
            tuple(tuple(zip(*m)) for m in self.matrices), self.conductor
        )

    def sided(self, side: Side) -> "ModelTriple":
        return self if side is Side.FIRST else self.transposed()


def model_from_matrices(ms) -> ModelTriple:
    """Build a ModelTriple from three 4x4 grids of scalars."""
    if len(ms) != 3:
        raise InputError("matrix-count", "expected three matrices, got %d" % len(ms))
    matrices = []
    for idx, grid in enumerate(ms, start=1):
        rows = [list(r) for r in grid]
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise InputError(
                "matrix-shape", "matrix %d is not 4x4" % idx
            )
        matrices.append(tuple(tuple(cyc(v) for v in r) for r in rows))
    conductor = lcm(*(v.n for mat in matrices for row in mat for v in row))
    return ModelTriple(tuple(matrices), conductor)


def validate_model(m: ModelTriple) -> None:
    """Reject triples whose three bilinear forms are linearly dependent.

    Rank 3 of the forms' image in F_p (_fp_image) certifies rank 3 over
    Q(zeta_N), as a 3x3 minor nonzero mod p is nonzero before reduction;
    only a lower rank mod p, or no image, takes the exact rank."""
    rows = [[v for row in mat for v in row] for mat in m.matrices]
    image = _fp_image(rows[0] + rows[1] + rows[2])
    if image is not None:
        prime, values = image
        if _rank_mod_p([values[:16], values[16:32], values[32:]], prime) == 3:
            return
    if matrix_rank(rows) != 3:
        raise InputError(
            "dependent-forms",
            "the three bilinear forms are linearly dependent",
        )


def _rank_mod_p(rows, prime: int) -> int:
    """The rank of a matrix of residues in [0, prime): each nonzero row in
    turn is scaled to a pivot 1 and cleared from the rows after it, and rows
    that are or become zero drop out."""
    rank, rows = 0, [r for r in rows if any(r)]
    while rows:
        top, *rows = rows
        col = next(c for c, x in enumerate(top) if x)
        f, rank = pow(top[col], -1, prime), rank + 1
        top = [x * f % prime for x in top]
        rows = [[(x - r[col] * y) % prime for x, y in zip(r, top)] if r[col] else r for r in rows]
        rows = [r for r in rows if any(r)]
    return rank


# -- the pencil, forms and matrices of linear forms -------------------------------


def combine(coeffs, matrices):
    """The 4x4 matrix sum of c * M over paired coefficients and matrices.

    A matrix whose c is not rational is multiplied out first.  Then each
    entry is one sum of integer numerators: with N the lcm of the conductors
    and D of the denominators d * den(x) of the rational c = a/d and the
    entries x, it adds a * D / (d * den(x)) times the numerators of x lifted
    to N, and is brought to lowest terms once."""
    coeffs = [cyc(c) for c in coeffs]
    base = lcm(*(c.n for c in coeffs))
    terms = [(c.num[0], c.den, mat) if c.is_rational() else
             (1, 1, tuple(tuple(c * x for x in row) for row in mat))
             for c, mat in zip(coeffs, matrices)]
    out = []
    for xs in zip(*([(a, d, x) for row in mat for x in row] for a, d, mat in terms)):
        n = lcm(base, *[x.n for _, _, x in xs])
        den = lcm(*[d * x.den for _, d, x in xs])
        scaled = [[den // (d * x.den) * a * v for v in x.lift(n).num] for a, d, x in xs
                  if a and x]
        num = tuple(map(sum, zip(*scaled))) if len(scaled) > 1 else tuple(*scaled)
        out.append(Cyclotomic._lowest(n, num or (0,) * euler_phi(n), den))
    return tuple(tuple(out[4 * j:4 * j + 4]) for j in range(4))


def _units(nvars: int):
    """Exponent tuples of the variables x_0 .. x_{nvars-1}."""
    return [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]


_X3, _X4, _X8 = _units(3), _units(4), _units(8)
# x_j * y_k in x0..x3, y0..y3, in the row-major order of a matrix's entries
_XY = [tuple(map(add, x, y)) for x in _X8[:4] for y in _X8[4:]]


def _form(coeffs, monomials) -> MultiPoly:
    """The polynomial sum of c * x^e over paired coefficients and exponent
    tuples, written as a term dict."""
    return MultiPoly._of(
        len(monomials[0]),
        {e: c for c, e in zip(coeffs, monomials) if not c.is_zero()},
    )


def bilinear_forms(m: ModelTriple):
    """The three forms x^T M_i y as polynomials in x0..x3, y0..y3."""
    return [_form([v for row in mat for v in row], _XY) for mat in m.matrices]


def coeff_matrix(m: ModelTriple, side: Side = Side.FIRST):
    """3x4 matrix of linear forms in x0..x3; row i is x^T M_i (or x^T M_i^T)."""
    return [[_form(col, _X4) for col in zip(*mat)] for mat in m.sided(side).matrices]


def minor_cubics(m: ModelTriple, side: Side = Side.FIRST) -> list:
    """Generators of the ideal of the blowdown centre: the nonzero 3x3 minors
    of coeff_matrix."""
    cubics = [f for f in maximal_minors(coeff_matrix(m, side)) if not f.is_zero()]
    if not cubics:
        raise InputError(
            "degenerate-rank",
            "all maximal minors vanish identically; matrix of linear forms has "
            "generic rank < 3",
        )
    return cubics


# the points a, b of the line {s*a + t*b} of P3 on which the centre is tested,
# and the permutations of three rows with their signs, in permutations' order
_LINE = ((1, -2, 3, 5), (2, 7, -1, 1))
_SIGNED = tuple(zip(permutations(range(3)), (1, -1, -1, 1, 1, -1)))


def centre_hilbert_polynomial(m: ModelTriple, side: Side = Side.FIRST):
    """The Hilbert polynomial of the sided centre, as hilbert_polynomial of
    minor_cubics gives it, read as 6t - 2 off a certificate mod p when one
    holds.

    The sided matrices are mapped to F_p (_fp_image), and the 3x4 matrix of
    linear forms is restricted to the line L = {s*a + t*b} (_LINE): each
    entry becomes a binary linear form and each maximal minor a binary
    cubic f_k, by the six terms of the Leibniz sum.  The certificate is rank
    6 of the 12x6 Macaulay matrix of s^2, st, t^2 times the f_k, the degree-5
    part of the ideal they generate.  A common zero of the f_k over the
    algebraic closure of F_p would be a zero of every row, which s^5 or t^5
    is not, so rank 6 proves there is none; coprime cubics reach rank 6, as
    they generate every form of degree 5 (two of them already give the
    Sylvester matrix of a nonzero resultant).  Restriction to L and the map
    to F_p are ring maps, so the f_k are the images of the minors of the
    exact matrix on L, and by the argument in _decide's docstring the centre
    misses L over Qbar too.  A centre that contains a surface meets every
    line, so V(I) has dimension at most 1: I, the ideal of maximal minors,
    has height at least 2, and at most 4 - 3 + 1 = 2 (Eagon and Northcott).
    Then the Eagon-Northcott complex 0 -> S(-4)^3 -> S(-3)^4 -> S resolves
    S/I (J. A. Eagon and D. G. Northcott, Proc. Roy. Soc. A 269, 1962;
    D. Eisenbud, The Geometry of Syzygies, Ch. 3), and
    HP(t) = C(t+3, 3) - 4 C(t, 3) + 3 C(t-1, 3) = 6t - 2.  A lower rank, or
    no image, takes the exact hilbert_polynomial."""
    image = _fp_image([v for mat in m.sided(side).matrices for row in mat for v in row])
    if image is not None:
        prime, values = image
        # entry (i, j) on L: the s and t coefficients a^T M_i e_j, b^T M_i e_j,
        # column j of M_i being values[k + j:k + 16:4] for k = 16*i
        (a0, a1, a2, a3), (b0, b1, b2, b3) = _LINE
        lines = [[(a0 * w + a1 * x + a2 * y + a3 * z, b0 * w + b1 * x + b2 * y + b3 * z)
                  for w, x, y, z in (values[k + j:k + 16:4] for j in range(4))]
                 for k in (0, 16, 32)]
        rows = []
        for cols in combinations(range(4), 3):
            cubic = [0] * 4
            for perm, sign in _SIGNED:
                # sign * (a s + b t)(c s + d t)(e s + f t)
                (a, b), (c, d), (e, f) = [lines[i][cols[k]] for i, k in enumerate(perm)]
                ac, bd, mid = sign * a * c, sign * b * d, sign * (a * d + b * c)
                cubic = [cubic[0] + ac * e, cubic[1] + ac * f + mid * e,
                         cubic[2] + mid * f + bd * e, cubic[3] + bd * f]
            cubic = [c % prime for c in cubic]
            rows += [[0] * k + cubic + [0] * (2 - k) for k in range(3)]
        if _rank_mod_p(rows, prime) == 6:
            return (Fraction(-2), Fraction(6))
    return hilbert_polynomial(minor_cubics(m, side))


# -- the determinantal quartic ---------------------------------------------------


def determinantal_quartic(m: ModelTriple) -> MultiPoly:
    """Q(x, y, z) = det(x*M1 + y*M2 + z*M3)."""
    q = poly_det([[_form(entry, _X3) for entry in zip(*rows)]
                  for rows in zip(*m.matrices)])
    if q.is_zero():
        raise InputError("degenerate-pencil", "det(xM1 + yM2 + zM3) is identically zero")
    return q


def quartic_smooth(q: MultiPoly) -> bool:
    """Jacobian criterion for a plane quartic: partials have no common
    projective zero."""
    if q.nvars != 3 or q.degree() != 4 or not q.is_homogeneous():
        raise ValueError("expected a homogeneous quartic in three variables")
    partials = [q.derivative(i) for i in range(3)]
    partials = [p for p in partials if not p.is_zero()]
    if len(partials) < 3:
        return False
    return projective_empty(partials)


def rank_locus_check(m: ModelTriple) -> bool:
    """True iff the matrix of linear forms never drops to rank <= 1 on P3:
    the 18 2x2 minors have empty projective vanishing locus.

    A smooth determinantal quartic implies True, so `smooth` asks only when
    quartic_smooth is False.  Say L(x), the 3x4 matrix with rows x^T M_i, has
    rank <= 1 at some x != 0.  The a with x^T M(a) = 0 then form a space of
    dimension >= 2, so det M(a) vanishes on a line l in P2; it is not
    identically zero (determinantal_quartic refuses that), so it is l*C for
    a cubic C, and it is singular on the nonempty l meet C.  The same holds
    on the second side, which is this check on m.transposed()."""
    quadrics = [f for f in minors(coeff_matrix(m), 2) if not f.is_zero()]
    if not quadrics:
        return False
    return projective_empty(quadrics)


def full_smoothness(m: ModelTriple) -> bool:
    """Chart-wise Jacobian criterion for smoothness of the complete
    intersection X in P3 x P3.

    On each of the 16 affine charts x_i = 1, y_j = 1 the ideal generated by
    the three forms and the 3x3 minors of their Jacobian in the six chart
    variables must be the unit ideal.  A chart passes when it is unit mod p
    or over Q (unit_mod_p_or_q: one mod-p run, then its checked lift or an
    exact run).  Raises DegreeCapExceeded, naming the chart, when an exact
    chart computation exceeds the Buchberger degree cap.

    Unit mod p alone does not make a chart unit over Q, yet the mix is
    sound.  Scale a singular point P of X over Qbar so that on each factor
    its coordinates are integral at a prime above p and one is a unit; it
    reduces to a point P' over the algebraic closure of F_p, which lies in
    some chart (i, j): x_i(P') and y_j(P') are nonzero.  Then x_i(P) and
    y_j(P) are units at that prime, so P lies in chart (i, j) too, with
    chart coordinates that are integral and reduce to those of P'.  The
    chart generators vanish at P and have integral coefficients, so their
    images vanish at P': chart (i, j) is neither unit mod p nor unit over Q,
    so it gives False.

    The 3x3 minors are those of the homogeneous Jacobian in all eight
    variables, all 56 taken in one expansion (minors) and then
    dehomogenised: setting x_i = y_j = 1 is a ring map that commutes with
    the derivative in every chart variable, so they equal the minors of the
    chart's own Jacobian, in the same order.

    The quartic decides the same question (X is smooth iff det M(a) is), and
    `smooth` answers from it; this chart-wise run shares none of that
    argument, so `smooth --full` keeps it as the independent oracle.
    """
    validate_model(m)
    forms = bilinear_forms(m)
    minor = dict(zip(combinations(range(8), 3),
                     minors([[f.derivative(v) for v in range(8)] for f in forms], 3)))
    for i in range(4):
        for j in range(4):
            chart = (i, 4 + j)
            variables = [v for v in range(8) if v not in chart]
            gens = [f.dehomogenize(chart) for f in forms]
            gens += [minor[cols].dehomogenize(chart) for cols in combinations(variables, 3)]
            gens = [f for f in gens if not f.is_zero()]
            try:
                if not unit_mod_p_or_q(gens):
                    return False
            except DegreeCapExceeded as exc:
                raise DegreeCapExceeded(
                    "chart x%d=1, y%d=1 exceeded the degree cap: %s" % (i, j, exc)
                ) from exc
    return True


# -- maps between the centre and the quartic -------------------------------------


def quartic_point_to_curve_point(m: ModelTriple, p, side: Side = Side.FIRST):
    """Kernel map from a point of the quartic to the sided blowdown centre.

    Side FIRST takes the kernel of (x*M1+y*M2+z*M3)^T, landing on the centre
    of the first projection; side SECOND transposes the triple first.  The
    point lies on the quartic exactly when that determinant vanishes, that
    is, when the kernel is not zero.
    """
    pencil = combine([cyc(v) for v in p], m.sided(side).matrices)
    kernel = nullspace(mat_transpose(pencil))
    if not kernel:
        raise ValueError("the point does not lie on the determinantal quartic")
    if len(kernel) != 1:
        raise ValueError(
            "kernel of the pencil matrix is %d-dimensional, expected 1"
            % len(kernel)
        )
    return tuple(proj_normalize(kernel[0]))


def curve_point_to_quartic_point(m: ModelTriple, c, side: Side = Side.FIRST):
    """Inverse kernel map: a point on the sided centre determines the unique
    pencil member [x:y:z] whose matrix annihilates it."""
    c = [cyc(v) for v in c]
    # row i is c^T M_i, the matrix of linear forms at c
    scalar_rows = [mat_mul([c], mat)[0] for mat in m.sided(side).matrices]
    # the kernel of the columns gives the pencil coefficients, and the rank,
    # 3 minus its dimension
    kernel = nullspace(mat_transpose(scalar_rows))
    if len(kernel) != 1:
        raise ValueError("matrix of linear forms has rank %d at the point, expected 2"
                         % (3 - len(kernel)))
    return tuple(proj_normalize(kernel[0]))


# -- exact curve-point search ----------------------------------------------------


def _primitive_gcd(a, b):
    """A gcd in Z[x] of two dense integer polynomials (constant term first),
    b without zero leading coefficients, by Brown's primitive PRS: each
    pseudo-remainder (_pseudo_remainder) is divided by its content.  A step
    scales by nonzero integers, which leaves the common divisors over Q as
    they are, so the result is a nonzero rational multiple of the gcd over
    Q."""
    while b:
        a, b = b, _pseudo_remainder(a, [], b, [])[0]
    return a


def _horner(coeffs, x):
    value = 0
    for c in reversed(coeffs):
        value = value * x + c
    return value


def _rational_roots(coeffs):
    """Every rational root of a nonzero polynomial over Q(zeta_N), given by
    its Cyclotomic coefficients (constant term first), in no fixed order.

    A rational t is a root iff it is a root of every power-basis coordinate
    polynomial, read here in integers: the numerators at the lcm conductor,
    scaled to the lcm denominator.  Their gcd g in Z[x] (_primitive_gcd),
    with its content divided out, is primitive, so by Gauss's lemma it
    divides each of them in Z[x] and has the roots of their gcd over Q.  The
    root t = 0 is read off g and divided out.  The squarefree part
    g / gcd(g, g') is the cofactor of one pseudo-division of g by
    d = gcd(g, g'): as d divides g the remainder is 0, so c*g = q*d for the
    integer c the division scales by, and the cofactor -q, made primitive,
    is that part up to sign.  Its coefficients a_0..a_d have a_0 != 0, so a
    root u/v in lowest terms has |u| <= |a_0| and v | a_d.

    Why every root is found: take the least prime p not dividing a_d at which
    every root of g mod p is simple (any p dividing neither a_d nor the
    nonzero discriminant of g qualifies, so the search ends).  As v is a unit
    mod p, u/v reduces to a root mod p, a simple one, so its Hensel (Newton)
    lift to p^k is unique and is u/v mod p^k.  Once p^k > 2|a_0||a_d|, two
    fractions with numerators at most |a_0| and denominators at most |a_d|
    that are congruent mod p^k are equal, and u/v is a convergent of
    lift/p^k (Legendre, as 2|u|v < p^k), so _rational_reconstruction of the
    lift with bounds |a_0| and |a_d| returns it.  Every candidate is checked
    exactly, so nothing else is returned.
    """
    n = lcm(*(c.n for c in coeffs))
    den = lcm(*(c.den for c in coeffs))
    rows = [[den // c.den * v for v in c.lift(n).num] for c in coeffs]
    g = []
    for column in zip(*rows):
        g = _primitive_gcd(g, _trim(column))
    if not g:
        raise ValueError("the zero polynomial vanishes at every t")
    content = gcd(*g)
    g = [c // content for c in g]
    roots = [Fraction(0)] if g[0] == 0 else []
    while g[0] == 0:
        g = g[1:]
    d = _primitive_gcd(g, [k * c for k, c in enumerate(g)][1:])
    a = _pseudo_remainder(g, [0], d, [1])[1]
    if len(a) < 2:
        return roots
    da = [k * c for k, c in enumerate(a)][1:]
    for p in count(2):
        if _is_prime(p) and a[-1] % p:
            residues = [r for r in range(p) if _horner(a, r) % p == 0]
            if all(_horner(da, r) % p for r in residues):
                break
    for r in residues:
        m = p
        while m <= 2 * abs(a[0] * a[-1]):
            m *= m
            r = (r - _horner(a, r) * pow(_horner(da, r), -1, m)) % m
        root = _rational_reconstruction(r, m, abs(a[0]), abs(a[-1]))
        if root is not None and _horner(a, root) == 0:
            roots.append(root)
    return roots


def _line_quartic(q: MultiPoly, a, b) -> list:
    """q(a + t*b) for a polynomial q in three variables and integer points
    a, b: its coefficients in t, constant first, up to the last nonzero one.
    The t^j coefficient is one integer sum, over the terms c*x^e, of the
    numerators of c (over the lcm of the conductors and of the denominators)
    times the t^j coefficient of prod (a_i + t*b_i)^e_i, reduced once."""
    n = lcm(*(c.n for c in q.terms.values()))
    den = lcm(*(c.den for c in q.terms.values()))
    sums = [[0] * euler_phi(n) for _ in range(q.degree() + 1)]
    for e, c in q.terms.items():
        line = [den // c.den]
        for x, y, k in zip(a, b, e):
            for _ in range(k):
                line = [x * u + y * v for u, v in zip(line + [0], [0] + line)]
        num = c.lift(n).num
        for total, w in zip(sums, line):
            if w:
                total[:] = [s + w * v for s, v in zip(total, num)]
    coeffs = [Cyclotomic._lowest(n, tuple(total), den) for total in sums]
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def sample_curve_points(m: ModelTriple, side: Side = Side.FIRST, seed: int = 0,
                        attempts: int = 20):
    """Search for rational points on the blowdown centre.

    Each attempt draws two points a, b of P2 with coordinates in -2..2 and
    restricts the determinantal quartic q, computed once, to the line a + t*b
    as q(a + t*b), a polynomial in the one variable t (_line_quartic); it
    equals det(A + t*B) for the pencil members A at a and B at b, as the
    pencil matrix is linear in its coefficients.  It takes the exact
    rational roots t (a line on which the quartic is constant in t is
    skipped), and maps each point a + t*b to the sided centre with
    quartic_point_to_curve_point, once per point of P2.  Proportional draws
    (a = 0 among them) span no line and can give only the zero vector, so
    they are skipped.  A point where that map raises ValueError has a kernel
    of dimension other than one, a singular point of the quartic, and is
    skipped.  For a rational model the kernel map is a
    bijection over Q between the smooth quartic and the centre, so the points
    this can find are exactly the rational points of the centre.  Returns a
    (possibly empty) list of projective 4-tuples; an empty list means no
    point was found, which callers should report as a skipped roundtrip.
    """
    rng = random.Random(seed)
    q = determinantal_quartic(m)  # refuses a degenerate pencil
    found, seen = [], set()
    for _ in range(attempts):
        a = [rng.randint(-2, 2) for _ in range(3)]
        b = [rng.randint(-2, 2) for _ in range(3)]
        if not any(a[i] * b[j] - a[j] * b[i] for i, j in ((0, 1), (0, 2), (1, 2))):
            continue
        coeffs = _line_quartic(q, a, b)
        if len(coeffs) < 2:
            continue
        for root in _rational_roots(coeffs):
            point = [a[i] + root * b[i] for i in range(3)]
            key = tuple(v / next(u for u in point if u) for v in point)
            if key in seen:
                continue
            seen.add(key)
            try:
                c = quartic_point_to_curve_point(m, point, side)
            except ValueError:
                continue
            # proj_normalize sets the first nonzero coordinate to 1, so
            # equal points are equal tuples
            if c not in found:
                found.append(c)
    return found
