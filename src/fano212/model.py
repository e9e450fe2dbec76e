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
from functools import cached_property
from fractions import Fraction
from itertools import combinations, count
from math import gcd, lcm
from operator import add, mul

from .cyclotomic import (Cyclotomic, _fp_image, _is_prime, _pseudo_remainder,
                         _rational_reconstruction, _trim, cyc, euler_phi)
from .groebner import (DegreeCapExceeded, _holds_mod_p, _is_unit, _mod_p_run, empty_mod_p,
                       hilbert_polynomial, projective_empty, unit_mod_p_or_q)
from .linalg import mat_transpose, matrix_rank, nullspace, proj_normalize
from .multipoly import MultiPoly, _balanced_digits, _derivative, _restrict, minors, poly_det


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

    @cached_property
    def image(self):
        """(p, grids): the images in F_p of the entries, from one _fp_image
        call on the model's first read, in the matrices' own shape, so
        grids[k][a][b] is the image of matrices[k][a][b]; None when there is
        no image."""
        image = _fp_image([v for mat in self.matrices for row in mat for v in row])
        if image is None:
            return None
        prime, values = image
        return prime, [[values[k:k + 4] for k in range(a, a + 16, 4)] for a in (0, 16, 32)]

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
    Rank 3 of the forms' image in F_p (m.image) certifies rank 3 over
    Q(zeta_N), as a 3x3 minor nonzero mod p is nonzero before reduction;
    only a lower rank mod p, or no image, takes the exact rank."""
    if m.image is not None:
        prime, grids = m.image
        if matrix_rank([[v for row in mat for v in row] for mat in grids], prime) == 3:
            return
    if matrix_rank([[v for row in mat for v in row] for mat in m.matrices]) != 3:
        raise InputError(
            "dependent-forms",
            "the three bilinear forms are linearly dependent",
        )


# -- the pencil, forms and matrices of linear forms -------------------------------


def _nonzero_entries(matrices):
    """The nonzero entries (k, e, value) of the matrices, e row-major in
    matrices[k]: the terms that combine sums.  Listed sparse, as a dense
    image of the generator's eigenbasis took 2-3x as long, and its sums
    6x."""
    return [(k, e, v) for k, mat in enumerate(matrices)
            for e, v in enumerate(v for row in mat for v in row) if v]


def combine(rows, entries, shape):
    """For each coefficient row cs, the matrix of the given shape (height,
    width) whose entry e is the sum of cs[k] * v over the nonzero entries
    (k, e, v) of the matrices M_k (_nonzero_entries): the sum of c * M_k.

    A coefficient is an int, Fraction or Cyclotomic, read once per row; one
    that is not rational multiplies its values out first.  With N the lcm
    of the conductors of the entries and of the row's coefficients, each
    entry is then one integer sum of the numerators lifted to N, scaled by
    a/d for a rational c = a/d, over the lcm denominator, brought to lowest
    terms once."""
    base, (height, width) = lcm(*(v.n for _, _, v in entries)), shape
    out = []
    for cs in rows:
        n = lcm(base, *(c.n for c in cs if isinstance(c, Cyclotomic)))
        scales = [(c.numerator, c.denominator) if not isinstance(c, Cyclotomic)
                  else (c.num[0], c.den) if c.is_rational() else c for c in cs]
        parts = [[] for _ in range(height * width)]
        for k, e, v in entries:
            c = scales[k]
            if isinstance(c, Cyclotomic):
                (a, d), v = (1, 1), c * v
            else:
                a, d = c
            if a:
                parts[e].append((a, d, v))
        form = []
        for part in parts:
            den = lcm(*[d * v.den for _, d, v in part])
            scaled = [[den // (d * v.den) * a * x for x in v.lift(n).num] for a, d, v in part]
            num = tuple(map(sum, zip(*scaled))) if len(scaled) > 1 else tuple(*scaled)
            form.append(Cyclotomic._lowest(n, num or (0,) * euler_phi(n), den))
        out.append(tuple(tuple(form[j:j + width]) for j in range(0, len(form), width)))
    return tuple(out)


def _units(nvars: int):
    """Exponent tuples of the variables x_0 .. x_{nvars-1}."""
    return [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]


_X2, _X3, _X4, _X8 = _units(2), _units(3), _units(4), _units(8)
# x_j * y_k in x0..x3, y0..y3, in the row-major order of a matrix's entries
_XY = [tuple(map(add, x, y)) for x in _X8[:4] for y in _X8[4:]]


def _form(coeffs, monomials) -> dict:
    """The sum of c * x^e over paired coefficients, Cyclotomic or residues,
    and exponent tuples, as a term dict with no zero coefficient: an entry
    of the matrices whose minors (multipoly.minors) are taken on either
    ring."""
    return {e: c for c, e in zip(coeffs, monomials) if c}


def _pencil(grids) -> list:
    """The 4x4 matrix x*M1 + y*M2 + z*M3 of term dicts (_form) in x, y, z."""
    return [[_form(entry, _X3) for entry in zip(*rows)] for rows in zip(*grids)]


def _jacobian(grids) -> list:
    """The 3x8 Jacobian of the forms x^T M_k y as term dicts (_form) in
    x0..x3, y0..y3: row k is grad_x F_k = M_k y, then grad_y F_k = M_k^T x."""
    return [[_form(row, _X8[4:]) for row in mat] + [_form(col, _X8[:4]) for col in zip(*mat)]
            for mat in grids]


_WITHOUT = [tuple(c for c in range(4) if c != i) for i in range(4)]


def minor_cubics(m: ModelTriple, side: Side = Side.FIRST) -> list:
    """Generators of the ideal of the blowdown centre: the nonzero 3x3 minors,
    the one without column i at place i (_WITHOUT), of the 3x4 matrix of
    linear forms in x0..x3 with row i x^T M_i (x^T M_i^T on side SECOND)."""
    rows = [[_form(col, _X4) for col in zip(*mat)] for mat in m.sided(side).matrices]
    cubics = [MultiPoly(4, f) for f in minors(rows, _WITHOUT) if f]
    if not cubics:
        raise InputError(
            "degenerate-rank",
            "all maximal minors vanish identically; matrix of linear forms has "
            "generic rank < 3",
        )
    return cubics


# the points a, b of the line {s*a + t*b} of P3 on which the centre is tested
_LINE = ((1, -2, 3, 5), (2, 7, -1, 1))


def centre_hilbert_polynomial(m: ModelTriple, side: Side = Side.FIRST):
    """The Hilbert polynomial of the sided centre, as hilbert_polynomial of
    minor_cubics gives it, read as 6t - 2 off a certificate mod p when one
    holds.

    The model's image in F_p (.image), its grids transposed for side
    SECOND, gives the sided matrices there, and the 3x4 matrix of
    linear forms is restricted to the line L = {s*a + t*b} (_LINE), each
    entry a binary linear form; its maximal minors (minors, mod p) are
    binary cubics.  Restriction to L and the map to F_p are ring maps, so
    the cubics are the images of the minors of the exact matrix on L; when
    empty_mod_p finds no common zero of them the centre misses L over Qbar
    (_decide).  A centre that contains a surface meets every line, so V(I)
    has dimension at most 1: I, the ideal of maximal minors, has height at
    least 2, and at most 4 - 3 + 1 = 2 (Eagon and Northcott).  Then the
    Eagon-Northcott complex 0 -> S(-4)^3 -> S(-3)^4 -> S resolves S/I
    (J. A. Eagon and D. G. Northcott, Proc. Roy. Soc. A 269, 1962;
    D. Eisenbud, The Geometry of Syzygies, Ch. 3), and
    HP(t) = C(t+3, 3) - 4 C(t, 3) + 3 C(t-1, 3) = 6t - 2.  A common zero mod
    p, or no image, takes the exact hilbert_polynomial."""
    if m.image is not None:
        prime, grids = m.image
        if side is Side.SECOND:
            grids = [list(zip(*mat)) for mat in grids]
        # entry (i, j) on L: s * a^T M_i e_j + t * b^T M_i e_j, in s, t
        lines = [[_form([sum(map(mul, point, col)) for point in _LINE], _X2) for col in zip(*mat)]
                 for mat in grids]
        cubics = minors(lines, list(combinations(range(4), 3)), prime)
        if empty_mod_p([f for f in cubics if f], 2, prime):
            return (Fraction(-2), Fraction(6))
    return hilbert_polynomial(minor_cubics(m, side))


# -- the determinantal quartic ---------------------------------------------------


def determinantal_quartic(m: ModelTriple) -> MultiPoly:
    """Q(x, y, z) = det(x*M1 + y*M2 + z*M3)."""
    q = MultiPoly(3, poly_det(_pencil(m.matrices)))
    if q.is_zero():
        raise InputError("degenerate-pencil", "det(xM1 + yM2 + zM3) is identically zero")
    return q


_AT_POINT = [[tuple(3 * (k == j) + (k == i) for k in range(3)) for i in range(3)]
             for j in range(3)]


def _singular_at_coordinate_point(q: dict) -> bool:
    """Whether a ternary quartic q, a term dict over Q(zeta_N) or mod a
    prime p > 4, is singular at a coordinate point e_j of P2.  There
    dq/dx_i is the coefficient of x_j^3 * x_i (of x_j^4, times 4, for
    i = j), the three monomials of _AT_POINT[j], so e_j is a common zero of
    the partials exactly when q has none of them; q = 0 is such a quartic."""
    return any(not any(e in q for e in monomials) for monomials in _AT_POINT)


def quartic_smooth(q: MultiPoly) -> bool:
    """Jacobian criterion for a plane quartic: partials have no common
    projective zero.  A singular coordinate point is found by substitution
    (_singular_at_coordinate_point), with no Groebner run; a zero partial
    means q lacks that variable, so its coordinate point is one."""
    if q.nvars != 3 or q.degree() != 4 or not q.is_homogeneous():
        raise ValueError("expected a homogeneous quartic in three variables")
    if _singular_at_coordinate_point(q.terms):
        return False
    return projective_empty([MultiPoly(3, _derivative(q.terms, i)) for i in range(3)])


def _smooth_image(grids, prime):
    """(q, smooth): the image q in F_p of the quartic det(x*M1 + y*M2 +
    z*M3) of the images grids of three 4x4 matrices (minors mod p on
    _pencil, as determinantal_quartic over Q(zeta_N)), and whether q proves
    that quartic smooth over Qbar: its partials have no common zero over the
    algebraic closure of F_p.  Reduction mod p commutes with det and
    derivatives, so these are the images of the exact partials, and an
    empty locus mod p is one over Qbar (groebner._decide).  A q singular at
    a coordinate point is refused by substitution
    (_singular_at_coordinate_point); any other q goes to empty_mod_p."""
    q = minors(_pencil(grids), [(0, 1, 2, 3)], prime)[0]
    if _singular_at_coordinate_point(q):
        return q, False
    return q, empty_mod_p([d for d in (_derivative(q, i) for i in range(3)) if d], 3, prime)


def determinantal_quartic_smooth(m: ModelTriple) -> bool:
    """Whether the determinantal quartic of m is smooth, by the first rung
    that answers: a True of its image in F_p (_smooth_image, on m.image),
    else quartic_smooth on the exact quartic, which determinantal_quartic
    refuses when it is identically zero."""
    image = m.image
    if image is not None and _smooth_image(image[1], image[0])[1]:
        return True
    return quartic_smooth(determinantal_quartic(m))


# the cells (i, j) of P3 x P3, in the order of their charts x_i = 1, y_j = 1,
# and the column subsets of a 3x8 matrix, in lexicographic order
_CELLS = [(i, j) for i in range(4) for j in range(4)]
_TRIPLES = list(combinations(range(8), 3))


def _singular_coordinate_point(m: ModelTriple, i: int, j: int) -> bool:
    """Whether the coordinate point (e_i, e_j) is a singular point of X
    (full_smoothness, step 1).  Where every M_k[i][j] is 0 the Jacobian of
    the forms is the scalar 3x8 matrix with row k (column j of M_k, row i of
    M_k), as grad_x F_k = M_k y and grad_y F_k = M_k^T x.  Rank 3 of its
    image (m.image; matrix_rank) certifies rank 3; a lower rank mod p, or no
    image, is confirmed by the exact matrix_rank, whose elimination takes no
    inverse."""
    def jacobian(grids):  # on either ring: row k is column j of M_k, then row i
        return [[row[j] for row in mat] + list(mat[i]) for mat in grids]

    if any(mat[i][j] for mat in m.matrices):
        return False
    if m.image is not None and matrix_rank(jacobian(m.image[1]), m.image[0]) == 3:
        return False
    return matrix_rank(jacobian(m.matrices)) < 3


def _chart_terms(grids, prime=None):
    """(forms, minor): the forms x^T M_k y and the 56 3x3 minors of their
    Jacobian (_jacobian), keyed by column triple, as term dicts in x0..x3,
    y0..y3 over the ring of the entries grids, mod prime when it is given."""
    forms = [_form([v for row in mat for v in row], _XY) for mat in grids]
    return forms, dict(zip(_TRIPLES, minors(_jacobian(grids), _TRIPLES, prime)))


def full_smoothness(m: ModelTriple) -> bool:
    """Chart-wise Jacobian criterion for smoothness of the complete
    intersection X in P3 x P3, decided over the 16 coordinate strata.

    X is smooth iff on each affine chart x_i = 1, y_j = 1 the three forms
    and the 3x3 minors of their Jacobian in the six chart variables
    generate the unit ideal.  Those minors are the ones of the homogeneous
    Jacobian in all eight variables without the columns x_i and y_j,
    dehomogenised: setting x_i = y_j = 1 is a ring map that commutes with
    the derivative in every chart variable.  The stratum S_ij is the part of
    chart (i, j) where x_0 .. x_(i-1) and y_0 .. y_(j-1) are 0, and its
    generators are the chart's, restricted there (_restrict).  Then:

    1. Each coordinate point (e_i, e_j) is decided exactly, by substitution
       (_singular_coordinate_point): it lies on X iff every M_k[i][j] is 0,
       and it is singular iff the scalar 3x8 Jacobian there has rank below
       3.  By Euler's relation, sum_a x_a dF/dx_a = F = 0 on X, the column
       of x_i lies in the span of the other x columns, and the column of y_j
       in that of the other y columns, so that rank is the chart
       Jacobian's.  A singular one answers False with no Groebner run.
    2. One loop over the 16 cells.  The 48 entries are mapped to F_p once
       (m.image, at the prime of _fp_field(N), N the lcm of the entries'
       conductors), the forms and the 56 minors are taken mod p from those
       images (_chart_terms, the builder of the exact ones), and
       each stratum restricts them, as reduction commutes with setting
       variables to 0 or 1.  A cell whose stratum is unit mod p is done.
    3. Any other cell runs the ladder of chart (i, j) (unit_mod_p_or_q: the
       chart's mod-p run at the same prime, then its checked lift or an
       exact run), and a False there is final.  Stratum (0, 0) is chart
       (0, 0), so that cell reuses its run.  Another chart holds its
       stratum, so its run mod p serves only the lift, which refuses a
       form that is not rational: it runs only if all 48 entries are.  The
       first fallback builds the exact forms and all 56 exact minors, with
       the same _chart_terms, and each chart restricts them.

    Cover and soundness.  Over any field each point of P3 x P3 lies in
    exactly one S_ij: i and j index its first nonzero coordinates.  Take a
    singular point P of X over Qbar, scaled so that on each factor its
    coordinates are integral at a prime above p and one is a unit.  It
    reduces to a point P' over the algebraic closure of F_p, which lies in
    one S_ij.  x_i(P') and y_j(P') are nonzero, so x_i(P) and y_j(P) are
    units at the prime: P can be normalised to x_i = y_j = 1, it lies in
    chart (i, j), and its chart coordinates are integral and reduce to
    those of P'.  The chart generators vanish at P and have integral
    coefficients, so their images vanish at P'.  At P', where x_k = 0 for
    k < i and y_k = 0 for k < j, the stratum generators are those same
    images, so S_ij is not unit mod p and cell (i, j) falls back.

    Why the fallback may use the chart, mod p or over Q: P lies in chart
    (i, j), so the chart is not unit over Q, and P' lies in it, so it is
    not unit mod p either; its ladder answers False.  A stratum decided
    over Q would not do, and none is: a stratum holds only its own
    Qbar-points, and P may lie in another stratum than P' (x_0(P) = p,
    x_1(P) = 1 puts P in S_0j and P' in S_1j), so a stratum unit over Q
    says nothing of the P' in it.

    Why one prime: the argument reduces P at one p and needs the cell of
    P' to have been tested at that p.  A cell tested at another prime q
    could miss P, whose reduction mod q may lie in another cell, and so
    could every cell at its own prime.  _fp_image takes its prime from the
    conductors of the values it is given, so a stratum whose zeta_N entries
    were all set to 0 would get another one; here every mod-p answer, the
    coordinate points' ranks included, comes from one image.

    Raises DegreeCapExceeded, naming the chart, when an exact chart
    computation exceeds the Buchberger degree cap.  The quartic decides the
    same question (X is smooth iff det M(a) is: cli.cmd_smooth), and
    `smooth` answers from it; this run shares none of that argument, so
    `smooth --full` keeps it as the independent oracle.
    """
    validate_model(m)
    if any(_singular_coordinate_point(m, i, j) for i, j in _CELLS):
        return False
    image = m.image
    if image is not None:
        prime, grids = image
        terms_p = _chart_terms(grids, prime)
    rational = all(v.is_rational() for mat in m.matrices for row in mat for v in row)

    def restricted(terms, chart, zeros, subsets):
        forms, minor = terms
        return [_restrict(f, chart, zeros) for f in forms + [minor[cols] for cols in subsets]]

    def mod_p_run(chart, zeros, subsets):
        return _mod_p_run([f for f in restricted(terms_p, chart, zeros, subsets) if f], 8, prime)

    terms = None
    for i, j in _CELLS:
        chart, zeros = (i, 4 + j), (*range(i), *range(4, 4 + j))
        subsets = [cols for cols in _TRIPLES if i not in cols and 4 + j not in cols]
        run = None
        if image is not None:
            run = mod_p_run(chart, zeros, subsets)
            if _holds_mod_p(run, _is_unit):
                continue
            if zeros:  # stratum (0, 0) is chart (0, 0): its run is the chart's
                run = mod_p_run(chart, (), subsets) if rational else None
        terms = terms or _chart_terms(m.matrices)
        gens = [MultiPoly(8, f) for f in restricted(terms, chart, (), subsets)]
        try:
            if not unit_mod_p_or_q(gens, run):
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
    pencil = combine([p], _nonzero_entries(m.sided(side).matrices), (4, 4))[0]
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
    # row i is c^T M_i, the matrix of linear forms at c
    mats = m.sided(side).matrices
    entries = _nonzero_entries([[mat[k] for mat in mats] for k in range(4)])
    scalar_rows = combine([c], entries, (3, 4))[0]
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
    Each power (a_i + t*b_i)^k is built once per line as one integer at
    t = 2^w (Kronecker), so each term c*x^e multiplies three of them, times
    the numerators of c over the lcm of the conductors and denominators.  A
    t^j coefficient of such a product is at most M^d in size, d = deg q and
    M >= 1 the largest |a_i| + |b_i|; times the sum of all the numerators'
    sizes it is below 2^(w-1), so the sums' balanced base-2^w digits
    (_balanced_digits) are the coefficients, each reduced once."""
    n = lcm(*(c.n for c in q.terms.values()))
    den = lcm(*(c.den for c in q.terms.values()))
    deg = q.degree()
    nums = [(e, [den // c.den * x for x in c.lift(n).num]) for e, c in q.terms.items()]
    top = max(1, *(abs(x) + abs(y) for x, y in zip(a, b))) ** deg
    w = (top * sum(abs(x) for _, num in nums for x in num)).bit_length() + 1
    powers = [[(x + (y << w)) ** k for k in range(deg + 1)] for x, y in zip(a, b)]
    sums = [0] * euler_phi(n)
    for (i, j, k), num in nums:
        v = powers[0][i] * powers[1][j] * powers[2][k]
        for r, x in enumerate(num):
            sums[r] += x * v
    digits = [_balanced_digits(v, deg + 1, w) for v in sums]
    coeffs = [Cyclotomic._lowest(n, column, den) for column in zip(*digits)]
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
