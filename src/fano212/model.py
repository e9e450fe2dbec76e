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
from math import gcd

from .cyclotomic import cyc
from .groebner import (
    DEGREE_CAP,
    DegreeCapExceeded,
    Ideal,
    is_unit_ideal,
    projective_empty,
)
from .linalg import (
    mat_transpose,
    matrix_rank,
    nullspace,
    proj_equal,
    proj_normalize,
)
from .multipoly import MultiPoly, maximal_minors, poly_det


class Side(Enum):
    FIRST = "first"
    SECOND = "second"


class InvalidModel(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class SmoothnessInconclusive(RuntimeError):
    """The chart-wise Groebner run hit the degree cap; not a verdict."""


@dataclass(frozen=True)
class ModelTriple:
    matrices: tuple  # three 4x4 tuples of Cyclotomic
    conductor: int

    def matrix(self, i: int):
        return self.matrices[i]

    def transposed(self) -> "ModelTriple":
        return ModelTriple(
            tuple(tuple(zip(*m)) for m in self.matrices), self.conductor
        )

    def sided(self, side: Side) -> "ModelTriple":
        return self if side is Side.FIRST else self.transposed()


def model_from_matrices(ms) -> ModelTriple:
    """Build a ModelTriple from three 4x4 grids of scalars."""
    if len(ms) != 3:
        raise InvalidModel("matrix-count", "expected three matrices, got %d" % len(ms))
    matrices = []
    conductor = 1
    for idx, grid in enumerate(ms, start=1):
        rows = [list(r) for r in grid]
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise InvalidModel(
                "matrix-shape", "matrix %d is not 4x4" % idx
            )
        rows = [[cyc(v) for v in r] for r in rows]
        for r in rows:
            for v in r:
                conductor = conductor * v.n // gcd(conductor, v.n)
        matrices.append(tuple(tuple(r) for r in rows))
    return ModelTriple(tuple(matrices), conductor)


def validate_model(m: ModelTriple) -> None:
    """Reject triples whose three bilinear forms are linearly dependent."""
    rows = [[v for row in mat for v in row] for mat in m.matrices]
    if matrix_rank(rows) != 3:
        raise InvalidModel(
            "dependent-forms",
            "the three bilinear forms are linearly dependent",
        )


# -- forms and matrices of linear forms -----------------------------------------


def bilinear_forms(m: ModelTriple):
    """The three forms x^T M_i y as polynomials in x0..x3, y0..y3."""
    forms = []
    for mat in m.matrices:
        terms = {}
        for j in range(4):
            for k in range(4):
                v = mat[j][k]
                if not v.is_zero():
                    exps = [0] * 8
                    exps[j] = 1
                    exps[4 + k] = 1
                    terms[tuple(exps)] = v
        forms.append(MultiPoly(8, terms))
    return forms


def coeff_matrix(m: ModelTriple, side: Side = Side.FIRST):
    """3x4 matrix of linear forms in x0..x3; row i is x^T M_i (or x^T M_i^T)."""
    mats = m.sided(side).matrices
    rows = []
    for mat in mats:
        row = []
        for col in range(4):
            terms = {}
            for j in range(4):
                v = mat[j][col]
                if not v.is_zero():
                    exps = [0] * 4
                    exps[j] = 1
                    terms[tuple(exps)] = v
            row.append(MultiPoly(4, terms))
        rows.append(row)
    return rows


def minor_cubics(m: ModelTriple, side: Side = Side.FIRST) -> Ideal:
    """The ideal of the blowdown centre: all four 3x3 minors of coeff_matrix."""
    minors = maximal_minors(coeff_matrix(m, side))
    if all(f.is_zero() for f in minors):
        raise InvalidModel(
            "degenerate-rank",
            "all maximal minors vanish identically; matrix of linear forms has "
            "generic rank < 3",
        )
    return Ideal(list(minors))


def fiber_section(m: ModelTriple, side: Side, point):
    """The fibre of the chosen projection over a point off the centre,
    as the cofactor kernel vector (f0, -f1, f2, -f3) evaluated at the point."""
    point = [cyc(v) for v in point]
    minors = maximal_minors(coeff_matrix(m, side))
    values = [f.evaluate(point) for f in minors]
    if all(v.is_zero() for v in values):
        raise InvalidModel(
            "point-on-centre",
            "the point lies on the blowdown centre; its fibre is not unique",
        )
    return (values[0], -values[1], values[2], -values[3])


# -- the determinantal quartic ---------------------------------------------------


def determinantal_quartic(m: ModelTriple) -> MultiPoly:
    """Q(x, y, z) = det(x*M1 + y*M2 + z*M3)."""
    rows = []
    for j in range(4):
        row = []
        for k in range(4):
            terms = {}
            for i in range(3):
                v = m.matrices[i][j][k]
                if not v.is_zero():
                    exps = [0, 0, 0]
                    exps[i] = 1
                    terms[tuple(exps)] = v
            row.append(MultiPoly(3, terms))
        rows.append(row)
    q = poly_det(rows)
    if q.is_zero():
        raise InvalidModel("degenerate-pencil", "det(xM1 + yM2 + zM3) is identically zero")
    return q


def quartic_smooth(q: MultiPoly, cap: int = DEGREE_CAP) -> bool:
    """Jacobian criterion for a plane quartic: partials have no common
    projective zero."""
    if q.nvars != 3 or q.degree() != 4 or not q.is_homogeneous():
        raise ValueError("expected a homogeneous quartic in three variables")
    partials = [q.derivative(i) for i in range(3)]
    partials = [p for p in partials if not p.is_zero()]
    if len(partials) < 3:
        return False
    return projective_empty(partials, cap=cap)


def rank_locus_check(m: ModelTriple, side: Side = Side.FIRST, cap: int = DEGREE_CAP) -> bool:
    """True iff the matrix of linear forms never drops to rank <= 1 on P3:
    the 18 2x2 minors have empty projective vanishing locus."""
    rows = coeff_matrix(m, side)
    minors = []
    for r1 in range(3):
        for r2 in range(r1 + 1, 3):
            for c1 in range(4):
                for c2 in range(c1 + 1, 4):
                    minors.append(
                        rows[r1][c1] * rows[r2][c2] - rows[r1][c2] * rows[r2][c1]
                    )
    minors = [f for f in minors if not f.is_zero()]
    if not minors:
        return False
    return projective_empty(minors, cap=cap)


def full_smoothness(m: ModelTriple, cap: int = DEGREE_CAP) -> bool:
    """Chart-wise Jacobian criterion for smoothness of the complete
    intersection X in P3 x P3.

    On each of the 16 affine charts x_i = 1, y_j = 1 the ideal generated by
    the three forms and the 3x3 minors of their Jacobian in the six chart
    variables must be the unit ideal.  Raises SmoothnessInconclusive when a
    chart computation exceeds the Buchberger degree cap.
    """
    validate_model(m)
    forms = bilinear_forms(m)
    for i in range(4):
        for j in range(4):
            chart = (i, 4 + j)
            local = [f.dehomogenize(chart) for f in forms]
            variables = [v for v in range(8) if v not in chart]
            jac = [[f.derivative(v) for v in variables] for f in local]
            gens = [f for f in local if not f.is_zero()]
            for c1 in range(6):
                for c2 in range(c1 + 1, 6):
                    for c3 in range(c2 + 1, 6):
                        d = poly_det(
                            [[jac[r][c] for c in (c1, c2, c3)] for r in range(3)]
                        )
                        if not d.is_zero():
                            gens.append(d)
            try:
                if not is_unit_ideal(gens, cap=cap):
                    return False
            except DegreeCapExceeded as exc:
                raise SmoothnessInconclusive(
                    "chart x%d=1, y%d=1 exceeded the degree cap" % (i, j)
                ) from exc
    return True


# -- maps between the centre and the quartic -------------------------------------


def _pencil_matrix(m: ModelTriple, p):
    p = [cyc(v) for v in p]
    return [
        [
            p[0] * m.matrices[0][j][k]
            + p[1] * m.matrices[1][j][k]
            + p[2] * m.matrices[2][j][k]
            for k in range(4)
        ]
        for j in range(4)
    ]


def quartic_point_to_curve_point(m: ModelTriple, p, side: Side = Side.FIRST):
    """Kernel map from a point of the quartic to the sided blowdown centre.

    Side FIRST takes the kernel of (x*M1+y*M2+z*M3)^T, landing on the centre
    of the first projection; side SECOND transposes the triple first.
    """
    q = determinantal_quartic(m)
    p = [cyc(v) for v in p]
    if not q.evaluate(p).is_zero():
        raise ValueError("the point does not lie on the determinantal quartic")
    pencil = _pencil_matrix(m.sided(side), p)
    kernel = nullspace(mat_transpose(pencil))
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
    mats = m.sided(side).matrices
    rows = coeff_matrix(m, side)
    scalar_rows = [[entry.evaluate(c) for entry in row] for row in rows]
    rank = matrix_rank(scalar_rows)
    if rank != 2:
        raise ValueError(
            "matrix of linear forms has rank %d at the point, expected 2" % rank
        )
    # columns are M_i^T c; the kernel gives the pencil coefficients
    cols = []
    for j in range(4):
        cols.append(
            [
                sum((mats[i][k][j] * c[k] for k in range(4)), cyc(0))
                for i in range(3)
            ]
        )
    kernel = nullspace(cols)
    if len(kernel) != 1:
        raise ValueError("pencil coefficient kernel is not one-dimensional")
    return tuple(proj_normalize(kernel[0]))


# -- exact curve-point search ----------------------------------------------------


def _univariate_coeffs(p: MultiPoly, var: int):
    coeffs = {}
    for exps, coef in p.terms.items():
        if any(e and i != var for i, e in enumerate(exps)):
            raise ValueError("polynomial is not univariate in the given variable")
        coeffs[exps[var]] = coef
    degree = max(coeffs, default=0)
    return [coeffs.get(k, cyc(0)) for k in range(degree + 1)]


def _rational_roots(poly_coeffs, max_denominator: int = 64):
    """Exact rational roots of a univariate polynomial over Q(zeta_N),
    reconstructed from floating-point root hints and verified exactly."""
    import numpy

    degree = len(poly_coeffs) - 1
    while degree > 0 and poly_coeffs[degree].is_zero():
        degree -= 1
    if degree <= 0:
        return []
    numeric = [poly_coeffs[k].to_complex() for k in range(degree, -1, -1)]
    try:
        hints = numpy.roots(numeric)
    except Exception:
        return []
    roots = []
    for hint in hints:
        if abs(hint.imag) > 1e-8:
            continue
        candidate = Fraction(hint.real).limit_denominator(max_denominator)
        value = cyc(0)
        for k in range(degree, -1, -1):
            value = value * candidate + poly_coeffs[k]
        if value.is_zero() and candidate not in roots:
            roots.append(candidate)
    return roots


def sample_curve_points(m: ModelTriple, side: Side = Side.FIRST, seed: int = 0,
                        attempts: int = 20):
    """Search for exactly representable points on the blowdown centre.

    Each attempt slices the centre with a random hyperplane, eliminates down
    to one chart variable through resultants of two generators, and keeps
    only roots that can be reconstructed exactly.  Returns a (possibly empty)
    list of projective 4-tuples; an empty list means no representable point
    was found, which callers should report as a skipped roundtrip.
    """
    rng = random.Random(seed)
    cubics = minor_cubics(m, side).generators
    found = []
    for _ in range(attempts):
        coeffs = [rng.randint(-2, 2) for _ in range(4)]
        if not any(coeffs):
            continue
        pivot = next(i for i in range(4) if coeffs[i])
        # chart variable: set x_chart = 1 with chart != pivot
        chart = rng.choice([i for i in range(4) if i != pivot])
        free = [i for i in range(4) if i not in (pivot, chart)]
        # substitute the hyperplane solve for x_pivot and x_chart = 1
        image = MultiPoly.constant(Fraction(-coeffs[chart], coeffs[pivot]), 4)
        for i in free:
            image = image + MultiPoly.variable(i, 4) * Fraction(-coeffs[i], coeffs[pivot])
        sliced = [
            f.substitute({pivot: image}).dehomogenize([chart]) for f in cubics
        ]
        sliced = [f for f in sliced if not f.is_zero()]
        if len(sliced) < 2:
            continue
        u, v = free
        # eliminate v by pairwise resultants, treating polys in (u, v)
        elims = []
        for a in range(len(sliced)):
            for b in range(a + 1, len(sliced)):
                fa = _bivariate_in(sliced[a], u, v)
                fb = _bivariate_in(sliced[b], u, v)
                if fa is None or fb is None:
                    continue
                res = _resultant_univariate_poly(fa, fb)
                if res and not all(c.is_zero() for c in res):
                    elims.append(res)
        for elim in elims:
            for root in _rational_roots(elim):
                point_u = cyc(root)
                # back-substitute: solve for v from the sliced system
                vals = _solve_remaining(sliced, u, v, point_u)
                for point_v in vals:
                    full = [cyc(0)] * 4
                    full[chart] = cyc(1)
                    full[u] = point_u
                    full[v] = point_v
                    full[pivot] = sum(
                        (full[i] * Fraction(-coeffs[i], coeffs[pivot])
                         for i in range(4) if i != pivot),
                        cyc(0),
                    )
                    if all(f.evaluate(full).is_zero() for f in cubics):
                        candidate = tuple(proj_normalize(full))
                        if not any(
                            proj_equal(list(candidate), list(p)) for p in found
                        ):
                            found.append(candidate)
    return found


def _bivariate_in(p: MultiPoly, u: int, v: int):
    """Coefficient list of p in the variable v, entries univariate in u."""
    coeffs: dict = {}
    for exps, coef in p.terms.items():
        if any(e and i not in (u, v) for i, e in enumerate(exps)):
            return None
        bucket = coeffs.setdefault(exps[v], {})
        key = tuple(e if i == u else 0 for i, e in enumerate(exps))
        bucket[key] = coef
    degree = max(coeffs, default=0)
    return [MultiPoly(p.nvars, coeffs.get(k, {})) for k in range(degree + 1)]


def _resultant_univariate_poly(f, g):
    """Resultant in v of two coefficient lists of MultiPoly in u; returns a
    univariate coefficient list over Cyclotomic in u (dense)."""
    while len(f) > 1 and f[-1].is_zero():
        f = f[:-1]
    while len(g) > 1 and g[-1].is_zero():
        g = g[:-1]
    n, m = len(f) - 1, len(g) - 1
    if n <= 0 or m <= 0:
        return None
    size = n + m
    rows = []
    nvars = f[0].nvars
    zero = MultiPoly.zero(nvars)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    res = poly_det(rows)
    if res.is_zero():
        return None
    var = next(
        (i for exps in res.terms for i, e in enumerate(exps) if e), None
    )
    if var is None:
        return [res.terms[(0,) * nvars]]
    return _univariate_coeffs(res, var)


def _solve_remaining(sliced, u, v, point_u):
    """Exact v-values solving the sliced system at a fixed u."""
    candidates = []
    for f in sliced:
        biv = _bivariate_in(f, u, v)
        if biv is None:
            continue
        coeffs = [c.substitute({}).evaluate(_point_at(c.nvars, u, point_u)) for c in biv]
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        if len(coeffs) == 2:
            candidates.append(-coeffs[0] / coeffs[1])
        elif len(coeffs) > 2:
            for root in _rational_roots(coeffs):
                candidates.append(cyc(root))
    unique = []
    for c in candidates:
        if not any((c - o).is_zero() for o in unique):
            unique.append(c)
    return unique


def _point_at(nvars, index, value):
    point = [cyc(0)] * nvars
    point[index] = value
    return point
