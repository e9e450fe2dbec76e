"""Sparse multivariate polynomials over cyclotomic coefficients.

Terms map exponent tuples to nonzero Cyclotomic coefficients; the zero
polynomial has an empty term map.  Includes the one cofactor determinant,
for small matrices of scalars or polynomials, and the minors of polynomial
matrices.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .cyclotomic import Cyclotomic, cyc


class MultiPoly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        clean = {}
        if terms:
            for exps, coef in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError("exponent vector %r has wrong arity" % (exps,))
                _accumulate(clean, exps, cyc(coef))
        _set_nvars(self, nvars)
        _set_terms(self, clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, nvars: int, terms: dict) -> "MultiPoly":
        """Trusted fast constructor; terms must map nvars-tuples to nonzero
        Cyclotomic coefficients."""
        out = object.__new__(cls)
        _set_nvars(out, nvars)
        _set_terms(out, terms)
        return out

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, value, nvars: int) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: cyc(value)})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "MultiPoly":
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, coef, exps) -> "MultiPoly":
        exps = tuple(exps)
        return cls(len(exps), {exps: cyc(coef)})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("arity mismatch: %d vs %d" % (self.nvars, other.nvars))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = MultiPoly.constant(other, self.nvars)
        self._check(other)
        terms = dict(self.terms)
        for exps, coef in other.terms.items():
            _accumulate(terms, exps, coef)
        return MultiPoly._of(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            other = MultiPoly.constant(other, self.nvars)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            scalar = cyc(other)
            if scalar.is_zero():
                return MultiPoly.zero(self.nvars)
            return MultiPoly._of(self.nvars, {e: c * scalar for e, c in self.terms.items()})
        self._check(other)
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return MultiPoly._of(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.constant(1, self.nvars)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.nvars != other.nvars or len(self.terms) != len(other.terms):
            return False
        for exps, coef in self.terms.items():
            oc = other.terms.get(exps)
            if oc is None or not (oc - coef).is_zero():
                return False
        return True

    __hash__ = None

    # -- evaluation & substitution ------------------------------------------

    def evaluate(self, point) -> Cyclotomic:
        point = [cyc(v) for v in point]
        if len(point) != self.nvars:
            raise ValueError("point has wrong arity")
        return sum(self.scale_vars(point).terms.values(), cyc(0))

    def substitute(self, images: dict) -> "MultiPoly":
        """Ring substitution; images maps variable index -> MultiPoly."""
        for img in images.values():
            if img.nvars != self.nvars:
                raise ValueError("substitution image has wrong arity")
        total = MultiPoly.zero(self.nvars)
        powers = {}
        for exps, coef in self.terms.items():
            part = MultiPoly.constant(coef, self.nvars)
            rest = [0] * self.nvars
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i in images:
                    power = powers.get((i, e))
                    if power is None:
                        power = powers[(i, e)] = images[i] ** e
                    part = part * power
                else:
                    rest[i] = e
            if any(rest):
                part = part * MultiPoly.monomial(1, rest)
            total = total + part
        return total

    def scale_vars(self, scalars) -> "MultiPoly":
        """Substitute x_i -> scalars[i] * x_i (fast path for diagonal actions)."""
        scalars = [cyc(s) for s in scalars]
        terms = {}
        for exps, coef in self.terms.items():
            factor = coef
            for s, e in zip(scalars, exps):
                if e:
                    factor = factor * s**e
            if factor:
                terms[exps] = factor
        return MultiPoly._of(self.nvars, terms)

    def derivative(self, index: int) -> "MultiPoly":
        terms = {}
        for exps, coef in self.terms.items():
            e = exps[index]
            if e:
                new = list(exps)
                new[index] = e - 1
                terms[tuple(new)] = coef * e
        return MultiPoly(self.nvars, terms)

    def dehomogenize(self, chart) -> "MultiPoly":
        """Substitute 1 for every variable index in `chart`."""
        chart = set(chart)
        if any(i < 0 or i >= self.nvars for i in chart):
            raise ValueError("chart index out of range")
        terms: dict = {}
        for exps, coef in self.terms.items():
            new = tuple(0 if i in chart else e for i, e in enumerate(exps))
            _accumulate(terms, new, coef)
        return MultiPoly._of(self.nvars, terms)

    def __repr__(self):
        return "MultiPoly(%d, %r)" % (self.nvars, self.terms)


_set_nvars, _set_terms = (MultiPoly.__dict__[s].__set__ for s in MultiPoly.__slots__)


def _accumulate(terms: dict, exps, coef) -> None:
    """terms[exps] += coef, dropping the term when the sum is zero."""
    if exps in terms:
        coef = terms[exps] + coef
    if coef:
        terms[exps] = coef
    else:
        terms.pop(exps, None)


# -- polynomial matrices -------------------------------------------------------


def poly_det(rows):
    """Determinant of a square matrix by cofactor expansion along the first
    row; the entries are MultiPoly or scalars (int, Fraction, Cyclotomic).
    A minor on the rows from the third on is met once for each order in
    which the rows above it pick the missing columns, so it is expanded once
    per call and shared: a 4x4 determinant takes 28 entry products instead
    of 40.  The larger minors are met once and are not kept."""
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("matrix is not square")
    memo = {}

    def minor_det(col_ids):
        if len(col_ids) == 1:
            return rows[-1][col_ids[0]]
        if col_ids in memo:
            return memo[col_ids]
        r = size - len(col_ids)
        total = rows[r][col_ids[0]] * 0
        for pos, c in enumerate(col_ids):
            entry = rows[r][c]
            if not entry:
                continue
            term = entry * minor_det(col_ids[:pos] + col_ids[pos + 1 :])
            total = total + (term if pos % 2 == 0 else -term)
        if r >= 2:
            memo[col_ids] = total
        return total

    return minor_det(tuple(range(size)))


def minors(rows, k: int) -> list:
    """Every k x k minor of a polynomial matrix: row subsets in lexicographic
    order and, within each, column subsets in lexicographic order."""
    return [
        poly_det([[row[c] for c in cols] for row in sub])
        for sub in combinations(rows, k)
        for cols in combinations(range(len(rows[0])), k)
    ]


def maximal_minors(rows) -> tuple:
    """The four 3x3 minors (f0, f1, f2, f3) of a 3x4 polynomial matrix,
    f_i obtained by deleting column i."""
    if len(rows) != 3 or any(len(r) != 4 for r in rows):
        raise ValueError("expected a 3x4 matrix")
    return tuple(reversed(minors(rows, 3)))
