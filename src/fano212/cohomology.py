"""Dimension tables for line-bundle cohomology on P3, P3 x P3 and on the
complete intersection X, computed through the Koszul resolution and the
acyclic-truncation shift, plus the equivariant eigenvalue on the top
cohomology of O(-4, -4).

Only dimensions are tracked (and one eigenvalue on the one-dimensional top
group); the degree-shift lemma is the single tool, with an independent
short-exact-sequence chase as its oracle.  Configurations it cannot force
are reported as inconclusive rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cyclotomic import root_of_unity


class TruncationHypothesisError(ValueError):
    """An acyclicity hypothesis fails; carries the offending term index."""

    def __init__(self, term_degree: int):
        super().__init__(
            "term F^%d has nonzero cohomology, so the shift is not valid"
            % term_degree
        )
        self.term_degree = term_degree


class ChaseNotForced(RuntimeError):
    """The dimension chase needs rank data the tables do not determine."""


class InconclusiveCohomology(RuntimeError):
    """More than one ambient Koszul column has cohomology; the single-shift
    method does not apply."""


@dataclass(frozen=True)
class CohTable:
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension in cohomology table")

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def __getitem__(self, i: int) -> int:
        return self.dims[i] if 0 <= i < len(self.dims) else 0

    def __len__(self):
        return len(self.dims)

    def euler(self) -> int:
        return sum((-1) ** i * d for i, d in enumerate(self.dims))


def table_scale(t: CohTable, k: int) -> CohTable:
    return CohTable(tuple(k * d for d in t.dims))


def table_add(a: CohTable, b: CohTable) -> CohTable:
    n = max(len(a), len(b))
    return CohTable(tuple(a[i] + b[i] for i in range(n)))


@dataclass(frozen=True)
class ComplexShape:
    """Known cohomology tables of the terms F^{-n}, ..., F^0 of an exact
    complex 0 -> F^{-n} -> ... -> F^0 -> F^1 -> 0, lowest degree first."""

    entries: tuple  # CohTable per term

    def __post_init__(self):
        if not self.entries:
            raise ValueError("a complex needs at least one known term")
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def length(self) -> int:
        return len(self.entries) - 1  # the n in F^{-n}

    def table(self, degree: int) -> CohTable:
        # degree runs -n .. 0
        return self.entries[degree + self.length]


# -- ambient tables --------------------------------------------------------------


def bott_p3(a: int) -> CohTable:
    """Line bundle cohomology on P3: sections for a >= 0, top cohomology for
    a <= -4, nothing in between."""
    h0 = comb(a + 3, 3) if a >= 0 else 0
    h3 = comb(-a - 1, 3) if a <= -4 else 0
    return CohTable((h0, 0, 0, h3))


def kunneth(a: int, b: int) -> CohTable:
    """Cohomology of O(a, b) on P3 x P3 as the convolution of the two factor
    tables."""
    ta, tb = bott_p3(a), bott_p3(b)
    dims = [0] * 7
    for i in range(4):
        if ta[i] == 0:
            continue
        for j in range(4):
            if tb[j]:
                dims[i + j] += ta[i] * tb[j]
    return CohTable(tuple(dims))


# -- the degree-shift lemma and its oracle ----------------------------------------


def truncation_shift(shape: ComplexShape, s: int) -> CohTable:
    """H^i(F^1) = H^{i+s}(F^{-s}) when every other term of the exact complex
    is acyclic."""
    n = shape.length
    if not 0 <= s <= n:
        raise ValueError("shift index out of range")
    for r in range(n + 1):
        if r == s:
            continue
        if not shape.table(-r).is_zero():
            raise TruncationHypothesisError(-r)
    source = shape.table(-s)
    if any(source[i] for i in range(s)):
        # H^i(F^1) would have to live in negative degree i - s
        raise ValueError(
            "term F^%d has cohomology below degree %d; no sheaf complex "
            "realizes these tables" % (-s, s)
        )
    dims = tuple(source[i + s] for i in range(len(source)))
    return CohTable(dims)


def chase_exact_complex(shape: ComplexShape) -> CohTable:
    """Independent oracle: peel the exact complex into short exact sequences
    and chase dimensions, using only zero-sandwich arguments.

    Walks images W_j = im(F^j -> F^{j+1}): each short sequence
    0 -> W_{j-1} -> F^j -> W_j -> 0 forces W_j when either side vanishes.
    """
    n = shape.length
    w = shape.table(-n)
    for j in range(-n + 1, 1):
        f = shape.table(j)
        if w.is_zero():
            w = f
        elif f.is_zero():
            if w[0] != 0:
                raise ChaseNotForced(
                    "H^0 of a subsheaf embeds in H^0 of an acyclic sheaf"
                )
            w = CohTable(tuple(w[i + 1] for i in range(len(w))))
        else:
            raise ChaseNotForced(
                "two adjacent nonzero tables; ranks of connecting maps needed"
            )
    return w


# -- cohomology on X through the Koszul resolution ---------------------------------


def koszul_ambient_tables(a: int, b: int):
    """Tables of the four ambient Koszul terms resolving O_X(a, b), lowest
    degree first: O(a-3, b-3), O(a-2, b-2)^3, O(a-1, b-1)^3, O(a, b)."""
    return (
        kunneth(a - 3, b - 3),
        table_scale(kunneth(a - 2, b - 2), 3),
        table_scale(kunneth(a - 1, b - 1), 3),
        kunneth(a, b),
    )


def koszul_cohomology_on_X(a: int, b: int) -> CohTable:
    """H^i(X, O_X(a, b)) via the degree shift, when at most one ambient
    Koszul column has cohomology."""
    tables = koszul_ambient_tables(a, b)
    nonzero = [3 - idx for idx, t in enumerate(tables) if not t.is_zero()]
    if len(nonzero) > 1:
        raise InconclusiveCohomology(
            "twist (%d, %d): ambient columns %s all have cohomology; the "
            "single-column shift does not apply" % (a, b, sorted(nonzero))
        )
    shape = ComplexShape(tables)
    if not nonzero:
        return CohTable((0, 0, 0, 0))
    s = nonzero[0]
    shifted = truncation_shift(shape, s)
    if any(shifted[i] for i in range(4, len(shifted))):
        raise InconclusiveCohomology(
            "twist (%d, %d): shifted table exceeds the dimension of X" % (a, b)
        )
    return CohTable(tuple(shifted[i] for i in range(4)))


def euler_chase():
    """Dimension chase through the restricted Euler sequence
    0 -> K -> O_X(-1,0)^4 + O_X(0,-1)^4 -> O_X^2 -> 0: returns whether
    H^2(K) and H^3(K) are forced to vanish."""
    middle = table_add(
        table_scale(koszul_cohomology_on_X(-1, 0), 4),
        table_scale(koszul_cohomology_on_X(0, -1), 4),
    )
    right = table_scale(koszul_cohomology_on_X(0, 0), 2)
    if not middle.is_zero():
        raise ChaseNotForced(
            "middle term of the Euler sequence has cohomology; the chase "
            "needs connecting-map ranks"
        )
    # 0 -> H^i(right) -> H^{i+1}(K) -> H^{i+1}(middle) = 0
    kernel_dims = (0,) + tuple(right[i] for i in range(len(right) - 1))
    kernel = CohTable(kernel_dims)
    return (kernel[2] == 0, kernel[3] == 0)


# -- the equivariant top eigenvalue -------------------------------------------------


def graded_reorder_sign(degrees, perm) -> int:
    """Koszul sign for restoring a permuted tuple of graded classes to its
    original order: each adjacent transposition of factors with degrees d, e
    contributes (-1)^(d*e)."""
    arr = list(perm)
    sign = 1
    for i in range(len(arr)):
        for j in range(len(arr) - 1):
            if arr[j] > arr[j + 1]:
                sign *= (-1) ** (degrees[arr[j]] * degrees[arr[j + 1]])
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
    return sign


def equivariant_top_eigenvalue(weights, n: int, swap: bool, weights2=None):
    """Eigenvalue of the action on H^6(O(-4, -4)) with its trivial
    linearisation.

    The basis class is the cup product of the two factor classes of degree 3
    spanned by the inverse coordinate monomials.  A swap returns them in
    reversed order, so the canonical reordering contributes the sign of a
    degree (3, 3) transposition; the diagonal part contributes the inverse of
    the total weight.
    """
    if swap:
        sign = graded_reorder_sign((3, 3), (1, 0))
        value = root_of_unity(n, -sum(weights))
        return value * sign
    if weights2 is None:
        raise ValueError("a diagonal action needs both weight tuples")
    sign = graded_reorder_sign((3, 3), (0, 1))
    value = root_of_unity(n, -sum(weights)) * root_of_unity(n, -sum(weights2))
    return value * sign
