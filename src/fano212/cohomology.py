"""Dimension tables for line-bundle cohomology on P3, P3 x P3 and on the
complete intersection X, computed through the Koszul spectral sequence,
plus the equivariant character on the top cohomology of O(-4, -4).

Only dimensions are tracked (and one character, as an exponent mod n, on
the one-dimensional top group).  Each twist fills one row of the spectral
sequence, and one rule reads the table on X off that row's Euler
characteristic.  Configurations it cannot force (row 3 with two or more
columns) are reported as inconclusive rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


class InconclusiveCohomology(RuntimeError):
    """The tables do not determine the answer: row 3 of the Koszul spectral
    sequence of a twist has two or more columns, or the Euler chase needs
    connecting-map ranks."""


@dataclass(frozen=True)
class CohTable:
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(self.dims))
        if any(type(d) is not int for d in self.dims):
            raise TypeError("cohomology dimensions must be ints")
        if any(d < 0 for d in self.dims):
            raise ValueError("negative dimension in cohomology table")

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims)

    def __getitem__(self, i: int) -> int:
        return self.dims[i] if 0 <= i < len(self.dims) else 0

    def __len__(self):
        return len(self.dims)


def table_scale(t: CohTable, k: int) -> CohTable:
    return CohTable(tuple(k * d for d in t.dims))


def table_add(a: CohTable, b: CohTable) -> CohTable:
    n = max(len(a), len(b))
    return CohTable(tuple(a[i] + b[i] for i in range(n)))


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
    """H^i(X, O_X(a, b)) from the Koszul spectral sequence
    E1^{-k,q} = H^q(P3 x P3, K^{-k}), k = 0..3, with K^{-k} the ambient
    terms of `koszul_ambient_tables`.

    Only rows q = 0, 3, 6 occur, and one twist fills at most one of them:
    row 3 at column k needs one of a - k, b - k to be >= 0 and the other
    <= -4, rows 0 and 6 need both >= 0 or both <= -4.  With one row E2 is
    E-infinity, and as H^n(X) = 0 outside 0..3 a single E2 term survives:
    in degree 0 for row 0, in degree 3 for row 6, and in degree 3 - k for
    row 3 with one column k.  That term is (-1)^n chi(O_X(a, b)), chi the
    alternating sum of the row.  Row 3 with two or more columns needs the
    ranks of d1, which depend on the model.
    """
    tables = koszul_ambient_tables(a, b)
    cells = [(k, q) for k in range(4) for q in range(7) if tables[3 - k][q]]
    if not cells:
        return CohTable((0, 0, 0, 0))
    row = cells[0][1]
    columns = [k for k, _ in cells]
    if row == 0:
        n = 0
    elif row == 6:
        n = 3
    elif len(columns) == 1:
        n = 3 - columns[0]
    else:
        raise InconclusiveCohomology(
            "twist (%d, %d): row 3 of the Koszul spectral sequence has columns "
            "%s; the ranks of d1 are not determined by the tables"
            % (a, b, columns)
        )
    # E1^{-k,row} sits in total degree row - k, of the parity of row + k;
    # the exponent stays >= 0 so that every sign is an int
    chi = sum((-1) ** (row + k) * tables[3 - k][row] for k in columns)
    dims = [0, 0, 0, 0]
    dims[n] = (-1) ** n * chi
    return CohTable(tuple(dims))


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
        raise InconclusiveCohomology(
            "middle term of the Euler sequence has cohomology; the chase "
            "needs connecting-map ranks"
        )
    # 0 -> H^i(right) -> H^{i+1}(K) -> H^{i+1}(middle) = 0
    kernel_dims = (0,) + tuple(right[i] for i in range(len(right) - 1))
    kernel = CohTable(kernel_dims)
    return (kernel[2] == 0, kernel[3] == 0)


# -- the equivariant top character --------------------------------------------------


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


def equivariant_top_exponent(weights, n: int, swap: bool, weights2=None) -> int:
    """Exponent k mod n of the eigenvalue w^k of the action on H^6(O(-4, -4))
    with its trivial linearisation.

    The basis class is the cup product of the two factor classes of degree 3
    spanned by the inverse coordinate monomials.  A swap returns them in
    reversed order, so the canonical reordering contributes the sign of a
    degree (3, 3) transposition, -1 = w^(n/2) (a swap action has even
    order); the diagonal part contributes minus the total weight.
    """
    if swap:
        sign, total = graded_reorder_sign((3, 3), (1, 0)), sum(weights)
    elif weights2 is None:
        raise ValueError("a diagonal action needs both weight tuples")
    else:
        sign, total = graded_reorder_sign((3, 3), (0, 1)), sum(weights) + sum(weights2)
    if sign == -1 and n % 2:
        raise ValueError("the sign -1 needs an even order, got %d" % n)
    return (-total + (n // 2 if sign == -1 else 0)) % n
