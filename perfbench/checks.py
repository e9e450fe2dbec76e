"""Known answers and the checks that compare fano212's output against them.

Nothing here imports fano212.  Every expected value comes from a
construction or from a formula of the paper, recomputed with plain
`fractions.Fraction` arithmetic, so a defect in the code under test cannot
make its own output look right.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


class CheckFailed(Exception):
    """A verdict disagreed with its known answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- reports --------------------------------------------------------------------


def parse_tree(text: str) -> dict:
    """`key = value` lines of a `--format tree` report, as a dict."""
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            report.setdefault(key.strip(), value.strip())
    return report


def expect_report(code: int, text: str, want_code: int, want: dict) -> dict:
    """Check an exit code and the listed `key = value` pairs of a report."""
    report = parse_tree(text)
    expect(code == want_code, "exit code %r, expected %d (%s)"
           % (code, want_code, report.get("error", "no error key")))
    for key, value in want.items():
        expect(report.get(key) == value,
               "%s = %r, expected %r" % (key, report.get(key), value))
    return report


# -- exact linear algebra over Q --------------------------------------------------


def det(rows) -> Fraction:
    """Determinant of a square Fraction matrix by Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return result


def rank(rows) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    rank_ = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank_, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank_], m[pivot] = m[pivot], m[rank_]
        for r in range(len(m)):
            if r != rank_ and m[r][col]:
                factor = m[r][col] / m[rank_][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank_])]
        rank_ += 1
    return rank_


def pencil_member(mats, point):
    """p1*M1 + p2*M2 + p3*M3."""
    return [[sum(p * m[j][k] for p, m in zip(point, mats)) for k in range(4)]
            for j in range(4)]


def on_quartic(mats, point) -> bool:
    """The point of P2 lies on det(x*M1 + y*M2 + z*M3) = 0."""
    return det(pencil_member(mats, point)) == 0


def linear_form_matrix(mats, point, second: bool):
    """The 3x4 matrix of linear forms at a point of P3: rows x^T M_i on the
    first side, (M_i y)^T on the second."""
    if second:
        return [[sum(m[j][k] * point[k] for k in range(4)) for j in range(4)]
                for m in mats]
    return [[sum(point[j] * m[j][k] for j in range(4)) for k in range(4)]
            for m in mats]


def on_centre(mats, point, second: bool) -> bool:
    """All four maximal minors of the linear-form matrix vanish at a nonzero
    point: the point lies on the blowdown centre."""
    if not any(point):
        return False
    rows = linear_form_matrix(mats, point, second)
    return all(
        det([[row[c] for c in range(4) if c != drop] for row in rows]) == 0
        for drop in range(4)
    )


def proj_equal(u, v) -> bool:
    """Equality of points of projective space."""
    if len(u) != len(v) or not any(u) or not any(v):
        return False
    n = len(u)
    return all(u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n))


def forms_independent(mats) -> bool:
    return rank([[v for row in m for v in row] for m in mats]) == 3


# -- line-bundle cohomology ---------------------------------------------------------


def chi_p3(d: int) -> int:
    """Euler characteristic of O(d) on P3: the Hilbert polynomial C(d+3, 3)."""
    return (d + 1) * (d + 2) * (d + 3) // 6


def chi_on_x(a: int, b: int) -> int:
    """chi(O_X(a, b)) from the Koszul resolution of X by three (1,1)-forms:
    sum over k of (-1)^k C(3, k) chi(O(a-k, b-k)) on P3 x P3."""
    return sum((-1) ** k * comb(3, k) * chi_p3(a - k) * chi_p3(b - k)
               for k in range(4))


def _has_cohomology_p3(d: int) -> bool:
    """Bott: O(d) on P3 has cohomology iff d >= 0 or d <= -4."""
    return d >= 0 or d <= -4


def single_column_twists(radius: int):
    """Twists (a, b) with |a|, |b| <= radius where at most one Koszul term
    O(a-k, b-k) carries cohomology, so the degree-shift lemma decides the
    table.  With a lone column k the table lives in degrees shifted by k;
    twists whose shifted table would leave degrees 0..3 are dropped."""
    twists = []
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            cols = [k for k in range(4)
                    if _has_cohomology_p3(a - k) and _has_cohomology_p3(b - k)]
            if len(cols) > 1:
                continue
            if cols:
                k = cols[0]
                # ambient degrees are 0 or 3 per factor: 0, 3 or 6 in total
                degrees = [3 * (a - k < 0) + 3 * (b - k < 0)]
                if any(deg - k < 0 or deg - k > 3 for deg in degrees):
                    continue
            twists.append((a, b))
    return twists


def parse_table(value: str):
    """`(h0, h1, h2, h3)` as a tuple of ints."""
    expect(value.startswith("(") and value.endswith(")"),
           "not a cohomology table: %r" % value)
    return tuple(int(v) for v in value[1:-1].split(","))
