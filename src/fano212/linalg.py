"""Exact dense linear algebra over Q(zeta_N), or over F_p on residues.

One elimination serves both rings, by cross-multiplication and with no
division: row_k <- p * row_k - a * row_r for the pivot p of row r and
a = row_k[col].  As p is nonzero, each step is an invertible change of
rows, so the row space stays the input's, and so do the pivot columns, the
columns where the rank of the leading columns grows: the form left is the
reduced row echelon form with row r scaled by its pivot value d_r.  The
pivot is the first row with a nonzero entry in the leftmost column not yet
used, so results are deterministic.

Over Q (every entry of phi(N) = 1) the rows enter the same loop as ints, row
r cleared once by the lcm s_r of its denominators: a step on them is the
step on the rational rows over s_r * s_k, so it sets s_r <- s_r * s_k.
"""

from __future__ import annotations

from math import lcm, prod

from .cyclotomic import Cyclotomic, cyc


def mat_transpose(rows):
    return [list(col) for col in zip(*rows)]


def _eliminate(rows, prime=None):
    """(rows, pivot_columns, scales, n): rref's elimination, over Q (every
    phi(n) = 1, n the lcm conductor) on integer rows, row r standing for
    rows[r] / scales[r]; otherwise n is None."""
    m, scales, n = [list(r) for r in rows], [1] * len(rows), None
    if prime is None and all(len(v.num) == 1 for row in m for v in row):
        n = lcm(*(v.n for row in m for v in row))
        scales = [lcm(*(v.den for v in row)) for row in m]
        m = [[v.num[0] * (s // v.den) for v in row] for row, s in zip(m, scales)]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        k = len(pivots)
        pivot = next((r for r in range(k, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[k], m[pivot] = m[pivot], m[k]
        scales[k], scales[pivot] = scales[pivot], scales[k]
        top, p = m[k], m[k][col]
        for r, row in enumerate(m):
            f = row[col]
            if r == k or not f:
                continue
            if prime is None:
                m[r] = [p * a - f * b if b else p * a if a else a for a, b in zip(row, top)]
                scales[r] *= scales[k]
            else:
                m[r] = [(p * a - f * b) % prime for a, b in zip(row, top)]
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m, pivots, scales, n


def rref(rows, prime=None):
    """(rows, pivot_columns): the reduced row echelon form, row r scaled by
    its pivot value, of Cyclotomic rows, or of residues mod prime when it is
    given.  Over Q(zeta_N) a 0 in the pivot row costs one product, p * a,
    and a 0 in both none; over Q each entry is built once (_eliminate)."""
    m, pivots, scales, n = _eliminate(rows, prime)
    if n is not None:
        m = [[Cyclotomic._lowest(n, (v,), s) for v in row] for row, s in zip(m, scales)]
    return m, pivots


def matrix_rank(rows, prime=None) -> int:
    return len(_eliminate(rows, prime)[1])


def pivot_scales(red, pivots):
    """(D, [D / d_r]) for the pivot values d_r of rref's rows and D their
    product, by products alone: row r times D / d_r has pivot D."""
    d = [row[c] for row, c in zip(red, pivots)]
    return prod(d), [prod(d[:r] + d[r + 1:]) for r in range(len(d))]


def nullspace(rows):
    """Basis of the right kernel, one vector per free column, in column order:
    D there and -row_r[free] * D / d_r at pivot column c_r (pivot_scales),
    which row r sends to 0.  Over Q they come from _eliminate's integer
    rows, each entry divided once by the rank rows' scales: the same vectors."""
    ncols = len(rows[0]) if rows else 0
    red, pivots, scales, n = _eliminate(rows)
    den = prod(scales[:len(pivots)])
    entry = cyc if n is None else lambda x: Cyclotomic._lowest(n, (x,), den)
    total, factors = pivot_scales(red, pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [entry(0)] * ncols
        vec[fc] = entry(total)
        for row, pc, s in zip(red, pivots, factors):
            vec[pc] = entry(-row[fc] * s)
        basis.append(vec)
    return basis


def proj_normalize(vec):
    """Scale so the first nonzero coordinate is 1, written cyc(1) whatever
    the conductor of the vector (nullspace puts its products there)."""
    for i, v in enumerate(vec):
        if v:
            inv = v.inverse()
            out = [u * inv for u in vec]
            out[i] = cyc(1)
            return out
    raise ValueError("cannot normalize the zero vector")
