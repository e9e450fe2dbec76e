"""Exact dense linear algebra over cyclotomic scalars.

Gaussian elimination with exact pivots; pivot selection always takes the
first row with a nonzero entry in the leftmost unresolved column, so results
are deterministic.  Where the pivot row holds a zero, the scaling and the
row update leave the entry as it is (0 * inv = 0 and a - f * 0 = a), so no
scalar operation is run for it.
"""

from __future__ import annotations

from .cyclotomic import cyc


def mat_transpose(rows):
    return [list(col) for col in zip(*rows)]


def mat_mul(a, b):
    bt = mat_transpose(b)
    return [[_dot(row, col) for col in bt] for row in a]


def _dot(u, v):
    total = cyc(0)
    for x, y in zip(u, v):
        total = total + x * y
    return total


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(m)):
            if not m[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        inv = m[row][col].inverse()
        m[row] = [v * inv if v else v for v in m[row]]
        for r in range(len(m)):
            if r != row and not m[r][col].is_zero():
                factor = m[r][col]
                m[r] = [a - factor * b if b else a for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m, pivots

def matrix_rank(rows) -> int:
    _, pivots = rref(rows)
    return len(pivots)


def nullspace(rows):
    """Basis of the right kernel, one vector per free column, in column order."""
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [cyc(0)] * ncols
        vec[fc] = cyc(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def proj_normalize(vec):
    """Scale so the first nonzero coordinate is 1."""
    for v in vec:
        if not v.is_zero():
            inv = v.inverse()
            return [u * inv for u in vec]
    raise ValueError("cannot normalize the zero vector")
