import random
from fractions import Fraction

import pytest

from conftest import from_coeffs, solve

from fano212.cyclotomic import Cyclotomic, cyc, cyclotomic_coeffs, euler_phi
from fano212.linalg import mat_transpose, nullspace, rref
from fano212.model import _nonzero_entries, combine

# The oracles below work on Fraction coordinate vectors in the power basis of
# Q(zeta_n): a product is a convolution reduced by long division by Phi_n, an
# inverse the solution of a rational linear system, and the reduced row
# echelon form a Gauss-Jordan elimination on those vectors.


def coords(v, n):
    """The Fraction coordinates of v in Q(zeta_n), v of conductor n or 1."""
    if v.n == n:
        return v.coeffs
    assert v.n == 1
    return v.coeffs + (Fraction(0),) * (euler_phi(n) - 1)


def field_mul(n, a, b):
    phi = cyclotomic_coeffs(n)
    deg = len(phi) - 1
    dense = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            dense[i + j] += x * y
    for i in range(len(dense) - 1, deg - 1, -1):
        c = dense[i]
        for k, d in enumerate(phi):
            dense[i - deg + k] -= c * d
    return tuple(dense[:deg])


def gauss_jordan(rows, is_zero, mul, inv, sub):
    """Reduced row echelon form and pivot columns, over any field given by
    its operations."""
    m = [list(r) for r in rows]
    pivots, row = [], 0
    for col in range(len(m[0]) if m else 0):
        found = next((r for r in range(row, len(m)) if not is_zero(m[r][col])), None)
        if found is None:
            continue
        m[row], m[found] = m[found], m[row]
        scale = inv(m[row][col])
        m[row] = [mul(v, scale) for v in m[row]]
        for r in range(len(m)):
            if r != row and not is_zero(m[r][col]):
                f = m[r][col]
                m[r] = [sub(a, mul(f, b)) for a, b in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m, pivots


def field_inv(n, a):
    """The inverse of a: the x with a*x = 1, from the rational system whose
    columns are the coordinates of a*zeta^j."""
    phi = euler_phi(n)
    cols = [field_mul(n, a, [Fraction(int(i == j)) for i in range(phi)]) for j in range(phi)]
    aug = [[cols[j][i] for j in range(phi)] + [Fraction(int(i == 0))] for i in range(phi)]
    red, pivots = gauss_jordan(aug, lambda x: x == 0, lambda x, y: x * y,
                               lambda x: 1 / x, lambda x, y: x - y)
    assert pivots == list(range(phi))
    return tuple(r[phi] for r in red)


def reference_rref(rows, n):
    vectors = [[coords(v, n) for v in r] for r in rows]
    return gauss_jordan(
        vectors, lambda x: not any(x), lambda x, y: field_mul(n, x, y),
        lambda x: field_inv(n, x), lambda x, y: tuple(p - q for p, q in zip(x, y)))


def random_entry(rng, n, density):
    if rng.random() > density:
        return cyc(0) if rng.random() < 0.5 else cyc(0, n)
    phi = euler_phi(n)
    coeffs = [Fraction(0)] * phi
    for k in rng.sample(range(phi), rng.randint(1, min(phi, 3))):
        coeffs[k] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return from_coeffs(n, coeffs)


def random_matrix(rng, n, nrows, ncols, density):
    rows = [[random_entry(rng, n, density) for _ in range(ncols)] for _ in range(nrows)]
    # a dependent last row leaves free columns
    c = random_entry(rng, n, 1.0)
    rows.append([a + c * b for a, b in zip(rows[0], rows[1])])
    return rows


# conductors 1 and 2 (phi = 1) take rref's integer rows over Q
CASES = [(n, density, seed) for n in (1, 2, 8, 60) for density in (0.3, 1.0)
         for seed in (1, 2)]


@pytest.mark.parametrize("n,density,seed", CASES)
def test_rref_against_gauss_jordan_on_fractions(n, density, seed):
    rng = random.Random(1000 * n + seed + int(10 * density))
    for shape in ((3, 5), (3, 3)):
        rows = random_matrix(rng, n, *shape, density)
        red, pivots = rref(rows)
        expected, expected_pivots = reference_rref(rows, n)
        assert pivots == expected_pivots
        # row r is the reference's reduced row r scaled by its pivot value,
        # and the rows past the rank are zero in both
        scales = [coords(r[c], n) for r, c in zip(red, pivots)]
        scales += [(Fraction(0),) * euler_phi(n)] * (len(red) - len(pivots))
        assert [[coords(v, n) for v in r] for r in red] == [
            [field_mul(n, d, x) for x in r] for d, r in zip(scales, expected)]


@pytest.mark.parametrize("n,density,seed", [case for case in CASES if case[0] <= 2])
def test_rref_over_q_keeps_the_values_of_the_cyclotomic_elimination(n, density, seed):
    # lifted to conductor 8, the same rows are eliminated by Cyclotomic
    # products; the integer rows give the same values, pivot values
    # included, and the same kernel vectors
    rng = random.Random(3000 * n + seed + int(10 * density))
    rows = random_matrix(rng, n, 3, 5, density)
    lifted = [[v.lift(8) for v in row] for row in rows]
    assert rref(rows) == rref(lifted)
    assert nullspace(rows) == nullspace(lifted)


@pytest.mark.parametrize("n,density,seed", CASES)
def test_nullspace_vectors_are_killed(n, density, seed):
    rng = random.Random(2000 * n + seed + int(10 * density))
    rows = random_matrix(rng, n, 3, 6, density)
    basis = nullspace(rows)
    _, pivots = reference_rref(rows, n)
    assert len(basis) == 6 - len(pivots) >= 3
    for vec in basis:
        for row in rows:
            total = (Fraction(0),) * euler_phi(n)
            for a, x in zip(row, vec):
                total = tuple(p + q for p, q in zip(total, field_mul(n, coords(a, n), coords(x, n))))
            assert not any(total)


@pytest.mark.parametrize("n", [1, 2, 8, 60])
def test_solve_consistent_and_inconsistent(n):
    rng = random.Random(n)
    rows = random_matrix(rng, n, 3, 4, 1.0)
    x = [random_entry(rng, n, 1.0) for _ in range(4)]
    rhs = [sum((a * v for a, v in zip(row, x)), cyc(0)) for row in rows]
    found = solve(rows, rhs)
    assert found is not None
    assert [sum((a * v for a, v in zip(row, found)), cyc(0)) for row in rows] == rhs
    # the last row is rows[0] + c*rows[1], so its right-hand side must follow
    bad = rhs[:-1] + [rhs[-1] + Cyclotomic.zeta(n)]
    assert solve(rows, bad) is None


def test_rational_nullspace_takes_no_cyclotomic_product(monkeypatch, planted_model):
    # the kernel map's matrix at the planted point: over Q the elimination
    # and the kernel vectors are taken in Python ints, and each entry is
    # built once, with no Cyclotomic product
    m, point = planted_model
    pencil = mat_transpose(combine([point], _nonzero_entries(m.matrices), (4, 4))[0])
    calls = []
    for name in ("__mul__", "__rmul__", "__sub__"):
        method = getattr(Cyclotomic, name)

        def counted(self, other, method=method, name=name):
            calls.append(name)
            return method(self, other)
        monkeypatch.setattr(Cyclotomic, name, counted)
    basis = nullspace(pencil)
    monkeypatch.undo()
    assert calls == []
    assert len(basis) == 1
    assert all(not sum((a * x for a, x in zip(row, basis[0])), cyc(0)) for row in pencil)
