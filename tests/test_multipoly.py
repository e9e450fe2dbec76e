import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Poly, from_coeffs, leibniz, power, term_rows, variables
from fano212.cyclotomic import Cyclotomic, _fp_field, _fp_image, cyc, euler_phi
from fano212.multipoly import (_SHIFT_BITS, MultiPoly, _balanced_digits, _cofactors, _derivative,
                               _restrict, minors, poly_det)


def random_poly(rng, nvars=3, max_degree=2, nterms=4):
    terms = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, max_degree) for _ in range(nvars))
        terms[exps] = rng.randint(-4, 4)
    return Poly(nvars, terms)


def test_product_difference_of_squares():
    x, y = variables(2)
    assert (x + y) * (x - y) == x * x - y * y
    assert not (x + y) * (x - y) - (x * x - y * y)
    assert x - y


def test_arity_mismatch():
    with pytest.raises(ValueError):
        variables(2)[0] + variables(3)[0]
    with pytest.raises(ValueError, match="wrong arity"):
        variables(2)[0].evaluate([1, 2, 3])


def test_the_oracle_constructor_checks_and_cleans():
    # Poly's constructor, unlike the record's, checks arity, coerces to
    # Cyclotomic and drops zero coefficients
    with pytest.raises(ValueError, match="wrong arity"):
        Poly(2, {(1, 0, 0): 1})
    p = Poly(2, {(1, 0): 0, (0, 1): Fraction(1, 2), (0, 0): cyc(0, 8)})
    assert p.terms == {(0, 1): cyc(Fraction(1, 2))}
    assert all(isinstance(c, Cyclotomic) for c in p.terms.values())
    assert not Poly.zero(3) and Poly.constant(0, 3).terms == {}


def test_the_record_surface_is_what_is_read():
    # the package's MultiPoly carries what the package and perfbench read
    p = MultiPoly(2, {(1, 0): cyc(3)})
    assert {name for name in dir(p) if not name.startswith("_")} == {
        "nvars", "terms", "is_zero", "degree", "is_homogeneous", "evaluate"}


@pytest.mark.parametrize("poly", [MultiPoly(2, {(1, 0): cyc(3)}), variables(2)[0]],
                         ids=["record", "oracle"])
def test_fields_cannot_be_assigned(poly):
    with pytest.raises(AttributeError):
        poly.terms = {}
    with pytest.raises(AttributeError):
        poly.nvars = 3


def test_evaluate_is_a_ring_map_at_zeta_coordinates():
    # evaluation at a point with a zeta_4 coordinate: x_i -> point[i] on the
    # variables and constants, extended as a ring map
    rng = random.Random(3)
    point = [cyc(2), Cyclotomic.zeta(4), cyc(Fraction(-1, 2))]
    for x, v in zip(variables(3), point):
        assert x.evaluate(point) == v
    assert Poly.constant(5, 3).evaluate(point) == 5
    for _ in range(5):
        p, q = random_poly(rng), random_poly(rng)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
    x = variables(1)[0]
    assert power(x, 4).evaluate([Cyclotomic.zeta(4)]) == 1


def test_evaluate_is_ring_homomorphic():
    rng = random.Random(5)
    point = [cyc(1), cyc(-2), cyc(Fraction(1, 3))]
    for _ in range(5):
        p, q = random_poly(rng), random_poly(rng)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)


def test_derivative_product_rule():
    rng = random.Random(9)
    p, q = random_poly(rng), random_poly(rng)

    def derivative(f):
        return Poly(f.nvars, _derivative(f.terms, 1))

    assert derivative(p * q) == derivative(p) * q + p * derivative(q)


class TestDeterminant:
    def test_2x2(self):
        x, y, z, w = variables(4)
        assert poly_det(term_rows([[x, y], [z, w]])) == (x * w - y * z).terms

    def test_diagonal(self):
        ls = variables(4)
        rows = [
            [ls[i] if i == j else Poly.zero(4) for j in range(4)]
            for i in range(4)
        ]
        assert poly_det(term_rows(rows)) == (ls[0] * ls[1] * ls[2] * ls[3]).terms

    def test_x_times_identity(self):
        x = variables(1)[0]
        zero = Poly.zero(1)
        rows = [[x if i == j else zero for j in range(4)] for i in range(4)]
        assert poly_det(term_rows(rows)) == power(x, 4).terms

    def test_scalar_entries_match_the_leibniz_sum(self):
        rng = random.Random(12)
        ints = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        ints[0][1] = 0
        assert poly_det(term_rows(ints)) == {(): cyc(leibniz(ints))} and leibniz(ints) != 0
        zeta = Cyclotomic.zeta(8)
        cycs = [[zeta ** rng.randint(0, 7) * rng.randint(-3, 3) + rng.randint(-2, 2)
                 for _ in range(3)] for _ in range(3)]
        cycs[0][0] = cyc(0, 8)
        det = poly_det(term_rows(cycs))
        assert det == {(): leibniz(cycs)} and leibniz(cycs) != 0

    @pytest.mark.parametrize("size", [4, 5])
    def test_linear_form_entries_match_the_leibniz_sum(self, size):
        # the minors on the trailing rows are shared from 4x4 up
        rng = random.Random(40 + size)
        ls = variables(3)
        zeta = Cyclotomic.zeta(8)
        rows = [[sum((v * (zeta ** rng.randint(0, 7) * rng.randint(-2, 2)) for v in ls),
                     Poly.zero(3)) if rng.random() < 0.7 else Poly.zero(3)
                 for _ in range(size)] for _ in range(size)]
        rows[0][0] = Poly.zero(3)
        det = Poly(3, poly_det(term_rows(rows)))
        assert det == leibniz(rows) and not det.is_zero()
        assert det.is_homogeneous() and det.degree() == size

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_polynomial_entries_match_the_leibniz_sum(self, data):
        # conductors 1, 3, 4, 5, 8 (N up to 120), a denominator per row, zero
        # entries and rows, and entries of degree 0-3 in 1-8 variables
        size = data.draw(st.integers(1, 5), label="size")
        nvars = data.draw(st.integers(1, 8), label="nvars")
        zero_row = data.draw(st.none() | st.integers(0, size - 1), label="zero_row")
        terms = 2 if size < 5 else 1

        def coefficient(den):
            n = data.draw(st.sampled_from([1, 3, 4, 5, 8]))
            coords = data.draw(st.lists(st.integers(-3, 3), min_size=euler_phi(n),
                                        max_size=euler_phi(n)))
            return from_coeffs(n, [Fraction(c, den) for c in coords])

        def entry(den):
            poly = Poly.zero(nvars)
            for _ in range(data.draw(st.integers(0, terms))):
                exps = [0] * nvars
                for v in data.draw(st.lists(st.integers(0, nvars - 1), max_size=3)):
                    exps[v] += 1
                poly = poly + Poly(nvars, {tuple(exps): coefficient(den)})
            return poly

        rows = []
        for r in range(size):
            den = data.draw(st.sampled_from([1, 2, 3, 4, 6]))
            rows.append([Poly.zero(nvars) if r == zero_row else entry(den)
                         for _ in range(size)])
        det = Poly(nvars, poly_det(term_rows(rows)))
        assert det == Poly.zero(nvars) + leibniz(rows)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.sampled_from(["int", "Fraction", "Cyclotomic"]), st.data())
    def test_scalar_matrices_give_a_scalar(self, size, kind, data):
        def scalar():
            value = Fraction(data.draw(st.integers(-4, 4)), data.draw(st.integers(1, 3)))
            if kind == "int":
                return value.numerator
            if kind == "Fraction":
                return value
            n = data.draw(st.sampled_from([1, 3, 4, 5, 8]))
            return Cyclotomic.zeta(n, data.draw(st.integers(0, n - 1))) * value

        rows = [[scalar() for _ in range(size)] for _ in range(size)]
        det = poly_det(term_rows(rows))
        assert set(det) <= {()} and det.get((), 0) == leibniz(rows)

    def test_mixed_conductors_lift_to_their_lcm(self):
        x, y = variables(2)
        z3, z4, z5 = Cyclotomic.zeta(3), Cyclotomic.zeta(4), Cyclotomic.zeta(5)
        rows = [[x * z3 + y, x * Fraction(1, 2)], [y * z4 - x, x * z5 + y * z3]]
        det = poly_det(term_rows(rows))
        assert det == leibniz(rows).terms and {c.n for c in det.values()} == {60}

    def test_dense_3x3_at_conductor_504(self):
        rng = random.Random(504)
        units = [(1, 0), (0, 1)]
        rows = [[Poly(2, {u: from_coeffs(504, [rng.randint(-2, 2) for _ in range(144)])
                               for u in units}) for _ in range(3)] for _ in range(3)]
        rows[1][2] = rows[1][2] * from_coeffs(8, [0, Fraction(1, 3), 0, 1])
        det = Poly(2, poly_det(term_rows(rows)))
        assert det == leibniz(rows) and det.degree() == 3

    def test_row_swap_negates(self):
        rng = random.Random(1)
        rows = [[random_poly(rng, nvars=2, nterms=2) for _ in range(3)] for _ in range(3)]
        swapped = [rows[1], rows[0], rows[2]]
        det = Poly(2, poly_det(term_rows(rows)))
        assert Poly(2, poly_det(term_rows(swapped))) == -det

    def test_multilinear_in_rows(self):
        rng = random.Random(2)
        rows = [[random_poly(rng, nvars=2, nterms=2) for _ in range(3)] for _ in range(3)]
        extra = [random_poly(rng, nvars=2, nterms=2) for _ in range(3)]
        combined = [
            [rows[0][j] + extra[j] for j in range(3)],
            rows[1],
            rows[2],
        ]
        dets = [Poly(2, poly_det(term_rows(r)))
                for r in (combined, rows, [extra, rows[1], rows[2]])]
        assert dets[0] == dets[1] + dets[2]


# the column subsets of a 3x4 matrix, the one without column i at place i
WITHOUT = [tuple(c for c in range(4) if c != i) for i in range(4)]


class TestMaximalMinors:
    def test_identity_padding_pattern(self):
        one = Poly.constant(1, 4)
        zero = Poly.zero(4)
        rows = [
            [one if i == j else zero for j in range(4)] for i in range(3)
        ]
        dets = minors(term_rows(rows), WITHOUT)
        # deleting column 3 leaves the identity; every other minor drops an
        # identity column and vanishes
        assert dets[3] == one.terms
        assert dets[:3] == [{}, {}, {}]

    def test_degrees_on_linear_entries(self):
        rng = random.Random(4)
        rows = [
            [
                Poly(
                    4,
                    {
                        tuple(1 if v == k else 0 for v in range(4)): rng.randint(-3, 3)
                        for k in range(4)
                    },
                )
                for _ in range(4)
            ]
            for _ in range(3)
        ]
        for terms in minors(term_rows(rows), WITHOUT):
            f = Poly(4, terms)
            if not f.is_zero():
                assert f.degree() == 3
                assert f.is_homogeneous()


def test_two_by_two_minors_in_row_then_column_order():
    rng = random.Random(8)
    rows = [
        [
            Poly(4, {tuple(int(v == k) for v in range(4)): rng.randint(-3, 3)
                          for k in range(4)})
            for _ in range(4)
        ]
        for _ in range(3)
    ]
    expected = [
        rows[r1][c1] * rows[r2][c2] - rows[r1][c2] * rows[r2][c1]
        for r1 in range(3) for r2 in range(r1 + 1, 3)
        for c1 in range(4) for c2 in range(c1 + 1, 4)
    ]
    assert len(expected) == 18
    pairs = list(combinations(range(4), 2))
    got = [f for sub in combinations(rows, 2) for f in minors(term_rows(sub), pairs)]
    assert got == [f.terms for f in expected]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_minors_match_the_leibniz_sum_minor_by_minor(data):
    # one expansion per row subset shares its sub-minors among the column
    # subsets; each minor, in order, is still the Leibniz sum of its own
    # submatrix, over Q and over Q(zeta_8), zero rows included
    k = data.draw(st.sampled_from([2, 3]), label="k")
    width = data.draw(st.integers(k, 8), label="width")
    n = data.draw(st.sampled_from([1, 8]), label="conductor")
    zero_rows = data.draw(st.sets(st.integers(0, 2), max_size=2), label="zero_rows")
    xs = variables(4)

    def form():
        poly = Poly.zero(4)
        for x in data.draw(st.lists(st.sampled_from(xs), max_size=3)):
            coords = data.draw(st.lists(st.integers(-2, 2), min_size=euler_phi(n),
                                        max_size=euler_phi(n)))
            poly = poly + x * from_coeffs(n, [Fraction(c, data.draw(st.integers(1, 2)))
                                             for c in coords])
        return poly

    rows = [[Poly.zero(4) if r in zero_rows else form() for _ in range(width)]
            for r in range(3)]
    expected = [leibniz([[row[c] for c in cols] for row in sub])
                for sub in combinations(rows, k) for cols in combinations(range(width), k)]
    subsets = list(combinations(range(width), k))
    got = [f for sub in combinations(rows, k) for f in minors(term_rows(sub), subsets)]
    assert len(got) == len(expected)
    for f, g in zip(got, expected):
        assert Poly(4, f) == g


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cofactors_are_the_exact_minors_reduced(data):
    # the one cofactor expansion on integer linear forms in x, y, z: every
    # 3x3 minor of a 3x4 matrix and the 4x4 determinant, at p = 7, where
    # entries and products cancel mod p, at the prime of _fp_field(1), with
    # entries that are 0 or 0 mod p, and unreduced (prime None), where they
    # are the exact integer minors
    p = _fp_field(1)[0]
    prime = data.draw(st.sampled_from([7, p, None]), label="prime")
    size = data.draw(st.sampled_from([3, 4]), label="rows")
    coefficient = st.integers(-9, 9) | st.sampled_from([0, 7, -7, 14, p, -p, 2 * p])
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    grid = [[data.draw(st.lists(coefficient, min_size=3, max_size=3)) for _ in range(4)]
            for _ in range(size)]
    exact = [[Poly(3, dict(zip(units, cs))) for cs in row] for row in grid]
    entries = [[dict(zip(units, cs)) for cs in row] for row in grid]
    subsets = list(combinations(range(4), size))
    expected = minors(term_rows(exact), subsets)
    got = _cofactors(entries, subsets, prime)
    assert len(got) == len(expected)
    for f, g in zip(got, expected):
        assert all(c.den == 1 for c in g.values())
        residues = {e: v.num[0] if prime is None else v.num[0] % prime
                    for e, v in g.items()}
        assert f == {m: v for m, v in residues.items() if v}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cofactors_pack_monomials_without_overflow(data):
    # integer entries in 0-4 variables, of degree 0-3, in 1-4 rows, so that
    # len(rows) * degree crosses a power of two and a minor's exponent can
    # fill its packed field: every minor, unpacked, is the Leibniz sum of
    # the same entries as polynomials, unreduced and mod 7
    nvars = data.draw(st.integers(0, 4), label="nvars")
    degree = data.draw(st.integers(0, 3), label="degree")
    size = data.draw(st.integers(1, 4), label="rows")
    prime = data.draw(st.sampled_from([None, 7]), label="prime")
    width = data.draw(st.integers(size, 4), label="width")

    def monomial():
        picks = data.draw(st.lists(st.integers(0, nvars - 1), max_size=degree)) if nvars else []
        return tuple(picks.count(i) for i in range(nvars))

    grid = [[{monomial(): data.draw(st.integers(-5, 5).filter(bool))
              for _ in range(data.draw(st.integers(0, 3)))} for _ in range(width)]
            for _ in range(size)]
    subsets = list(combinations(range(width), size))
    got = _cofactors(grid, subsets, prime)
    assert len(got) == len(subsets)
    for f, cols in zip(got, subsets):
        g = leibniz([[Poly(nvars, row[c]) for c in cols] for row in grid])
        residues = {e: v.num[0] if prime is None else v.num[0] % prime
                    for e, v in g.terms.items()}
        assert f == {e: v for e, v in residues.items() if v}


def test_kronecker_bound_is_met_exactly():
    # 2x2 scalar determinants whose size is the bound 2! * L * L on the
    # digits of the Kronecker integers: one bit less, or no 2!, misreads them
    big = 2**40
    assert poly_det(term_rows([[big, big], [-big, big]])) == {(): cyc(2 * big * big)}
    assert poly_det(term_rows([[big, big], [big, -big]])) == {(): cyc(-2 * big * big)}


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_kronecker_minors_match_the_leibniz_sum(data):
    # dense linear forms, every numerator coefficient drawn up to 2^64 in
    # size over a denominator, so each packed coefficient is a full base-2^B
    # number with digits of both signs: the minors of a size x 4 matrix and
    # poly_det against Leibniz
    n = data.draw(st.sampled_from([1, 8, 12, 60]), label="conductor")
    size = data.draw(st.sampled_from([2, 3, 4]), label="size")
    coefficient = st.integers(-2**64, 2**64) | st.sampled_from([2**64, -2**64])

    def entry():
        terms = Poly.zero(2)
        for x in variables(2):
            coords = data.draw(st.lists(coefficient, min_size=euler_phi(n),
                                        max_size=euler_phi(n)))
            den = data.draw(st.integers(1, 3))
            terms = terms + x * from_coeffs(n, [Fraction(c, den) for c in coords])
        return terms

    rows = [[entry() for _ in range(4)] for _ in range(size)]
    subsets = list(combinations(range(4), size))
    expected = [leibniz([[row[c] for c in cols] for row in rows]).terms for cols in subsets]
    assert minors(term_rows(rows), subsets) == expected
    assert poly_det(term_rows([row[:size] for row in rows])) == expected[0]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_minors_mod_p_are_the_images_of_the_exact_minors(data):
    # one entry type on both rings: the images under _fp_image of Cyclotomic
    # linear forms, given with the prime, expand to the images of the exact
    # minors, term by term, as reduction mod p is a ring map
    n = data.draw(st.sampled_from([1, 3, 8, 12]), label="conductor")
    size = data.draw(st.sampled_from([2, 3, 4]), label="size")
    anchor = Cyclotomic.zeta(n)
    prime = _fp_field(n)[0]

    def image(v):
        at, (residue, _) = _fp_image([v, anchor])
        assert at == prime
        return residue

    def entry():
        terms = {}
        for e in [(1, 0), (0, 1)]:
            value = Cyclotomic.zeta(n, data.draw(st.integers(0, n - 1))) * Fraction(
                data.draw(st.integers(-4, 4)), data.draw(st.sampled_from([1, 2, 3])))
            if value:
                terms[e] = value
        return terms

    rows = [[entry() for _ in range(4)] for _ in range(size)]
    subsets = list(combinations(range(4), size))
    images = [[{e: image(c) for e, c in t.items()} for t in row] for row in rows]
    expected = [{e: r for e, r in ((e, image(c)) for e, c in f.items()) if r}
                for f in minors(rows, subsets)]
    assert minors(images, subsets, prime) == expected


def shift_reader(v, count, b):
    """The balanced base-2^b digits of v read one at a time, shifting v by b
    bits after each."""
    half, mask, digits = 1 << b - 1, (1 << b) - 1, []
    for _ in range(count):
        digits.append((v + half & mask) - half)
        v = v - digits[-1] >> b
    return digits


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_balanced_digits_match_the_shift_reader(data):
    # digit vectors up to just past _SHIFT_BITS bits, so on both sides of it
    # for b above 25 (at most 160 digits), with the extreme digits
    # -2^(b-1) and 2^(b-1) - 1 common
    b = data.draw(st.integers(1, 130), label="b")
    count = data.draw(st.integers(1, min(160, _SHIFT_BITS // b + 2)), label="count")
    half = 1 << b - 1
    digit = st.integers(-half, half - 1) | st.sampled_from([-half, half - 1, 0])
    digits = data.draw(st.lists(digit, min_size=count, max_size=count), label="digits")
    v = sum(d << b * k for k, d in enumerate(digits))
    assert _balanced_digits(v, count, b) == shift_reader(v, count, b) == digits


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_restrict_is_the_substitution(data):
    # values at points with 1 at the ones' variables and 0 at the zeros'
    nvars = data.draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    p = Poly(nvars, data.draw(st.dictionaries(exps, st.integers(-5, 5), max_size=8)))
    roles = data.draw(st.lists(st.sampled_from("10x"), min_size=nvars, max_size=nvars))
    chart = [v for v, r in enumerate(roles) if r == "1"]
    zeros = [v for v, r in enumerate(roles) if r == "0"]
    q = Poly(nvars, _restrict(p.terms, chart, zeros))
    for v in chart + zeros:
        assert all(e[v] == 0 for e in q.terms)
    point = [data.draw(st.integers(-3, 3)) for _ in range(nvars)]
    at = [1 if r == "1" else 0 if r == "0" else c for r, c in zip(roles, point)]
    assert q.evaluate(at) == p.evaluate(at)

def test_dehomogenize():
    x, y = variables(2)
    p = x * x * y
    assert Poly(2, _restrict(p.terms, [0])) == y
    one = Poly.constant(1, 2)
    assert Poly(2, _restrict(one.terms, [0])) == one


def test_dehomogenize_support_recovery():
    # rehomogenizing a dehomogenized cubic recovers the original support
    rng = random.Random(8)
    for _ in range(5):
        terms = {}
        for _ in range(5):
            a = rng.randint(0, 3)
            b = rng.randint(0, 3 - a)
            c = 3 - a - b
            terms[(a, b, c)] = rng.randint(1, 3)
        p = Poly(3, terms)
        chart = Poly(3, _restrict(p.terms, [2]))
        rehom = {
            (e[0], e[1], 3 - e[0] - e[1]) for e in chart.terms
        }
        assert rehom == set(p.terms)
