import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_coeffs
from fano212.cyclotomic import (
    Cyclotomic,
    _fp_field,
    _fp_image,
    cyc,
    cyclotomic_coeffs,
    euler_phi,
    format_cyclotomic,
    LiteralError,
    _fold_terms,
    _literal_terms,
)


def poly_of_phi(n):
    return [Fraction(c) for c in cyclotomic_coeffs(n)]


def test_phi_small_values():
    assert poly_of_phi(1) == [-1, 1]  # x - 1
    assert poly_of_phi(2) == [1, 1]  # x + 1
    assert poly_of_phi(4) == [1, 0, 1]  # x^2 + 1
    assert poly_of_phi(6) == [1, -1, 1]  # x^2 - x + 1


def long_divide(num, den):
    """Quotient and remainder (padded to deg den) of Fraction long division,
    constant term first; written here so that the oracles below do not read
    the module's own reduction."""
    num, deg = list(num), len(den) - 1
    quot = [Fraction(0)] * max(len(num) - deg, 1)
    for i in range(len(num) - 1, deg - 1, -1):
        c = num[i] / den[-1]
        quot[i - deg] = c
        for j, d in enumerate(den):
            num[i - deg + j] -= c * d
    return quot, (num + [Fraction(0)] * deg)[:deg]


def test_phi_by_long_division_oracle():
    # divide x^n - 1 by Phi_d for every proper divisor d of n and compare
    for n in (6, 60, 105, 840):
        num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
        for d in range(1, n):
            if n % d == 0:
                num, rem = long_divide(num, poly_of_phi(d))
                assert not any(rem)
        assert num == poly_of_phi(n)


def reference_product(n, a, b):
    """a*b in Q(zeta_n) from Fraction coefficient vectors: naive
    convolution, then the remainder by Phi_n."""
    dense = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            dense[i + j] += x * y
    return tuple(long_divide(dense, poly_of_phi(n))[1])


def assert_lowest_terms(a):
    assert a.den > 0 and gcd(*a.num, a.den) == 1
    if a.is_zero():
        assert a.den == 1


def random_element(rng, n, terms):
    coeffs = [Fraction(0)] * euler_phi(n)
    for k in rng.sample(range(len(coeffs)), terms):
        coeffs[k] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return from_coeffs(n, coeffs)


@pytest.mark.parametrize("n", [8, 60, 210, 504])
def test_integer_form_against_fraction_reference(n):
    rng = random.Random(n)
    phi = euler_phi(n)
    for _ in range(3):
        a = random_element(rng, n, rng.randint(1, min(phi, 6)))
        b = random_element(rng, n, rng.randint(1, phi))
        q = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12))
        results = [a + b, a - b, a - a, a * b, a * q, a * cyc(q).inverse(), b.lift(2 * n),
                   Cyclotomic.zeta(n, rng.randrange(n)), cyc(0, n)]
        product = a * b
        assert product.coeffs == reference_product(n, a.coeffs, b.coeffs)
        if not a.is_zero():
            inverse = a.inverse()
            results += [inverse, b * inverse]
            assert reference_product(n, a.coeffs, inverse.coeffs) == (1,) + (0,) * (phi - 1)
            assert a * inverse == 1
        for value in results:
            assert_lowest_terms(value)


def coeffs_at(a, n):
    """The Fraction coefficients of a in Q(zeta_n), for a of conductor n or
    1, read off the power basis without the module's lift."""
    if a.n == n:
        return a.coeffs
    assert a.n == 1
    return a.coeffs + (Fraction(0),) * (euler_phi(n) - 1)


@pytest.mark.parametrize("n", [1, 8, 60, 210, 504])
def test_fast_path_operands_against_fraction_reference(n):
    # the shapes that skip the convolution or the gcd: rational at n and at
    # conductor 1, unit denominators, int and Fraction scalars, and zero
    rng = random.Random(100 + n)
    phi = euler_phi(n)
    operands = [
        cyc(Fraction(-3, 4), n),
        cyc(6, n),
        cyc(Fraction(5, 6)),
        cyc(-2),
        from_coeffs(n, [2 * rng.randint(-9, 9) for _ in range(phi)]),
        random_element(rng, n, min(phi, 3)),
        cyc(0),
        cyc(0, n),
    ]
    if phi > 2:
        # irrational, yet its coordinate at zeta_n is zero
        operands.append(from_coeffs(n, [Fraction(1, 3), 0] + [Fraction(2, 3)] * (phi - 2)))
    scalars = [0, 1, -1, 4, -6, Fraction(2, 3), Fraction(-9, 4)]
    for a in operands:
        for b in operands:
            m = lcm(a.n, b.n)
            ca, cb = coeffs_at(a, m), coeffs_at(b, m)
            product, total, difference = a * b, a + b, a - b
            if not any(ca[1:]):
                assert product.coeffs == tuple(ca[0] * y for y in cb)
            elif not any(cb[1:]):
                assert product.coeffs == tuple(x * cb[0] for x in ca)
            else:
                assert product.coeffs == reference_product(m, ca, cb)
            assert total.coeffs == tuple(x + y for x, y in zip(ca, cb))
            assert difference.coeffs == tuple(x - y for x, y in zip(ca, cb))
            for value in (product, total, difference):
                assert value.n == m
                assert_lowest_terms(value)
        for q in scalars:
            for value, expected in [
                (a * q, [x * q for x in a.coeffs]), (q * a, [x * q for x in a.coeffs]),
                (a + q, [a.coeffs[0] + q, *a.coeffs[1:]]),
                (a - q, [a.coeffs[0] - q, *a.coeffs[1:]]),
                (q + a, [q + a.coeffs[0], *a.coeffs[1:]]),
            ]:
                assert value.coeffs == tuple(expected)
                assert_lowest_terms(value)


@pytest.mark.parametrize("n", [840, 1024])
def test_inverse_of_sparse_trinomial_at_large_conductor(n):
    # the Euclidean algorithm over Q took 31.6 s here at n = 840 and did not
    # finish in minutes at n = 1024; in integers it takes well under a second
    z = Cyclotomic.zeta(n)
    a = 3 * z**100 + z**7 * Fraction(1, 3) + 2
    assert a * a.inverse() == 1


@pytest.mark.parametrize("n", [*range(1, 25), 105, 210, 840, 1024])
def test_phi_monic_of_degree_phi_and_kills_zeta(n):
    coeffs = cyclotomic_coeffs(n)
    assert all(type(c) is int for c in coeffs)
    assert coeffs[-1] == 1
    assert len(coeffs) - 1 == euler_phi(n)
    z = Cyclotomic.zeta(n)
    value = cyc(0)
    for k, c in enumerate(coeffs):
        value = value + z**k * c
    assert value.is_zero()
    assert (z**n - 1).is_zero()


def test_roots_of_unity():
    assert Cyclotomic.zeta(4, 2) == -1
    for n in (1, 2, 3, 8, 12):
        assert Cyclotomic.zeta(n, 0) == 1
    assert Cyclotomic.zeta(8, 4) == -1
    assert Cyclotomic.zeta(8, 1) * Cyclotomic.zeta(8, 7) == 1


def test_product_of_conjugates_in_q_zeta3():
    z3 = Cyclotomic.zeta(3)
    assert (1 + z3) * (1 + z3 * z3) == 1


def test_lift_zeta2_into_conductor_6():
    lifted = Cyclotomic.zeta(2).lift(6)
    assert lifted == Cyclotomic.zeta(6, 3)
    assert lifted == -1


@pytest.mark.parametrize("n", [1, 4, 8, 840])
def test_truth_value_is_nonzero(n):
    # the Groebner engine tests coefficients with `if value:`
    zeros = [
        cyc(0, n),
        Cyclotomic.zeta(n) - Cyclotomic.zeta(n),
        cyc(0),
    ]
    assert not any(zeros)
    nonzeros = [
        cyc(Fraction(-1, 3), n),
        Cyclotomic.zeta(n),
        Cyclotomic.zeta(n, n - 1) - 2,
    ]
    assert all(nonzeros)
    if n > 1:
        # zeta_n^(n/2) = -1, so 1 + zeta_n^(n/2) vanishes
        assert not (Cyclotomic.zeta(n, n // 2) + 1)


def test_division_by_zero():
    for zero in (cyc(0), Cyclotomic.zeta(8) - Cyclotomic.zeta(8)):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def cyclotomics(conductor):
    phi = euler_phi(conductor)
    return st.lists(small_rationals, min_size=phi, max_size=phi).map(
        lambda cs: from_coeffs(conductor, cs)
    )


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 4, 8]), st.data())
def test_field_axioms(n, data):
    a = data.draw(cyclotomics(n))
    b = data.draw(cyclotomics(n))
    c = data.draw(cyclotomics(n))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inverse() == 1
        assert b * a.inverse() * a == b


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3, 4, 6]), st.data())
def test_lift_roundtrip_preserves_equality(n, data):
    a = data.draw(cyclotomics(n))
    lifted = a.lift(n * 4)
    assert lifted == a
    assert (lifted - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 4, 6, 8, 12, 30, 1024]),
       st.integers(min_value=-3000, max_value=3000))
def test_negative_roots_with_even_conductor(n, k):
    # the sign character is the exponent shift n/2: -zeta_n^k = zeta_n^(k + n/2)
    assert -Cyclotomic.zeta(n, k) == Cyclotomic.zeta(n, k + n // 2)
    assert -Cyclotomic.zeta(n, k) != Cyclotomic.zeta(n, k)


# -- the image in F_p ------------------------------------------------------------


def fraction_image(a, n, p, r):
    """The image of a under zeta_n -> r mod p, for a conductor dividing n: the
    sum of coeffs[k] * r^(k*n/c) as a Fraction, then reduced mod p."""
    q = sum(c * pow(r, k * n // a.n, p) for k, c in enumerate(a.coeffs))
    return q.numerator * pow(q.denominator, -1, p) % p


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fp_image_agrees_with_a_fraction_sum(data):
    values = [data.draw(cyclotomics(n)) for n in (4, 8, 24, 1, 8, 4)]
    p, powers = _fp_field(24)
    assert _fp_image(values) == (p, [fraction_image(a, 24, p, powers[1]) for a in values])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([4, 8, 24]), st.sampled_from([4, 8, 24]), st.data())
def test_fp_image_is_a_ring_map(m, n, data):
    x, y = data.draw(cyclotomics(m)), data.draw(cyclotomics(n))
    p, (image_x, image_y, product, total) = _fp_image([x, y, x * y, x + y])
    assert product == image_x * image_y % p
    assert total == (image_x + image_y) % p


def test_fp_image_is_none_when_p_divides_a_denominator():
    p = _fp_field(8)[0]
    assert _fp_image([Cyclotomic.zeta(8), cyc(Fraction(1, p))]) is None
    assert _fp_image([from_coeffs(8, [1, Fraction(3, 2 * p), 0, 0])]) is None
    # p in a numerator is no obstacle: the value maps to 0
    assert _fp_image([Cyclotomic.zeta(8), cyc(p)]) == (p, [_fp_field(8)[1][1], 0])


def test_small_cyclotomic_polynomials():
    # Phi_1 = x - 1, Phi_4 = x^2 + 1, Phi_6 = x^2 - x + 1, constant term first
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(6) == (1, -1, 1)


def parse(text, conductor):
    """A literal read at its conductor, as parse_instance reads it."""
    return _fold_terms(_literal_terms(text), conductor, conductor)


class TestLiterals:
    def test_parse_examples(self):
        a = parse("1/2*z^3 - 2", 8)
        assert a == from_coeffs(8, (Fraction(-2), 0, 0, Fraction(1, 2)))
        assert parse("z", 4) == Cyclotomic.zeta(4)
        assert parse("-z^2+1", 8) == -Cyclotomic.zeta(8, 2) + 1
        assert parse(" 3 ", 2) == 3

    def test_unreduced_coefficients_fold_to_lowest_terms(self):
        # the terms keep the integers as written; the fold reduces once
        assert _literal_terms("2/4*z - 6/3") == [(2, 4, 1), (-6, 3, None)]
        for n in (4, 8, 12):
            a, b = parse("2/4*z - 6/3", n), parse("1/2*z - 2", n)
            assert (a.n, a.num, a.den) == (b.n, b.num, b.den) == (n, a.num, 2)

    def test_exponent_reduction(self):
        assert parse("z^9", 8) == Cyclotomic.zeta(8, 1)
        assert parse("z^4", 4) == 1

    def test_format_parse_roundtrip(self):
        for coeffs in [(0, 0, 0, 0), (1, 0, 0, 0), (Fraction(1, 2), 3, 0, -2)]:
            a = from_coeffs(8, coeffs)
            assert parse(format_cyclotomic(a), 8) == a

    def test_serialization_idempotent(self):
        text = "-2 + 1/2*z^3"
        a = parse(text, 8)
        assert format_cyclotomic(a) == text

    def test_bad_literals(self):
        for bad in ("", "z^", "1//2", "2**z", "q + 1", "+"):
            with pytest.raises(LiteralError):
                parse(bad, 4)
