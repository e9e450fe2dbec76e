import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (exact_basis, exactly_unit, grevlex_key, groebner, leading_term,
                      normal_form, power, qp_eval, variables)

from fano212 import groebner as groebner_module
from fano212.cyclotomic import (Cyclotomic, _fp_field, _rational_reconstruction, cyc,
                                cyclotomic_coeffs)
from fano212.groebner import (
    _exact_basis,
    _guard,
    _interreduce,
    _lift_holds,
    _mod_p_basis,
    _monic,
    _normal_form,
    _pack,
    _pack_terms,
    _pair_lcms,
    _unpack,
    _width,
    DegreeCapExceeded,
    NonHomogeneousIdeal,
    buchberger,
    hilbert_polynomial,
    monomial_divides,
    projective_empty,
    qp_binomial,
    qp_str,
    unit_mod_p_or_q,
)
from fano212.multipoly import MultiPoly


def _mod_p_leads(generators):
    """The leading monomials of the mod-p run, as tuples; None when there is
    no run."""
    run = _mod_p_basis(generators)
    if run is None:
        return None
    basis, w, nvars, _ = run
    return [_unpack(lm, w, nvars) for lm, _ in basis]


def count_standard_monomials(lead_monos, nvars, degree):
    """Brute-force count of degree-d monomials outside the leading ideal."""
    count = 0
    for picks in itertools.combinations_with_replacement(range(nvars), degree):
        exps = tuple(picks.count(i) for i in range(nvars))
        if not any(all(x >= y for x, y in zip(exps, m)) for m in lead_monos):
            count += 1
    return count


def test_grevlex_order_on_degree_two():
    # x^2 > xy > y^2 > xz > yz > z^2
    order = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert sorted(order, key=grevlex_key, reverse=True) == order


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_monomials_agree_with_tuples(data):
    nvars = data.draw(st.integers(1, 6))
    top = data.draw(st.integers(0, 70))
    w = _width(top)
    assert 2 ** (w - 1) > top
    monomial = st.tuples(*[st.integers(0, top)] * nvars)
    a, b = data.draw(monomial), data.draw(monomial)
    pa, pb = _pack(a, w), _pack(b, w)
    assert _unpack(pa, w, nvars) == a
    assert -(pa >> (w * nvars)) == sum(a)
    # the grevlex-larger monomial is the smaller int
    assert (pa < pb) == (grevlex_key(a) > grevlex_key(b))
    assert (not (pb - pa) & _guard(w, nvars)) == monomial_divides(a, b)
    assert pa + pb == _pack(tuple(x + y for x, y in zip(a, b)), w)
    if sum(a) + sum(b) < 2**w:
        lcm = _pack(tuple(map(max, a, b)), w)
        assert _pair_lcms(w, nvars)([pa, pb], 1) == [lcm]
    assert _pack((0,) * nvars, w) == 0
    # the engine's own test: b reduces to 0 by a iff a divides b
    remainder = _normal_form({pb: 1}, [(pa, {pa: 1})], _guard(w, nvars))
    assert (not remainder) == monomial_divides(a, b)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_packed_normal_form_is_the_plain_division(data):
    # both take the largest term first and the first basis element whose
    # lead divides it, so they agree on any basis, Groebner or not
    nvars = data.draw(st.integers(1, 4))
    monomial = st.tuples(*[st.integers(0, 3)] * nvars)
    polynomial = st.dictionaries(monomial, st.integers(-3, 3), max_size=5).map(
        lambda terms: MultiPoly(nvars, terms))
    p = data.draw(polynomial)
    basis = data.draw(st.lists(polynomial.filter(bool), min_size=1, max_size=3))
    w = _width(max(g.degree() for g in [p] + basis))
    remainder = _normal_form(_pack_terms(p.terms, w),
                             [_monic(_pack_terms(g.terms, w)) for g in basis], _guard(w, nvars))
    unpacked = {_unpack(m, w, nvars): c for m, c in remainder.items()}
    assert MultiPoly(nvars, unpacked) == normal_form(p, basis)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_shared_reducer_memo_leaves_every_remainder(data):
    # one memo across normal forms by a list that only grows, as in a
    # Buchberger run, finds each term's first divisor as a fresh scan does
    nvars = data.draw(st.integers(1, 4))
    monomial = st.tuples(*[st.integers(0, 3)] * nvars)
    polynomial = st.dictionaries(monomial, st.integers(-3, 3), max_size=5).map(
        lambda terms: MultiPoly(nvars, terms))
    basis = data.draw(st.lists(polynomial.filter(bool), min_size=1, max_size=4))
    polys = data.draw(st.lists(polynomial, min_size=1, max_size=6))
    w = _width(max(g.degree() for g in polys + basis))
    leads, memo = [_monic(_pack_terms(g.terms, w)) for g in basis], {}
    for i, p in enumerate(polys):
        size = 1 + i * len(basis) // len(polys)
        shared = _normal_form(_pack_terms(p.terms, w), leads[:size], _guard(w, nvars),
                              None, memo)
        unpacked = {_unpack(m, w, nvars): c for m, c in shared.items()}
        assert MultiPoly(nvars, unpacked) == normal_form(p, basis[:size])


def test_already_reduced_basis():
    x, y = variables(2)
    gb = groebner([x, y])
    assert gb == [y, x] or gb == [x, y]
    assert {leading_term(g)[0] for g in gb} == {(1, 0), (0, 1)}


def test_redundant_generator_removed():
    x, y = variables(2)
    gb = groebner([x - y, y - x])
    assert len(gb) == 1
    assert gb[0] == x - y or gb[0] == -(x - y)


def test_affine_twisted_cubic_membership():
    x, y, z = variables(3)
    gens = [x * x - y, x * x * x - z]
    gb = exact_basis(gens)
    assert buchberger(gens) == [leading_term(g)[0] for g in gb]
    for g in gens:
        assert normal_form(g, gb).is_zero()
    # x*y - z is in the ideal: x*(x^2 - y) - (x^3 - z) = -xy + z
    assert normal_form(x * y - z, gb).is_zero()


def test_projective_twisted_cubic_hilbert_with_counting_oracle():
    v = variables(4)
    gens = [
        v[0] * v[2] - power(v[1], 2),
        v[0] * v[3] - v[1] * v[2],
        v[1] * v[3] - power(v[2], 2),
    ]
    hp = hilbert_polynomial(gens)
    assert hp == (Fraction(1), Fraction(3))  # 3t + 1
    leads = buchberger(gens)
    for t in range(2, 9):
        assert count_standard_monomials(leads, 4, t) == qp_eval(hp, t)


def test_reduced_basis_deterministic_under_shuffle():
    v = variables(4)
    gens = [
        v[0] * v[2] - power(v[1], 2),
        v[0] * v[3] - v[1] * v[2],
        v[1] * v[3] - power(v[2], 2),
        (v[0] + v[1]) * (v[1] * v[3] - power(v[2], 2)),
    ]
    reference = None
    for seed in range(6):
        shuffled = list(gens)
        random.Random(seed).shuffle(shuffled)
        gb = groebner(shuffled)
        if reference is None:
            reference = gb
        else:
            assert gb == reference


def test_groebner_over_cyclotomic_coefficients():
    i = Cyclotomic.zeta(4)
    x, y = variables(2)
    gb = groebner([x - y * i, x * x + y * y])
    # substituting x = i y forces y^2 (1 + i^2) ... the ideal is (x - iy, y^2 * 0)
    # actually x^2 + y^2 = (iy)^2 + y^2 = 0, so the ideal is principal
    assert len(gb) == 1
    assert gb[0] == x - y * i


class TestProjectiveEmpty:
    def test_irrelevant_ideal(self):
        assert projective_empty(variables(3)) is True

    def test_contains_a_line(self):
        x, y = variables(3)[:2]
        assert projective_empty([x * x, x * y]) is False

    def test_pure_powers(self):
        x, y, z = variables(3)
        assert projective_empty([power(x, 3), power(y, 3), power(z, 3)]) is True

    def test_rejects_nonhomogeneous(self):
        x, y, z = variables(3)
        with pytest.raises(NonHomogeneousIdeal):
            projective_empty([x * x - y])

    def test_negative_direction_against_grid_search(self):
        rng = random.Random(13)
        values = [cyc(v) for v in (-1, 0, 1, 2)]
        for _ in range(8):
            gens = []
            for _ in range(3):
                terms = {}
                for _ in range(3):
                    a = rng.randint(0, 2)
                    b = rng.randint(0, 2 - a)
                    terms[(a, b, 2 - a - b)] = rng.randint(-2, 2)
                p = MultiPoly(3, terms)
                if not p.is_zero():
                    gens.append(p)
            if not gens:
                continue
            zero_found = False
            for point in itertools.product(values, repeat=3):
                if all(v.is_zero() for v in point):
                    continue
                if all(g.evaluate(list(point)).is_zero() for g in gens):
                    zero_found = True
                    break
            if zero_found:
                assert projective_empty(gens) is False


class TestHilbert:
    def test_zero_ideal(self):
        assert hilbert_polynomial([MultiPoly.zero(4)]) == qp_binomial(3)
        assert qp_str(qp_binomial(3)) == "1/6*t^3 + t^2 + 11/6*t + 1"

    def test_hyperplane(self):
        v = variables(4)
        assert hilbert_polynomial([v[0]]) == qp_binomial(2)

    def test_rejects_nonhomogeneous(self):
        v = variables(4)
        with pytest.raises(NonHomogeneousIdeal):
            hilbert_polynomial([v[0] * v[0] - v[1]])

    def test_no_generators_no_variable_count(self):
        with pytest.raises(ValueError):
            hilbert_polynomial([])

    def test_monomial_ideals_against_counting(self):
        # 1-5 variables and degrees 1-3, so that the recursion meets one
        # variable, a unit generator (the colon of a variable) and a pivot
        # that every generator uses
        rng = random.Random(21)
        for nvars in range(1, 6):
            for _ in range(8):
                monos = set()
                for _ in range(rng.randint(1, 6)):
                    picks = rng.choices(range(nvars), k=rng.randint(1, 3))
                    monos.add(tuple(picks.count(i) for i in range(nvars)))
                hp = hilbert_polynomial([MultiPoly(nvars, {m: 1}) for m in monos])
                # inclusion-exclusion over the generators shows the Hilbert
                # function is the polynomial from deg lcm - nvars + 1 on
                start = max(sum(max(e) for e in zip(*monos)) - nvars + 1, 0)
                for t in range(start, start + 4):
                    assert qp_eval(hp, t) == count_standard_monomials(monos, nvars, t)


def test_degree_cap(monkeypatch):
    x, y = variables(2)
    high = power(x, 17) * y - power(y, 15), x * power(y, 16) - power(x, 14)
    monkeypatch.setattr(groebner_module, "DEGREE_CAP", 20)
    with pytest.raises(DegreeCapExceeded) as exc:
        buchberger(list(high))
    # an exit 3 says how far the run got
    assert str(exc.value) == (
        "S-pair degree 33 exceeds cap 20 (basis size 2, pending pairs 1)"
    )


def test_unit_ideal_detection():
    # the exact leads hold the constant monomial exactly for the unit ideal
    x, y = variables(2)
    assert (0, 0) in buchberger([x, y, x * y - 1])
    assert (0, 0) not in buchberger([x * x, x * y])
    i = Cyclotomic.zeta(4)
    assert (0, 0) in buchberger([x * i, y, x * y - 1])
    assert (0, 0) not in buchberger([x * x * i, x * y])


def test_a_constant_remainder_ends_every_run():
    # x*y - 1 reduces to the constant -1 by x and y: the basis of the unit
    # ideal is just 1, exactly and mod p
    x, y = variables(2)
    assert exact_basis([x, y, x * y - 1]) == [MultiPoly.constant(1, 2)]
    assert buchberger([x, y, x * y - 1]) == [(0, 0)]
    assert _mod_p_leads([x, y, x * y - 1]) == [(0, 0)]
    assert exact_basis([x, MultiPoly.constant(3, 2)]) == [MultiPoly.constant(1, 2)]


def _twisted_cubic():
    v = variables(4)
    return [
        v[0] * v[2] - power(v[1], 2),
        v[0] * v[3] - v[1] * v[2],
        v[1] * v[3] - power(v[2], 2),
    ]


def _quadric_triple():
    rng = random.Random(5)
    monos = [m for m in itertools.product(range(3), repeat=4) if sum(m) == 2]
    return [MultiPoly(4, {m: rng.randint(-2, 2) for m in monos}) for _ in range(3)]


def _zeta_scaled(ideal):
    gens = ideal()
    return [gens[0] * Cyclotomic.zeta(4)] + gens[1:]


@pytest.mark.parametrize("ideal", [_twisted_cubic, _quadric_triple])
def test_both_coefficient_domains_give_one_reduced_basis(ideal):
    # rational input runs on Fractions; a zeta_4 factor forces Q(zeta_4)
    twisted = _zeta_scaled(ideal)
    assert not all(c.is_rational() for c in twisted[0].terms.values())
    assert groebner(twisted) == groebner(ideal())


def _binomial_triple():
    # the inputs x0*x1 - x2^2, x0*x3 - x0*x2 and x1*x2 + 2*x0*x1, whose third
    # reduces by the first to x1*x2 + 2*x2^2: the leads x0*x1, x0*x2, x1*x2
    # of the reduced inputs share the lcm x0*x1*x2
    v = variables(4)
    return [v[0] * v[1] - power(v[2], 2), v[0] * v[3] - v[0] * v[2],
            v[1] * v[2] + v[0] * v[1] * 2]


# Leading monomials of the non-reduced bases, in order, as the inter-reduced
# inputs and the normal strategy with first-queued-first tie-breaking build
# them.  The three quadrics share the lead x0^2, so their inputs reduce to
# the leads x0^2, x0*x1, x1^2.  The binomials' three pairs tie, and the
# order in which tied pairs are taken shows in the appended x2^3 and x2^2*x3.
PINNED_LEADS = {
    _twisted_cubic: [(0, 2, 0, 0), (0, 1, 1, 0), (0, 0, 2, 0)],
    _quadric_triple: [
        (2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (1, 0, 2, 0), (0, 1, 2, 0), (0, 0, 4, 0),
    ],
    _binomial_triple: [
        (1, 1, 0, 0), (1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 3, 0), (0, 0, 2, 1), (2, 0, 0, 2),
    ],
}


@pytest.mark.parametrize("domain", ["integer", "zeta4", "modp"])
@pytest.mark.parametrize("ideal", [_twisted_cubic, _quadric_triple, _binomial_triple])
def test_pair_order_pins_the_non_reduced_basis(ideal, domain):
    # Q ("integer": rational input), Q(zeta_4) and F_p run one monic engine,
    # so all three meet the pins
    gens = ideal() if domain == "integer" else _zeta_scaled(ideal)
    if domain == "modp":
        assert _mod_p_leads(gens) == PINNED_LEADS[ideal]
        return
    assert buchberger(gens) == PINNED_LEADS[ideal]
    assert all(leading_term(g)[1] == 1 for g in exact_basis(gens))


def _mixed_degree_ideal(seed):
    rng = random.Random(seed)
    gens = []
    for degree in (2, 2, 3):
        monos = [m for m in itertools.product(range(degree + 1), repeat=4)
                 if sum(m) == degree]
        gens.append(MultiPoly(4, {m: rng.randint(-2, 2) for m in rng.sample(monos, 4)}))
    return gens


@pytest.mark.parametrize(
    "gens",
    [_twisted_cubic(), _quadric_triple(), _zeta_scaled(_quadric_triple)]
    + [_mixed_degree_ideal(seed) for seed in range(4)],
)
def test_appended_degrees_never_decrease_on_homogeneous_input(gens):
    # the normal strategy takes S-pairs by increasing lcm degree
    degrees = [sum(m) for m in buchberger(gens)[len(gens):]]
    assert degrees == sorted(degrees)


@pytest.mark.parametrize(
    "gens",
    [_quadric_triple(), _zeta_scaled(_quadric_triple)]
    + [_mixed_degree_ideal(seed) for seed in range(4)],
)
def test_groebner_gives_the_reduced_basis(gens):
    gb = groebner(gens)
    leads = [leading_term(g)[0] for g in gb]
    # monic, and sorted with distinct leads, grevlex-largest first
    assert all(leading_term(g)[1] == 1 for g in gb)
    keys = [grevlex_key(m) for m in leads]
    assert all(a > b for a, b in zip(keys, keys[1:]))
    # no term of an element lies in the leading ideal of the others
    for i, g in enumerate(gb):
        for j, m in enumerate(leads):
            assert j == i or not any(monomial_divides(m, t) for t in g.terms)
    # it spans an ideal holding every generator
    assert all(normal_form(g, gb).is_zero() for g in gens)


_linear = st.lists(st.integers(-2, 2), min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(["modp", "rational", "zeta4"]))
def test_inter_reduced_inputs_keep_the_reduced_basis(data, domain):
    # combinations of the generators lie in their ideal, so mixed in among
    # them they leave the reduced basis, which the ideal alone fixes
    v = variables(3)
    quadrics = [a * b for a, b in itertools.combinations_with_replacement(v, 2)]
    quadric = st.lists(st.integers(-2, 2), min_size=6, max_size=6).map(
        lambda c: sum((q * k for q, k in zip(quadrics, c)), MultiPoly.zero(3)))
    gens = data.draw(st.lists(quadric.filter(bool), min_size=1, max_size=3))
    if domain == "zeta4":
        gens[0] = gens[0] * Cyclotomic.zeta(4)
    combos = [sum((g * sum((x * k for x, k in zip(v, data.draw(_linear))), MultiPoly.zero(3))
                   for g in gens), MultiPoly.zero(3)) for _ in range(data.draw(st.integers(1, 3)))]
    mixed = data.draw(st.permutations(gens + [c for c in combos if c]))

    def reduced(generators):
        if domain == "modp":
            basis, w, nvars, prime = _mod_p_basis(generators)
        else:
            (basis, w, nvars), prime = _exact_basis(generators), None
        return _interreduce(basis, _guard(w, nvars), prime)

    assert reduced(mixed) == reduced(gens)


# -- the F_p certificate ---------------------------------------------------------


def _trial_division_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 12, 210, 840, 1024])
def test_prime_field_set_up(n):
    p, powers = _fp_field(n)
    r = powers[1 % n]
    assert powers == [pow(r, k, p) for k in range(n)]
    assert _trial_division_prime(p)
    assert (p - 1) % n == 0 and p > 2**31
    # the least such prime
    assert not any(_trial_division_prime(c) for c in range(p - n, 2**31, -n))
    # r has order exactly n, so it is a root of Phi_n mod p
    assert pow(r, n, p) == 1
    primes = [q for q in range(2, n + 1) if n % q == 0 and _trial_division_prime(q)]
    assert all(pow(r, n // q, p) != 1 for q in primes)
    assert sum(c * pow(r, k, p) for k, c in enumerate(cyclotomic_coeffs(n))) % p == 0
    assert _fp_field(n) == (p, powers)


def _counting_buchberger(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(groebner_module, "buchberger", counted)
    return calls


class TestCertificateFallbacks:
    def test_a_generator_killed_mod_p_falls_back(self, monkeypatch):
        p = _fp_field(1)[0]
        x, y, z = variables(3)
        calls = _counting_buchberger(monkeypatch)
        # mod p the ideal is (x, y), whose locus is the point (0:0:1)
        assert projective_empty([x, y, z * p]) is True
        assert len(calls) == 1

    def test_a_denominator_divisible_by_p_is_decided_exactly(self, monkeypatch):
        p = _fp_field(1)[0]
        x, y, z = variables(3)
        calls = _counting_buchberger(monkeypatch)
        assert projective_empty([x, y, z * Fraction(1, p)]) is True
        assert projective_empty([x * x, y * Fraction(3, p)]) is False
        assert len(calls) == 2
        assert unit_mod_p_or_q([x * Fraction(1, p) - 1]) is False

    def test_unit_mod_p_is_not_unit_over_q(self, monkeypatch):
        p = _fp_field(1)[0]
        (x,) = variables(1)
        assert exactly_unit([x * p - 1]) is False
        # a True mod p is final: neither the lift nor the exact engine runs
        _refuse_after_mod_p(monkeypatch)
        assert unit_mod_p_or_q([x * p - 1]) is True

    def test_a_mod_p_cap_overflow_falls_back(self, monkeypatch):
        x, y, z = variables(3)
        calls = _counting_buchberger(monkeypatch)
        gens = [power(x, 3) - y * z * z, power(y, 3) - x * z * z, power(z, 3)]
        assert _mod_p_leads(gens) == [(3, 0, 0), (0, 3, 0), (0, 0, 3)]
        monkeypatch.setattr(groebner_module, "DEGREE_CAP", 3)
        assert _mod_p_leads(gens) is None
        with pytest.raises(DegreeCapExceeded):
            projective_empty(gens)
        assert len(calls) == 1


def _exactly_empty(gens, nvars):
    """The leading-ideal test on the exact basis: 1, or a pure power of
    every variable."""
    leads = buchberger(gens)
    return any(sum(m) == 0 for m in leads) or all(
        any(m[v] > 0 and sum(m) == m[v] for m in leads) for v in range(nvars)
    )


def _random_scalar(rng, conductor):
    c = cyc(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    if conductor > 1:
        root = Cyclotomic.zeta(conductor, rng.randrange(conductor))
        c = c + root * rng.randint(-2, 2)
    return c


@pytest.mark.parametrize("conductor", [1, 4, 8])
def test_certificate_agrees_with_the_exact_test(conductor):
    rng = random.Random(100 + conductor)
    monos = [m for m in itertools.product(range(3), repeat=3) if sum(m) == 2]
    x = variables(3)[0]
    verdicts = []
    for _ in range(12):
        gens = [
            MultiPoly(3, {m: _random_scalar(rng, conductor) for m in monos})
            for _ in range(rng.choice((2, 3)))
        ]
        if rng.random() < 0.4:
            # plant a point (1 : a : b) with a, b in the field
            point = [cyc(1)] + [_random_scalar(rng, conductor) for _ in range(2)]
            gens = [g - x * x * g.evaluate(point) for g in gens]
        gens = [g for g in gens if not g.is_zero()]
        expected = _exactly_empty(gens, 3)
        assert projective_empty(gens) is expected
        verdicts.append(expected)
    assert True in verdicts and False in verdicts


# -- the checked lift of the mod-p run -------------------------------------------


@pytest.mark.parametrize("num_bound, den_bound", [(7, 7), (20, 2), (2, 20)])
def test_reconstruction_finds_exactly_the_small_fractions(num_bound, den_bound):
    m = 101
    assert 2 * num_bound * den_bound < m
    small = {}
    for d in range(1, den_bound + 1):
        for n in range(-num_bound, num_bound + 1):
            small[n * pow(d, -1, m) % m] = Fraction(n, d)
    for a in range(m):
        assert _rational_reconstruction(a, m, num_bound, den_bound) == small.get(a)


def _refuse_exact(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exact engine ran")

    monkeypatch.setattr(groebner_module, "buchberger", refuse)


def _refuse_after_mod_p(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rung after the mod-p run ran")

    monkeypatch.setattr(groebner_module, "_lift_holds", refuse)
    monkeypatch.setattr(groebner_module, "buchberger", refuse)


class TestCheckedLift:
    def test_the_lift_decides_without_the_exact_engine(self, monkeypatch):
        x, y, z = variables(3)
        _refuse_exact(monkeypatch)
        # not unit, though the reduced basis x - 1/2, y^2 - 3 has constant terms
        assert unit_mod_p_or_q([x * 2 - 1, y * y - x * 6]) is False
        # the point (1 : 2 : 3)
        assert projective_empty([x * 2 - y, x * 3 - z]) is False
        assert projective_empty([x * x - y * z * Fraction(1, 6), y * 3 - z * 2]) is False

    def test_coefficients_above_the_bound_fall_back(self, monkeypatch):
        p = _fp_field(1)[0]
        big = math.isqrt(p // 2) + 7
        x, y, z = variables(3)
        # mod p the reduced basis is x + big*z, y + big*z, which holds the
        # generators over Q too, yet big is above the bound
        gens = [x + z * big, y * Fraction(1, big) + z]
        assert not _lift_holds(gens, _mod_p_basis(gens))
        calls = _counting_buchberger(monkeypatch)
        assert projective_empty(gens) is False
        assert unit_mod_p_or_q([g.dehomogenize((2,)) for g in gens]) is False
        assert len(calls) == 2

    def test_a_generator_that_vanishes_mod_p_fails_the_input_check(self, monkeypatch):
        # mod p the ideal is (x^2, x*y), with the zero (0 : 1); over Q it has
        # none, and x*y + p is the unit ideal with x
        p = _fp_field(1)[0]
        x, y = variables(2)
        gens = [x * x, x * y - y * y * p]
        assert _mod_p_leads(gens) == [(2, 0), (1, 1)]
        assert not _lift_holds(gens, _mod_p_basis(gens))
        calls = _counting_buchberger(monkeypatch)
        assert projective_empty(gens) is True
        assert unit_mod_p_or_q([x, x * y + p]) is True
        assert len(calls) == 2

    def test_a_basis_groebner_only_mod_p_fails_the_s_pair_check(self, monkeypatch):
        # g(256, 1) = p, so mod p the locus holds (256 : 1 : 1), and the lifted
        # basis holds every generator; over Q, y^2 = z^2 != 0 forces x = 256z
        # and then g = p*z^3 != 0, so an S-pair reduces to a nonzero multiple
        # of p
        p = _fp_field(1)[0]
        x, y, z = variables(3)
        g = power(x, 3) + x * x * z * 32512 + power(z, 3) * 11
        assert g.evaluate([cyc(256), cyc(0), cyc(1)]) == cyc(p)
        gens = [g, (x - z * 256) * y, y * y - z * z]
        assert not _empty_locus_mod_p(gens)
        assert not _lift_holds(gens, _mod_p_basis(gens))
        calls = _counting_buchberger(monkeypatch)
        assert projective_empty(gens) is True
        assert len(calls) == 1

    def test_the_chain_criterion_skips_only_after_both_pairs_are_done(self):
        # a hand-built run with G = {x*y - z, y*z - x, x*z - y}: the three lcms
        # are x*y*z, each divisible by the third lead, and the first pair
        # taken, S = x^2 - z^2, does not reduce to 0, so G is no Groebner basis
        p = _fp_field(1)[0]
        x, y, z = variables(3)
        gens = [x * y - z, y * z - x, x * z - y]
        w = _width(groebner_module.DEGREE_CAP)
        run = ([_monic({_pack(m, w): int(c.to_rational()) % p for m, c in g.terms.items()}, p)
                for g in gens], w, 3, p)
        assert not _lift_holds(gens, run)

    def test_a_term_that_vanishes_mod_p_above_the_width_falls_back(self):
        # mod p the run sees degree 1 only, so x^40 does not fit its fields
        p = _fp_field(1)[0]
        x, y = variables(2)
        gens = [power(x, 40) * p + y - 1]
        assert 40 >= 2 ** (_mod_p_basis(gens)[1] - 1)
        assert not _lift_holds(gens, _mod_p_basis(gens))
        assert unit_mod_p_or_q(gens) is False


def _empty_locus_mod_p(gens):
    leads = _mod_p_leads(gens)
    return all(any(sum(m) == m[v] for m in leads) for v in range(gens[0].nvars))


_coefficient = st.integers(-3, 3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_certified_answers_are_the_exact_ones(data):
    nvars = data.draw(st.integers(2, 3))
    gens = []
    for _ in range(data.draw(st.integers(1, 3))):
        degree = data.draw(st.integers(1, 2))
        monos = [m for m in itertools.product(range(degree + 1), repeat=nvars)
                 if sum(m) == degree]
        coefficients = data.draw(st.lists(_coefficient, min_size=len(monos),
                                          max_size=len(monos)))
        gens.append(MultiPoly(nvars, dict(zip(monos, coefficients))))
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    assert projective_empty(gens) is _exactly_empty(gens, nvars)
    chart = [g.dehomogenize((0,)) for g in gens]
    chart = [g for g in chart if not g.is_zero()]
    leads = _mod_p_leads(chart)
    unit_mod_p = leads is not None and (0,) * nvars in leads
    assert unit_mod_p_or_q(chart) is (unit_mod_p or exactly_unit(chart))
