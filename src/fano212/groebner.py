"""Groebner bases in graded-reverse-lexicographic order via Buchberger's
algorithm, plus the projective-emptiness test and Hilbert polynomials of
homogeneous ideals.

One pair loop serves three coefficient domains: ideals with rational
coefficients run on integer terms (pseudo-reduction, content stripped), all
others on Q(zeta_N) coefficients, and F_p serves only as a one-sided
certificate with the exact engine as fallback.  S-pair selection uses the
normal strategy (smallest lcm in grevlex): pending pairs sit in a heap keyed
by (grevlex key of the lcm, insertion order), so among equal lcms the pair
queued first is taken first.  The product and chain criteria prune pairs.
S-pair degrees are capped so a runaway computation fails loudly instead of
hanging.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .cyclotomic import Cyclotomic, _prime_factors
from .multipoly import MultiPoly

DEGREE_CAP = 30


class DegreeCapExceeded(RuntimeError):
    """Raised when every pending S-pair exceeds the degree cap."""


class NonHomogeneousIdeal(ValueError):
    pass


@dataclass
class Ideal:
    generators: list = field(default_factory=list)

    def __post_init__(self):
        self.generators = [g for g in self.generators if not g.is_zero()]

    @property
    def nvars(self) -> int:
        return self.generators[0].nvars if self.generators else 0

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)


# -- monomial order ------------------------------------------------------------


def grevlex_key(mono):
    """Sort key: grevlex-larger monomials get larger keys."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def _grevlex_neg_key(mono):
    """Min-heap key placing the grevlex-largest monomial first."""
    return (-sum(mono), tuple(reversed(mono)))


def monomial_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def leading_term(p: MultiPoly):
    """(monomial, coefficient) of the grevlex-leading term, cached."""
    if p._lead is None:
        mono = max(p.terms, key=grevlex_key)
        object.__setattr__(p, "_lead", (mono, p.terms[mono]))
    return p._lead


def content_normalize(p: MultiPoly) -> MultiPoly:
    """Scale by a positive rational so all coefficient entries are coprime
    integers; keeps coefficient growth in check during basis construction."""
    if p.is_zero():
        return p
    num_gcd = 0
    den_lcm = 1
    for coef in p.terms.values():
        for c in coef.coeffs:
            if c:
                num_gcd = gcd(num_gcd, c.numerator)
                den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    factor = Fraction(den_lcm, num_gcd)
    if factor == 1:
        return p
    return p * factor


# -- reduction -----------------------------------------------------------------


def reducer_data(basis):
    """Precomputed (leading monomial, inverse leading coefficient, poly)."""
    return [leading_term(g)[:1] + (leading_term(g)[1].inverse(), g) for g in basis]


def normal_form(p: MultiPoly, basis, lead_data=None) -> MultiPoly:
    """Full remainder of p under division by the basis."""
    if lead_data is None:
        lead_data = reducer_data(basis)
    nvars = p.nvars
    work = dict(p.terms)
    remainder = {}
    while work:
        mono = max(work, key=grevlex_key)
        coef = work.pop(mono)
        for lm, lc_inv, g in lead_data:
            if monomial_divides(lm, mono):
                shift = monomial_div(mono, lm)
                factor = coef * lc_inv
                for ge, gc in g.terms.items():
                    key = monomial_mul(ge, shift)
                    if key == mono:
                        continue
                    value = work.get(key)
                    if value is None:
                        value = -factor * gc
                    else:
                        value = value - factor * gc
                    if value.is_zero():
                        work.pop(key, None)
                    else:
                        work[key] = value
                break
        else:
            remainder[mono] = coef
    out = MultiPoly(nvars, {})
    object.__setattr__(out, "terms", remainder)
    return out


def s_polynomial(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    fm, fc = leading_term(f)
    gm, gc = leading_term(g)
    lcm = monomial_lcm(fm, gm)
    left = MultiPoly.monomial(fc.inverse(), monomial_div(lcm, fm)) * f
    right = MultiPoly.monomial(gc.inverse(), monomial_div(lcm, gm)) * g
    return left - right


# -- integer engine --------------------------------------------------------
#
# Ideals whose coefficients are all rational run on plain integer
# arithmetic: pseudo-reduction with minimal scaling avoids per-operation
# gcd normalization, which dominates Fraction arithmetic on large ideals.


def _is_rational_poly(p: MultiPoly) -> bool:
    return all(c.is_rational() for c in p.terms.values())


def _to_int_terms(p: MultiPoly) -> dict:
    """mono -> int, after clearing denominators and content."""
    den_lcm = 1
    for c in p.terms.values():
        d = c.coeffs[0].denominator
        den_lcm = den_lcm * d // gcd(den_lcm, d)
    terms = {m: int(c.coeffs[0] * den_lcm) for m, c in p.terms.items()}
    content = 0
    for v in terms.values():
        content = gcd(content, v)
    if content > 1:
        terms = {m: v // content for m, v in terms.items()}
    return terms


def _from_int_terms(terms: dict, nvars: int) -> MultiPoly:
    out = MultiPoly(nvars, {})
    object.__setattr__(
        out,
        "terms",
        {m: Cyclotomic.from_rational(v) for m, v in terms.items()},
    )
    return out


def _int_strip_content(work: dict, remainder: dict):
    content = 0
    for v in work.values():
        content = gcd(content, v)
    for v in remainder.values():
        content = gcd(content, v)
    if content > 1:
        for k in work:
            work[k] //= content
        for k in remainder:
            remainder[k] //= content


def _int_normal_form(p: dict, lead_data) -> dict:
    work = dict(p)
    remainder: dict = {}
    heap = [(_grevlex_neg_key(m), m) for m in work]
    heapq.heapify(heap)
    queued = set(work)
    steps = 0
    while heap:
        _, mono = heapq.heappop(heap)
        queued.discard(mono)
        if mono not in work:
            continue
        coef = work.pop(mono)
        for lm, lc, g in lead_data:
            if monomial_divides(lm, mono):
                shift = monomial_div(mono, lm)
                d = gcd(coef, lc)
                scale = lc // d
                factor = coef // d
                if scale != 1:
                    for k in work:
                        work[k] *= scale
                    for k in remainder:
                        remainder[k] *= scale
                for ge, gc in g.items():
                    key = monomial_mul(ge, shift)
                    if key == mono:
                        continue
                    value = work.get(key, 0) - factor * gc
                    if value:
                        work[key] = value
                        if key not in queued:
                            queued.add(key)
                            heapq.heappush(heap, (_grevlex_neg_key(key), key))
                    else:
                        work.pop(key, None)
                steps += 1
                if steps % 32 == 0:
                    _int_strip_content(work, remainder)
                break
        else:
            remainder[mono] = coef
    content = 0
    for v in remainder.values():
        content = gcd(content, v)
    if content > 1:
        remainder = {m: v // content for m, v in remainder.items()}
    return remainder


def _int_lead_datum(terms: dict):
    """(leading monomial, leading coefficient, terms) of an integer poly."""
    lm = max(terms, key=grevlex_key)
    return lm, terms[lm], terms


def _int_s_polynomial(fd, gd) -> dict:
    fm, fc, f = fd
    gm, gc, g = gd
    lcm = monomial_lcm(fm, gm)
    d = gcd(fc, gc)
    fshift, fmul = monomial_div(lcm, fm), gc // d
    gshift, gmul = monomial_div(lcm, gm), fc // d
    terms: dict = {}
    for e, c in f.items():
        terms[monomial_mul(e, fshift)] = c * fmul
    for e, c in g.items():
        key = monomial_mul(e, gshift)
        value = terms.get(key, 0) - c * gmul
        if value:
            terms[key] = value
        else:
            terms.pop(key, None)
    return terms


# -- Buchberger ----------------------------------------------------------------


def _pair_key(i, j):
    return (i, j) if i < j else (j, i)


def _pair_loop(leads, s_pair, reduce, cap, stop_at_unit):
    """Buchberger's pair loop over a basis that the caller holds.

    leads lists the leading monomials of the basis elements.  s_pair(i, j)
    is the S-polynomial of elements i and j; reduce(p) reduces p by the
    basis and, if the remainder is nonzero, appends it to the basis and
    returns its leading monomial (None otherwise).  Returns True when
    stop_at_unit is set and a constant remainder appeared, else False.
    """
    # (grevlex key of the lcm, insertion counter, i, j, lcm): the counter
    # makes the first-inserted pair win among equal keys.
    pairs = []
    counter = itertools.count()

    def add_pairs(new_index):
        for i in range(new_index):
            lcm = monomial_lcm(leads[i], leads[new_index])
            heapq.heappush(pairs, (grevlex_key(lcm), next(counter), i, new_index, lcm))

    done = set()
    for j in range(1, len(leads)):
        add_pairs(j)

    while pairs:
        lcm = pairs[0][4]
        if sum(lcm) > cap:
            raise DegreeCapExceeded(
                "S-pair degree %d exceeds cap %d (basis size %d, pending pairs %d)"
                % (sum(lcm), cap, len(leads), len(pairs))
            )
        _, _, i, j, _ = heapq.heappop(pairs)
        done.add((i, j))
        # product criterion
        if lcm == monomial_mul(leads[i], leads[j]):
            continue
        # chain criterion
        for k in range(len(leads)):
            if (
                k != i
                and k != j
                and monomial_divides(leads[k], lcm)
                and _pair_key(i, k) in done
                and _pair_key(j, k) in done
            ):
                break
        else:
            lm = reduce(s_pair(i, j))
            if lm is None:
                continue
            if stop_at_unit and sum(lm) == 0:
                return True
            leads.append(lm)
            add_pairs(len(leads) - 1)
    return False


def buchberger(generators, cap: int = DEGREE_CAP, stop_at_unit: bool = False):
    """A (non-reduced) Groebner basis of the given generators."""
    basis = [content_normalize(g) for g in generators if not g.is_zero()]
    if not basis:
        return []
    nvars = basis[0].nvars
    if any(sum(leading_term(g)[0]) == 0 for g in basis):
        return [MultiPoly.constant(1, nvars)]

    rational = all(_is_rational_poly(g) for g in basis)
    if rational:
        lead_data = [_int_lead_datum(_to_int_terms(g)) for g in basis]

        def s_pair(i, j):
            return _int_s_polynomial(lead_data[i], lead_data[j])

        def reduce(p):
            remainder = _int_normal_form(p, lead_data)
            if not remainder:
                return None
            lead_data.append(_int_lead_datum(remainder))
            return lead_data[-1][0]

    else:
        lead_data = reducer_data(basis)

        def s_pair(i, j):
            return content_normalize(s_polynomial(basis[i], basis[j]))

        def reduce(p):
            remainder = normal_form(p, basis, lead_data)
            if remainder.is_zero():
                return None
            remainder = content_normalize(remainder)
            basis.append(remainder)
            lead_data.extend(reducer_data([remainder]))
            return lead_data[-1][0]

    leads = [datum[0] for datum in lead_data]
    if _pair_loop(leads, s_pair, reduce, cap, stop_at_unit):
        return [MultiPoly.constant(1, nvars)]
    if rational:
        return [_from_int_terms(datum[2], nvars) for datum in lead_data]
    return basis


def reduce_basis(basis):
    """The unique reduced Groebner basis (monic, mutually reduced, sorted)."""
    if not basis:
        return []
    # drop elements whose leading monomial is divisible by another's
    kept = []
    monos = [leading_term(g)[0] for g in basis]
    for i, g in enumerate(basis):
        mi = monos[i]
        redundant = False
        for j, mj in enumerate(monos):
            if i == j:
                continue
            if monomial_divides(mj, mi) and (mi != mj or j < i):
                redundant = True
                break
        if not redundant:
            kept.append(g)
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        r = normal_form(g, others) if others else g
        if r.is_zero():
            continue
        _, lc = leading_term(r)
        reduced.append(r * lc.inverse())
    reduced.sort(key=lambda g: grevlex_key(leading_term(g)[0]), reverse=True)
    return reduced


def groebner(ideal, cap: int = DEGREE_CAP):
    """Reduced Groebner basis of an Ideal (or a plain generator list)."""
    gens = ideal.generators if isinstance(ideal, Ideal) else list(ideal)
    basis = buchberger(gens, cap=cap)
    reduced = reduce_basis(basis)
    return Ideal(reduced) if isinstance(ideal, Ideal) else reduced


def is_unit_ideal(generators, cap: int = DEGREE_CAP) -> bool:
    """Exact: p*x - 1 is the unit ideal mod p but not over Q, so no mod-p
    answer may stand in for this one."""
    basis = buchberger(list(generators), cap=cap, stop_at_unit=True)
    return any(sum(leading_term(g)[0]) == 0 for g in basis)


# -- prime-field certificate ---------------------------------------------------
#
# The generators are mapped to F_p[x] for a prime p = 1 mod N, with zeta_N
# sent to a root r of Phi_N mod p, and the pair loop runs there on monic
# {mono: int mod p} terms.  An answer mod p is used only where it implies the
# answer over Qbar (projective_empty, unit_mod_p); otherwise the caller runs
# the exact engine.

_MILLER_RABIN_BOUND = 3_215_031_751


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for n < 3,215,031,751."""
    for a in (2, 3, 5, 7):
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _fp_field(n: int):
    """(p, r): the least prime p = 1 mod n above 2^31, and r of order n in
    F_p, hence a root of Phi_n mod p (p does not divide n).  None when no such
    p lies below the bound where Miller-Rabin is exact, which no n <= 1024
    reaches."""
    p = (2**31 // n + 1) * n + 1
    while not _is_prime(p):
        p += n
    if p >= _MILLER_RABIN_BOUND:
        return None
    for g in itertools.count(2):
        r = pow(g, (p - 1) // n, p)
        if all(pow(r, n // q, p) != 1 for q in _prime_factors(n)):
            return p, r


def _fp_terms(poly: MultiPoly, n: int, prime: int, powers) -> dict | None:
    """The image of poly in F_p[x]: zeta_n maps to powers[1] = r, so the
    zeta_c of a coefficient of conductor c maps to powers[n // c].  None
    when a denominator is divisible by p."""
    terms = {}
    for mono, coef in poly.terms.items():
        step = n // coef.n
        value = 0
        for k, q in enumerate(coef.coeffs):
            if q:
                den = q.denominator
                if den % prime == 0:
                    return None
                term = q.numerator * powers[k * step]
                value += term if den == 1 else term * pow(den, -1, prime)
        value %= prime
        if value:
            terms[mono] = value
    return terms


def _fp_lead_datum(terms: dict, prime: int):
    """(leading monomial, 1, terms made monic) of a nonzero poly over F_p.
    With residues in [0, p) and leading coefficients 1, _int_s_polynomial
    gives the S-polynomial over F_p with coefficients in (-p, p), and no
    nonzero one among them is divisible by p."""
    lm = max(terms, key=grevlex_key)
    inv = pow(terms[lm], -1, prime)
    return lm, 1, {m: v * inv % prime for m, v in terms.items()}


def _fp_normal_form(p: dict, lead_data, prime: int) -> dict:
    """Remainder of p by a monic basis over F_p; monomials come off a heap,
    and a stale heap entry (its term cancelled) is skipped."""
    work = dict(p)
    remainder = {}
    heap = [(_grevlex_neg_key(m), m) for m in work]
    heapq.heapify(heap)
    while heap:
        _, mono = heapq.heappop(heap)
        coef = work.pop(mono, None)
        if coef is None:
            continue
        for lm, _, g in lead_data:
            if monomial_divides(lm, mono):
                shift = monomial_div(mono, lm)
                for ge, gc in g.items():
                    key = monomial_mul(ge, shift)
                    if key == mono:
                        continue
                    value = work.get(key)
                    if value is None:
                        work[key] = -coef * gc % prime
                        heapq.heappush(heap, (_grevlex_neg_key(key), key))
                    else:
                        value = (value - coef * gc) % prime
                        if value:
                            work[key] = value
                        else:
                            del work[key]
                break
        else:
            remainder[mono] = coef
    return remainder


def _mod_p_leads(generators, cap: int):
    """Leading monomials of a Groebner basis of the image of the generators
    in F_p[x], with (p, r) from _fp_field at the lcm N of the coefficients'
    conductors; the constant monomial ends the list as soon as it appears.
    None when there is no certificate: a denominator is divisible by p, or
    the run exceeds the degree cap (a mod-p overflow is never reported)."""
    n = lcm(*(c.n for g in generators for c in g.terms.values()))
    setup = _fp_field(n)
    if setup is None:
        return None
    prime, r = setup
    powers = [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * r % prime)
    lead_data = []
    for g in generators:
        terms = _fp_terms(g, n, prime, powers)
        if terms is None:
            return None
        if terms:
            lead_data.append(_fp_lead_datum(terms, prime))
    leads = [datum[0] for datum in lead_data]
    if any(sum(m) == 0 for m in leads):
        return leads

    def s_pair(i, j):
        return _int_s_polynomial(lead_data[i], lead_data[j])

    def reduce(p):
        remainder = _fp_normal_form(p, lead_data, prime)
        if not remainder:
            return None
        lead_data.append(_fp_lead_datum(remainder, prime))
        return lead_data[-1][0]

    try:
        if _pair_loop(leads, s_pair, reduce, cap, stop_at_unit=True):
            leads.append(lead_data[-1][0])
    except DegreeCapExceeded:
        return None
    return leads


def unit_mod_p(generators, cap: int = DEGREE_CAP) -> bool:
    """True when the image of the generators in F_p[x] (see _mod_p_leads) is
    the unit ideal.  This is one-sided and says nothing about the ideal over
    Q: p*x - 1 is unit mod p, yet x = 1/p is a zero over Q.  False covers
    "not unit mod p" and "no certificate" alike."""
    leads = _mod_p_leads(list(generators), cap)
    return leads is not None and any(sum(m) == 0 for m in leads)


# -- projective emptiness ------------------------------------------------------


def _empty_locus(leads, nvars: int) -> bool:
    """True iff the monomial ideal of these leading monomials contains a pure
    power of every variable; the monomial 1 counts as one of each."""
    return all(any(m[var] == sum(m) for m in leads) for var in range(nvars))


def projective_empty(ideal, cap: int = DEGREE_CAP) -> bool:
    """True iff the homogeneous ideal has empty vanishing locus in projective
    space: its leading ideal must contain a pure power of every variable.

    The test runs mod p first (_mod_p_leads), and an empty locus mod p is
    final.  It is sound: a common zero over Qbar, scaled so that its
    coordinates are integral at a prime above p and one of them is a unit
    there, reduces to a common zero over the algebraic closure of F_p of the
    generators' images, since every coefficient lies in Z_(p)[zeta_N] and
    zeta_N reduces to r.  So an ideal with no projective zero mod p has none
    over Qbar.  A locus that is not empty mod p, or a run with no certificate,
    goes to the exact engine."""
    gens = ideal.generators if isinstance(ideal, Ideal) else list(ideal)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    if any(not g.is_homogeneous() for g in gens):
        raise NonHomogeneousIdeal("projective emptiness needs homogeneous input")
    nvars = gens[0].nvars
    leads = _mod_p_leads(gens, cap)
    if leads is not None and _empty_locus(leads, nvars):
        return True
    basis = buchberger(gens, cap=cap)
    return _empty_locus([leading_term(g)[0] for g in basis], nvars)


# -- Hilbert polynomials --------------------------------------------------------
#
# Univariate rational polynomials in t are tuples of Fractions, constant
# term first.


def qp_trim(p):
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def qp_add(p, q):
    n = max(len(p), len(q))
    p = list(p) + [Fraction(0)] * (n - len(p))
    q = list(q) + [Fraction(0)] * (n - len(q))
    return qp_trim([a + b for a, b in zip(p, q)])


def qp_shift_minus_one(p):
    """p(t) -> p(t - 1)."""
    result = (Fraction(0),)
    for c in reversed(p):
        # result = result * (t - 1) + c
        shifted = (Fraction(0),) + result
        minus = tuple(-a for a in result)
        result = qp_add(qp_add(shifted, minus), (Fraction(c),))
    return qp_trim(result)


def qp_binomial(k: int):
    """C(t + k, k) as a polynomial in t."""
    result = (Fraction(1),)
    for i in range(1, k + 1):
        # result *= (t + i) / i
        shifted = (Fraction(0),) + result
        scaled = tuple(Fraction(i) * c for c in result)
        result = tuple(Fraction(c, i) for c in qp_add(shifted, scaled))
    return qp_trim(result)


def qp_eval(p, t):
    total = Fraction(0)
    for c in reversed(p):
        total = total * t + c
    return total


def qp_str(p, var: str = "t") -> str:
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0 and len(p) > 1:
            continue
        if k == 0:
            body = str(c)
        else:
            mono = var if k == 1 else "%s^%d" % (var, k)
            body = mono if c == 1 else ("-" + mono if c == -1 else "%s*%s" % (c, mono))
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(" - " + body[1:])
        else:
            parts.append(" + " + body)
    return "".join(parts) if parts else "0"


def _minimalize(monos):
    minimal = []
    for m in sorted(monos, key=sum):
        if not any(monomial_divides(g, m) for g in minimal):
            minimal.append(m)
    return tuple(sorted(minimal))


def _monomial_quotient_hp(gens, nvars, cache):
    """Hilbert polynomial of k[x_1..x_nvars] / (monomial ideal)."""
    key = (gens, nvars)
    if key in cache:
        return cache[key]
    if any(sum(m) == 0 for m in gens):
        result = (Fraction(0),)
    elif nvars == 0:
        result = (Fraction(0),)
    elif not gens:
        result = qp_binomial(nvars - 1)
    else:
        # pivot on the variable occurring in the most generators
        counts = [0] * nvars
        for m in gens:
            for i, e in enumerate(m):
                if e:
                    counts[i] += 1
        var = max(range(nvars), key=lambda i: counts[i])
        # S/(I + (x_var)): drop the pivot variable and every generator using it
        plus = _minimalize(
            tuple(m[:var] + m[var + 1 :] for m in gens if m[var] == 0)
        )
        # S/(I : x_var): divide the pivot exponent down by one
        colon = _minimalize(
            tuple(
                m[:var] + (max(m[var] - 1, 0),) + m[var + 1 :]
                for m in gens
            )
        )
        result = qp_add(
            _monomial_quotient_hp(plus, nvars - 1, cache),
            qp_shift_minus_one(_monomial_quotient_hp(colon, nvars, cache)),
        )
    cache[key] = result
    return result


def hilbert_polynomial(ideal, nvars: int | None = None, cap: int = DEGREE_CAP):
    """Hilbert polynomial of the quotient by a homogeneous ideal, as a tuple
    of rational coefficients (constant term first)."""
    gens = ideal.generators if isinstance(ideal, Ideal) else list(ideal)
    gens = [g for g in gens if not g.is_zero()]
    if any(not g.is_homogeneous() for g in gens):
        raise NonHomogeneousIdeal("Hilbert polynomial needs homogeneous input")
    if not gens:
        if nvars is None:
            raise ValueError("the zero ideal needs an explicit variable count")
        return qp_binomial(nvars - 1)
    nvars = gens[0].nvars
    basis = buchberger(gens, cap=cap)
    leads = _minimalize(tuple(leading_term(g)[0] for g in basis))
    return _monomial_quotient_hp(leads, nvars, {})


def monomial_hilbert_polynomial(monomials, nvars: int):
    """Hilbert polynomial of a quotient by a plain monomial ideal."""
    leads = _minimalize(tuple(tuple(m) for m in monomials))
    return _monomial_quotient_hp(leads, nvars, {})
