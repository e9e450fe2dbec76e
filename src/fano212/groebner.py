"""Groebner bases in graded-reverse-lexicographic order via Buchberger's
algorithm, plus the projective-emptiness test and Hilbert polynomials of
homogeneous ideals.

One pair loop serves two coefficient domains: ideals with rational
coefficients run on integer terms (pseudo-reduction, content stripped), all
others on Q(zeta_N) coefficients.  S-pair selection uses the normal strategy
(smallest lcm in grevlex): pending pairs sit in a heap keyed by (grevlex key
of the lcm, insertion order), so among equal lcms the pair queued first is
taken first.  The product and chain criteria prune pairs.  S-pair degrees
are capped so a runaway computation fails loudly instead of hanging.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .cyclotomic import Cyclotomic
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
    basis = buchberger(list(generators), cap=cap, stop_at_unit=True)
    return any(sum(leading_term(g)[0]) == 0 for g in basis)


# -- projective emptiness ------------------------------------------------------


def projective_empty(ideal, cap: int = DEGREE_CAP) -> bool:
    """True iff the homogeneous ideal has empty vanishing locus in projective
    space: its leading ideal must contain a pure power of every variable."""
    gens = ideal.generators if isinstance(ideal, Ideal) else list(ideal)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    if any(not g.is_homogeneous() for g in gens):
        raise NonHomogeneousIdeal("projective emptiness needs homogeneous input")
    nvars = gens[0].nvars
    basis = buchberger(gens, cap=cap)
    leads = [leading_term(g)[0] for g in basis]
    if any(sum(m) == 0 for m in leads):
        return True
    for var in range(nvars):
        if not any(
            m[var] > 0 and all(e == 0 for k, e in enumerate(m) if k != var)
            for m in leads
        ):
            return False
    return True


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
