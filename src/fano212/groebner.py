"""Groebner bases in graded-reverse-lexicographic order via Buchberger's
algorithm, the two ideal questions of the verifier (is the ideal unit, is
its projective locus empty) and Hilbert polynomials of homogeneous ideals.

One monic engine serves three coefficient domains.  Polynomials are
{mono: coef} dicts and every basis element is scaled to leading coefficient
1, so one S-polynomial, one normal form and one Buchberger run do all the
work.  Mod p the coefficients are ints, the images of cyclotomic._fp_image;
exact runs take the polynomials' own Cyclotomic values, rational or not.
Both ideal questions are read off leading monomials by one ladder
(_decide): a mod-p run proves yes, its checked lift proves no, and an exact
run decides the rest.  A Hilbert polynomial takes the exact run; `hilbert`
asks for one only where the mod-p certificate of
model.centre_hilbert_polynomial fails.
Every run, exact or mod p, ends at its first constant element, input or
remainder, with that constant 1 alone: a Groebner basis of the unit ideal.
A mod-p run on the emptiness question (empty_mod_p, the first rung of
projective_empty) ends as well once its leads hold a pure power of every
variable.  Either stop is a yes, and final, since the leads of a partial
basis lie in the leading ideal; a no is read only off a full run, which
is what the lift checks (_basis).

In the engine a monomial e in n variables is one int (Monagan and
Pearce's packed exponent vectors):

    M(e) = sum(e_i * 2^(w*i)) - deg(e) * 2^(w*n)

with fields w bits wide and 2^(w-1) above every exponent of the run, so the
top bit of each field (GUARD) is clear.  Then M(a) + M(b) = M(a*b); the
grevlex-larger monomial is the smaller int (higher degree first, then the
smaller last exponent, as the fields are compared from the top); the
constant monomial is 0 and deg(e) = -(M(e) >> w*n); and a divides b iff
(M(b) - M(a)) & GUARD == 0: with every b_i - a_i >= 0 the fields of the
difference are below 2^(w-1), and otherwise the lowest negative one, with
no borrow from below, reads 2^w + b_i - a_i >= 2^(w-1).
w is chosen per call.  Grevlex is degree-compatible, so no term of a normal
form is above the largest term of its input: in a Buchberger run no
monomial has a degree above the S-pair degree, which DEGREE_CAP bounds, or
above the input's, and w comes from max(DEGREE_CAP, input degree).  A
product of two such monomials, which the product criterion forms, stays
below 2^w in each field, so no field carries into the next.  Tuples are
packed on entry to the engine, and only leading monomials are unpacked on
exit; the bijection keeps every order, term order included.
multipoly._cofactors, which only adds monomials and never compares them,
packs them without the degree term, as sum(e_i * 2^(w*i)) >= 0.  A normal
form finds each monomial's reducer through a memo that lives for one
Buchberger run or one lift check, whose lead list only grows (_normal_form).

A run first inter-reduces its inputs, each by those kept before it, which
keeps the ideal and drops the linearly dependent ones (_basis).  One pair
loop (_pairs) serves the run and the lift check: it uses the normal
strategy (smallest lcm in grevlex), with pending pairs in a heap keyed by
(-M(lcm), insertion order), so among equal lcms the pair queued first is
taken first.  The product and chain criteria prune pairs.  S-pair degrees
are capped so a runaway computation fails loudly instead of hanging.
"""

from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from math import isqrt

from .cyclotomic import _format_term, _fp_image, _rational_reconstruction, join_signed

DEGREE_CAP = 30


class DegreeCapExceeded(RuntimeError):
    """Raised when every pending S-pair exceeds the degree cap."""


class NonHomogeneousIdeal(ValueError):
    pass


# -- packed monomials ------------------------------------------------------------


def _width(top: int) -> int:
    """The least field width w with 2^(w-1) > top."""
    return top.bit_length() + 1


def _guard(w: int, nvars: int) -> int:
    """The top bit of each of the nvars fields of width w."""
    return sum(1 << (w * i + w - 1) for i in range(nvars))


def _pack(mono, w: int) -> int:
    packed = -sum(mono) << (w * len(mono))
    for i, e in enumerate(mono):
        packed += e << (w * i)
    return packed


def _unpack(packed: int, w: int, nvars: int):
    mask = (1 << w) - 1
    return tuple([packed >> (w * i) & mask for i in range(nvars)])


def _pair_lcms(w: int, nvars: int):
    """lcms(leads, j): the packed lcms of leads[j] with each of leads[:j],
    for monomials of width w whose degrees sum to less than 2^w."""
    guard, top, mask = _guard(w, nvars), w * nvars, (1 << w) - 1
    low = (1 << top) - 1             # the fields, without the degree
    ones = low // mask               # 1 in each field

    def lcms(leads, j):
        b = leads[j] & low
        result = []
        for a in leads[:j]:
            a &= low
            # (b | guard) - a borrows across no field and keeps the guard bit where
            # b_i >= a_i; spread to all ones there, it picks the lcm's fields, and
            # in fields * ones they add up to the degree in the top field
            larger = ((b | guard) - a) & guard
            larger = (larger << 1) - (larger >> (w - 1))
            fields = (b & larger) | (a & ~larger)
            result.append(fields - ((fields * ones >> top - w & mask) << top))
        return result
    return lcms


def _pack_terms(terms: dict, w: int) -> dict:
    return {_pack(m, w): c for m, c in terms.items()}


# -- the monic engine ------------------------------------------------------------


def _monic(terms: dict, prime=None):
    """(leading monomial, terms scaled to leading coefficient 1) of a nonzero
    polynomial; mod prime the coefficients end in [0, prime)."""
    lm = min(terms)
    if prime is None:
        inv = terms[lm].inverse()
        return lm, {m: c * inv for m, c in terms.items()}
    inv = pow(terms[lm], -1, prime)
    return lm, {m: c * inv % prime for m, c in terms.items()}


def _s_polynomial(fd, gd, lcm: int) -> dict:
    """The S-polynomial of two monic (leading monomial, terms) pairs whose
    leading monomials have this lcm."""
    fm, f = fd
    gm, g = gd
    fshift, gshift = lcm - fm, lcm - gm
    terms = {e + fshift: c for e, c in f.items()}
    for e, c in g.items():
        key = e + gshift
        value = terms.pop(key, None)
        value = -c if value is None else value - c
        if value:
            terms[key] = value
    return terms


def _normal_form(p: dict, lead_data, guard: int, prime=None, memo=None) -> dict:
    """Full remainder of p by the monic (leading monomial, terms) pairs.

    Monomials come off a heap, largest first, and a stale entry (its term
    cancelled) is skipped.  A term is reduced by the first element in list
    order whose lead divides it.  memo maps a packed monomial to that
    element, or to the number of leads already ruled out, where its next
    scan resumes.  Callers share one memo among calls only while lead_data
    just grows at its end, so a divisor found stays the first and none is
    missed: every remainder is the one a full scan gives.  Mod prime the
    work values are plain integers, reduced only when they come off the
    heap, where one that is 0 mod prime is dropped.  That is sound:
    reduction mod prime is a ring map, so each value agrees mod prime with
    the one that reducing after every operation would give, and a value is
    read (dropped, or used to scale a reducer) only once it has come off the
    heap and been reduced."""
    work = dict(p)
    remainder = {}
    heap = list(work)
    heapq.heapify(heap)
    memo = {} if memo is None else memo
    while heap:
        mono = heapq.heappop(heap)
        coef = work.pop(mono, 0)
        if prime:
            coef %= prime
        if not coef:
            continue
        hit = memo.get(mono, 0)
        if type(hit) is int:
            for element in lead_data[hit:] if hit else lead_data:
                if not (mono - element[0]) & guard:
                    hit = memo[mono] = element
                    break
            else:
                memo[mono] = len(lead_data)
                remainder[mono] = coef
                continue
        lm, g = hit
        shift, factor = mono - lm, -coef
        for ge, gc in g.items():
            key = ge + shift
            if key == mono:
                continue
            value = work.get(key)
            if value is None:
                work[key] = factor * gc
                heapq.heappush(heap, key)
            else:
                value = value + factor * gc
                if value:
                    work[key] = value
                else:
                    del work[key]
    return remainder


# -- Buchberger ----------------------------------------------------------------


def _pair_key(i, j):
    return (i, j) if i < j else (j, i)


def _pairs(leads, w: int, nvars: int):
    """The S-pairs (lcm, i, j) of the packed leads that Buchberger's product
    and chain criteria keep, by the normal strategy: pending pairs sit in a
    heap keyed by (-lcm, insertion order), so the grevlex-smallest lcm comes
    first and among equal lcms the pair queued first.  leads may grow
    between steps, and the pairs of a new lead are queued at the next one.
    Every pair taken is done; it is skipped when its leads are coprime, or
    when some other lead k divides its lcm and (i, k) and (j, k) are done.
    Raises DegreeCapExceeded when the next pair's lcm is above DEGREE_CAP."""
    guard, lcms = _guard(w, nvars), _pair_lcms(w, nvars)
    pairs, counter, done, queued = [], itertools.count(), set(), 0
    while True:
        for j in range(queued, len(leads)):
            for i, lcm in enumerate(lcms(leads, j)):
                heapq.heappush(pairs, (-lcm, next(counter), i, j))
        queued = len(leads)
        if not pairs:
            return
        lcm = -pairs[0][0]
        degree = -(lcm >> (w * nvars))
        if degree > DEGREE_CAP:
            raise DegreeCapExceeded(
                "S-pair degree %d exceeds cap %d (basis size %d, pending pairs %d)"
                % (degree, DEGREE_CAP, len(leads), len(pairs))
            )
        _, _, i, j = heapq.heappop(pairs)
        done.add((i, j))
        if lcm == leads[i] + leads[j]:
            continue
        for k, lead in enumerate(leads):
            if (not (lcm - lead) & guard and k != i and k != j
                    and _pair_key(i, k) in done and _pair_key(j, k) in done):
                break
        else:
            yield lcm, i, j


def _basis(polys, nvars, prime=None, empty=False):
    """Buchberger on nonzero {mono: coef} dicts in nvars variables.  Returns
    (basis, w): the monic basis as (leading monomial, terms) pairs packed
    with field width w.  As soon as a reduced input or a remainder is
    constant the basis is just that constant 1, a Groebner basis of the unit
    ideal.  Raises DegreeCapExceeded when the next pair's lcm is above
    DEGREE_CAP.

    The run stops at the first yes of its question: the constant 1 for the
    unit ideal, or with empty, once the leads kept so far hold a pure power
    of every variable (_empty_locus).  That yes is final, as every lead of a
    partial basis is the lead of an element of the ideal, so LT(partial
    basis) lies in LT(I).  The basis returned then is not a Groebner basis,
    but its leads answer yes; a no still comes from the full run, which
    _lift_holds reads.

    The inputs are inter-reduced first: each, in input order, is replaced by
    its normal form against those kept before it, and dropped when that is
    0.  This keeps the ideal, and so every leading ideal and answer: each
    kept input differs from its input by a combination of the earlier kept
    ones, so they generate the ideal of the inputs seen so far, and mod
    prime the same holds of the images.  A normal form never raises a
    degree, so w still holds."""
    # an S-pair above DEGREE_CAP is never formed, and no remainder term is
    # above its S-pair's degree
    top = max((sum(m) for p in polys for m in p), default=0)
    w = _width(max(DEGREE_CAP, top))
    guard = _guard(w, nvars)
    basis, leads, memo = [], [], {}  # the basis only grows: one reducer memo
    powers = set()  # the variables of which a lead is a pure power

    def answers(terms):
        """Append the monic normal form of terms unless it is 0; whether the
        leads now answer yes."""
        remainder = _normal_form(terms, basis, guard, prime, memo)
        if not remainder:
            return False
        basis.append(_monic(remainder, prime))
        leads.append(basis[-1][0])
        if leads[-1] == 0:
            return True
        if empty:
            e = _unpack(leads[-1], w, nvars)
            if max(e) == sum(e):
                powers.add(e.index(max(e)))
        return len(powers) == nvars

    if not any(answers(_pack_terms(p, w)) for p in polys):
        for lcm, i, j in _pairs(leads, w, nvars):
            if answers(_s_polynomial(basis[i], basis[j], lcm)):
                break
    return (basis[-1:] if leads and leads[-1] == 0 else basis), w


def _interreduce(basis, guard: int, prime=None):
    """The reduced Groebner basis from a monic packed Groebner basis (mod
    prime when given): drop each element whose leading monomial another one
    divides (of equal leads the first stays), reduce each kept element by the
    others and sort them by leading monomial, grevlex-largest first.  No kept
    lead divides another, so each element keeps its lead term 1."""
    kept = [
        (lm, terms)
        for i, (lm, terms) in enumerate(basis)
        if not any(
            j != i and not (lm - other) & guard and (lm != other or j < i)
            for j, (other, _) in enumerate(basis)
        )
    ]
    reduced = [
        (lm, _normal_form(terms, kept[:i] + kept[i + 1 :], guard, prime))
        for i, (lm, terms) in enumerate(kept)
    ]
    return sorted(reduced, key=lambda element: element[0])


def _exact_basis(generators):
    """(basis, w, nvars): _basis on the nonzero generators over Q(zeta_N),
    with nvars 0 when there are none.  The coefficients are the generators'
    own Cyclotomic values, rational ones too: neither a bench workload nor
    scripts/report_sweep.py makes an exact run, and on the rational ideals
    of the sweep's double point (both centres, the quartic partials) a run
    takes 1.0-2.2 ms against 0.9-1.6 ms as Fractions (best of 9, two runs,
    Python 3.11)."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return [], 0, 0
    basis, w = _basis([g.terms for g in gens], gens[0].nvars)
    return basis, w, gens[0].nvars


def buchberger(generators):
    """The leading monomials, as tuples, of the exact run's (non-reduced)
    Groebner basis of the generators, one per basis element in basis order;
    just the constant monomial for the unit ideal, none for the zero one."""
    basis, w, nvars = _exact_basis(generators)
    return [_unpack(lm, w, nvars) for lm, _ in basis]


# -- prime-field runs ------------------------------------------------------------
#
# The pair loop runs in F_p[x] on monic {mono: int mod p} terms.  The
# generators are mapped there by cyclotomic._fp_image, or come as residue
# dicts (empty_mod_p).

def _mod_p_run(polys, nvars: int, prime: int, empty=False):
    """(basis, w, nvars, prime): _basis on nonempty {exponent tuple:
    integer} dicts in nvars variables, no coefficient 0 mod prime (_basis
    reduces each in _normal_form), stopped at pure powers of every variable
    when empty is set; None when the run exceeds the degree cap."""
    try:
        basis, w = _basis(polys, nvars, prime, empty)
    except DegreeCapExceeded:
        return None
    return basis, w, nvars, prime


def _mod_p_basis(generators, empty=False):
    """_mod_p_run on the image in F_p[x] of the generators, their
    coefficients mapped by one _fp_image call; None, and no report, when
    that has no image or the run exceeds the degree cap."""
    image = _fp_image([c for g in generators for c in g.terms.values()])
    if image is None:
        return None
    prime, values = image
    values = iter(values)
    # zip draws a monomial first, so each g takes just its own images
    polys = [terms for terms in ({m: v for m, v in zip(g.terms, values) if v} for g in generators)
             if terms]
    return _mod_p_run(polys, generators[0].nvars if generators else 0, prime, empty)


def _lift_holds(generators, run) -> bool:
    """Whether the run (_mod_p_basis) of rational generators, interreduced mod
    p and rebuilt by rational reconstruction (|num|, |den| <= sqrt(p/2)), is
    a G over Q modulo which every S-pair that the product and chain criteria
    keep (_pairs), and every generator, reduces to 0.  False for a generator
    over Q(zeta_N) or of degree 2^(w-1) or more (a term that vanished mod p).

    Sound with no lucky prime: G is a Groebner basis of <G> (Buchberger's
    criterion), which holds I.  The chain criterion keeps that sound: a pair
    (i, j) skipped via k has a representation below its lcm m, as S(i, j) is
    (m / lcm(i, k)) S(i, k) - (m / lcm(j, k)) S(j, k), built from pairs done
    earlier; by induction on processing order every pair has one, so G is a
    Groebner basis.  Reconstruction keeps 1 and sends no residue to 0, so G
    has the monic leads mod p.  If no element of the run *is* a nonzero
    constant (packed lead 0), 1 is not in <G> nor in I (having a constant
    term is no test: x1 - 1 has one).  A homogeneous G whose leading ideal
    lacks a pure power of a variable has a projective zero, one of I.
    No field overflows w, nor does the cap fire: each pair of G was a pair
    of the run, of degree at most DEGREE_CAP, and no term of an
    S-polynomial, generator or remainder has a degree above its lcm or
    generator."""
    basis, w, nvars, prime = run
    if any(g.degree() >> (w - 1) or not all(c.is_rational() for c in g.terms.values())
           for g in generators):
        return False
    guard, bound, lifted = _guard(w, nvars), isqrt(prime // 2), []
    for lm, terms in _interreduce(basis, guard, prime):
        element = {}
        for m, c in terms.items():
            q = _rational_reconstruction(c, prime, bound, bound)
            if q is None:
                return False
            element[m] = _int_or_fraction(q)
        lifted.append((lm, element))
    memo = {}
    for lcm, i, j in _pairs([lm for lm, _ in lifted], w, nvars):
        if _normal_form(_s_polynomial(lifted[i], lifted[j], lcm), lifted, guard, None, memo):
            return False
    return not any(
        _normal_form({_pack(m, w): c.num[0] if c.den == 1 else Fraction(c.num[0], c.den)
                      for m, c in g.terms.items()}, lifted, guard, None, memo)
        for g in generators
    )


def _int_or_fraction(q: Fraction):
    """q as an int when it is one, which keeps the check off Fraction."""
    return q.numerator if q.denominator == 1 else q


# -- the decision ladder ---------------------------------------------------------


def _is_unit(leads, nvars: int) -> bool:
    """True iff the constant monomial is among the leading monomials."""
    return (0,) * nvars in leads


def _empty_locus(leads, nvars: int) -> bool:
    """True iff the monomial ideal of these leading monomials contains a pure
    power of every variable; the monomial 1 counts as one of each."""
    return all(any(m[var] == sum(m) for m in leads) for var in range(nvars))


def _holds_mod_p(run, holds) -> bool:
    """Whether holds is True of the leading monomials of a mod-p run
    (_mod_p_run); False when there is no run."""
    if run is None:
        return False
    basis, w, nvars, _ = run
    return holds([_unpack(lm, w, nvars) for lm, _ in basis], nvars)


def _decide(generators, holds, run) -> bool:
    """Whether holds (_is_unit or _empty_locus), a property of the leading
    ideal, is True of the ideal of the nonzero generators mod p or over
    Q(zeta_N), given run, the mod-p run of their images (_mod_p_basis), or
    None when there is none.  The answer is read off the first of three
    rungs that gives one: a True of the mod-p run (_holds_mod_p); a False of
    that run once its lift holds (_lift_holds), as the lifted basis over Q
    has the run's leading ideal; else the exact run's leads (buchberger).

    The rule is one-sided: a True mod p is final, a False needs the lift.
    For an empty projective locus a True mod p holds over Qbar too: a common
    zero over Qbar, scaled so that its coordinates are integral at a prime
    above p and one of them is a unit there, reduces to a common zero over
    the algebraic closure of F_p of the generators' images, since every
    coefficient lies in Z_(p)[zeta_N] and zeta_N reduces to r.  A unit ideal
    mod p need not be unit over Q (p*x - 1 is not); full_smoothness argues
    why a chart unit mod p or over Q is sound all the same."""
    if _holds_mod_p(run, holds):
        return True
    if run is not None and _lift_holds(generators, run):
        return False
    return holds(buchberger(generators), generators[0].nvars)


def unit_mod_p_or_q(generators, run) -> bool:
    """Whether the ideal is unit mod p, as run, the mod-p run of the images
    of the nonzero generators (_mod_p_run, at the caller's prime; None for
    no run), shows by ending at a constant, or over Q, which the run's lift
    or else the exact run decides (_decide).  p*x - 1 is unit mod p, yet not
    over Q."""
    return _decide([g for g in generators if not g.is_zero()], _is_unit, run)


def empty_mod_p(polys, nvars: int, prime: int) -> bool:
    """Whether homogeneous polynomials mod prime, given as nonempty
    {exponent tuple: integer} dicts with no coefficient 0 mod prime, have an
    empty projective locus over the algebraic closure of F_prime (_mod_p_run).
    When they are the images under _fp_image of polynomials over Q(zeta_N),
    at its prime, this is the first rung of projective_empty: a True proves
    the locus over Qbar empty (_decide) and a False proves nothing.  The run
    stops once its leads hold a pure power of every variable (_basis)."""
    return _holds_mod_p(_mod_p_run(polys, nvars, prime, True), _empty_locus)


def projective_empty(generators) -> bool:
    """True iff the homogeneous ideal has empty vanishing locus in projective
    space: its leading ideal must contain a pure power of every variable.
    An empty locus mod p is final; a locus not empty mod p is final once the
    run's lift holds; any other run, or none, goes to the exact engine
    (_decide)."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return False
    if any(not g.is_homogeneous() for g in gens):
        raise NonHomogeneousIdeal("projective emptiness needs homogeneous input")
    return _decide(gens, _empty_locus, _mod_p_basis(gens, True))


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
    return qp_trim([a + b for a, b in itertools.zip_longest(p, q, fillvalue=Fraction(0))])


def qp_binomial(k: int):
    """C(t + k, k) as a polynomial in t."""
    result = (Fraction(1),)
    for i in range(1, k + 1):
        # result * (t + i) / i
        result = qp_add((Fraction(0),) + result, tuple(i * c for c in result))
        result = tuple(c / i for c in result)
    return result


def qp_str(p) -> str:
    """A polynomial in t, its coefficients constant term first, as text:
    terms from the highest power down, in the form of format_cyclotomic."""
    return join_signed(_format_term(p[k], k, "t") for k in range(len(p) - 1, -1, -1) if p[k])


def monomial_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _minimalize(monos):
    minimal = []
    for m in sorted(monos, key=sum):
        if not any(monomial_divides(g, m) for g in minimal):
            minimal.append(m)
    return tuple(sorted(minimal))


def _monomial_quotient_hp(gens, nvars, cache):
    """Hilbert polynomial of k[x_1..x_nvars] / (monomial ideal), as the nvars
    integers h with HP(t) = sum of h_k * C(t + k, k)."""
    key = (gens, nvars)
    if key in cache:
        return cache[key]
    if nvars == 0 or any(sum(m) == 0 for m in gens):
        result = (0,) * nvars
    elif not gens:
        result = (0,) * (nvars - 1) + (1,)
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
        # HP(S/I)(t) = HP(S/(I + x))(t) + HP(S/(I : x))(t - 1), and
        # C(t - 1 + k, k) = C(t + k, k) - C(t + k - 1, k - 1) turns the shift
        # into h_j -> h_j - h_(j+1)
        h = _monomial_quotient_hp(colon, nvars, cache) + (0,)
        result = tuple(a + b - c for a, b, c in
                       zip(_monomial_quotient_hp(plus, nvars - 1, cache) + (0,), h, h[1:]))
    cache[key] = result
    return result


def hilbert_polynomial(generators):
    """Hilbert polynomial of the quotient by the homogeneous ideal the
    generators span, as a tuple of rational coefficients (constant term
    first).  The variable count is read from the generators, zero ones
    included."""
    generators = list(generators)
    if not generators:
        raise ValueError("no generators, so no variable count")
    if any(not g.is_homogeneous() for g in generators):
        raise NonHomogeneousIdeal("Hilbert polynomial needs homogeneous input")
    leads = _minimalize(tuple(buchberger(generators)))
    result = (Fraction(0),)
    for k, h in enumerate(_monomial_quotient_hp(leads, generators[0].nvars, {})):
        result = qp_add(result, tuple(h * c for c in qp_binomial(k)))
    return result
