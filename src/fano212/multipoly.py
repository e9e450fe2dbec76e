"""Sparse multivariate polynomials over cyclotomic coefficients: the
MultiPoly record and kernels on its term dicts.

A term dict maps exponent tuples to nonzero coefficients, Cyclotomic values
or residues mod p; the zero polynomial has an empty one.  MultiPoly pairs a
term dict with its number of variables where polynomials enter and leave
the Groebner engine and the quartic; it does no arithmetic.  The kernels
take and give term dicts: the minors of small matrices of them (minors),
with poly_det as the exact square case, one cofactor expansion per row
subset (_cofactors, monomials packed by groebner._pack), mod p on residues
for F_p certificates, or in integers over Q(zeta_N) with each numerator
polynomial one int (_kronecker says why that is exact); restriction to a
chart (_restrict) and partial derivatives (_derivative).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, lcm, prod

from .cyclotomic import Cyclotomic, _divmod_monic, _phi_terms, cyc, euler_phi
from .groebner import _pack, _unpack


@dataclass(frozen=True)
class MultiPoly:
    """A polynomial in nvars variables: terms maps nvars-tuples of exponents
    to nonzero Cyclotomic coefficients.  Nothing is checked."""
    nvars: int
    terms: dict

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def evaluate(self, point) -> Cyclotomic:
        """The sum of c * prod(v_i^e_i) over the terms c*x^e."""
        point = [cyc(v) for v in point]
        if len(point) != self.nvars:
            raise ValueError("point has wrong arity")
        total = cyc(0)
        for exps, coef in self.terms.items():
            for v, e in zip(point, exps):
                if e:
                    coef = coef * v**e
            total = total + coef
        return total


def _accumulate(terms: dict, exps, coef) -> None:
    """terms[exps] += coef, dropping the term when the sum is zero."""
    if exps in terms:
        coef = terms[exps] + coef
    if coef:
        terms[exps] = coef
    else:
        terms.pop(exps, None)


def _restrict(terms: dict, ones, zeros=()) -> dict:
    """A {exponent tuple: coefficient} dict with 1 put for each variable
    index in ones and 0 for each in zeros: a term with a zero variable is
    dropped and the ones' exponents become 0, the arity kept.  Terms that
    meet are summed (_accumulate); in a polynomial homogeneous in the ones'
    variables, such as a bihomogeneous one with one x and one y set to 1,
    none meet, so residues in [0, p) stay there."""
    out: dict = {}
    for exps, coef in terms.items():
        if zeros and any(map(exps.__getitem__, zeros)):
            continue
        if any(map(exps.__getitem__, ones)):
            exps = list(exps)
            for i in ones:
                exps[i] = 0
            exps = tuple(exps)
        _accumulate(out, exps, coef)
    return out


def _derivative(terms: dict, index: int) -> dict:
    """d/dx_index of a {exponent tuple: coefficient} dict, on Cyclotomic or
    integer coefficients.  Integers are not reduced: for a residue r != 0
    and an exponent k < p, k * r is not 0 mod p."""
    return {e[:index] + (e[index] - 1,) + e[index + 1:]: c * e[index]
            for e, c in terms.items() if e[index]}


# -- polynomial matrices -------------------------------------------------------


def poly_det(rows) -> dict:
    """The determinant of a square matrix of Cyclotomic term dicts: its one
    maximal minor, expanded here (_kronecker) and not through minors, so
    that perfbench's tracer books the quartic's expansion to poly_det."""
    return _kronecker(rows, [tuple(range(len(rows)))])[0]


def minors(rows, subsets, prime=None) -> list:
    """The determinants of the rows on each column subset, whose size is the
    number of rows, for {exponent tuple: coefficient} entries, as term dicts
    with no zero coefficient: residues reduced once per minor mod prime when
    it is given (_cofactors), else Cyclotomic values (_kronecker)."""
    if prime is not None:
        return _cofactors(rows, subsets, prime)
    return _kronecker(rows, subsets)


def _kronecker(rows, subsets) -> list:
    """The minors of rows of Cyclotomic term dicts, as integers through
    _cofactors.

    N is the lcm of the entries' conductors, and row r is scaled by the lcm
    d_r of its denominators, so each coefficient of an entry is a numerator
    polynomial a(z) in Z[z] of degree below phi(N), passed as the one
    integer a(2^B).  A minor's coefficient comes back as P(2^B) for P in
    Z[z] of degree at most size*(phi - 1).  The Leibniz sum has size! terms,
    each a product of one entry per row, and no coefficient of such a
    product is larger in size than the product of the entries' ||.||_1 (the
    sum of the sizes of all their numerator coefficients); so each
    coefficient of P is at most size! * prod_r max_c ||entry_rc||_1 <
    2^(B-1) in size, and P is read off the balanced base-2^B digits of
    P(2^B).  P is reduced mod Phi_N once; a determinant is the whole minor
    over the product of the d_r.  This is exact: z -> zeta_N and z -> 2^B
    are ring maps from Z[z][x], and det is a polynomial in the entries; d_r
    comes out of row r by multilinearity."""
    size = len(rows)
    n = lcm(*(c.n for r in rows for t in r for c in t.values()))
    phi, phi_terms = euler_phi(n), _phi_terms(n)
    dens = [lcm(*(c.den for t in r for c in t.values())) for r in rows]
    nums = [[{e: [x * (d // c.den) for x in c.lift(n).num] for e, c in t.items()} for t in r]
            for r, d in zip(rows, dens)]
    bound = factorial(size) * prod(max(sum(abs(x) for a in t.values() for x in a) for t in r)
                                   for r in nums)
    b = bound.bit_length() + 1  # the least B with 2^(B-1) > bound
    mats = [[{e: sum(x << b * k for k, x in enumerate(a)) for e, a in t.items()} for t in r]
            for r in nums]
    den = prod(dens)

    def coefficient(v):
        """The element of Q(zeta_N) whose numerator polynomial is v at 2^B."""
        digits = _balanced_digits(v, size * (phi - 1) + 1, b)
        _divmod_monic(digits, phi_terms, phi)
        return Cyclotomic._lowest(n, tuple(digits[:phi]), den)

    return [{e: c for e, c in ((e, coefficient(v)) for e, v in minor.items()) if c}
            for minor in _cofactors(mats, subsets, None)]


# below this many bits a Kronecker integer is read by shifting, above it off
# one bit string (_balanced_digits)
_SHIFT_BITS = 4096


def _balanced_digits(v: int, count: int, b: int) -> list:
    """The balanced base-2^b digits d_0 .. d_(count-1) of v, lowest first,
    each in [-2^(b-1), 2^(b-1)), for v = sum d_k 2^(b*k) with such digits.
    Adding the offset sum 2^(b-1) * 2^(b*k), k < count, to v adds 2^(b-1)
    to every digit, which makes them the plain base-2^b digits of the sum,
    all read off one bit string: linear in the size of v.  Peeling one digit
    at a time, which rewrites the whole int each time, is quadratic, yet
    faster below _SHIFT_BITS bits (about 2 against 3.5 us at 10 digits of
    25 bits, 20 ms against 1.2 ms at 2045 digits of 120 bits)."""
    half, width = 1 << b - 1, count * b
    if width < _SHIFT_BITS:
        digits, mask = [], (1 << b) - 1
        for _ in range(count):
            digits.append((v + half & mask) - half)
            v = v - digits[-1] >> b
        return digits
    bits = bin(v + half * ((1 << width) - 1) // ((1 << b) - 1))[2:].zfill(width)
    return [int(bits[i - b:i], 2) - half for i in range(width, 0, -b)]


def _cofactors(rows, subsets, prime) -> list:
    """The determinants of the rows restricted to each column subset, whose
    size is the number of rows, for entries {exponent tuple: integer}:
    cofactor expansion along the first row, each minor reduced mod prime
    once, or not at all when prime is None, as {exponent tuple: integer}
    with no zero.  Reduction mod prime is a ring map, so these are the
    images of the integer minors.  x^e is packed once (groebner._pack, whose
    module docstring gives the packing) and unpacked at the end.  The degree
    term, which only the Groebner engine's order reads, is added back, so a
    key is sum(e_i * 2^(w*i)) >= 0, as small as the fields allow: the
    3-variable pencil's keys then stay in CPython's small-int cache, and an
    addition of two of them allocates nothing.  No field carries: fields are
    only added, and no exponent of a product of len(rows) entries is above
    len(rows) times the largest entry degree, below 2^w.

    A minor on the rows from the third on is met once for each order in
    which the rows above pick the missing columns, and again by every
    subset that holds its columns.  Its rows are the last len(cols), so the
    column-keyed memo keys it by its columns alone and expands it once per
    call: a 4x4 determinant takes 28 entry products, not 40."""
    exps = {e for r in rows for t in r for e in t}
    w = (len(rows) * max(map(sum, exps), default=0)).bit_length()
    nvars = len(next(iter(exps), ()))
    packed = {e: _pack(e, w) + (sum(e) << w * nvars) for e in exps}
    rows = [[{packed[e]: v for e, v in t.items()} for t in r] for r in rows]

    def reduced(acc):
        if prime is None:
            return {m: v for m, v in acc.items() if v}
        return {m: v % prime for m, v in acc.items() if v % prime}

    memo = {(c,): reduced(entry) for c, entry in enumerate(rows[-1])}  # the 1x1 minors

    def minor(cols):
        if cols in memo:
            return memo[cols]
        row, acc = rows[-len(cols)], {}
        for pos, c in enumerate(cols):
            sub = minor(cols[:pos] + cols[pos + 1:]) if row[c] else None
            for m1, a in row[c].items() if sub else ():
                a = -a if pos % 2 else a
                for m2, b in sub.items():
                    m = m1 + m2
                    acc[m] = acc.get(m, 0) + a * b
        memo[cols] = reduced(acc)
        return memo[cols]

    dets = [minor(cols) for cols in subsets]
    unpacked = {m: _unpack(m, w, nvars) for m in set().union(*dets)}
    return [{unpacked[m]: v for m, v in det.items()} for det in dets]

