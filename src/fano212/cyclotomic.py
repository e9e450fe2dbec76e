"""Exact arithmetic in cyclotomic fields Q(zeta_N), and its image in F_p.

An element holds its coordinates in the power basis 1, z, ..., z^(phi(N)-1)
as integer numerators over one denominator den > 0, in lowest terms
(gcd(*num, den) = 1; zero is ((0, ..., 0), 1)), so equal elements of one
conductor have equal (num, den).  A sum is an integer vector operation and a
product an integer convolution over the product of the denominators, each
followed by one gcd.  Phi_N is built in integers, prime by prime; every
product, power of zeta and lift is reduced by one routine, the remainder by
the monic Phi_N.  Mixed conductors are lifted to their lcm; no conductor
reduction is attempted afterwards.

Some operand shapes skip part of that work and give the same (num, den).  A
rational factor p/d (num[1:] all zero) whose conductor divides the other
factor's scales the other's numerators by p and its denominator by d before
the one gcd: a constant times an element of degree below phi(N) needs no
reduction, and the lcm conductor is the other's.  An int factor scales the
numerators alone.  A denominator of 1 skips the gcd, as gcd(..., 1) = 1,
and a sum or difference of one conductor needs no lift.

The inverse of A/den runs the extended Euclidean algorithm of Phi_N and A in
Z[x] by pseudo-division: each step keeps r = s*A mod Phi_N for its remainder
r and cofactor s, also once both are divided by their common content.  As
Phi_N is irreducible and deg A < phi(N), it ends at a constant r != 0, and
the inverse is den*s/r exactly.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, in increasing order."""
    if n < 1:
        raise ValueError("conductor must be positive")
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def _rational_reconstruction(a: int, m: int, num_bound: int, den_bound: int):
    """r/t = a mod m, gcd(r, t) = 1, |r| <= num_bound, |t| <= den_bound, by
    Wang's half-extended Euclid on (m, a), or None; it is the only such
    fraction when 2 * num_bound * den_bound < m."""
    r0, r1, t0, t1 = m, a % m, 0, 1
    while r1 > num_bound:
        r0, r1, t0, t1 = r1, r0 % r1, t1, t0 - r0 // r1 * t1
    if abs(t1) > den_bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _spread(coeffs, step: int) -> list:
    """The coefficients of f(x^step) from those of f(x), constant term first."""
    out = [0] * ((len(coeffs) - 1) * step + 1)
    out[::step] = coeffs
    return out


def _divmod_monic(num: list, terms, deg: int) -> None:
    """Divide num (constant term first) in place by the monic polynomial
    x^deg + sum of c*x^k over terms (k, c).  Each position >= deg is read
    after every higher one has been folded into it, so num[:deg] ends as the
    remainder and num[deg:] as the quotient."""
    for i in range(len(num) - 1, deg - 1, -1):
        top = num[i]
        if top:
            for k, c in terms:
                num[i - deg + k] -= top * c


def _lower_terms(coeffs) -> tuple:
    """The nonzero terms (k, c) of a monic polynomial below its leading one."""
    return tuple((k, c) for k, c in enumerate(coeffs[:-1]) if c)


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant term
    first.  Phi_1 = x - 1; Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for a prime p not
    dividing m, an exact division by a monic polynomial; and
    Phi_n(x) = Phi_r(x^(n/r)) for r the product of the primes dividing n."""
    phi, r = [-1, 1], 1
    for p in _prime_factors(n):
        num, deg = _spread(phi, p), len(phi) - 1
        _divmod_monic(num, _lower_terms(phi), deg)
        phi, r = num[deg:], r * p
    return tuple(_spread(phi, n // r))


@lru_cache(maxsize=None)
def _phi_terms(n: int) -> tuple:
    """The lower terms of Phi_n, read once per conductor."""
    return _lower_terms(cyclotomic_coeffs(n))


def _reduce_mod_phi(n: int, dense: list) -> tuple:
    """The remainder of a dense integer polynomial (constant term first) by
    the monic Phi_n, as a coefficient vector of length phi(n)."""
    phi = euler_phi(n)
    out = list(dense) + [0] * (phi - len(dense))
    _divmod_monic(out, _phi_terms(n), phi)
    return tuple(out[:phi])


def _trim(p) -> list:
    """A dense polynomial without its zero leading coefficients."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _pseudo_remainder(r0: list, s0: list, r1: list, s1: list):
    """One extended Euclidean step in Z[x]: r = c*r0 - q*r1 of degree below
    r1 for an integer c, and s = c*s0 - q*s1, both divided by their common
    content.  Each leading term t*x^(k+deg r1) of r is cleared by
    r <- (l/g)*r - (t/g)*x^k*r1, l the lead of r1 and g = gcd(l, t): g
    divides l and t, so every step stays in integers, and the content
    divides every coefficient.  With s0 = [0] and s1 = [1], s is -q; when r1
    divides r0, r = 0 and s is the quotient r0/r1 up to a rational factor."""
    r, s = list(r0), list(s0)
    lead, deg = r1[-1], len(r1) - 1
    while len(r) > deg:
        top = r[-1]
        if top:
            g = gcd(top, lead)
            a, b, k = lead // g, top // g, len(r) - 1 - deg
            if a != 1:
                r = [a * x for x in r]
                s = [a * x for x in s]
            for j, c in enumerate(r1):
                r[k + j] -= b * c
            s += [0] * (k + len(s1) - len(s))
            for j, c in enumerate(s1):
                if c:
                    s[k + j] -= b * c
        r.pop()
    r, s = _trim(r), _trim(s)
    g = gcd(*r, *s)
    if g != 1:
        r = [x // g for x in r]
        s = [x // g for x in s]
    return r, s


class Cyclotomic:
    """An exact element of Q(zeta_n): integer numerators num over den > 0 in
    the power basis, with gcd(*num, den) = 1.

    Immutable; arithmetic lifts mixed conductors to their lcm.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != euler_phi(n):
            raise ValueError("coefficient vector has wrong length for conductor %d" % n)
        # the lcm of lowest-terms denominators leaves no common factor
        den = lcm(*(c.denominator for c in coeffs))
        num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        _set_n(self, n)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _mk(cls, n: int, num: tuple, den: int) -> "Cyclotomic":
        """Trusted fast constructor; num must be reduced mod Phi_n, den > 0
        and gcd(*num, den) = 1."""
        self = object.__new__(cls)
        _set_n(self, n)
        _set_num(self, num)
        _set_den(self, den)
        return self

    @classmethod
    def _lowest(cls, n: int, num: tuple, den: int) -> "Cyclotomic":
        """The element num/den, num reduced mod Phi_n and den > 0, brought to
        lowest terms."""
        if den == 1:
            return cls._mk(n, num, 1)
        g = gcd(*num, den)
        if g != 1:
            num, den = tuple([c // g for c in num]), den // g
        return cls._mk(n, num, den)

    @staticmethod
    def from_rational(q, n: int = 1) -> "Cyclotomic":
        q = Fraction(q)
        return Cyclotomic._mk(n, (q.numerator,) + (0,) * (euler_phi(n) - 1), q.denominator)

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        return Cyclotomic._mk(n, _reduce_mod_phi(n, [0] * (k % n) + [1]), 1)

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number: %s" % self)
        return Fraction(self.num[0], self.den)

    def lift(self, m: int) -> "Cyclotomic":
        """Embed into Q(zeta_m) via zeta_n = zeta_m^(m/n); requires n | m.
        The denominator stays in lowest terms: the power basis of Z[zeta_n]
        is an integral basis, so a prime dividing every lifted numerator
        would divide every numerator."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError("cannot lift conductor %d into %d" % (self.n, m))
        return self.rotated(m, 0)

    def rotated(self, n: int, k: int) -> "Cyclotomic":
        """self * zeta_n^k in Q(zeta_m), m = lcm(self.n, n): the numerators
        lifted, shifted by k*m/n and reduced once, with no product.  As zeta
        is a unit of Z[zeta_m], the denominator stays in lowest terms."""
        m = lcm(self.n, n)
        dense = [0] * (k % n * (m // n)) + _spread(self.num, m // self.n)
        return Cyclotomic._mk(m, _reduce_mod_phi(m, dense), self.den)

    def _pair(self, other):
        if isinstance(other, Cyclotomic):
            if other.n == self.n:
                return self, other
        elif isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, 1)
        else:
            return None, None
        m = lcm(self.n, other.n)
        return self.lift(m), other.lift(m)

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other, op) -> "Cyclotomic":
        """op(self, other) for op add or sub and a same-conductor other."""
        da, db = self.den, other.den
        if da == db:
            num = tuple(map(op, self.num, other.num))
            if da == 1:
                return Cyclotomic._mk(self.n, num, 1)
        else:
            g = gcd(da, db)
            ea, eb = db // g, da // g
            num = tuple(map(op, [x * ea for x in self.num], [y * eb for y in other.num]))
            da *= ea
        return Cyclotomic._lowest(self.n, num, da)

    def __add__(self, other):
        if isinstance(other, Cyclotomic) and other.n == self.n:
            return self._combine(other, add)
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a._combine(b, add)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._mk(self.n, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, Cyclotomic) and other.n == self.n:
            return self._combine(other, sub)
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a._combine(b, sub)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Cyclotomic):
            for a, b in ((self, other), (other, self)):
                if b.n % a.n == 0 and not any(a.num[1:]):
                    return Cyclotomic._lowest(
                        b.n, tuple([a.num[0] * c for c in b.num]), a.den * b.den)
            if other.n == self.n:
                la, lb = self.num, other.num
                dense = [0] * (len(la) + len(lb) - 1)
                terms = [(j, y) for j, y in enumerate(lb) if y]
                for i, x in enumerate(la):
                    if x:
                        for j, y in terms:
                            dense[i + j] += x * y
                return Cyclotomic._lowest(
                    self.n, _reduce_mod_phi(self.n, dense), self.den * other.den)
        elif type(other) is int:
            return Cyclotomic._lowest(self.n, tuple([c * other for c in self.num]), self.den)
        elif isinstance(other, Fraction):
            return Cyclotomic._lowest(
                self.n, tuple([c * other.numerator for c in self.num]),
                self.den * other.denominator)
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.n)
        if self.is_rational():
            return Cyclotomic.from_rational(Fraction(self.den, self.num[0]), self.n)
        # extended gcd of A = den*self against Phi_n in Z[x], down to a
        # nonzero constant r1 = s1 * A mod Phi_n (see the module docstring)
        r0, s0 = list(cyclotomic_coeffs(self.n)), [0]
        r1, s1 = _trim(self.num), [1]
        while len(r1) > 1:
            r0, s0, (r1, s1) = r1, s1, _pseudo_remainder(r0, s0, r1, s1)
        scale = self.den if r1[0] > 0 else -self.den
        num = _reduce_mod_phi(self.n, [c * scale for c in s1])
        return Cyclotomic._lowest(self.n, num, abs(r1[0]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            scale = q.denominator if q > 0 else -q.denominator
            return Cyclotomic._lowest(
                self.n, tuple(c * scale for c in self.num), self.den * abs(q.numerator)
            )
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclotomic.from_rational(1, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a.num == b.num and a.den == b.den

    __hash__ = None  # equality crosses conductors; not usable as dict key

    # -- conversions -------------------------------------------------------

    def __repr__(self):
        return "Cyclotomic(%d, %s)" % (self.n, format_cyclotomic(self))

    def __str__(self):
        return format_cyclotomic(self)


_set_n, _set_num, _set_den = (Cyclotomic.__dict__[s].__set__ for s in Cyclotomic.__slots__)


def cyc(value, n: int = 1) -> Cyclotomic:
    """Coerce an int, Fraction or Cyclotomic into a Cyclotomic value."""
    if isinstance(value, Cyclotomic):
        return value
    return Cyclotomic.from_rational(value, n)


# -- the image in F_p ---------------------------------------------------------

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
    """(p, powers): the least prime p = 1 mod n above 2^31, and the powers
    r^k mod p, k < n, of an r of order n in F_p, hence a root of Phi_n mod p
    (p does not divide n).  None when no such p lies below the bound where
    Miller-Rabin is exact, which no n <= 1024 reaches."""
    p = (2**31 // n + 1) * n + 1
    while not _is_prime(p):
        p += n
    if p >= _MILLER_RABIN_BOUND:
        return None
    for g in itertools.count(2):
        r = pow(g, (p - 1) // n, p)
        if all(pow(r, n // q, p) != 1 for q in _prime_factors(n)):
            return p, [pow(r, k, p) for k in range(n)]


def _fp_image(values):
    """(p, images): the residues in [0, p) of a flat list of Cyclotomic
    values under zeta_N -> r, for N the lcm of their conductors and p and
    the powers of r from _fp_field(N); None when there is no such p or p
    divides a denominator.

    As r is a root of Phi_N mod p, zeta_N -> r is a ring map from
    Z[zeta_N][1/D] to F_p when p does not divide D, the lcm of the
    denominators (as p is prime, when it divides none of them).  The zeta_c
    of a conductor c | N is zeta_N^(N/c), so num/den maps to the sum of
    num[k] * r^(k*N/c) over den.  Sums, products, minors and polynomial
    identities of the values hold of the images, so a value whose image is
    nonzero is nonzero, a rank mod p is at most the rank over Q(zeta_N),
    and a common zero over Qbar of polynomials with these coefficients
    reduces to one of their images (groebner._decide)."""
    n = lcm(*(v.n for v in values))
    setup = _fp_field(n)
    if setup is None:
        return None
    (prime, powers), images = setup, []
    for v in values:
        step, den = n // v.n, v.den
        value = sum(c * powers[k * step] for k, c in enumerate(v.num) if c)
        if den != 1:
            if den % prime == 0:
                return None
            value *= pow(den, -1, prime)
        images.append(value % prime)
    return prime, images


# -- text form ---------------------------------------------------------------
#
# Literals are polynomials in the symbol `z` with rational coefficients,
# e.g. `1/2*z^3 - 2`, interpreted in Q(zeta_N) for a given conductor N.

_TERM_RE = re.compile(
    r"^(?:(?P<num>\d+)(?:/(?P<den>\d+))?\*?)?(?:(?P<z>z)(?:\^(?P<exp>\d+))?)?$"
)


class LiteralError(ValueError):
    pass


def _excerpt(text: str) -> str:
    """The text for a %r in a message: whole up to a width of 24, else cut to
    a width of 20 and '...'.  The width counts the characters of each escape
    that %r will print, 1 for a printable character, 4 to 10 for another."""
    widths = [1 if c.isprintable() else len(repr(c)) - 2 for c in text[:25]]
    if sum(widths) <= 24:
        return text
    k = width = 0
    while width + widths[k] <= 20:
        width += widths[k]
        k += 1
    return text[:k] + "..."


def _literal_terms(text: str) -> list:
    """The terms of a literal as triples (num, den, exp) of ints: the signed
    numerator and the denominator of the coefficient as written, and the
    exponent of z, or None for a constant term."""
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise LiteralError("empty cyclotomic literal")
    pieces = re.split(r"([+-])", compact)
    if pieces[0] == "":
        pieces.pop(0)
    else:
        pieces.insert(0, "+")
    if len(pieces) % 2 or any(p == "" for p in pieces):
        raise LiteralError("malformed literal %r" % _excerpt(text))
    terms = []
    for sign, body in zip(pieces[::2], pieces[1::2]):
        m = _TERM_RE.match(body)
        if not m or (m.group("num") is None and m.group("z") is None):
            raise LiteralError("bad term %r in literal %r" % (_excerpt(body), _excerpt(text)))
        try:
            num, den = int(m.group("num") or 1), int(m.group("den") or 1)
            exp = int(m.group("exp") or 1) if m.group("z") else None
        except ValueError:  # a number over the 4300 digits that int() reads
            den = 0
        if not den:
            raise LiteralError("term %r has a zero denominator or a number over "
                               "4300 digits" % body[:40])
        terms.append((-num if sign == "-" else num, den, exp))
    return terms


def _fold_terms(terms, conductor: int, n: int) -> Cyclotomic:
    """The sum of coef * zeta_conductor^exp over the terms of a literal, as an
    element of Q(zeta_n) by zeta_conductor^e = zeta_n^(e*n/conductor): n must
    divide conductor and conductor/n every exponent.  The terms are summed as
    one integer vector over the lcm of their denominators, reduced once by
    Phi_n and brought to lowest terms once."""
    step = conductor // n
    den = lcm(*(d for _, d, _ in terms))
    dense = [0] * n
    for num, d, exp in terms:
        dense[0 if exp is None else exp % conductor // step] += num * (den // d)
    return Cyclotomic._lowest(n, _reduce_mod_phi(n, dense), den)


def _format_term(coef: Fraction, power: int) -> str:
    if power == 0:
        return str(coef)
    z = "z" if power == 1 else "z^%d" % power
    if coef == 1:
        return z
    if coef == -1:
        return "-" + z
    return "%s*%s" % (coef, z)


def join_signed(terms) -> str:
    """Join printed terms into a sum, a leading "-" of a later term becoming
    " - "; "0" when there are no terms."""
    text = ""
    for term in terms:
        if not text:
            text = term
        elif term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text or "0"


def format_cyclotomic(a: Cyclotomic) -> str:
    """Canonical literal: terms by ascending power, minimal coefficients."""
    return join_signed(
        _format_term(coef, power) for power, coef in enumerate(a.coeffs) if coef
    )
