"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) of Q(zeta_N),
with arbitrary-precision rational coefficients.  Phi_N is built in integers,
prime by prime; every product, power of zeta and lift is reduced by one
routine, the remainder by the monic Phi_N.  Mixed conductors are handled by
lifting both operands to the least common multiple; no conductor reduction
is attempted afterwards.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _spread(coeffs, step: int) -> list:
    """The coefficients of f(x^step) from those of f(x), constant term first."""
    out = [0] * ((len(coeffs) - 1) * step + 1)
    out[::step] = coeffs
    return out


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    """Long division of dense rational polynomials (constant term first)."""
    num = list(num)
    dlead = den[-1]
    dd = len(den) - 1
    quot = [_ZERO] * max(len(num) - dd, 1)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / dlead
        if c:
            quot[i - dd] = c
            for j, dc in enumerate(den):
                num[i - dd + j] -= c * dc
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


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
    """The remainder of a dense polynomial (constant term first) by the monic
    Phi_n, as a coefficient vector of length phi(n)."""
    phi = euler_phi(n)
    out = list(dense) + [_ZERO] * (phi - len(dense))
    _divmod_monic(out, _phi_terms(n), phi)
    return tuple(out[:phi])


class Cyclotomic:
    """An exact element of Q(zeta_n) in reduced power-basis form.

    Immutable; arithmetic lifts mixed conductors to their lcm.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(n):
            raise ValueError("coefficient vector has wrong length for conductor %d" % n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("Cyclotomic values are immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _mk(cls, n: int, coeffs: tuple) -> "Cyclotomic":
        """Trusted fast constructor; coeffs must already be reduced."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @staticmethod
    def from_rational(q, n: int = 1) -> "Cyclotomic":
        return Cyclotomic(n, (q,) + (_ZERO,) * (euler_phi(n) - 1))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        return Cyclotomic(n, _reduce_mod_phi(n, [_ZERO] * (k % n) + [_ONE]))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def to_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational number: %s" % self)
        return self.coeffs[0]

    def lift(self, m: int) -> "Cyclotomic":
        """Embed into Q(zeta_m) via zeta_n = zeta_m^(m/n); requires n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError("cannot lift conductor %d into %d" % (self.n, m))
        return Cyclotomic(m, _reduce_mod_phi(m, _spread(self.coeffs, m // self.n)))

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, 1)
        elif not isinstance(other, Cyclotomic):
            return None, None
        if self.n == other.n:
            return self, other
        m = self.n * other.n // gcd(self.n, other.n)
        return self.lift(m), other.lift(m)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Cyclotomic) and other.n == self.n:
            return Cyclotomic._mk(
                self.n, tuple(x + y for x, y in zip(self.coeffs, other.coeffs))
            )
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return Cyclotomic._mk(a.n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._mk(self.n, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, Cyclotomic) and other.n == self.n:
            return Cyclotomic._mk(
                self.n, tuple(x - y for x, y in zip(self.coeffs, other.coeffs))
            )
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return Cyclotomic._mk(a.n, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Cyclotomic) and other.n == self.n:
            la, lb = self.coeffs, other.coeffs
            if len(la) == 1:
                return Cyclotomic._mk(self.n, (la[0] * lb[0],))
            dense = [_ZERO] * (len(la) + len(lb) - 1)
            for i, x in enumerate(la):
                if x:
                    for j, y in enumerate(lb):
                        if y:
                            dense[i + j] += x * y
            return Cyclotomic._mk(self.n, _reduce_mod_phi(self.n, dense))
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Cyclotomic._mk(self.n, tuple(c * q for c in self.coeffs))
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.n)
        if self.is_rational():
            return Cyclotomic.from_rational(1 / self.coeffs[0], self.n)
        # extended gcd of self against the irreducible Phi_n over Q[x]: the
        # remainders end in a nonzero constant r1 = s1 * self mod Phi_n
        r0, r1 = list(map(Fraction, cyclotomic_coeffs(self.n))), list(self.coeffs)
        while r1[-1] == 0:
            r1.pop()
        s0, s1 = [_ZERO], [_ONE]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            # s_new = s0 - q * s1
            s_new = list(s0) + [_ZERO] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        if sc:
                            s_new[i + j] -= qc * sc
            r0, r1, s0, s1 = r1, r, s1, s_new
        return Cyclotomic(self.n, _reduce_mod_phi(self.n, [c / r1[0] for c in s1]))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero")
            return Cyclotomic(self.n, tuple(c / q for c in self.coeffs))
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
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other, 1)
        elif not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # equality crosses conductors; not usable as dict key

    # -- conversions -------------------------------------------------------

    def __repr__(self):
        return "Cyclotomic(%d, %s)" % (self.n, format_cyclotomic(self))

    def __str__(self):
        return format_cyclotomic(self)


def root_of_unity(n: int, k: int) -> Cyclotomic:
    """zeta_n^k as an exact element of Q(zeta_n)."""
    return Cyclotomic.zeta(n, k)


def as_power_of_root(a, n: int):
    """The exponent k with a = zeta_n^k, or None if a is no such root."""
    if isinstance(a, (int, Fraction)):
        a = Cyclotomic.from_rational(a, 1)
    for k in range(n):
        if a == Cyclotomic.zeta(n, k):
            return k
    return None


def cyc(value, n: int = 1) -> Cyclotomic:
    """Coerce an int, Fraction or Cyclotomic into a Cyclotomic value."""
    if isinstance(value, Cyclotomic):
        return value
    return Cyclotomic.from_rational(value, n)


# -- text form ---------------------------------------------------------------
#
# Literals are polynomials in the symbol `z` with rational coefficients,
# e.g. `1/2*z^3 - 2`, interpreted in Q(zeta_N) for a given conductor N.

_TERM_RE = re.compile(
    r"^(?:(?P<coef>\d+(?:/\d+)?)\*?)?(?:(?P<z>z)(?:\^(?P<exp>\d+))?)?$"
)


class LiteralError(ValueError):
    pass


def parse_cyclotomic(text: str, conductor: int) -> Cyclotomic:
    """Parse a cyclotomic literal relative to the given conductor."""
    compact = text.replace(" ", "").replace("\t", "")
    if not compact:
        raise LiteralError("empty cyclotomic literal")
    pieces = re.split(r"([+-])", compact)
    if pieces[0] == "":
        pieces.pop(0)
    else:
        pieces.insert(0, "+")
    if len(pieces) % 2 or any(p == "" for p in pieces):
        raise LiteralError("malformed literal %r" % text)
    total = Cyclotomic.from_rational(0, conductor)
    for sign, body in zip(pieces[::2], pieces[1::2]):
        m = _TERM_RE.match(body)
        if not m or (m.group("coef") is None and m.group("z") is None):
            raise LiteralError("bad term %r in literal %r" % (body, text))
        try:
            coef = Fraction(m.group("coef")) if m.group("coef") else _ONE
            exp = int(m.group("exp")) if m.group("exp") else 1
        except (ValueError, ZeroDivisionError):
            raise LiteralError("term %r has a zero denominator or a number over "
                               "4300 digits" % body[:40])
        if sign == "-":
            coef = -coef
        if m.group("z"):
            total = total + Cyclotomic.zeta(conductor, exp) * coef
        else:
            total = total + coef
    return total


def _format_term(coef: Fraction, power: int) -> str:
    if power == 0:
        return str(coef)
    z = "z" if power == 1 else "z^%d" % power
    if coef == 1:
        return z
    if coef == -1:
        return "-" + z
    return "%s*%s" % (coef, z)


def format_cyclotomic(a: Cyclotomic) -> str:
    """Canonical literal: terms by ascending power, minimal coefficients."""
    parts = []
    for power, coef in enumerate(a.coeffs):
        if coef == 0:
            continue
        term = _format_term(coef, power)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append(" - " + term[1:])
        else:
            parts.append(" + " + term)
    return "".join(parts) if parts else "0"
