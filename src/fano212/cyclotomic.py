"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis 1, z, ..., z^(phi(N)-1) of Q(zeta_N),
reduced modulo the N-th cyclotomic polynomial, with arbitrary-precision
rational coefficients.  Mixed conductors are handled by lifting both operands
to the least common multiple; no conductor reduction is attempted afterwards.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


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


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[Fraction, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first."""
    if n < 1:
        raise ValueError("conductor must be positive")
    # x^n - 1 = prod over divisors d of n of Phi_d
    num = [_ZERO] * (n + 1)
    num[0], num[n] = Fraction(-1), _ONE
    for d in _divisors(n):
        if d == n:
            continue
        num, rem = _poly_divmod(num, list(cyclotomic_coeffs(d)))
        assert len(rem) == 1 and rem[0] == 0
    assert len(num) - 1 == euler_phi(n)
    return tuple(num)


_POWER_ROWS: dict[int, list[tuple[Fraction, ...]]] = {}


def _power_row(n: int, k: int) -> tuple[Fraction, ...]:
    """z^k reduced mod Phi_n, as a coefficient vector of length phi(n)."""
    phi = euler_phi(n)
    rows = _POWER_ROWS.setdefault(n, [])
    if not rows:
        for i in range(phi):
            row = [_ZERO] * phi
            row[i] = _ONE
            rows.append(tuple(row))
    while len(rows) <= k:
        # z^(m+1) = z * z^m, then fold the overflow term via Phi_n
        prev = rows[-1]
        shifted = [_ZERO] + list(prev)
        top = shifted.pop()
        if top:
            phi_c = cyclotomic_coeffs(n)
            for i in range(phi):
                shifted[i] -= top * phi_c[i]
        rows.append(tuple(shifted))
    return rows[k]


def _reduce_mod_phi(n: int, dense: list[Fraction]) -> tuple[Fraction, ...]:
    phi = euler_phi(n)
    out = [_ZERO] * phi
    for k, c in enumerate(dense):
        if c:
            row = _power_row(n, k)
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
    return tuple(out)


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
        q = Fraction(q)
        phi = euler_phi(n)
        return Cyclotomic(n, (q,) + (_ZERO,) * (phi - 1))

    @staticmethod
    def zeta(n: int, k: int = 1) -> "Cyclotomic":
        return Cyclotomic(n, _power_row(n, k % n))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

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
        step = m // self.n
        dense = [_ZERO] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            dense[i * step] = c
        return Cyclotomic(m, _reduce_mod_phi(m, dense))

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
        # extended gcd of self against Phi_n over Q[x]
        r0, r1 = list(cyclotomic_coeffs(self.n)), list(self.coeffs)
        while len(r1) > 1 and r1[-1] == 0:
            r1.pop()
        s0, s1 = [_ZERO], [_ONE]
        while len(r1) > 1 or r1[0] != 0:
            q, r = _poly_divmod(r0, r1)
            # s_new = s0 - q * s1
            s_new = list(s0) + [_ZERO] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        if sc:
                            s_new[i + j] -= qc * sc
            r0, r1 = r1, r if r else [_ZERO]
            s0, s1 = s1, s_new
            if len(r0) == 1 and r0[0] != 0:
                g = r0[0]
                inv_dense = [c / g for c in s0]
                return Cyclotomic(self.n, _reduce_mod_phi(self.n, inv_dense))
        raise ZeroDivisionError("element not invertible mod Phi_%d" % self.n)

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


ZERO = Cyclotomic.from_rational(0)
ONE = Cyclotomic.from_rational(1)


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
        coef = Fraction(m.group("coef")) if m.group("coef") else _ONE
        if sign == "-":
            coef = -coef
        if m.group("z"):
            exp = int(m.group("exp")) if m.group("exp") else 1
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
