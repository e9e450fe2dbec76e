"""Character multisets of the cyclic action on the Lie algebras of the curve
Jacobian and of the intermediate Jacobian, computed two ways each: closed
formulas in the weights, and symbolic oracles that read the characters off
the actual quartic and the top cohomology class.

A character is an exponent k mod n, standing for w^k with w the fixed
primitive n-th root of unity; the sign representation is the exponent shift
n/2 (n is even for every swap action), so all character arithmetic is
integer arithmetic mod n and comparison is plain multiset equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .action import ActionSpec, InvariantPencil, invariant_sublattice
from .cohomology import equivariant_top_exponent
from .model import ModelTriple, determinantal_quartic


class OracleError(RuntimeError):
    """An oracle found the pencil data inconsistent with the action."""


@dataclass(frozen=True)
class CharacterMultiset:
    """Three exponents k (mod order) of characters sending the generator to
    the k-th power of the fixed primitive root."""

    order: int
    exponents: tuple

    def __post_init__(self):
        if len(self.exponents) != 3:
            raise ValueError("expected exactly three exponents")
        object.__setattr__(
            self, "exponents", tuple(sorted(e % self.order for e in self.exponents))
        )

    def shifted(self, k: int) -> "CharacterMultiset":
        return CharacterMultiset(self.order, tuple(e + k for e in self.exponents))

    def __str__(self):
        return "{%s} mod %d" % (", ".join(str(e) for e in self.exponents), self.order)


def jac_curve_characters(s, r, n: int) -> CharacterMultiset:
    """Action on the Lie algebra of the curve Jacobian: the multiset
    { s_j + (s_1+s_2+s_3) - sum(r) } mod n."""
    shift = sum(s) - sum(r)
    return CharacterMultiset(n, tuple(sj + shift for sj in s))


def ij_characters(s, r, n: int) -> CharacterMultiset:
    """Action on the Lie algebra of the intermediate Jacobian: the curve
    multiset twisted by the sign character, realised as the shift n/2."""
    if n % 2:
        raise ValueError("the sign character needs an even order, got %d" % n)
    return jac_curve_characters(s, r, n).shifted(n // 2)


def characters_differ(a: CharacterMultiset, b: CharacterMultiset) -> bool:
    if a.order != b.order:
        raise ValueError("cannot compare characters of different orders")
    return a.exponents != b.exponents


# -- symbolic oracles --------------------------------------------------------------


def curve_action_oracle(pencil: InvariantPencil) -> CharacterMultiset:
    """Characters of the action on the three 2-forms spanning the sections
    of the canonical bundle of the determinantal quartic, read off the
    quartic's monomials.

    The substitution (x, y, z) -> (w^s1 x, w^s2 y, w^s3 z) multiplies the
    coefficient of x^a y^b z^c of Q by the nonzero root of unity
    w^(a*s1 + b*s2 + c*s3), so Q is an eigenvector with eigenvalue w^T
    exactly when every monomial has a*s1 + b*s2 + c*s3 = T mod n, and T must
    be the total weight.  In the chart u = y/x, v = z/x the 2-form
    du ^ dv / (Q/x^4) has exponent (s2 - s1) + (s3 - s1) - (T - 4*s1), and
    the monomials 1, u, v add 0, s2 - s1 and s3 - s1.
    """
    spec = pencil.spec
    n = spec.order
    q = determinantal_quartic(ModelTriple(pencil.matrices, n))
    s1, s2, s3 = pencil.exponents
    # the chart u = y/x, v = z/x must meet the curve
    if all(e[0] == 0 for e in q.terms):
        raise OracleError("quartic is divisible by x; chart u = y/x is empty")
    monomial_weights = {(a * s1 + b * s2 + c * s3) % n for a, b, c in q.terms}
    if len(monomial_weights) != 1:
        raise OracleError(
            "quartic is not an eigenvector of the diagonal substitution; "
            "invariant-pencil data is inconsistent"
        )
    total = sum(spec.weights) + (0 if spec.swap else sum(spec.weights2))
    if monomial_weights != {total % n}:
        raise OracleError("quartic eigenvalue does not match the total weight")
    base = s2 + s3 + 2 * s1 - total
    return CharacterMultiset(n, (base, base + s2 - s1, base + s3 - s1))


def ij_oracle(pencil: InvariantPencil) -> CharacterMultiset:
    """Characters of the action on the top cohomology classes computing the
    intermediate Jacobian side: the equivariant top exponent of O(-4, -4)
    (graded swap sign included), twisted by the Koszul generator (sum s) and
    by each line-bundle factor (s_j).

    This restates the closed form w^(s_j + sum s - sum r) (r: every weight)
    of jac_curve_characters and ij_characters rather than checking it
    independently.  Only the sign, -1 for a swap, is computed separately, by
    cohomology.graded_reorder_sign, and that sign is tested on its own."""
    spec = pencil.spec
    base = equivariant_top_exponent(spec.weights, spec.order, spec.swap, spec.weights2)
    base += sum(pencil.exponents)
    return CharacterMultiset(spec.order, tuple(base + sj for sj in pencil.exponents))


# -- verdict -----------------------------------------------------------------------


class Verdict(Enum):
    LINEARISABLE = "linearisable"
    NOT_LINEARISABLE = "not linearisable"


def verdict(spec: ActionSpec) -> Verdict:
    """Not linearisable exactly when the invariant Picard lattice has rank
    one, the lattice that `picard` prints."""
    rank = len(invariant_sublattice(spec.swap))
    return Verdict.NOT_LINEARISABLE if rank == 1 else Verdict.LINEARISABLE
