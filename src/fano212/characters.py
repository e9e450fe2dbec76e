"""Character multisets of the cyclic action on the Lie algebras of the curve
Jacobian and of the intermediate Jacobian, computed two ways each: closed
formulas in the weights, and symbolic oracles that extract eigenvalues from
the actual polynomials and cohomology classes.

The sign representation is encoded as the exponent shift n/2 (n is even for
every swap action), so character comparison is plain multiset equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .action import ActionSpec, InvariantPencil, is_gfano
from .cohomology import equivariant_top_eigenvalue
from .cyclotomic import as_power_of_root, cyc, root_of_unity
from .model import ModelTriple, determinantal_quartic


class OracleError(RuntimeError):
    """An eigenvalue extraction failed; upstream pencil data is broken."""


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


def _extract_scaling_eigenvalue(q, scalars):
    """lambda with q(scalars * vars) = lambda * q, or None."""
    scaled = q.scale_vars(scalars)
    mono, coef = next(iter(q.terms.items()))
    lam = scaled.coefficient(mono) / coef
    if scaled == q * lam:
        return lam
    return None


def curve_action_oracle(pencil: InvariantPencil) -> CharacterMultiset:
    """Eigenvalues of the action on the three 2-forms spanning the sections
    of the canonical bundle of the determinantal quartic, by direct
    substitution.

    The quartic Q of the pencil must satisfy Q(w^{s1} x, w^{s2} y, w^{s3} z)
    = lambda_Q Q with lambda_Q the total weight; the chart factors of
    du ^ dv / (Q/x^4) and of the monomials 1, u, v are then multiplied out
    exactly and each eigenvalue is matched against the root-of-unity lattice.
    """
    n = pencil.order
    model = ModelTriple(pencil.matrices, n)
    q = determinantal_quartic(model)
    s1, s2, s3 = pencil.exponents
    # the chart u = y/x, v = z/x must meet the curve
    if all(e[0] == 0 for e in q.terms):
        raise OracleError("quartic is divisible by x; chart u = y/x is empty")
    scalars = [root_of_unity(n, s1), root_of_unity(n, s2), root_of_unity(n, s3)]
    lam_q = _extract_scaling_eigenvalue(q, scalars)
    if lam_q is None:
        raise OracleError(
            "quartic is not an eigenvector of the diagonal substitution; "
            "invariant-pencil data is inconsistent"
        )
    weights2 = () if pencil.swap else pencil.weights2
    expected = root_of_unity(n, sum(pencil.weights) + sum(weights2))
    if lam_q != expected:
        raise OracleError("quartic eigenvalue does not match the total weight")
    zu = scalars[1] / scalars[0]  # u = y/x
    zv = scalars[2] / scalars[0]  # v = z/x
    # denominator Q/x^4 rescales by lambda_Q w^{-4 s1}
    denom = lam_q * root_of_unity(n, -4 * s1)
    two_form = zu * zv  # du ^ dv
    exponents = []
    for monomial in (cyc(1), zu, zv):
        eigen = monomial * two_form / denom
        k = as_power_of_root(eigen, n)
        if k is None:
            raise OracleError("2-form eigenvalue is not a root of unity")
        exponents.append(k)
    return CharacterMultiset(n, tuple(exponents))


def ij_oracle(pencil: InvariantPencil) -> CharacterMultiset:
    """Eigenvalues of the action on the top cohomology classes computing the
    intermediate Jacobian side: the equivariant top eigenvalue of O(-4, -4)
    (graded swap sign included), twisted by the Koszul generator and by each
    line-bundle factor.

    This restates the closed form w^(s_j + sum s - sum r) (r: every weight)
    of jac_curve_characters and ij_characters rather than checking it
    independently.  Only the sign, -1 for a swap, is computed separately, by
    cohomology.graded_reorder_sign, and that sign is tested on its own."""
    n = pencil.order
    top = equivariant_top_eigenvalue(
        pencil.weights, n, pencil.swap, pencil.weights2
    )
    koszul_twist = root_of_unity(n, sum(pencil.exponents))
    exponents = []
    for sj in pencil.exponents:
        eigen = top * koszul_twist * root_of_unity(n, sj)
        k = as_power_of_root(eigen, n)
        if k is None:
            raise OracleError("top-cohomology eigenvalue is not a root of unity")
        exponents.append(k)
    return CharacterMultiset(n, tuple(exponents))


# -- verdict -----------------------------------------------------------------------


class Verdict(Enum):
    LINEARISABLE = "linearisable"
    NOT_LINEARISABLE = "not linearisable"


def verdict(spec: ActionSpec) -> Verdict:
    """Linearisable exactly when the invariant Picard rank is two, i.e. when
    the action never swaps the two hyperplane classes."""
    return Verdict.NOT_LINEARISABLE if is_gfano(spec) else Verdict.LINEARISABLE
