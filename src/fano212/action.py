"""Cyclic group actions on P3 x P3 preserving a triple of (1,1)-forms.

A swap action is the normal form sigma(x, y) = (y, D x) with
D = diag(w^r0, ..., w^r3) for w a primitive n-th root of unity; a diagonal
action fixes both factors with weight tuples (weights, weights2).  The module
validates declared orders, diagonalises the action on the pencil of forms,
decides the rank of the invariant Picard sublattice, and generates random
equivariant instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .cyclotomic import Cyclotomic, _fp_image, cyc
from .linalg import matrix_rank, pivot_scales, rref
from .model import (ModelTriple, _nonzero_entries, _smooth_image, combine,
                    determinantal_quartic, validate_model, InputError)


@dataclass(frozen=True)
class ActionSpec:
    order: int
    weights: tuple
    swap: bool = True
    weights2: tuple | None = None

    def __post_init__(self):
        if self.order < 1:
            raise InputError("bad-order", "order must be positive")
        object.__setattr__(self, "weights", tuple(w % self.order for w in self.weights))
        if self.weights2 is not None:
            object.__setattr__(
                self, "weights2", tuple(w % self.order for w in self.weights2)
            )


@dataclass(frozen=True)
class InvariantPencil:
    matrices: tuple  # three 4x4 grids of Cyclotomic, eigenvectors of the action
    exponents: tuple  # s_j with sigma . F_j = w^{s_j} F_j
    spec: ActionSpec


@dataclass(frozen=True)
class DivisorClass:
    """a*H + b*E in the rank-two Picard lattice Z H + Z E."""

    a: int
    b: int

    def __add__(self, other):
        return DivisorClass(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return DivisorClass(-self.a, -self.b)

    def __str__(self):
        parts = []
        if self.a:
            parts.append("H" if self.a == 1 else ("-H" if self.a == -1 else "%dH" % self.a))
        if self.b:
            sign = "+" if self.b > 0 and parts else ""
            parts.append(sign + ("E" if self.b == 1 else ("-E" if self.b == -1 else "%dE" % self.b)))
        return "".join(parts) if parts else "0"


H = DivisorClass(1, 0)
E = DivisorClass(0, 1)
MINUS_K = DivisorClass(4, -1)


# -- order bookkeeping ----------------------------------------------------------


def _diag_projective_order(weights, n: int) -> int:
    """Smallest k with diag(w^{k r_i}) scalar: n | k(r_i - r_0) for every i,
    so k is the lcm of the n/gcd(n, r_i - r_0), and
    lcm(n/gcd(n, a), n/gcd(n, b)) = n/gcd(n, a, b)."""
    return n // gcd(n, *(w - weights[0] for w in weights))


def projective_order(spec: ActionSpec) -> int:
    """Order of sigma as an automorphism of P3 x P3.

    A swap never acts as the identity, so a swap action has order twice the
    projective order of D; a diagonal action has the lcm of the two factor
    orders.
    """
    n = spec.order
    if spec.swap:
        return 2 * _diag_projective_order(spec.weights, n)
    if spec.weights2 is None:
        raise InputError("missing-weights2", "diagonal action needs two weight tuples")
    ka = _diag_projective_order(spec.weights, n)
    kb = _diag_projective_order(spec.weights2, n)
    return ka * kb // gcd(ka, kb)


def validate_action(spec: ActionSpec) -> None:
    n = spec.order
    if len(spec.weights) != 4:
        raise InputError("bad-weights", "expected four weights")
    if spec.swap:
        if n % 2:
            raise InputError("odd-order", "a swap action has even order, got %d" % n)
        if len({w % 2 for w in spec.weights}) > 1:
            true_order = projective_order(spec)
            raise InputError(
                "parity",
                "swap weights must share parity; the declared order %d is wrong "
                "(computed projective order %d)" % (n, true_order),
            )
        if spec.weights2 is not None:
            raise InputError("extra-weights2", "swap actions take a single weight tuple")
    else:
        if spec.weights2 is None:
            raise InputError("missing-weights2", "diagonal action needs two weight tuples")
        if len(spec.weights2) != 4:
            raise InputError("bad-weights", "expected four weights in the second tuple")
    true_order = projective_order(spec)
    if true_order != n:
        raise InputError(
            "order-mismatch",
            "declared order %d but sigma has projective order %d" % (n, true_order),
        )


# -- action on the pencil of forms ----------------------------------------------


def _sigma_on_entries(spec: ActionSpec):
    """sigma on the 16 entries c = 4p + q of a form matrix, as three lists:
    sigma(M)[c] = w^twist[c] * M[source[c]], and tau, sigma^2 (M -> D M D)
    for a swap and sigma for a diagonal action, scales entry c by w^mu[c]."""
    n, a = spec.order, spec.weights
    cells = [(p, q) for p in range(4) for q in range(4)]
    mu = [(a[p] + (a if spec.swap else spec.weights2)[q]) % n for p, q in cells]
    if spec.swap:
        return [4 * q + p for p, q in cells], [a[p] for p, _ in cells], mu
    return list(range(16)), mu, mu


def _not_invariant(j: int) -> InputError:
    return InputError("pencil-not-invariant", "the action does not preserve the span of "
                      "the three forms (form %d maps outside the pencil)" % (j + 1))


def invariant_pencil(m: ModelTriple, spec: ActionSpec) -> InvariantPencil:
    """Diagonalise the action on the pencil P of three independent forms
    (validate_model's precondition): an eigenbasis M'_j with the exponents
    s_j of its eigenvalues w^{s_j}, in ascending order.

    tau scales entry c by w^mu[c] (_sigma_on_entries), so the projection
    pi_k onto the block of entries with mu = k is a polynomial in tau, and
    P lies in the sum of the P_k = pi_k(P), of dimension the sum of the
    ranks d_k of the forms restricted to the blocks (each block's echelon
    basis taken on its own columns).  So the d_k add up to at least 3, with
    equality exactly when P is tau-stable.  sigma commutes with tau, so it
    maps each block to itself; each block's eigen-rows are:
    - for a swap, tau = sigma^2 = w^k on block k, with k even as the weights
      share parity, so sigma^2 = lambda^2 there for lambda = w^(k/2) and
      -lambda = w^(k/2 + n/2).  For u in the block, u + lambda^-1 sigma(u)
      and u - lambda^-1 sigma(u) are eigenvectors for lambda and -lambda,
      and together they span u and sigma(u).  The echelon rows of each over
      the block's basis are e_k independent eigenvectors spanning
      P_k + sigma(P_k), so e_k >= d_k, with equality exactly when P_k is
      sigma-stable;
    - for a diagonal action, sigma = tau is the scalar w^k on block k, so
      the basis itself is the eigen-rows (rref leaves a reduced form as it
      is), and e_k = d_k always.
    Hence P is sigma-stable exactly when every e_k = d_k and the d_k add up
    to 3; the loop stops at the first block where either fails.  Only a
    refusal then finds the first M_j with sigma(M_j) outside P, for its
    message, against the echelon form of the three forms; its products are
    taken at the forms' conductor, then rotated by their power of w.

    When n does not divide the model's conductor, w is outside the entries'
    field: one _fp_image call maps the forms and zeta_n, and a rank of 4 of
    the forms and sigma(M_1) mod p is one over Q(zeta), so form 1 is the
    first form refused; a lower rank takes the exact path."""
    validate_action(spec)
    n = spec.order
    source, twist, mu = _sigma_on_entries(spec)
    rows = [[v for row in mat for v in row] for mat in m.matrices]
    image = _fp_image(sum(rows, []) + [Cyclotomic.zeta(n)]) if m.conductor % n else None
    if image is not None:
        prime, (*values, w) = image
        moved = [pow(w, twist[c], prime) * values[source[c]] % prime for c in range(16)]
        if matrix_rank([values[:16], values[16:32], values[32:], moved], prime) == 4:
            raise _not_invariant(0)

    def outside(u, basis, pivots):
        """Whether D * sigma(u) minus sum of sigma(u)[p] * row over the pivots
        p and rows of the echelon basis, each row scaled to the product D of
        the pivots (pivot_scales), is nonzero."""
        total, scales = pivot_scales(basis, pivots)
        coeffs = [(p, row, u[source[p]] * s) for p, row, s in zip(pivots, basis, scales)]
        for c in (c for c in range(16) if c not in pivots):
            diff = (u[source[c]] * total).rotated(n, twist[c])
            for p, row, a in coeffs:
                x = a * row[c]
                if x:
                    diff = diff - x.rotated(n, twist[p])
            if diff:
                return True
        return False

    zero, rank, found = cyc(0), 0, []
    for k in set(mu):
        cols = [c for c in range(16) if mu[c] == k]
        red, pivots = rref([[row[c] for c in cols] for row in rows])
        basis = red[:len(pivots)]
        rank += len(basis)
        if spec.swap:
            # u and lambda^-1 sigma(u) for lambda = w^(k/2); for -lambda it is negated
            at = {c: i for i, c in enumerate(cols)}
            pairs = [[(u[i], u[at[source[c]]].rotated(n, twist[c] - k // 2))
                      for i, c in enumerate(cols)] for u in basis]
            groups = ((k // 2, [[a + b for a, b in p] for p in pairs]),
                      (k // 2 + n // 2, [[a - b for a, b in p] for p in pairs]))
        else:
            groups = ((k, basis),)
        for s, group in groups:
            red, pivots = rref(group)
            for row in red[:len(pivots)]:
                u = dict(zip(cols, row))
                found.append((s, [u.get(c, zero) for c in range(16)]))
        if len(found) != rank or rank > 3:
            break
    if not len(found) == rank == 3:
        red, pivots = rref(rows)
        raise _not_invariant(next(j for j, u in enumerate(rows)
                                  if outside(u, red[:3], pivots)))
    found.sort(key=lambda item: item[0])
    return InvariantPencil(tuple(tuple(tuple(u[4 * p:4 * p + 4]) for p in range(4))
                                 for _, u in found), tuple(s for s, _ in found), spec)


# -- Picard lattice --------------------------------------------------------------


def picard_involution(c: DivisorClass) -> DivisorClass:
    """The lattice involution exchanging the two blowdown structures:
    H -> 3H - E, E -> 8H - 3E."""
    return DivisorClass(3 * c.a + 8 * c.b, -c.a - 3 * c.b)


def involution_fixed_lattice():
    """Primitive generator of the rank-one fixed lattice of the involution:
    H + iota(H) = 4H - E is fixed, as iota is an involution, nonzero and
    primitive; iota is not the identity, so the fixed lattice has rank one,
    and a primitive element of it spans it."""
    return H + picard_involution(H)


def invariant_sublattice(swap: bool):
    """Generators of the invariant Picard sublattice: rank one, spanned by
    the anticanonical class, for a swap; rank two otherwise."""
    if swap:
        return [involution_fixed_lattice()]
    return [H, E]


# -- random equivariant instances -------------------------------------------------


def _matrix(n: int, entries):
    """The 4x4 matrix over Q(zeta_n) with the entries {(i, j): value}, and 0
    elsewhere."""
    zero = cyc(0, n)
    return tuple(tuple(entries.get((i, j), zero) for j in range(4)) for i in range(4))


def transpose_twist_eigenbasis(n: int, weights, s: int):
    """Basis of the w^s-eigenspace of M -> D M^T on 4x4 matrices, every
    entry in Q(zeta_n)."""
    basis = [_matrix(n, {(i, i): cyc(1, n)}) for i in range(4) if (weights[i] - s) % n == 0]
    return basis + [
        _matrix(n, {(i, j): Cyclotomic.zeta(n, weights[i]), (j, i): Cyclotomic.zeta(n, s)})
        for i in range(4) for j in range(i + 1, 4) if (weights[i] + weights[j] - 2 * s) % n == 0]


def diagonal_twist_eigenbasis(n: int, weights, weights2, s: int):
    """Basis of the w^s-eigenspace of M -> A M B on 4x4 matrices, every
    entry in Q(zeta_n)."""
    return [_matrix(n, {(i, j): cyc(1, n)}) for i in range(4) for j in range(4)
            if (weights[i] + weights2[j] - s) % n == 0]


_ATTEMPTS = 50


def _rejection(entries, residues, spans, coeffs, n: int, prime: int):
    """Why _random_model rejects the draw whose eigenforms are the E_j, E_j
    the sum of coeffs[k] * flat[k] over the k with spans[k] = j, decided mod
    prime on the residues of the nonzero entries of flat (_nonzero_entries):
    the text of an exact refusal of validate_model or determinantal_quartic
    on the E_j, or that their quartic is singular mod p; None when its image
    proves it smooth (model._smooth_image).  _random_model says why the
    E_j decide a draw whose forms are R * E, R invertible mod p."""
    forms = [[0] * 16 for _ in range(3)]
    for (k, e, _), r in zip(entries, residues):
        forms[spans[k]][e] += coeffs[k] * r
    forms = [[x % prime for x in form] for form in forms]
    q, smooth = _smooth_image([[form[a:a + 4] for a in range(0, 16, 4)] for form in forms],
                              prime)
    if smooth:
        return None
    if not q or matrix_rank(forms, prime) < 3:
        eigen = [[c if s == j else 0 for s, c in zip(spans, coeffs)] for j in range(3)]
        try:
            model = ModelTriple(combine(eigen, entries, (4, 4)), n)
            validate_model(model)
            determinantal_quartic(model)
        except InputError as exc:
            return str(exc)
    return "determinantal quartic is singular mod p"


def _random_model(spec: ActionSpec, eigenbasis, exponents, seed):
    """Draw each form from the eigenspace eigenbasis(s) of its exponent s,
    with integer coefficients in -3..3, then change the basis of the pencil
    by a random invertible integer matrix with entries in -2..2.  Resample,
    _ATTEMPTS draws at most, until the forms are independent,
    det(x*M1 + y*M2 + z*M3) is not identically zero and its partials have
    an empty locus mod p, which proves it smooth over Qbar.  Any other draw
    is dropped unproved, as a rejection needs no proof: a quartic smooth
    over Q but singular mod p is resampled too, which may change the draw
    returned but not that it is smooth.

    Each draw is decided in F_p on its eigenforms (_rejection).  Every
    nonzero eigenbasis entry has conductor n, so _fp_image maps them, once
    per call (_nonzero_entries), at the prime of _fp_field(n), where
    validate_model and groebner._mod_p_basis map a draw's exact forms and
    partials.  Eigenform E_j is the sum of c_k * B_k over the eigenbasis
    matrices B_k of exponent j, and the forms are R * E for the drawn
    change of basis R.  Reduction mod p is a ring map, so it commutes with
    these combinations, det and each derivative, and the tests on E decide
    those on R * E:
    - R has rank 3 mod p iff its determinant, at most 3! * 2^3 = 48 < p in
      size, is nonzero; then R is invertible over Q and mod p;
    - the forms R * E and E have one rank, over Q(zeta_N) and mod p;
    - their quartics satisfy Delta_R(x) = Delta_E(R^T x), over both rings,
      so one is zero iff the other is, and the gradients satisfy
      grad Delta_R(x) = R grad Delta_E(R^T x): the partials of one have a
      common zero iff those of the other do, R^T being invertible;
    - rank 3 of E mod p is validate_model's own certificate, and a nonzero
      quartic image proves the exact quartic nonzero; a lower rank or a
      zero image takes validate_model and determinantal_quartic on the
      exact E_j, whose refusals those of R * E are;
    - model._smooth_image refuses by substitution, or makes the run that
      _mod_p_basis makes on the exact partials.
    Delta_E is sparse: sigma scales E_j by w^(s_j) and det(sigma(M)) is a
    fixed multiple of det(M), so Delta_E is semi-invariant under
    x_j -> w^(s_j) x_j, and its coordinate points are often singular.
    Exact forms are built only for the draw returned and for those
    fallbacks, which only name a failure: forms of rank below 3 mod p, or a
    zero image, make the quartic singular mod p (a pencil member that
    vanishes mod p is a point of multiplicity 4).  Both are summed by
    combine from the nonzero eigenbasis entries, at conductor n; the
    returned draw's coefficients merge R into the c_k, which gives the
    bytes of summing E and then R * E, as Cyclotomic values are canonical."""
    validate_action(spec)
    n = spec.order
    bases = []
    for s in exponents:
        basis = eigenbasis(s % n)
        if not basis:
            raise InputError("empty-eigenspace",
                             "the eigenspace for exponent %d mod %d is zero" % (s, n))
        bases.append(basis)
    flat = [mat for basis in bases for mat in basis]
    entries = _nonzero_entries(flat)
    image = _fp_image([v for _, _, v in entries])
    if image is None:
        raise InputError("no-smooth-instance", "no prime field for conductor %d" % n)
    prime, residues = image
    spans = [j for j, basis in enumerate(bases) for _ in basis]  # the eigenform of flat[k]
    rng = random.Random(seed)
    failure = "no draw attempted"
    for _ in range(_ATTEMPTS):
        coeffs = [rng.randint(-3, 3) for _ in flat]
        while True:
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
            if matrix_rank([[x % prime for x in row] for row in rows], prime) == 3:
                break
        failure = _rejection(entries, residues, spans, coeffs, n, prime)
        if failure is None:
            merged = [[row[j] * c for j, c in zip(spans, coeffs)] for row in rows]
            return ModelTriple(combine(merged, entries, (4, 4)), n), spec
    raise InputError("no-smooth-instance", "no smooth instance in %d attempts "
                     "(last failure: %s)" % (_ATTEMPTS, failure))


def random_equivariant_model(n: int, weights, exponents, seed: int):
    """A ModelTriple on which the swap action with the given weights acts with
    the prescribed form exponents, found by drawing from exact eigenspaces and
    resampling until the determinantal quartic is smooth.

    Returns (model, spec).  Deterministic in the seed.
    """
    spec = ActionSpec(order=n, weights=tuple(weights), swap=True)
    return _random_model(
        spec, lambda s: transpose_twist_eigenbasis(n, spec.weights, s), exponents, seed
    )


def random_diagonal_model(n: int, weights, weights2, exponents, seed: int):
    """Diagonal (non-swap) counterpart of random_equivariant_model."""
    spec = ActionSpec(order=n, weights=tuple(weights), swap=False, weights2=tuple(weights2))
    return _random_model(
        spec, lambda s: diagonal_twist_eigenbasis(n, spec.weights, spec.weights2, s),
        exponents, seed,
    )
