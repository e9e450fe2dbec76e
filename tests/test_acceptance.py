"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Everything here is exact arithmetic; there are no tolerances anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import random
from fractions import Fraction

import pytest

from conftest import (
    DIAGONAL_COMBOS,
    SWAP_COMBOS,
    bilinear_forms,
    decided_table,
    decided_tables,
    fiber_section,
    from_coeffs,
    groebner,
    hrr_euler,
    planted_quartic_point_model,
    proj_equal,
    variables,
)

from fano212.action import (
    ActionSpec,
    E,
    H,
    MINUS_K,
    DivisorClass,
    invariant_pencil,
    invariant_sublattice,
    involution_fixed_lattice,
    picard_involution,
    random_diagonal_model,
    random_equivariant_model,
)
from fano212.characters import (
    Verdict,
    characters_differ,
    curve_action_oracle,
    ij_characters,
    ij_oracle,
    jac_curve_characters,
    verdict,
)
from fano212.cohomology import (
    bott_p3,
    euler_chase,
    koszul_cohomology_on_X,
    kunneth,
)
from fano212.cyclotomic import (
    Cyclotomic,
    cyc,
    cyclotomic_coeffs,
    euler_phi,
)
from fano212.groebner import hilbert_polynomial
from fano212.model import (
    Side,
    curve_point_to_quartic_point,
    determinantal_quartic,
    minor_cubics,
    quartic_point_to_curve_point,
    sample_curve_points,
)


def report(name: str, detail: str = ""):
    suffix = " (%s)" % detail if detail else ""
    print("ACCEPTANCE %s: PASS%s" % (name, suffix))


@pytest.fixture(scope="module")
def swap_suite():
    """Generator-produced smooth swap instances spanning orders 2, 4, 6, 8."""
    suite = []
    for idx, (n, weights, exps) in enumerate(SWAP_COMBOS):
        model, spec = random_equivariant_model(n, weights, exps, seed=100 + idx)
        pencil = invariant_pencil(model, spec)
        suite.append((model, spec, pencil))
    return suite


def test_character_agreement(swap_suite):
    assert len(swap_suite) >= 20
    orders = {spec.order for _, spec, _ in swap_suite}
    assert orders == {2, 4, 6, 8}
    for model, spec, pencil in swap_suite:
        n = spec.order
        jac_formula = jac_curve_characters(pencil.exponents, spec.weights, n)
        jac_oracle = curve_action_oracle(pencil)
        assert jac_formula == jac_oracle, (
            "curve characters disagree for n=%d r=%s" % (n, spec.weights)
        )
        ij_formula = ij_characters(pencil.exponents, spec.weights, n)
        ij_o = ij_oracle(pencil)
        assert ij_formula == ij_o, (
            "intermediate-Jacobian characters disagree for n=%d r=%s"
            % (n, spec.weights)
        )
    report(
        "character agreement",
        "%d smooth swap instances, orders %s, formula = oracle exactly"
        % (len(swap_suite), sorted(orders)),
    )


def test_sign_discrepancy(swap_suite):
    for _, spec, pencil in swap_suite:
        n = spec.order
        jac = jac_curve_characters(pencil.exponents, spec.weights, n)
        ij = ij_characters(pencil.exponents, spec.weights, n)
        assert characters_differ(jac, ij)
    rng = random.Random(2024)
    for _ in range(1000):
        n = 2 * rng.randint(1, 12)
        s = tuple(rng.randrange(n) for _ in range(3))
        r = tuple(rng.randrange(n) for _ in range(4))
        assert characters_differ(
            jac_curve_characters(s, r, n), ij_characters(s, r, n)
        )
    report(
        "sign discrepancy",
        "all suite instances plus 1000 fuzzed (s, r, n) tuples",
    )


def test_non_swap_remark():
    assert len(DIAGONAL_COMBOS) >= 5
    for idx, (n, a, b, exps) in enumerate(DIAGONAL_COMBOS):
        model, spec = random_diagonal_model(n, a, b, exps, seed=50 + idx)
        pencil = invariant_pencil(model, spec)
        curve = curve_action_oracle(pencil)
        ij = ij_oracle(pencil)
        assert ij == curve, "diagonal action picked up a sign: n=%d" % n
        assert ij == jac_curve_characters(
            pencil.exponents, list(a) + list(b), n
        )
    report(
        "non-swap remark",
        "%d diagonal actions, intermediate-Jacobian oracle = curve characters"
        % len(DIAGONAL_COMBOS),
    )


def test_hilbert_polynomial(swap_suite):
    checked = 0
    for model, spec, _ in swap_suite:
        if spec.order in (2, 4, 6, 8) and checked < 6:
            hp = hilbert_polynomial(minor_cubics(model, Side.FIRST))
            assert hp == (Fraction(-2), Fraction(6)), (
                "Hilbert polynomial %s is not 6t - 2" % (hp,)
            )
            checked += 1
    assert checked >= 5
    report("hilbert polynomial", "6t - 2 on %d smooth instances" % checked)


def test_cohomology_tables():
    assert koszul_cohomology_on_X(0, 0).dims == (1, 0, 0, 0)
    assert koszul_cohomology_on_X(-1, 0).dims == (0, 0, 0, 0)
    assert koszul_cohomology_on_X(0, -1).dims == (0, 0, 0, 0)
    assert koszul_cohomology_on_X(-1, -1).dims == (0, 0, 0, 1)
    assert kunneth(-4, -4)[6] == 1
    assert euler_chase() == (True, True)
    report(
        "cohomology tables",
        "structure sheaf, mixed twists, conormal twist, top class, Euler chase",
    )


def test_cohomology_riemann_roch_and_serre_duality():
    tables = decided_tables(range(-10, 11))
    decided = 0
    for (a, b), dims in tables.items():
        dual = decided_table(-1 - a, -1 - b)
        assert (dims is None) == (dual is None), (a, b)
        if dims is None:
            continue
        assert sum((-1) ** i * d for i, d in enumerate(dims)) == hrr_euler(a, b)
        assert dims == dual[::-1], (a, b)
        decided += 1
    report(
        "cohomology riemann-roch and serre duality",
        "%d of %d twists in -10..10 decided" % (decided, len(tables)),
    )


def test_picard_lattice():
    for c in (H, E, MINUS_K, DivisorClass(5, -7)):
        assert picard_involution(picard_involution(c)) == c
    assert picard_involution(MINUS_K) == MINUS_K
    assert involution_fixed_lattice() == MINUS_K
    assert len(invariant_sublattice(True)) == 1
    assert len(invariant_sublattice(False)) == 2
    h_prime = picard_involution(H)
    assert -MINUS_K == -H + -h_prime  # -4H + E = -H - H'
    report(
        "picard lattice",
        "involution squares to identity, fixes 4H-E, rank 1 iff swap",
    )


def test_geometry_roundtrips(swap_suite):
    roundtrips = 0
    skipped = 0
    # planted instances guarantee representable quartic points
    for seed in (7, 19, 23):
        model, point = planted_quartic_point_model(seed=seed)
        q = determinantal_quartic(model)
        for side in (Side.FIRST, Side.SECOND):
            curve_pt = quartic_point_to_curve_point(model, point, side)
            cubics = minor_cubics(model, side)
            assert all(f.evaluate(list(curve_pt)).is_zero() for f in cubics)
            back = curve_point_to_quartic_point(model, curve_pt, side)
            assert proj_equal(list(back), list(point))
            assert q.evaluate(list(back)).is_zero()
            roundtrips += 1
        # hyperplane-slice sampler against the same instances
        found = sample_curve_points(model, Side.SECOND, seed=2, attempts=20)
        for curve_pt in found:
            back = curve_point_to_quartic_point(model, curve_pt, Side.SECOND)
            again = quartic_point_to_curve_point(model, back, Side.SECOND)
            assert proj_equal(list(again), list(curve_pt))
            roundtrips += 1
    # generated equivariant instances rarely carry representable points; the
    # sampler must then report none and the roundtrip is skipped
    for model, spec, _ in swap_suite[:3]:
        found = sample_curve_points(model, Side.FIRST, seed=3, attempts=5)
        if not found:
            skipped += 1
        for curve_pt in found:
            back = curve_point_to_quartic_point(model, curve_pt, Side.FIRST)
            again = quartic_point_to_curve_point(model, back, Side.FIRST)
            assert proj_equal(list(again), list(curve_pt))
            roundtrips += 1
    # fibre sections satisfy the defining forms everywhere, on all instances
    rng = random.Random(77)
    fibre_checks = 0
    for model, spec, _ in swap_suite:
        forms = bilinear_forms(model)
        point = [cyc(rng.randint(1, 7)) for _ in range(4)]
        fib = fiber_section(model, Side.FIRST, point)
        assert all(f.evaluate(point + list(fib)).is_zero() for f in forms)
        fibre_checks += 1
    report(
        "geometry roundtrips",
        "%d exact roundtrips, %d sampler skips reported, %d fibre sections"
        % (roundtrips, skipped, fibre_checks),
    )


def test_verdict_contract(swap_suite):
    for _, spec, _ in swap_suite:
        assert verdict(spec) is Verdict.NOT_LINEARISABLE
    for n, a, b, exps in DIAGONAL_COMBOS:
        spec = ActionSpec(n, a, swap=False, weights2=b)
        assert verdict(spec) is Verdict.LINEARISABLE
    report(
        "verdict contract",
        "not linearisable exactly on the %d swap specs; %d diagonal specs "
        "linearisable" % (len(swap_suite), len(DIAGONAL_COMBOS)),
    )


class TestKernelLayer:
    def test_field_axioms(self):
        rng = random.Random(31337)
        for n in (1, 3, 4, 8, 12):
            phi = euler_phi(n)
            for _ in range(20):
                a, b, c = (
                    from_coeffs(
                        n,
                        [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(phi)],
                    )
                    for _ in range(3)
                )
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c
                assert (a * b) * c == a * (b * c)
                if not a.is_zero():
                    assert a * a.inverse() == 1
        report("kernel layer / field axioms", "randomized triples, conductors 1..12")

    def test_cyclotomic_polynomials_to_24(self):
        for n in range(1, 25):
            coeffs = cyclotomic_coeffs(n)
            assert coeffs[-1] == 1
            assert len(coeffs) - 1 == euler_phi(n)
            z = Cyclotomic.zeta(n)
            value = cyc(0)
            for k, c in enumerate(coeffs):
                value = value + z**k * c
            assert value.is_zero()
            assert (z**n - 1).is_zero()
        report("kernel layer / cyclotomic polynomials", "Phi_N exact for N <= 24")

    def test_groebner_determinism(self):
        v = variables(4)
        gens = [
            v[0] * v[2] - v[1] * v[1],
            v[0] * v[3] - v[1] * v[2],
            v[1] * v[3] - v[2] * v[2],
            v[0] * (v[1] * v[3] - v[2] * v[2]),
        ]
        reference = groebner(gens)
        for seed in range(8):
            shuffled = list(gens)
            random.Random(seed).shuffle(shuffled)
            assert groebner(shuffled) == reference
        report("kernel layer / groebner determinism", "8 shuffles, identical reduced bases")

    def test_bott_serre_symmetry(self):
        for a in range(-12, 13):
            ta, tb = bott_p3(a), bott_p3(-4 - a)
            assert all(ta[i] == tb[3 - i] for i in range(4))
        report("kernel layer / serre duality", "bott tables symmetric for |a| <= 12")

    def test_kunneth_symmetry(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                assert kunneth(a, b).dims == kunneth(b, a).dims
        report("kernel layer / kunneth symmetry", "(a, b) <-> (b, a) on the full grid")
