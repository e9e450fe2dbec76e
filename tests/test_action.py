import random

import pytest

from conftest import (
    DIAGONAL_COMBOS,
    SWAP_COMBOS,
    action_image,
    eigen_relation_holds,
    pencil_eigen_check,
    random_rational_matrix,
    variables,
)

from fano212.action import (
    _action_image,
    E,
    H,
    MINUS_K,
    ActionSpec,
    DivisorClass,
    action_on_forms,
    invariant_pencil,
    invariant_sublattice,
    involution_fixed_lattice,
    is_gfano,
    picard_involution,
    projective_order,
    random_diagonal_model,
    random_equivariant_model,
    transpose_twist_eigenbasis,
    validate_action,
)
from fano212.cyclotomic import cyc, root_of_unity
from fano212.linalg import mat_mul, matrix_rank, proj_equal, solve
from fano212.model import InputError, ModelTriple, determinantal_quartic, model_from_matrices
from fano212.multipoly import MultiPoly


def sigma_orbit_order(spec, sample):
    """Brute-force oracle: apply sigma to exact sample points of P3 x P3 and
    count how many steps return every point to itself projectively."""
    n = spec.order
    d = [root_of_unity(n, r) for r in spec.weights]
    if spec.swap:
        def step(xy):
            x, y = xy
            return (y, tuple(d[i] * x[i] for i in range(4)))
    else:
        d2 = [root_of_unity(n, r) for r in spec.weights2]
        def step(xy):
            x, y = xy
            return (
                tuple(d[i] * x[i] for i in range(4)),
                tuple(d2[i] * y[i] for i in range(4)),
            )
    for m in range(1, 4 * n + 1):
        ok = True
        for x, y in sample:
            cur = (tuple(x), tuple(y))
            for _ in range(m):
                cur = step(cur)
            if not (
                proj_equal(list(cur[0]), list(x)) and proj_equal(list(cur[1]), list(y))
            ):
                ok = False
                break
        if ok:
            return m
    raise AssertionError("no period found")


def sample_points():
    pts = []
    rng = random.Random(17)
    for _ in range(3):
        x = tuple(cyc(rng.randint(1, 5)) for _ in range(4))
        y = tuple(cyc(rng.randint(1, 5)) for _ in range(4))
        pts.append((x, y))
    return pts


class TestProjectiveOrder:
    def test_trivial_swap(self):
        assert projective_order(ActionSpec(2, (0, 0, 0, 0))) == 2

    def test_brute_force_oracle_agreement(self):
        specs = [
            ActionSpec(2, (0, 0, 0, 0)),
            ActionSpec(4, (0, 0, 2, 2)),
            ActionSpec(6, (0, 0, 2, 4)),
            ActionSpec(8, (0, 2, 4, 6)),
            ActionSpec(8, (1, 3, 5, 7)),
            ActionSpec(2, (0, 1, 0, 1), swap=False, weights2=(0, 0, 1, 1)),
        ]
        pts = sample_points()
        for spec in specs:
            assert projective_order(spec) == sigma_orbit_order(spec, pts)

    def test_mixed_parity_weights_have_doubled_order(self):
        # these declared orders are wrong; the computed order is the oracle's
        for weights, declared, true in [
            ((0, 1, 0, 1), 4, 8),
            ((0, 1, 2, 3), 8, 16),
            ((0, 1, 0, 0), 2, 4),
        ]:
            spec = ActionSpec(declared, weights)
            assert projective_order(spec) == true
            with pytest.raises(InputError) as exc:
                validate_action(spec)
            assert exc.value.code == "parity"
            assert str(true) in str(exc.value)


class TestValidation:
    def test_odd_order_swap_rejected(self):
        with pytest.raises(InputError) as exc:
            validate_action(ActionSpec(3, (0, 0, 0, 0)))
        assert exc.value.code == "odd-order"

    def test_order_mismatch(self):
        with pytest.raises(InputError) as exc:
            validate_action(ActionSpec(4, (0, 0, 0, 0)))
        assert exc.value.code == "order-mismatch"

    def test_diagonal_needs_second_tuple(self):
        with pytest.raises(InputError) as exc:
            validate_action(ActionSpec(2, (0, 0, 1, 1), swap=False))
        assert exc.value.code == "missing-weights2"

    def test_valid_diagonal(self):
        validate_action(
            ActionSpec(4, (0, 1, 2, 3), swap=False, weights2=(0, 2, 1, 3))
        )


class TestActionOnForms:
    def test_symmetric_triple_trivial(self):
        rng = random.Random(2)
        grids = []
        for _ in range(3):
            g = random_rational_matrix(rng)
            grids.append([[g[i][j] + g[j][i] for j in range(4)] for i in range(4)])
        m = model_from_matrices(grids)
        s = action_on_forms(m, ActionSpec(2, (0, 0, 0, 0)))
        for i in range(3):
            for j in range(3):
                expected = cyc(1 if i == j else 0)
                assert (s[i][j] - expected).is_zero()

    def test_antisymmetric_triple_negates(self):
        rng = random.Random(3)
        grids = []
        for _ in range(3):
            g = random_rational_matrix(rng)
            grids.append([[g[i][j] - g[j][i] for j in range(4)] for i in range(4)])
        m = model_from_matrices(grids)
        s = action_on_forms(m, ActionSpec(2, (0, 0, 0, 0)))
        for i in range(3):
            for j in range(3):
                expected = cyc(-1 if i == j else 0)
                assert (s[i][j] - expected).is_zero()

    def test_image_is_the_matrix_product(self):
        rng = random.Random(6)
        specs = [ActionSpec(n, weights) for n, weights, _ in SWAP_COMBOS]
        specs += [ActionSpec(n, a, swap=False, weights2=b) for n, a, b, _ in DIAGONAL_COMBOS]
        for spec in specs:
            mat = tuple(tuple(cyc(v) for v in row) for row in random_rational_matrix(rng))
            assert _action_image(mat, spec) == tuple(map(tuple, action_image(mat, spec)))

    def test_generic_triple_not_invariant(self):
        rng = random.Random(4)
        m = model_from_matrices([random_rational_matrix(rng) for _ in range(3)])
        with pytest.raises(InputError) as exc:
            action_on_forms(m, ActionSpec(2, (0, 0, 0, 0)))
        assert exc.value.code == "pencil-not-invariant"

    def test_sigma_squared_consistency(self):
        n, weights, exps = 8, (0, 2, 4, 6), (0, 1, 4)
        m, spec = random_equivariant_model(n, weights, exps, seed=13)
        s = action_on_forms(m, spec)
        s_squared = mat_mul(s, s)
        # independent representation of M -> D M D on the pencil
        d = [root_of_unity(n, r) for r in weights]
        cols = [
            [m.matrices[i][j][k] for i in range(3)]
            for j in range(4)
            for k in range(4)
        ]
        for j in range(3):
            image = [
                [d[a] * m.matrices[j][a][b] * d[b] for b in range(4)]
                for a in range(4)
            ]
            rhs = [image[a][b] for a in range(4) for b in range(4)]
            x = solve(cols, rhs)
            assert x is not None
            for i in range(3):
                assert (s_squared[i][j] - x[i]).is_zero()


class TestInvariantPencil:
    def test_identity_action(self):
        rng = random.Random(5)
        grids = []
        for _ in range(3):
            g = random_rational_matrix(rng)
            grids.append([[g[i][j] + g[j][i] for j in range(4)] for i in range(4)])
        m = model_from_matrices(grids)
        pencil = invariant_pencil(m, ActionSpec(2, (0, 0, 0, 0)))
        assert sorted(pencil.exponents) == [0, 0, 0]
        assert pencil_eigen_check(pencil)

    @pytest.mark.parametrize("n,weights,exps", SWAP_COMBOS[::4])
    def test_recovery_matches_prescription(self, n, weights, exps):
        m, spec = random_equivariant_model(n, weights, exps, seed=23)
        pencil = invariant_pencil(m, spec)
        assert sorted(pencil.exponents) == sorted(e % n for e in exps)
        assert pencil_eigen_check(pencil)

    def test_pencil_spans_model(self):
        m, spec = random_equivariant_model(4, (0, 0, 2, 2), (0, 1, 2), seed=3)
        pencil = invariant_pencil(m, spec)
        rows = [
            [mat[j][k] for j in range(4) for k in range(4)]
            for mat in list(m.matrices) + list(pencil.matrices)
        ]
        assert matrix_rank(rows) == 3

    def test_lift_invariance_shifts_exponents(self):
        # replacing the lift by w^m * sigma sends r -> r + 2m and multiplies
        # every form eigenvalue by w^{2m}
        n, weights, exps = 6, (0, 0, 2, 4), (0, 2, 4)
        m, spec = random_equivariant_model(n, weights, exps, seed=29)
        shift = 2
        shifted_spec = ActionSpec(n, tuple(w + shift for w in weights))
        pencil = invariant_pencil(m, spec)
        shifted = invariant_pencil(m, shifted_spec)
        expected = sorted((e + shift) % n for e in pencil.exponents)
        assert sorted(shifted.exponents) == expected


class TestPicardLattice:
    def test_gfano_flag(self):
        assert is_gfano(ActionSpec(2, (0, 0, 0, 0))) is True
        assert (
            is_gfano(ActionSpec(2, (0, 0, 1, 1), swap=False, weights2=(0, 1, 0, 1)))
            is False
        )

    def test_involution_is_an_involution(self):
        for c in [H, E, DivisorClass(2, -5), DivisorClass(-1, 7)]:
            assert picard_involution(picard_involution(c)) == c

    def test_involution_swaps_h_and_hprime(self):
        h_prime = picard_involution(H)
        assert h_prime == DivisorClass(3, -1)
        assert picard_involution(E) == DivisorClass(8, -3)
        assert picard_involution(h_prime) == H

    def test_anticanonical_fixed(self):
        assert picard_involution(MINUS_K) == MINUS_K
        # -K = H + H'
        assert H + picard_involution(H) == MINUS_K

    def test_canonical_class_identity(self):
        # -4H + E = -H - H' as integer vectors
        assert -MINUS_K == -H - picard_involution(H)

    def test_fixed_lattice_generator(self):
        assert involution_fixed_lattice() == MINUS_K

    def test_sublattice_ranks(self):
        assert [str(d) for d in invariant_sublattice(True)] == ["4H-E"]
        assert invariant_sublattice(False) == [H, E]


class TestGenerators:
    def test_symmetric_n2(self):
        m, spec = random_equivariant_model(2, (0, 0, 0, 0), (0, 0, 0), seed=5)
        for mat in m.matrices:
            for j in range(4):
                for k in range(4):
                    assert (mat[j][k] - mat[k][j]).is_zero()

    def test_antisymmetric_always_rejected_with_square_quartic(self):
        # eigenvalue -1 of the transpose twist is the antisymmetric space;
        # the pencil determinant is the square of the pfaffian
        basis = transpose_twist_eigenbasis(2, (0, 0, 0, 0), 1)
        rng = random.Random(8)
        mats = []
        for _ in range(3):
            mat = [[cyc(0)] * 4 for _ in range(4)]
            for b in basis:
                c = rng.randint(-3, 3)
                for jj in range(4):
                    for kk in range(4):
                        mat[jj][kk] = mat[jj][kk] + b[jj][kk] * c
            mats.append(tuple(tuple(r) for r in mat))
        m = ModelTriple(tuple(mats), 2)
        q = determinantal_quartic(m)
        entries = [[None] * 4 for _ in range(4)]
        x, y, z = variables(3)
        coords = [x, y, z]
        for j in range(4):
            for k in range(4):
                entries[j][k] = sum(
                    (coords[i] * mats[i][j][k] for i in range(3)),
                    MultiPoly.zero(3),
                )
        pfaffian = (
            entries[0][1] * entries[2][3]
            - entries[0][2] * entries[1][3]
            + entries[0][3] * entries[1][2]
        )
        assert q == pfaffian * pfaffian
        with pytest.raises(InputError) as exc:
            random_equivariant_model(2, (0, 0, 0, 0), (1, 1, 1), seed=5)
        assert exc.value.code == "no-smooth-instance"

    def test_empty_eigenspace_detected(self):
        with pytest.raises(InputError) as exc:
            random_equivariant_model(4, (0, 0, 0, 0), (1, 0, 0), seed=5)
        assert exc.value.code == "empty-eigenspace"
        assert "eigenspace" in str(exc.value)

    def test_eigen_relation_exact(self):
        # each form is drawn as an integer combination of the eigenbasis of
        # its exponent, so D M^T = w^s M on every basis element covers it
        for n, weights, exps in SWAP_COMBOS[::5]:
            spec = ActionSpec(n, weights)
            for s in exps:
                basis = transpose_twist_eigenbasis(n, weights, s)
                assert basis
                assert all(eigen_relation_holds(b, spec, s) for b in basis)

    def test_entries_have_the_order_as_conductor(self):
        # zero entries included
        m, _ = random_equivariant_model(4, (0, 0, 2, 2), (0, 1, 2), seed=3)
        d, _ = random_diagonal_model(4, (0, 1, 2, 3), (0, 2, 1, 3), (0, 0, 1), seed=5)
        for model in (m, d):
            assert {v.n for mat in model.matrices for row in mat for v in row} == {4}

    def test_seed_determinism(self):
        a1, _ = random_equivariant_model(4, (0, 0, 2, 2), (0, 1, 2), seed=77)
        a2, _ = random_equivariant_model(4, (0, 0, 2, 2), (0, 1, 2), seed=77)
        assert a1.matrices == a2.matrices
        b, _ = random_equivariant_model(4, (0, 0, 2, 2), (0, 1, 2), seed=78)
        assert b.matrices != a1.matrices

    def test_diagonal_generator(self):
        m, spec = random_diagonal_model(
            4, (0, 1, 2, 3), (0, 2, 1, 3), (0, 0, 1), seed=5
        )
        pencil = invariant_pencil(m, spec)
        assert sorted(pencil.exponents) == [0, 0, 1]
        assert pencil_eigen_check(pencil)
