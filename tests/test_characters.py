import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIAGONAL_COMBOS, SWAP_COMBOS

from fano212.action import (
    ActionSpec,
    invariant_pencil,
    random_diagonal_model,
    random_equivariant_model,
)
from fano212.characters import (
    CharacterMultiset,
    OracleError,
    Verdict,
    characters_differ,
    curve_action_oracle,
    ij_characters,
    ij_oracle,
    jac_curve_characters,
    verdict,
)


class TestFormulas:
    def test_trivial_case(self):
        assert jac_curve_characters((0, 0, 0), (0, 0, 0, 0), 2).exponents == (0, 0, 0)
        assert ij_characters((0, 0, 0), (0, 0, 0, 0), 2).exponents == (1, 1, 1)

    def test_order_eight_example(self):
        jac = jac_curve_characters((1, 2, 3), (0, 0, 0, 0), 8)
        assert jac.exponents == (0, 1, 7)
        ij = ij_characters((1, 2, 3), (0, 0, 0, 0), 8)
        assert ij.exponents == (3, 4, 5)

    def test_lift_shift_cancels(self):
        base = jac_curve_characters((1, 2, 3), (0, 0, 0, 0), 8)
        shifted = jac_curve_characters(
            (3, 4, 5), (2, 2, 2, 2), 8
        )  # s + 2, r + 2: net 3*2 - 4*2 + 2 = 0
        assert base == shifted

    def test_double_sign_shift_is_identity(self):
        jac = jac_curve_characters((0, 1, 4), (0, 2, 4, 6), 8)
        assert ij_characters((0, 1, 4), (0, 2, 4, 6), 8).shifted(4) == jac

    def test_sign_needs_even_order(self):
        with pytest.raises(ValueError):
            ij_characters((0, 0, 0), (0, 0, 0, 0), 3)

    def test_exponent_normalization_idempotent(self):
        a = CharacterMultiset(6, (7, -1, 13))
        assert a.exponents == (1, 1, 5)
        assert CharacterMultiset(6, a.exponents) == a


class TestCharactersDiffer:
    def test_examples(self):
        assert characters_differ(
            CharacterMultiset(2, (0, 0, 0)), CharacterMultiset(2, (1, 1, 1))
        )
        assert characters_differ(
            CharacterMultiset(8, (7, 0, 1)), CharacterMultiset(8, (3, 4, 5))
        )
        a = CharacterMultiset(4, (0, 1, 2))
        assert not characters_differ(a, a)

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            characters_differ(
                CharacterMultiset(2, (0, 0, 0)), CharacterMultiset(4, (0, 0, 0))
            )

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([2, 4, 6, 8, 10, 12]),
        st.tuples(st.integers(0, 23), st.integers(0, 23), st.integers(0, 23)),
        st.tuples(*[st.integers(0, 23)] * 4),
    )
    def test_sign_twist_always_differs(self, n, s, r):
        # a fixed-point-free shift cannot permute a three-element multiset
        jac = jac_curve_characters(s, r, n)
        ij = ij_characters(s, r, n)
        assert characters_differ(jac, ij)


class TestOracles:
    def test_symmetric_pencil_trivial_action(self):
        m, spec = random_equivariant_model(2, (0, 0, 0, 0), (0, 0, 0), seed=5)
        pencil = invariant_pencil(m, spec)
        jac = curve_action_oracle(pencil)
        assert jac.exponents == (0, 0, 0)
        ij = ij_oracle(pencil)
        assert ij.exponents == (1, 1, 1)

    # the last cell has no zero exponent, so the chart factor w^(2*s1) shows
    @pytest.mark.parametrize("n,weights,exps", SWAP_COMBOS[2::3] + [(4, (0, 0, 2, 2), (1, 2, 3))])
    def test_oracles_match_formulas(self, n, weights, exps):
        m, spec = random_equivariant_model(n, weights, exps, seed=41)
        pencil = invariant_pencil(m, spec)
        jac_f = jac_curve_characters(pencil.exponents, weights, n)
        assert curve_action_oracle(pencil) == jac_f
        assert ij_oracle(pencil) == ij_characters(pencil.exponents, weights, n)

    def test_quartic_eigenvalue_checked_against_total_weight(self):
        m, spec = random_equivariant_model(4, (0, 0, 2, 2), (0, 1, 2), seed=7)
        pencil = invariant_pencil(m, spec)
        corrupted = list(pencil.exponents)
        corrupted[0] = (corrupted[0] + 1) % 4
        broken = type(pencil)(
            matrices=pencil.matrices, exponents=tuple(corrupted), spec=pencil.spec
        )
        with pytest.raises(OracleError):
            curve_action_oracle(broken)

    @pytest.mark.parametrize("n,a,b,exps", DIAGONAL_COMBOS[:4])
    def test_non_swap_oracle_has_no_sign(self, n, a, b, exps):
        m, spec = random_diagonal_model(n, a, b, exps, seed=9)
        pencil = invariant_pencil(m, spec)
        curve = curve_action_oracle(pencil)
        ij = ij_oracle(pencil)
        assert curve == ij
        all_weights = list(a) + list(b)
        assert curve == jac_curve_characters(pencil.exponents, all_weights, n)


class TestVerdict:
    def test_swap_not_linearisable(self):
        assert verdict(ActionSpec(2, (0, 0, 0, 0))) is Verdict.NOT_LINEARISABLE

    def test_diagonal_linearisable(self):
        spec = ActionSpec(2, (0, 0, 1, 1), swap=False, weights2=(0, 1, 0, 1))
        assert verdict(spec) is Verdict.LINEARISABLE

    def test_square_of_swap_is_linearisable(self):
        # sigma^2 of a swap action is diagonal with the swap weights on both
        # factors; it preserves each hyperplane class
        swap = ActionSpec(4, (0, 0, 2, 2))
        square = ActionSpec(
            2, tuple(w // 2 * 0 for w in swap.weights), swap=False,
            weights2=(0, 0, 0, 0),
        )
        # the square acts diagonally; weights reduced mod its own order
        square = ActionSpec(2, (0, 0, 1, 1), swap=False, weights2=(0, 0, 1, 1))
        assert verdict(square) is Verdict.LINEARISABLE

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 4, 6, 8]), st.data())
    def test_verdict_ignores_numeric_weights(self, n, data):
        weights = tuple(
            2 * data.draw(st.integers(0, n // 2 - 1)) for _ in range(4)
        )
        spec = ActionSpec(n, weights, swap=True)
        assert verdict(spec) is Verdict.NOT_LINEARISABLE
        diag = ActionSpec(n, weights, swap=False, weights2=weights)
        assert verdict(diag) is Verdict.LINEARISABLE
