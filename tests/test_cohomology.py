from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import decided_table, decided_tables, hrr_euler

from fano212.cohomology import (
    CohTable,
    InconclusiveCohomology,
    bott_p3,
    equivariant_top_exponent,
    euler_chase,
    graded_reorder_sign,
    koszul_ambient_tables,
    koszul_cohomology_on_X,
    kunneth,
    table_add,
    table_scale,
)
from fano212.cyclotomic import Cyclotomic


def euler(table: CohTable) -> int:
    """The alternating sum of the dimensions of a table."""
    return sum((-1) ** i * d for i, d in enumerate(table.dims))


class TestBott:
    def test_structure_sheaf(self):
        assert bott_p3(0).dims == (1, 0, 0, 0)

    def test_canonical_twist(self):
        assert bott_p3(-4).dims == (0, 0, 0, 1)

    def test_acyclic_range(self):
        for a in (-1, -2, -3):
            assert bott_p3(a).dims == (0, 0, 0, 0)

    def test_section_counts(self):
        assert bott_p3(1).dims == (4, 0, 0, 0)
        assert bott_p3(2).dims == (10, 0, 0, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-12, 12))
    def test_serre_duality_symmetry(self, a):
        ta, tb = bott_p3(a), bott_p3(-4 - a)
        for i in range(4):
            assert ta[i] == tb[3 - i]


class TestKunneth:
    def test_structure_sheaf(self):
        assert kunneth(0, 0).dims == (1, 0, 0, 0, 0, 0, 0)

    def test_top_class(self):
        assert kunneth(-4, -4).dims == (0, 0, 0, 0, 0, 0, 1)

    def test_diagonal_twists_acyclic(self):
        for r in (1, 2, 3):
            assert kunneth(-r, -r).is_zero()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-8, 8), st.integers(-8, 8))
    def test_symmetry(self, a, b):
        assert kunneth(a, b).dims == kunneth(b, a).dims


@pytest.mark.parametrize("dims", [(1.0, 0, 0, 0), (0, Fraction(2), 0, 0), (1, True)])
def test_table_takes_only_int_dimensions(dims):
    # a float would otherwise be truncated and a wrong sign go unseen
    with pytest.raises(TypeError):
        CohTable(dims)


class TestKoszulOnX:
    def test_structure_sheaf(self):
        assert koszul_cohomology_on_X(0, 0).dims == (1, 0, 0, 0)

    def test_mixed_negative_twists_vanish(self):
        assert koszul_cohomology_on_X(-1, 0).dims == (0, 0, 0, 0)
        assert koszul_cohomology_on_X(0, -1).dims == (0, 0, 0, 0)

    def test_conormal_twist(self):
        assert koszul_cohomology_on_X(-1, -1).dims == (0, 0, 0, 1)

    def test_inconclusive_when_two_columns_survive(self):
        with pytest.raises(InconclusiveCohomology) as exc:
            koszul_cohomology_on_X(4, -4)
        assert "row 3" in str(exc.value)
        assert "columns [0, 1, 2, 3]" in str(exc.value)

    def test_euler_characteristic_additivity(self):
        for a, b in [(0, 0), (-1, 0), (-1, -1), (1, 1), (2, 0), (0, -5)]:
            try:
                table = koszul_cohomology_on_X(a, b)
            except InconclusiveCohomology:
                continue
            ambient = koszul_ambient_tables(a, b)
            alternating = sum(
                (-1) ** r * euler(ambient[3 - r]) for r in range(4)
            )
            assert euler(table) == alternating


SPAN = range(-10, 11)


def p3_dims(a):
    """h^i(P3, O(a)), i = 0..3."""
    return (comb(a + 3, 3) if a >= 0 else 0, 0, 0, comb(-a - 1, 3) if a <= -4 else 0)


class TestOracles:
    """The tables on X against checks that do not go through the Koszul
    sum: Riemann-Roch, Serre duality and the blow-up X -> P3."""

    @pytest.fixture(scope="class")
    def tables(self):
        return decided_tables(SPAN)

    def test_hrr_constants(self):
        assert hrr_euler(0, 0) == 1
        assert hrr_euler(1, 1) == 13  # h^0(-K), -K = O_X(1, 1)

    def test_euler_characteristic_is_hrr(self, tables):
        for (a, b), dims in tables.items():
            if dims is not None:
                euler = sum((-1) ** i * d for i, d in enumerate(dims))
                assert euler == hrr_euler(a, b), (a, b)

    def test_serre_duality(self, tables):
        # K_X = O_X(-1, -1)
        for (a, b), dims in tables.items():
            dual = decided_table(-1 - a, -1 - b)
            assert (dims is None) == (dual is None), (a, b)
            if dims is not None:
                assert dims == dual[::-1], (a, b)

    def test_blow_up_of_p3(self, tables):
        for a in SPAN:
            assert tables[a, 0] == tables[0, a] == p3_dims(a), a

    def test_decided_count(self, tables):
        assert sum(dims is not None for dims in tables.values()) == 267

    @pytest.mark.parametrize("a, b", [(10**10, 1), (-10**10, -1), (10**100, 10**100)])
    def test_large_twists_are_hrr(self, a, b):
        dims = koszul_cohomology_on_X(a, b).dims
        assert sum(d != 0 for d in dims) == 1
        assert sum((-1) ** i * d for i, d in enumerate(dims)) == hrr_euler(a, b)


class TestEulerChase:
    def test_middle_and_right_tables(self):
        middle = table_add(
            table_scale(koszul_cohomology_on_X(-1, 0), 4),
            table_scale(koszul_cohomology_on_X(0, -1), 4),
        )
        assert middle.is_zero()
        right = table_scale(koszul_cohomology_on_X(0, 0), 2)
        assert right.dims == (2, 0, 0, 0)

    def test_forced_vanishing(self):
        assert euler_chase() == (True, True)


class TestGradedSign:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5))
    def test_two_factor_commutation(self, d1, d2):
        assert graded_reorder_sign((d1, d2), (1, 0)) == (-1) ** (d1 * d2)
        assert graded_reorder_sign((d1, d2), (0, 1)) == 1

    def test_degree_three_swap_is_negative(self):
        assert graded_reorder_sign((3, 3), (1, 0)) == -1


class TestTopEigenvalue:
    def test_pure_sign(self):
        assert Cyclotomic.zeta(2, equivariant_top_exponent((0, 0, 0, 0), 2, True)) == -1

    def test_weight_four_at_order_four(self):
        assert Cyclotomic.zeta(4, equivariant_top_exponent((1, 1, 1, 1), 4, True)) == -1

    def test_no_swap_trivial_weights(self):
        k = equivariant_top_exponent((0, 0, 0, 0), 2, False, weights2=(0, 0, 0, 0))
        assert Cyclotomic.zeta(2, k) == 1

    def test_swap_general_weight(self):
        k = equivariant_top_exponent((0, 2, 4, 6), 8, True)
        expected = -Cyclotomic.zeta(8, -12)
        assert Cyclotomic.zeta(8, k) == expected
