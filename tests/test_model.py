import hashlib
import os
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    exact_hilbert_runs,
    fiber_section,
    leibniz,
    planted_quartic_point_model,
    power,
    proj_equal,
    qp_eval,
    random_rational_matrix,
    rational_roots_oracle,
    rank_one_at_vertex_model,
    univariate_coeffs,
    variables,
)

from fano212 import groebner as groebner_module
from fano212 import linalg as linalg_module
from fano212 import model as model_module
from fano212.cyclotomic import Cyclotomic, _fp_field, cyc
from fano212.groebner import (
    DegreeCapExceeded,
    _mod_p_basis,
    buchberger,
    hilbert_polynomial,
    projective_empty,
    unit_mod_p_or_q,
)
from fano212.action import random_diagonal_model, random_equivariant_model
from fano212.instancefile import load_instance
from fano212.model import (
    InputError,
    ModelTriple,
    Side,
    _line_quartic,
    _rank_mod_p,
    _rational_roots,
    bilinear_forms,
    centre_hilbert_polynomial,
    coeff_matrix,
    curve_point_to_quartic_point,
    determinantal_quartic,
    full_smoothness,
    minor_cubics,
    model_from_matrices,
    quartic_point_to_curve_point,
    quartic_smooth,
    rank_locus_check,
    sample_curve_points,
    validate_model,
)
from fano212.multipoly import MultiPoly, minors

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "scripts"))
from run_survey import DIAGONAL_GRID, SWAP_GRID  # noqa: E402


def e_matrix(i, j):
    m = [[0] * 4 for _ in range(4)]
    m[i][j] = 1
    return m


def identity4():
    return [[1 if i == j else 0 for j in range(4)] for i in range(4)]


class TestValidation:
    def test_wrong_shape(self):
        with pytest.raises(InputError) as exc:
            model_from_matrices([identity4(), identity4(), [[1] * 4] * 3])
        assert exc.value.code == "matrix-shape"

    def test_dependent_forms_rejected(self):
        m = model_from_matrices([identity4(), identity4(), e_matrix(0, 0)])
        with pytest.raises(InputError) as exc:
            validate_model(m)
        assert exc.value.code == "dependent-forms"

    def test_old_name_catches_model_errors(self):
        # perfbench/workloads.py catches model errors as model.InvalidModel
        m = model_from_matrices([identity4(), identity4(), e_matrix(0, 0)])
        with pytest.raises(model_module.InvalidModel) as exc:
            validate_model(m)
        assert exc.value.code == "dependent-forms"


def rank_by_minors(rows, prime):
    """The largest k with a k x k minor nonzero mod the prime, each minor a
    Leibniz sum; 0 when every entry is 0 mod the prime."""
    for k in range(min(len(rows), len(rows[0])), 0, -1):
        if any(leibniz([[row[j] for j in cols] for row in sub]) % prime
               for sub in combinations(rows, k)
               for cols in combinations(range(len(rows[0])), k)):
            return k
    return 0


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rank_mod_p_is_the_largest_nonzero_minor(data):
    # rows drawn from a pool of at most three and a zero row, so that zero and
    # repeated rows are common
    ncols = data.draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 6), min_size=ncols, max_size=ncols)
    pool = data.draw(st.lists(row, min_size=1, max_size=3)) + [[0] * ncols]
    rows = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    copy = [list(r) for r in rows]
    assert _rank_mod_p(rows, 7) == rank_by_minors(copy, 7)
    assert rows == copy  # the input is left as it was


def _exact_ranks(monkeypatch):
    """The matrices whose exact rank validate_model takes, recorded."""
    seen = []

    def recorded(rows):
        seen.append(rows)
        return linalg_module.matrix_rank(rows)

    monkeypatch.setattr(model_module, "matrix_rank", recorded)
    return seen


class TestIndependenceCertificate:
    def test_rank_three_mod_p_needs_no_exact_rank(self, monkeypatch):
        seen = _exact_ranks(monkeypatch)
        validate_model(model_from_matrices([identity4(), e_matrix(0, 1), e_matrix(2, 3)]))
        assert seen == []

    def test_dependent_mod_p_only_is_accepted(self, monkeypatch):
        # M3 = M1 + p*E00 is independent of M1, M2 over Q, and M3 = M1 mod p
        p = _fp_field(1)[0]
        m3 = identity4()
        m3[0][0] += p
        seen = _exact_ranks(monkeypatch)
        validate_model(model_from_matrices([identity4(), e_matrix(0, 1), m3]))
        assert len(seen) == 1

    def test_denominator_divisible_by_p_takes_the_exact_rank(self, monkeypatch):
        m1 = identity4()
        m1[1][2] = Fraction(1, _fp_field(1)[0])
        seen = _exact_ranks(monkeypatch)
        validate_model(model_from_matrices([m1, e_matrix(0, 1), e_matrix(2, 3)]))
        assert len(seen) == 1

    def test_dependent_forms_over_q_zeta_8_refused(self):
        rng, zeta = random.Random(5), Cyclotomic.zeta(8)
        m1, m2 = (random_rational_matrix(rng) for _ in range(2))
        m1[0][1] = zeta ** 3
        m3 = [[zeta * x + y for x, y in zip(r1, r2)] for r1, r2 in zip(m1, m2)]
        with pytest.raises(InputError) as exc:
            validate_model(model_from_matrices([m1, m2, m3]))
        assert exc.value.code == "dependent-forms"


class TestBilinearForms:
    def test_identity_gives_trace_form(self):
        m = model_from_matrices([identity4(), e_matrix(0, 1), e_matrix(2, 3)])
        forms = bilinear_forms(m)
        expected = MultiPoly(
            8,
            {
                tuple(1 if v in (j, 4 + j) else 0 for v in range(8)): 1
                for j in range(4)
            },
        )
        assert forms[0] == expected

    def test_transpose_swaps_arguments(self):
        rng = random.Random(3)
        m = model_from_matrices([random_rational_matrix(rng) for _ in range(3)])
        forms = bilinear_forms(m)
        forms_t = bilinear_forms(m.transposed())
        for f, ft in zip(forms, forms_t):
            # x_j y_k -> x_k y_j: the two halves of each exponent tuple trade places
            assert ft == MultiPoly(8, {e[4:] + e[:4]: c for e, c in f.terms.items()})

    def test_coefficients_match_entries(self):
        rng = random.Random(4)
        grids = [random_rational_matrix(rng) for _ in range(3)]
        m = model_from_matrices(grids)
        forms = bilinear_forms(m)
        for grid, f in zip(grids, forms):
            for j in range(4):
                for k in range(4):
                    exps = [0] * 8
                    exps[j] = 1
                    exps[4 + k] = 1
                    assert f.terms.get(tuple(exps), cyc(0)) == cyc(grid[j][k])


class TestCoeffMatrix:
    def test_elementary_matrices(self):
        m = model_from_matrices([e_matrix(1, 0), e_matrix(1, 1), e_matrix(1, 2)])
        rows = coeff_matrix(m, Side.FIRST)
        x1 = variables(4)[1]
        for i in range(3):
            for j in range(4):
                assert rows[i][j] == (x1 if j == i else MultiPoly.zero(4))

    def test_evaluation_recovers_forms(self):
        rng = random.Random(5)
        m = model_from_matrices([random_rational_matrix(rng) for _ in range(3)])
        forms = bilinear_forms(m)
        xs = [cyc(v) for v in (1, -2, 3, Fraction(1, 2))]
        ys = [cyc(v) for v in (2, 0, -1, 1)]
        rows = coeff_matrix(m, Side.FIRST)
        for i in range(3):
            value = sum(
                (rows[i][j].evaluate(xs) * ys[j] for j in range(4)), cyc(0)
            )
            assert value == forms[i].evaluate(xs + ys)

    def test_second_side_is_transposed_triple(self):
        rng = random.Random(6)
        m = model_from_matrices([random_rational_matrix(rng) for _ in range(3)])
        assert coeff_matrix(m, Side.SECOND) == coeff_matrix(m.transposed(), Side.FIRST)


class TestMinorCubics:
    def test_degenerate_rank_rejected(self):
        # all matrices supported on the first two columns: generic rank 2
        grids = []
        rng = random.Random(7)
        for _ in range(3):
            g = [[0] * 4 for _ in range(4)]
            for r in range(4):
                g[r][0] = rng.randint(-2, 2)
                g[r][1] = rng.randint(-2, 2)
            grids.append(g)
        m = model_from_matrices(grids)
        with pytest.raises(InputError) as exc:
            minor_cubics(m, Side.FIRST)
        assert exc.value.code == "degenerate-rank"

    def test_cofactor_vector_in_kernel(self, planted_model):
        m, _ = planted_model
        rows = coeff_matrix(m, Side.FIRST)
        minors = minor_cubics(m, Side.FIRST)
        point = [cyc(v) for v in (1, 2, -1, 3)]
        kernel = [
            minors[0].evaluate(point),
            -minors[1].evaluate(point),
            minors[2].evaluate(point),
            -minors[3].evaluate(point),
        ]
        for i in range(3):
            total = sum(
                (rows[i][j].evaluate(point) * kernel[j] for j in range(4)), cyc(0)
            )
            assert total.is_zero()

    def test_hilbert_polynomial_of_centre(self, planted_model):
        m, _ = planted_model
        hp = hilbert_polynomial(minor_cubics(m, Side.FIRST))
        assert hp == (Fraction(-2), Fraction(6))  # 6t - 2
        # degree from the leading coefficient, arithmetic genus from t = 0
        assert qp_eval(hp, 1) - qp_eval(hp, 0) == 6
        assert 1 - qp_eval(hp, 0) == 3


class TestFiberSection:
    def test_satisfies_all_forms(self, planted_model):
        m, _ = planted_model
        forms = bilinear_forms(m)
        point = [cyc(v) for v in (1, 1, -2, 3)]
        fib = fiber_section(m, Side.FIRST, point)
        assert all(
            f.evaluate(point + list(fib)).is_zero() for f in forms
        )

    def test_second_side(self, planted_model):
        m, _ = planted_model
        forms = bilinear_forms(m)
        point = [cyc(v) for v in (2, -1, 1, 1)]
        fib = fiber_section(m, Side.SECOND, point)
        assert all(
            f.evaluate(list(fib) + point).is_zero() for f in forms
        )

    def test_cubic_scaling(self, planted_model):
        m, _ = planted_model
        point = [cyc(v) for v in (1, 2, -1, 3)]
        scaled = [v * 2 for v in point]
        fib = fiber_section(m, Side.FIRST, point)
        fib_scaled = fiber_section(m, Side.FIRST, scaled)
        assert all(
            (a * 8 - b).is_zero() for a, b in zip(fib, fib_scaled)
        )
        assert proj_equal(list(fib), list(fib_scaled))

    def test_point_on_centre_rejected(self, planted_model):
        m, p = planted_model
        centre = quartic_point_to_curve_point(m, p, Side.FIRST)
        with pytest.raises(ValueError, match="lies on the blowdown centre"):
            fiber_section(m, Side.FIRST, list(centre))


class TestDeterminantalQuartic:
    def test_identity_pencil(self):
        m = model_from_matrices([identity4(), e_matrix(0, 1), e_matrix(0, 2)])
        q = determinantal_quartic(m)
        assert q == power(variables(3)[0], 4)

    def test_transpose_invariance(self, planted_model):
        m, _ = planted_model
        assert determinantal_quartic(m) == determinantal_quartic(m.transposed())

    def test_degenerate_pencil_rejected(self):
        # common left kernel: first rows all zero
        grids = []
        rng = random.Random(9)
        for _ in range(3):
            g = random_rational_matrix(rng)
            g[0] = [0, 0, 0, 0]
            grids.append(g)
        m = model_from_matrices(grids)
        with pytest.raises(InputError) as exc:
            determinantal_quartic(m)
        assert exc.value.code == "degenerate-pencil"


class TestQuarticSmooth:
    def test_fermat(self):
        x, y, z = variables(3)
        assert quartic_smooth(power(x, 4) + power(y, 4) + power(z, 4)) is True

    def test_fourth_power(self):
        x = variables(3)[0]
        assert quartic_smooth(power(x, 4)) is False

    def test_klein(self):
        x, y, z = variables(3)
        assert quartic_smooth(power(x, 3) * y + power(y, 3) * z + power(z, 3) * x) is True

    def test_wrong_degree(self):
        x = variables(3)[0]
        with pytest.raises(ValueError):
            quartic_smooth(power(x, 3))


class TestRankLocus:
    def test_smooth_instance(self, planted_model):
        m, _ = planted_model
        assert rank_locus_check(m) is True

    def test_rank_one_at_vertex(self):
        m = rank_one_at_vertex_model()
        assert rank_locus_check(m) is False
        # the lemma of rank_locus_check: the quartic vanishes on the line of
        # the a with e0^T M(a) = 0, and is singular on it
        assert quartic_smooth(determinantal_quartic(m)) is False

    def test_degenerate_triple(self):
        m = model_from_matrices([identity4(), e_matrix(0, 0), e_matrix(1, 1)])
        assert rank_locus_check(m) is False


class TestCurveQuarticMaps:
    def test_roundtrips_and_incidence(self, planted_model):
        m, p = planted_model
        q = determinantal_quartic(m)
        for side in (Side.FIRST, Side.SECOND):
            c = quartic_point_to_curve_point(m, p, side)
            cubics = minor_cubics(m, side)
            assert all(f.evaluate(list(c)).is_zero() for f in cubics)
            back = curve_point_to_quartic_point(m, c, side)
            assert proj_equal(list(back), list(p))
            assert q.evaluate(list(back)).is_zero()

    def test_side_symmetry(self, planted_model):
        m, p = planted_model
        c_second = quartic_point_to_curve_point(m, p, Side.SECOND)
        c_via_transpose = quartic_point_to_curve_point(
            m.transposed(), p, Side.FIRST
        )
        assert proj_equal(list(c_second), list(c_via_transpose))

    def test_point_off_quartic_rejected(self, planted_model):
        m, _ = planted_model
        point = [cyc(1), cyc(0), cyc(0)]
        assert determinantal_quartic(m).evaluate(point) == cyc(-94)
        for side in Side:
            with pytest.raises(ValueError, match="does not lie"):
                quartic_point_to_curve_point(m, point, side)

    def test_zero_point_rejected(self, planted_model):
        m, _ = planted_model
        with pytest.raises(ValueError, match="4-dimensional"):
            quartic_point_to_curve_point(m, [0, 0, 0], Side.FIRST)

    def test_point_off_centre_rejected(self, planted_model):
        # the message gives the rank of the matrix of linear forms at the point
        m, _ = planted_model
        for point, rank in (((1, 2, -1, 3), 3), ((0, 0, 0, 0), 0)):
            for side in Side:
                with pytest.raises(ValueError, match="^matrix of linear forms has rank %d at "
                                   "the point, expected 2$" % rank):
                    curve_point_to_quartic_point(m, point, side)


T = variables(1)[0]
ZETA4 = Cyclotomic.zeta(4)
ZETA8 = Cyclotomic.zeta(8)


@pytest.mark.parametrize(
    "poly, roots",
    [
        # denominator 67: the search has no bound of its own on denominators
        ((T * 67 - 100) * (T * T + 1), {Fraction(100, 67)}),
        ((T - Fraction(2, 3)) * (T * ZETA8 + ZETA8**2 + 1), {Fraction(2, 3)}),
        (T * T * power(T - 3, 2) * (T * 2 + 1), {Fraction(0), Fraction(3), Fraction(-1, 2)}),
        (MultiPoly.constant(5, 1), set()),
        # the coordinates (2T - 3)(T^2 + 1) and (2T - 3)(T^3 - 2T + 4) share a
        # non-monic factor, reached through several non-monic divisors
        ((T * 2 - 3) * (T * T + 1 + (power(T, 3) - T * 2 + 4) * ZETA4), {Fraction(3, 2)}),
        # denominators 35, 7 and 35, whose numerators over 35 share the content 6
        ((T * 3 - 2) * (T + 4) * Fraction(6, 35), {Fraction(2, 3), Fraction(-4)}),
        # a repeated non-monic factor: the squarefree part keeps -3/4 once
        (power(T * 4 + 3, 3) * (T * T - 2), {Fraction(-3, 4)}),
    ],
)
def test_rational_roots(poly, roots):
    found = _rational_roots(univariate_coeffs(poly, 0))
    assert len(found) == len(roots)
    assert set(found) == roots


def t_poly(coeffs) -> MultiPoly:
    """The polynomial in T with the given integer coefficients, constant
    term first."""
    return sum((c * power(T, k) for k, c in enumerate(coeffs)), MultiPoly.zero(1))


@settings(max_examples=60, deadline=None)
@given(factors=st.lists(st.tuples(st.integers(-9, 9), st.integers(1, 9), st.integers(1, 3)),
                        max_size=2),
       zeros=st.integers(0, 2),
       cofactor=st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(lambda c: c[-1]),
       second=st.lists(st.integers(-9, 9), max_size=3))
# both coordinates over Q(zeta_8) share the non-monic factor t * (3t - 2)^2
@example(factors=[(2, 3, 2)], zeros=1, cofactor=[1, 0, 1], second=[4, -2, 0, 1])
def test_rational_roots_match_the_root_theorem(factors, zeros, cofactor, second):
    # t^zeros times planted factors (v*t - u)^k, times cofactor + second * zeta_8
    planted = power(T, zeros)
    for u, v, k in factors:
        planted = planted * power(T * v - u, k)
    coeffs = univariate_coeffs(planted * (t_poly(cofactor) + t_poly(second) * ZETA8), 0)
    found = _rational_roots(coeffs)
    assert len(found) == len(set(found))
    assert set(found) == rational_roots_oracle(coeffs)
    assert {Fraction(u, v) for u, v, _ in factors} | ({Fraction(0)} if zeros else set()) <= set(found)


# sha256 of the reprs of sample_curve_points on planted-7, planted-8 and
# swap_n8, both sides, seeds 0-5, 5 attempts (14 points, one line per call);
# a declared change of the sampler's output updates it in the same change
SAMPLER_SHA256 = "eed8929bc180f5faead605c586b9c1ec5cb74d2cad1897c79429e8459485f1fa"
LINE_MODELS = ["planted-7", "planted-8", "swap_n8", "generated-swap", "generated-diagonal"]
PLANTED_POINT = (1, 1, 2)  # planted_quartic_point_model's point
LINE_POINTS = st.tuples(*[st.integers(-3, 3)] * 3)


@cache
def line_model(which):
    if which == "swap_n8":
        return _swap_n8()
    if which == "generated-swap":
        return random_equivariant_model(8, (0, 2, 4, 6), (0, 1, 4), seed=3)[0]
    if which == "generated-diagonal":
        return random_diagonal_model(4, (0, 1, 2, 3), (0, 2, 1, 3), (0, 0, 1), seed=3)[0]
    return planted_quartic_point_model(seed=int(which[-1]))[0]


class TestSampleCurvePoints:
    def test_planted_point_found_and_roundtrips(self):
        # the planted construction puts a rational point on the second-side
        # centre; hyperplanes with small coefficients hit it within a few draws
        m, p = planted_quartic_point_model(seed=7)
        expected = quartic_point_to_curve_point(m, p, Side.SECOND)
        points = sample_curve_points(m, Side.SECOND, seed=2, attempts=20)
        assert points, "sampler found no representable point on a planted instance"
        assert any(proj_equal(list(c), list(expected)) for c in points)
        for c in points:
            cubics = minor_cubics(m, Side.SECOND)
            assert all(f.evaluate(list(c)).is_zero() for f in cubics)
            back = curve_point_to_quartic_point(m, c, Side.SECOND)
            q = determinantal_quartic(m)
            assert q.evaluate(list(back)).is_zero()

    @pytest.mark.parametrize("which", LINE_MODELS)
    @settings(max_examples=40, deadline=None)
    @given(a=st.one_of(st.just(PLANTED_POINT), LINE_POINTS),
           b=st.one_of(st.just((0, 0, 0)), LINE_POINTS))
    def test_line_quartic_matches_scalar_determinants(self, which, a, b):
        # q(a + t*b) has degree <= 4 in t, so its values at five t fix it:
        # they must be the Leibniz sums of the pencil members at a + t*b
        m = line_model(which)
        coeffs = _line_quartic(determinantal_quartic(m), a, b)
        assert 1 <= len(coeffs) <= 5 and (len(coeffs) == 1 or coeffs[-1])
        for t in (Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(1), Fraction(3)):
            point = [x + t * y for x, y in zip(a, b)]
            pencil = [[sum((c * mat[j][k] for c, mat in zip(point, m.matrices)), cyc(0))
                       for k in range(4)] for j in range(4)]
            assert qp_eval(coeffs, t) == leibniz(pencil)

    # on these seeds several of the 20 lines meet the same point: planted-7's
    # one point is reached 4 times (seed 5) and 3 times (seed 9), planted-8's
    # two points 5 times in all (seed 2) and 7 times (seed 5), on either side
    @pytest.mark.parametrize("which, seeds", [("planted-7", (5, 9)), ("planted-8", (2, 5))])
    @pytest.mark.parametrize("side", list(Side))
    def test_no_point_is_returned_twice(self, which, seeds, side):
        for seed in seeds:
            points = sample_curve_points(line_model(which), side, seed=seed, attempts=20)
            assert points
            assert not any(proj_equal(list(c), list(d)) for c, d in combinations(points, 2))

    @pytest.mark.parametrize("which", ["planted-7", "planted-8"])
    def test_no_kernel_map_of_the_zero_vector_or_of_a_repeated_point(self, which,
                                                                     monkeypatch):
        # a proportional draw (a = 0 among them) is refused before its line,
        # and each point of P2 is mapped once
        mapped, kernel_map = [], model_module.quartic_point_to_curve_point

        def wrapped(m, p, side=Side.FIRST):
            mapped.append([Fraction(v) for v in p])
            return kernel_map(m, p, side)

        monkeypatch.setattr(model_module, "quartic_point_to_curve_point", wrapped)
        m, total = line_model(which), 0
        for side in Side:
            for seed in range(24):
                mapped.clear()
                sample_curve_points(m, side, seed=seed, attempts=5)
                assert all(any(p) for p in mapped)
                keys = [tuple(v / next(u for u in p if u) for v in p) for p in mapped]
                assert len(set(keys)) == len(keys)
                total += len(keys)
        assert total

    def test_sampler_output_is_pinned(self):
        lines = ["%s %s %d %r" % (which, side.value, seed,
                                  sample_curve_points(line_model(which), side, seed=seed,
                                                      attempts=5))
                 for which in ("planted-7", "planted-8", "swap_n8") for side in Side
                 for seed in range(6)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SAMPLER_SHA256

    def test_degenerate_pencil_refused(self):
        # a common left kernel: the first rows of all three matrices are zero
        rng = random.Random(9)
        grids = [random_rational_matrix(rng) for _ in range(3)]
        for g in grids:
            g[0] = [0, 0, 0, 0]
        with pytest.raises(InputError) as exc:
            sample_curve_points(model_from_matrices(grids), Side.FIRST, seed=1, attempts=3)
        assert exc.value.code == "degenerate-pencil"

    def test_empty_result_is_reported_not_raised(self):
        rng = random.Random(40)
        m = model_from_matrices([random_rational_matrix(rng) for _ in range(3)])
        points = sample_curve_points(m, Side.FIRST, seed=1, attempts=4)
        assert isinstance(points, list)


def test_inconclusive_smoothness_says_how_far_it_got(monkeypatch):
    rng = random.Random(7)
    m = model_from_matrices([random_rational_matrix(rng, -1, 1) for _ in range(3)])
    monkeypatch.setattr(groebner_module, "DEGREE_CAP", 2)
    with pytest.raises(DegreeCapExceeded, match=(
        r"^chart x0=1, y0=1 exceeded the degree cap: S-pair degree 3 exceeds "
        r"cap 2 \(basis size \d+, pending pairs \d+\)$"
    )):
        full_smoothness(m)


def _refuse(*args, **kwargs):
    raise AssertionError("the exact engine ran")


def _swap_n8():
    path = os.path.join(os.path.dirname(__file__), "data", "swap_n8.txt")
    return load_instance(path).model


class TestCertificateDecides:
    def test_full_smoothness_of_swap_n8(self, monkeypatch):
        monkeypatch.setattr(groebner_module, "buchberger", _refuse)
        assert full_smoothness(_swap_n8()) is True

    def test_a_true_mod_p_is_final(self, monkeypatch):
        # neither the checked lift nor the exact engine runs after it
        m = _swap_n8()
        partials = [determinantal_quartic(m).derivative(i) for i in range(3)]
        chart = chart_generators(m)[0]
        monkeypatch.setattr(groebner_module, "_lift_holds", _refuse)
        monkeypatch.setattr(groebner_module, "buchberger", _refuse)
        assert projective_empty(partials) is True
        assert unit_mod_p_or_q(chart) is True

    def test_charts_not_unit_mod_p_run_exactly(self, monkeypatch):
        # the first form vanishes mod p, so no chart is unit mod p
        m = _swap_n8()
        p = _fp_field(m.conductor)[0]
        scaled = tuple(tuple(v * p for v in row) for row in m.matrices[0])
        m = ModelTriple((scaled,) + m.matrices[1:], m.conductor)
        calls = []

        def counted(gens):
            calls.append(gens)
            return buchberger(gens)

        monkeypatch.setattr(groebner_module, "buchberger", counted)
        assert full_smoothness(m) is True
        assert len(calls) == 16

    def test_double_point_is_decided_by_the_lift(self, monkeypatch):
        # a rational chart that is not unit is proved so by the checked lift
        monkeypatch.setattr(groebner_module, "buchberger", _refuse)
        assert full_smoothness(model_from_matrices(DOUBLE_POINT)) is False

    def test_smooth_quartic_over_q_zeta8(self, monkeypatch):
        x, y, z = variables(3)
        # a Klein quartic with unit coefficients
        q = power(x, 3) * y + power(y, 3) * z * Cyclotomic.zeta(8) + power(z, 3) * x
        partials = [q.derivative(i) for i in range(3)]
        leads = buchberger(partials)
        assert all(any(sum(m) == m[v] > 0 for m in leads) for v in range(3))
        monkeypatch.setattr(groebner_module, "buchberger", _refuse)
        assert quartic_smooth(q) is True
        # singular at (0:0:1), so not certified: it reaches the exact engine
        singular = power(x, 4) + power(y, 4) * Cyclotomic.zeta(8) + x * y * z * z
        with pytest.raises(AssertionError, match="exact engine"):
            quartic_smooth(singular)


# X has a double point at (e0, e0): every form vanishes there and F1 has no
# linear term.
DOUBLE_POINT = (
    [[0, 0, 0, 0], [0, 1, 0, 1], [0, -1, 1, -1], [0, 0, 1, -1]],
    [[0, 1, 0, 1], [1, 0, 0, 1], [-1, -1, 1, -1], [1, 0, 1, -1]],
    [[0, -1, -1, 1], [-1, 0, -1, 0], [0, 1, 1, 0], [1, 0, 0, 1]],
)


def chart_generators(m):
    """The generators of each chart in turn, built on the chart itself:
    dehomogenise the forms, take their Jacobian in the six chart variables,
    then its 3x3 minors."""
    forms = bilinear_forms(m)
    charts = []
    for i in range(4):
        for j in range(4):
            chart = (i, 4 + j)
            local = [f.dehomogenize(chart) for f in forms]
            variables = [v for v in range(8) if v not in chart]
            jac = [[f.derivative(v) for v in variables] for f in local]
            charts.append([f for f in local + minors(jac, 3) if not f.is_zero()])
    return charts


@pytest.mark.parametrize("name", ["swap_n8", "double_point"])
def test_chart_generators_are_the_minors_of_the_chart_jacobian(monkeypatch, name):
    m = _swap_n8() if name == "swap_n8" else model_from_matrices(DOUBLE_POINT)
    seen = []

    def record(gens):
        seen.append(gens)
        return True

    monkeypatch.setattr(model_module, "unit_mod_p_or_q", record)
    assert full_smoothness(m) is True
    assert seen == chart_generators(m)


@pytest.mark.parametrize("name, reductions", [("swap_n8", 3), ("double_point", 100)])
def test_the_mod_p_chart_run_reduces_a_pinned_number_of_s_pairs(monkeypatch, name, reductions):
    # a guard on wasted work: on chart x0=1, y0=1 the inter-reduced inputs
    # and the product and chain criteria leave this many S-polynomials to
    # reduce; the smooth swap_n8 chart is unit, the double point's is not
    m = _swap_n8() if name == "swap_n8" else model_from_matrices(DOUBLE_POINT)
    formed = []
    s_polynomial = groebner_module._s_polynomial

    def counted(*args):
        formed.append(args)
        return s_polynomial(*args)

    monkeypatch.setattr(groebner_module, "_s_polynomial", counted)
    run = _mod_p_basis(chart_generators(m)[0])
    assert len(formed) == reductions
    assert (len(run[0]) == 1) is (name == "swap_n8")


def _data_model(name):
    return load_instance(os.path.join(os.path.dirname(__file__), "data", name)).model


def _generated_model(cell, seed):
    """The generator's model for a (order, weights, exponents) swap cell or an
    (order, weights, weights2, exponents) diagonal one."""
    if len(cell) == 3:
        return random_equivariant_model(*cell, seed=seed)[0]
    return random_diagonal_model(*cell, seed=seed)[0]


DATA_MODELS = ["swap_n8.txt", "symmetric_n2.txt"]
# one generated instance per cell of run_survey.py's grids, as
# scripts/report_sweep.py draws them
SURVEY_MODELS = [(cell, seed) for seed in (0, 1) for cell in SWAP_GRID + DIAGONAL_GRID]


@pytest.mark.parametrize("source", DATA_MODELS + SURVEY_MODELS, ids=str)
def test_smooth_quartic_has_no_rank_le_1_point(source):
    # the lemma that lets `smooth` skip rank_locus_check, computed on both
    # sides (the second as the first side of the transpose) rather than read
    # off the quartic
    m = _data_model(source) if isinstance(source, str) else _generated_model(*source)
    assert quartic_smooth(determinantal_quartic(m)) is True
    assert rank_locus_check(m) is True
    assert rank_locus_check(m.transposed()) is True


# every cell of run_survey.py (its CELLS are these two grids) at seeds 0-3
CENTRE_MODELS = [(cell, seed) for seed in range(4) for cell in SWAP_GRID + DIAGONAL_GRID]


@pytest.mark.parametrize("source", DATA_MODELS + CENTRE_MODELS, ids=str)
def test_every_survey_centre_is_certified(monkeypatch, source):
    # the line certificate holds on both sides with no exact run, and the
    # exact engine agrees that the centre has Hilbert polynomial 6t - 2
    m = _data_model(source) if isinstance(source, str) else _generated_model(*source)
    runs = exact_hilbert_runs(monkeypatch)
    for side in Side:
        assert centre_hilbert_polynomial(m, side) == (Fraction(-2), Fraction(6))
        assert hilbert_polynomial(minor_cubics(m, side)) == (Fraction(-2), Fraction(6))
    assert runs == []


# SWAP_GRID[::3] is one swap cell of each order 2, 4, 6 and 8
@pytest.mark.slow
@pytest.mark.parametrize(
    "source", ["singular", "double point"] + DATA_MODELS
    + [(cell, 0) for cell in SWAP_GRID[::3] + DIAGONAL_GRID[:1]], ids=str)
def test_quartic_decides_what_the_charts_decide(request, source):
    # X is smooth iff its determinantal quartic is, so the two checks agree;
    # about 2 s in all, so slow
    if source == "singular":
        m = request.getfixturevalue("singular_model")
    elif source == "double point":
        m = model_from_matrices(DOUBLE_POINT)
    else:
        m = _data_model(source) if isinstance(source, str) else _generated_model(*source)
    smooth = quartic_smooth(determinantal_quartic(m))
    assert smooth is full_smoothness(m)
    assert smooth is (source not in ("singular", "double point"))


@pytest.mark.slow
class TestFullSmoothness:
    def test_coherence_of_smoothness_checks(self):
        # a verified-smooth instance passes all four checks at once
        rng = random.Random(7)
        m = model_from_matrices(
            [random_rational_matrix(rng, -1, 1) for _ in range(3)]
        )
        validate_model(m)
        q = determinantal_quartic(m)
        assert quartic_smooth(q)
        assert rank_locus_check(m)
        assert hilbert_polynomial(minor_cubics(m, Side.FIRST)) == (
            Fraction(-2),
            Fraction(6),
        )
        assert full_smoothness(m) is True

    def test_singular_quartic_forces_singular_intersection(self, singular_model):
        q = determinantal_quartic(singular_model)
        assert quartic_smooth(q) is False
        assert full_smoothness(singular_model) is False

    def test_dependent_forms_rejected_before_charts(self):
        m = model_from_matrices([identity4(), identity4(), e_matrix(0, 0)])
        with pytest.raises(InputError) as exc:
            full_smoothness(m)
        assert exc.value.code == "dependent-forms"
