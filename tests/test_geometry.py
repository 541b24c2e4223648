import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plaquette_qgauge.geometry import (
    OffVarietyError,
    PolyFunction,
    bracket,
    canoe_table,
    canoe_tau,
    in_restriction_kernel,
    jacobi_residual,
    monomial_decomposition,
    poisson_tensor,
    reduce_point,
    relation_casimir_residual,
    sample_canoe,
    sample_semicone,
    semicone_table,
    symmetric_projection,
)

from oracles import bounded_partitions


def random_polynomial(rng, generators, max_degree=3):
    poly = PolyFunction.zero(generators)
    for _ in range(6):
        exps = tuple(int(e) for e in rng.integers(0, max_degree + 1, len(generators)))
        if sum(exps) > max_degree:
            continue
        poly = poly + PolyFunction(generators, {exps: float(rng.uniform(-2, 2))})
    return poly


class TestPolyFunction:
    def test_arithmetic_and_evaluation(self):
        gens = ("x", "y", "r")
        x = PolyFunction.variable(gens, "x")
        y = PolyFunction.variable(gens, "y")
        square = (x + y) * (x + y)
        assert square((2.0, 3.0, 0.0)) == 25.0
        assert square.diff("x") == 2 * x + 2 * y

    def test_unknown_generator(self):
        with pytest.raises(KeyError):
            PolyFunction.variable(("x", "y"), "z")
        x = PolyFunction.variable(("x", "y"), "x")
        with pytest.raises(KeyError):
            x.diff("tau")

    def test_zero_coefficients_are_dropped(self):
        gens = ("x", "y")
        x = PolyFunction.variable(gens, "x")
        assert not (x - x).terms

    def test_array_evaluation_matches_points(self):
        rng = np.random.default_rng(19)
        gens = ("x", "y", "r")
        poly = random_polynomial(rng, gens) + 1.5
        points = rng.uniform(-3, 3, (40, 3))
        values = poly(points)
        assert values.shape == (40,)
        assert np.array_equal(values, [poly(pt) for pt in points])
        assert isinstance(poly(points[0]), float)

    def test_generator_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            PolyFunction(("x", "y"), {(1,): 1.0})
        x = PolyFunction.variable(("x", "y"), "x")
        other = PolyFunction.variable(("x", "r"), "x")
        for combine in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(ValueError, match="generator mismatch"):
                combine(x, other)

    def test_bad_point_shape_rejected(self):
        x = PolyFunction.variable(("x", "y"), "x")
        for bad in (np.zeros(3), np.zeros((4, 3)), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError):
                x(bad)


class TestBrackets:
    def test_semicone_relation_is_casimir_polynomial(self):
        table = semicone_table()
        relation = table.relations[0]
        for name in table.generators:
            assert not bracket(table, table.variable(name), relation).terms

    def test_canoe_generator_bracket(self):
        table = canoe_table()
        gens = table.generators
        X = table.variable("X")
        Y = table.variable("Y")
        tau = table.variable("tau")
        expected = X * X + Y * Y + 8 * tau - 4
        assert bracket(table, X, Y) == expected
        assert bracket(table, X, tau) == 2 * Y - 2 * tau * Y
        assert bracket(table, Y, tau) == 2 * tau * X
        assert gens == ("X", "Y", "tau")

    def test_canoe_relation_is_casimir_polynomial(self):
        table = canoe_table()
        relation = table.relations[0]
        for name in table.generators:
            assert not bracket(table, table.variable(name), relation).terms

    def test_antisymmetry_on_random_polynomials(self):
        rng = np.random.default_rng(23)
        for table in (semicone_table(), canoe_table()):
            for _ in range(10):
                f = random_polynomial(rng, table.generators)
                g = random_polynomial(rng, table.generators)
                lhs = bracket(table, f, g)
                rhs = -bracket(table, g, f)
                point = rng.uniform(-2, 2, 3)
                assert math.isclose(lhs(point), rhs(point), rel_tol=1e-9, abs_tol=1e-9)

    def test_polynomials_over_other_generators_rejected(self):
        table = semicone_table()
        foreign = PolyFunction.variable(("X", "Y", "tau"), "X")
        for f, g in ((foreign, table.variable("x")), (table.variable("x"), foreign)):
            with pytest.raises(ValueError, match="table's generators"):
                bracket(table, f, g)

    def test_bracket_with_self_vanishes(self):
        table = canoe_table()
        rng = np.random.default_rng(29)
        f = random_polynomial(rng, table.generators)
        assert not bracket(table, f, f).terms


class TestJacobiAndCasimir:
    @pytest.mark.parametrize(
        "make_table,sampler", [(semicone_table, sample_semicone), (canoe_table, sample_canoe)]
    )
    def test_jacobi_residual_on_variety(self, make_table, sampler):
        table = make_table()
        rng = np.random.default_rng(31)
        f, g, h = (table.variable(name) for name in table.generators)
        for point in sampler(rng, 100):
            assert jacobi_residual(table, f, g, h, point) < 1e-9

    @pytest.mark.parametrize(
        "make_table,sampler", [(semicone_table, sample_semicone), (canoe_table, sample_canoe)]
    )
    def test_casimir_residual_on_variety(self, make_table, sampler):
        table = make_table()
        rng = np.random.default_rng(37)
        for point in sampler(rng, 100):
            for name in table.generators:
                assert relation_casimir_residual(table, name, point) < 1e-9

    def test_off_variety_point_rejected(self):
        table = canoe_table()
        f, g, h = (table.variable(name) for name in table.generators)
        with pytest.raises(OffVarietyError):
            jacobi_residual(table, f, g, h, (0.0, 0.0, 5.0))
        with pytest.raises(OffVarietyError):
            relation_casimir_residual(table, "X", (1.0, 1.0, 3.0))

    def test_off_variety_row_in_array_rejected(self):
        table = canoe_table()
        f, g, h = (table.variable(name) for name in table.generators)
        points = sample_canoe(np.random.default_rng(3), 20)
        points[13, 2] += 0.5
        with pytest.raises(OffVarietyError):
            jacobi_residual(table, f, g, h, points)
        with pytest.raises(OffVarietyError):
            relation_casimir_residual(table, "tau", points)

    @pytest.mark.parametrize(
        "make_table,sampler", [(semicone_table, sample_semicone), (canoe_table, sample_canoe)]
    )
    def test_array_residuals_match_pointwise_maxima(self, make_table, sampler):
        table = make_table()
        points = sampler(np.random.default_rng(17), 50)
        rng = np.random.default_rng(13)
        f, g, h = (random_polynomial(rng, table.generators) for _ in range(3))
        assert jacobi_residual(table, f, g, h, points) == max(
            jacobi_residual(table, f, g, h, pt) for pt in points
        )
        for name in table.generators:
            assert relation_casimir_residual(table, name, points) == max(
                relation_casimir_residual(table, name, pt) for pt in points
            )

    @pytest.mark.parametrize(
        "pair,mutate,jacobi_breaks",
        [((1, 2), lambda b: 1.5 * b, True), ((0, 1), lambda b: b + 1.0, False)],
        ids=["scaled-Y-tau", "shifted-X-Y-constant"],
    )
    def test_wrong_canoe_bracket_is_detected(self, pair, mutate, jacobi_breaks):
        # {Y, tau} scaled by 3/2 breaks both identities; a constant shift of
        # {X, Y} (-4 -> -3) keeps Jacobi, but the relation is no longer a Casimir
        table = canoe_table()
        wrong = dataclasses.replace(
            table, pair_brackets={**table.pair_brackets, pair: mutate(table.pair_brackets[pair])}
        )
        points = sample_canoe(np.random.default_rng(20260810), 100)
        f, g, h = (wrong.variable(name) for name in wrong.generators)
        jacobi = jacobi_residual(wrong, f, g, h, points)
        assert jacobi > 1e-9 if jacobi_breaks else jacobi == 0.0
        assert max(relation_casimir_residual(wrong, n, points) for n in wrong.generators) > 1e-9

    def test_jacobiator_with_repeated_argument_vanishes(self):
        table = semicone_table()
        rng = np.random.default_rng(41)
        f = random_polynomial(rng, table.generators)
        g = random_polynomial(rng, table.generators)
        point = sample_semicone(rng, 1)[0]
        assert jacobi_residual(table, f, f, g, point) < 1e-9


class TestPoissonTensor:
    def test_vanishes_exactly_at_vertices(self):
        table = canoe_table()
        for vertex in ((2.0, 0.0, 0.0), (-2.0, 0.0, 0.0)):
            assert np.array_equal(poisson_tensor(table, vertex), np.zeros((3, 3)))

    def test_rank_two_away_from_vertices(self):
        table = canoe_table()
        rng = np.random.default_rng(43)
        for point in sample_canoe(rng, 100):
            if abs(complex(point[0], point[1]) - 2) < 1e-6:
                continue
            if abs(complex(point[0], point[1]) + 2) < 1e-6:
                continue
            tensor = poisson_tensor(table, point)
            scale = float(np.max(np.abs(tensor)))
            assert np.linalg.matrix_rank(tensor, tol=1e-9 * max(1.0, scale)) == 2

    def test_array_of_points_stacks_tensors(self):
        table = canoe_table()
        points = sample_canoe(np.random.default_rng(47), 30)
        stacked = poisson_tensor(table, points)
        assert stacked.shape == (30, 3, 3)
        assert np.array_equal(stacked, [poisson_tensor(table, pt) for pt in points])


class TestCanoeChart:
    def test_vertex_and_center_values(self):
        assert canoe_tau(2.0, 0.0) == 0.0
        assert canoe_tau(0.0, 0.0) == 1.0

    def test_relation_residual_on_grid(self):
        for X in np.linspace(-6.0, 6.0, 50):
            for Y in np.linspace(-6.0, 6.0, 50):
                tau = canoe_tau(float(X), float(Y))
                assert tau >= 0.0
                residual = abs(Y * Y - (X * X + Y * Y + 4.0 * (tau - 1.0)) * tau)
                assert residual < 1e-12

    def test_tau_on_arrays_matches_scalars(self):
        xy = np.random.default_rng(7).uniform(-10, 10, (200, 2))
        taus = canoe_tau(xy[:, 0], xy[:, 1])
        assert np.array_equal(taus, [canoe_tau(float(x), float(y)) for x, y in xy])

    def test_reduce_point_fixed_points(self):
        assert reduce_point(1.0) == 2.0
        assert reduce_point(-1.0) == -2.0

    def test_reduce_point_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            reduce_point(0.0)

    @settings(max_examples=100)
    @given(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False)
    )
    def test_weyl_invariance(self, z):
        lhs = reduce_point(z)
        rhs = reduce_point(1.0 / z)
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


class TestSymmetricProjection:
    def test_single_particle_rank_bound(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            q, p = rng.standard_normal((2, 1, 3))
            _, rank = symmetric_projection(q, p)
            assert rank <= 1

    def test_generic_rank_equals_space_dimension(self):
        rng = np.random.default_rng(67)
        q, p = rng.standard_normal((2, 3, 2))
        matrix, rank = symmetric_projection(q, p)
        assert rank == 2
        assert np.max(np.abs(matrix - matrix.T)) == 0.0

    def test_rank_bound_over_random_configurations(self):
        rng = np.random.default_rng(71)
        for s in (1, 2, 3):
            for ell in (1, 2, 3):
                for _ in range(120):
                    _, rank = symmetric_projection(
                        rng.standard_normal((ell, s)), rng.standard_normal((ell, s))
                    )
                    assert rank <= min(s, ell)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            q = rng.standard_normal((3, 3))
            p = rng.standard_normal((3, 3))
            rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            before, _ = symmetric_projection(q, p)
            after, _ = symmetric_projection(q @ rot.T, p @ rot.T)
            assert np.max(np.abs(before - after)) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            symmetric_projection(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            symmetric_projection(np.zeros(3), np.zeros(3))

    def test_stack_matches_single_configurations(self):
        rng = np.random.default_rng(79)
        for s, ell in ((1, 3), (2, 2), (3, 1), (3, 3)):
            q, p = rng.standard_normal((2, 200, ell, s))
            q[7] = 0.0
            p[7] = 0.0
            matrices, ranks = symmetric_projection(q, p)
            singles = [symmetric_projection(q[i], p[i]) for i in range(200)]
            assert np.array_equal(matrices, [m for m, _ in singles])
            assert np.array_equal(ranks, [r for _, r in singles])
            assert ranks[7] == 0


class TestMonomialDecomposition:
    def test_single_variable(self):
        assert monomial_decomposition(1, 5) == [(5,)]

    def test_two_variables_degree_two(self):
        assert monomial_decomposition(2, 2) == [(2, 0), (0, 1)]

    def test_partition_number_anchor(self):
        assert len(monomial_decomposition(5, 5)) == 7

    def test_counts_match_partition_oracle(self):
        for s in range(1, 9):
            for k in range(0, 21):
                assert len(monomial_decomposition(s, k)) == len(bounded_partitions(k, s))

    def test_weighted_degree_and_order(self):
        monomials = monomial_decomposition(4, 9)
        for exps in monomials:
            assert sum((m + 1) * a for m, a in enumerate(exps)) == 9
        assert monomials == sorted(monomials, reverse=True)
        assert len(set(monomials)) == len(monomials)

    def test_rank_bound_far_above_degree(self):
        # parts above the degree get exponent 0 without a level of recursion each
        assert monomial_decomposition(2000, 0) == [(0,) * 2000]
        assert monomial_decomposition(2000, 1) == [(1,) + (0,) * 1999]
        assert monomial_decomposition(100000, 3) == [
            (3,) + (0,) * 99999,
            (1, 1) + (0,) * 99998,
            (0, 0, 1) + (0,) * 99997,
        ]

    @pytest.mark.parametrize("s, k, message", [(0, 3, "s must be >= 1"), (2, -1, "k must be >= 0")])
    def test_invalid_rank_or_degree_rejected(self, s, k, message):
        with pytest.raises(ValueError, match=message):
            monomial_decomposition(s, k)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=14))
    def test_counts_property(self, s, k):
        assert len(monomial_decomposition(s, k)) == len(bounded_partitions(k, s))


def restriction_split(s, k):
    """The degree-k monomials of rank bound s, split by ``in_restriction_kernel``."""
    monomials = monomial_decomposition(s, k)
    kernel = [exps for exps in monomials if in_restriction_kernel(exps)]
    return kernel, [exps for exps in monomials if not in_restriction_kernel(exps)]


class TestRestrictionKernel:
    def test_degree_two_split(self):
        kernel, image = restriction_split(2, 2)
        assert kernel == [(0, 1)]
        assert image == [(2, 0)]

    def test_partition_by_predicate(self):
        # a kernel monomial has a_s >= 1: removing one part of size s leaves
        # a degree k - s monomial of the same rank bound
        for s in (2, 3, 4):
            for k in (0, 3, 7, 12):
                kernel, _ = restriction_split(s, k)
                expected = monomial_decomposition(s, k - s) if k >= s else []
                assert kernel == [(*exps[:-1], exps[-1] + 1) for exps in expected]

    def test_image_bijects_with_lower_rank(self):
        for s in (2, 3, 4, 5):
            for k in (1, 4, 9, 15):
                _, image = restriction_split(s, k)
                assert [exps[:-1] for exps in image] == monomial_decomposition(s - 1, k)

    def test_rank_one_has_no_kernel(self):
        assert all(not in_restriction_kernel(exps) for exps in monomial_decomposition(1, 5))
