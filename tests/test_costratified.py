import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plaquette_qgauge import ModelParams, Stratum, costratified
from plaquette_qgauge.costratified import (
    ConsistencyError,
    StateVector,
    TruncationError,
    norm_squared,
    normalization_constant,
    project,
    stratum_state,
    tunneling_overlap,
    tunneling_probability,
    vanishing_basis,
    vertex_evaluation,
)

from oracles import exact_vertex_sums

#: the documented domain of N^2 and the tunneling probability
T_MIN, T_MAX = 0.0069, 708.0


@pytest.fixture
def params():
    return ModelParams.from_reduced(0.125, 0.0)


class TestNormalization:
    def test_series_value_at_t1(self):
        # direct-series oracle, summed far past convergence
        expected = sum(n * n * math.exp(-n * n) for n in range(1, 80))
        assert math.isclose(norm_squared(1.0), expected, rel_tol=1e-13)

    def test_single_term_domination_at_large_t(self):
        assert math.isclose(norm_squared(50.0), math.exp(-50.0), rel_tol=1e-10)

    def test_theta_route_agreement_over_grid(self):
        # norm_squared raises internally if the two routes drift apart
        for t in np.geomspace(0.01, 5.0, 30):
            assert norm_squared(float(t)) > 0.0

    def test_not_normal_raises(self):
        # N^2 ~ exp(-t) is subnormal above t ~ 708.4 and 0 above ~745
        with pytest.raises(FloatingPointError):
            norm_squared(708.5)
        with pytest.raises(FloatingPointError):
            norm_squared(800.0)

    def test_rejects_non_positive_t(self):
        with pytest.raises(ValueError):
            normalization_constant(0.0)


class TestVertexStates:
    def test_unit_norm(self, params):
        for stratum in (Stratum.PLUS, Stratum.MINUS):
            assert abs(stratum_state(stratum, params).norm() - 1.0) < 1e-12

    def test_leading_coefficient_positive(self, params):
        state = stratum_state(Stratum.PLUS, params)
        t = params.t
        expected = math.exp(-t / 2.0) / normalization_constant(t)
        assert math.isclose(float(state.coeffs[0]), expected, rel_tol=1e-13)
        assert state.coeffs[0] > 0.0

    def test_minus_is_parity_flip_of_plus(self, params):
        plus = stratum_state(Stratum.PLUS, params)
        minus = stratum_state(Stratum.MINUS, params)
        signs = (-1.0) ** np.arange(plus.trunc)
        assert np.array_equal(np.asarray(minus.coeffs), signs * np.asarray(plus.coeffs))

    def test_integer_coefficients_are_kept_as_floats(self, params):
        negative = StateVector(np.array([-1, 0]), params)
        assert negative.coeffs.dtype == np.float64
        assert np.array_equal(negative.coeffs, [-1.0, 0.0])
        assert StateVector(np.array([1, 0]), params).coeffs.dtype == np.float64

    def test_non_finite_coefficients_rejected(self, params):
        for coeffs in ([1.0, math.nan], [math.inf, 0.0], [1.0 + 0.0j, complex(0.0, math.inf)]):
            with pytest.raises(ValueError, match="finite"):
                StateVector(np.array(coeffs), params)

    def test_top_stratum_rejected(self, params):
        with pytest.raises(ValueError):
            stratum_state(Stratum.TOP, params)

    def test_insufficient_truncation_rejected(self, params):
        with pytest.raises(TruncationError):
            stratum_state(Stratum.PLUS, params, trunc=5)

    def test_tail_is_reported(self, params):
        state = stratum_state(Stratum.PLUS, params)
        assert state.tail == abs(float(state.coeffs[-1]))

    @settings(deadline=None, max_examples=25)
    @given(st.floats(min_value=0.02, max_value=5.0))
    def test_parity_relation_any_t(self, t):
        params = ModelParams.from_reduced(t, 0.0)
        plus = stratum_state(Stratum.PLUS, params)
        minus = stratum_state(Stratum.MINUS, params)
        signs = (-1.0) ** np.arange(plus.trunc)
        assert np.array_equal(np.asarray(minus.coeffs), signs * np.asarray(plus.coeffs))


class TestVertexEvaluation:
    def test_basis_state_at_minus_vertex(self, params):
        state = StateVector.basis_state(0, params, trunc=20)
        expected = (params.hbar * math.pi) ** -0.75 * math.exp(-params.t / 2.0)
        assert math.isclose(vertex_evaluation(state, Stratum.MINUS, params).real, expected)

    def test_vertex_state_does_not_vanish_at_its_vertex(self, params):
        state = stratum_state(Stratum.PLUS, params)
        assert abs(vertex_evaluation(state, Stratum.PLUS, params)) > 0.1

    @pytest.mark.parametrize("stratum", [Stratum.PLUS, Stratum.MINUS])
    def test_vanishing_basis_evaluates_to_zero(self, params, stratum):
        basis = vanishing_basis(stratum, params, trunc=30)
        for column in basis.T:
            value = vertex_evaluation(StateVector(column, params), stratum, params)
            assert abs(value) < 1e-12

    @pytest.mark.parametrize("t", [1e-4, 400.0, 700.0])
    @pytest.mark.parametrize("stratum", [Stratum.PLUS, Stratum.MINUS])
    def test_vanishing_basis_is_finite_over_the_domain(self, stratum, t):
        # the evaluation's own size at this t: the largest weight, scaled
        params = ModelParams.from_reduced(t, 0.0)
        weights = costratified.vertex_weights(stratum, t, 30)
        size = (params.hbar * math.pi) ** -0.75 * np.max(np.abs(weights))
        basis = vanishing_basis(stratum, params, trunc=30)
        assert basis.shape == (30, 29)
        assert np.all(np.isfinite(basis))
        assert np.allclose(np.linalg.norm(basis, axis=0), 1.0, rtol=0.0, atol=1e-15)
        for column in basis.T:
            value = vertex_evaluation(StateVector(column, params), stratum, params)
            assert abs(value) <= 1e-14 * size


class TestProjection:
    def test_idempotent_on_vertex_state(self, params):
        psi = stratum_state(Stratum.PLUS, params)
        projected = project(psi, Stratum.PLUS, params)
        m = min(psi.trunc, projected.trunc)
        assert np.max(np.abs(projected.coeffs[:m] - psi.coeffs[:m])) < 1e-12

    def test_annihilates_vanishing_subspace(self, params):
        basis = vanishing_basis(Stratum.PLUS, params, trunc=30)
        for column in basis.T:
            projected = project(StateVector(column, params), Stratum.PLUS, params)
            assert projected.norm() < 1e-12

    def test_projection_squared_equals_projection(self, params):
        rng = np.random.default_rng(11)
        for _ in range(20):
            raw = rng.standard_normal(25) + 1j * rng.standard_normal(25)
            state = StateVector(raw / np.linalg.norm(raw), params)
            once = project(state, Stratum.MINUS, params)
            twice = project(once, Stratum.MINUS, params)
            assert np.max(np.abs(np.asarray(twice.coeffs) - np.asarray(once.coeffs))) < 1e-12

    def test_mismatched_parameters_rejected(self, params):
        other = ModelParams.from_reduced(0.5, 0.0)
        state = StateVector.basis_state(0, other, trunc=10)
        with pytest.raises(ValueError):
            project(state, Stratum.PLUS, params)


class TestSubspaceDimension:
    @pytest.mark.parametrize("stratum", [Stratum.PLUS, Stratum.MINUS])
    def test_complement_of_vanishing_subspace_is_one_dimensional(self, params, stratum):
        trunc = 40
        basis = vanishing_basis(stratum, params, trunc)
        q, _ = np.linalg.qr(basis)
        complement = np.eye(trunc) - q @ q.T
        singular_values = np.linalg.svd(complement, compute_uv=False)
        assert abs(singular_values[0] - 1.0) < 1e-10
        assert singular_values[1] < 1e-10
        # and the single leftover direction is the vertex state
        psi = np.asarray(stratum_state(stratum, params, trunc=trunc).coeffs, dtype=float)
        assert np.linalg.norm(complement @ psi - psi) < 1e-10

    def test_reproducing_property(self, params):
        # the overlap with the vertex state is a fixed multiple of the vertex
        # evaluation, for every state
        rng = np.random.default_rng(5)
        psi = stratum_state(Stratum.PLUS, params, trunc=30)
        ratios = []
        for _ in range(20):
            raw = rng.standard_normal(30)
            state = StateVector(raw / np.linalg.norm(raw), params)
            overlap = psi.inner(state)
            evaluation = vertex_evaluation(state, Stratum.PLUS, params)
            ratios.append(complex(overlap) / complex(evaluation))
        spread = max(abs(r - ratios[0]) for r in ratios)
        assert spread < 1e-10 * abs(ratios[0])


class TestTunneling:
    def test_probability_limits(self):
        assert tunneling_probability(5.0) > 0.99
        assert tunneling_probability(0.01) < 1e-6
        # the exact value, ~9e-423, is not a double: a refusal, not 0 or noise
        with pytest.raises(FloatingPointError):
            tunneling_probability(0.005)

    def test_matches_mpmath_over_the_domain(self):
        for t in np.geomspace(T_MIN, 700.0, 60):
            t = float(t)
            n2, overlap = exact_vertex_sums(t)
            assert abs(norm_squared(t) - n2) <= 1e-13 * n2
            assert abs(tunneling_overlap(t) - overlap) <= 1e-13 * overlap

    @settings(deadline=None, max_examples=200)
    @given(st.floats(min_value=math.log(T_MIN), max_value=math.log(T_MAX)))
    def test_overlap_and_probability_bounds(self, log_t):
        t = math.exp(log_t)
        overlap = tunneling_overlap(t)
        assert overlap > 0.0
        assert 0.0 <= tunneling_probability(t) <= 1.0

    def test_series_equals_theta_ratio_at_t1(self):
        from plaquette_qgauge.theta import theta3_prime

        series = sum(
            (-1.0) ** (n + 1) * n * n * math.exp(-n * n) for n in range(1, 80)
        ) / norm_squared(1.0)
        ratio = theta3_prime(-math.exp(-1.0)) / theta3_prime(math.exp(-1.0))
        assert math.isclose(series, ratio, rel_tol=1e-12)
        assert math.isclose(tunneling_overlap(1.0), series, rel_tol=1e-12)

    def test_probability_monotone_on_grid(self):
        # qualitative monotone growth; the tolerance dates from the direct
        # route's cancellation noise below t ~ 0.07, which the dual route removes
        grid = np.arange(0.01, 5.0001, 0.01)
        values = [tunneling_probability(float(t)) for t in grid]
        for earlier, later in zip(values, values[1:]):
            assert later >= earlier - 1e-20

    def test_overlap_positive(self):
        for t in (0.25, 1.0, 5.0):
            assert tunneling_overlap(t) > 0.0

    def test_route_disagreement_raises(self, monkeypatch):
        # the direct/dual cross-check is an always-on assertion in the band:
        # corrupt one route and the public functions must refuse to return a value
        from plaquette_qgauge import costratified as mod

        monkeypatch.setattr(mod, "theta3_prime", lambda Q: 1.0)
        with pytest.raises(mod.ConsistencyError):
            norm_squared(1.0)
        with pytest.raises(mod.ConsistencyError):
            tunneling_overlap(1.0)

    def test_perturbed_norm_dual_route_raises(self, monkeypatch):
        # a 1e-9 relative error in the dual N^2 must trip the 1e-12 cross-check
        original = costratified._norm_squared_dual
        monkeypatch.setattr(costratified, "_norm_squared_dual", lambda t: original(t) * (1 + 1e-9))
        with pytest.raises(ConsistencyError):
            norm_squared(1.0)
        with pytest.raises(ConsistencyError):
            tunneling_overlap(1.0)

    def test_perturbed_alternating_dual_route_raises(self, monkeypatch):
        original = costratified._alternating_dual
        monkeypatch.setattr(costratified, "_alternating_dual", lambda t: original(t) * (1 + 1e-9))
        assert norm_squared(1.0) > 0.0
        with pytest.raises(ConsistencyError):
            tunneling_overlap(1.0)
