import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plaquette_qgauge import Stratum, costratified
from plaquette_qgauge.costratified import (
    ConsistencyError,
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
from plaquette_qgauge.params import ModelParams

from oracles import exact_vertex_sums

#: the documented domain of N^2 and the tunneling probability
T_MIN, T_MAX = 0.0069, 708.0
#: t = hbar beta2 of the state tests
T = 0.125


@pytest.fixture
def params():
    """Physical parameters at t = T, for ``vertex_evaluation``, whose scale depends on hbar."""
    return ModelParams(hbar=T, beta2=1.0, coupling_g=math.inf)


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

    @pytest.mark.parametrize("t", [2e-206, 1e-250, 5e-324])
    def test_overflow_raises_naming_t(self, t):
        # below t ~ 3e-206 the dual route's t^(-3/2) overflows
        with pytest.raises(FloatingPointError, match=f"at t={t}$"):
            norm_squared(t)

    def test_finite_just_above_the_overflow_edge(self):
        assert math.isfinite(norm_squared(4e-206))

    @pytest.mark.parametrize("t", [4e-206, 1e-100, 0.003, 0.0033])
    def test_alternating_dual_is_zero_once_its_exponential_underflows(self, t):
        # exp(-pi^2/4t) is 0 below t ~ 0.0033; near 4e-206 the prefactor
        # t^(-3/2) is inf as well, and their product must not be nan
        assert costratified._alternating_dual(t) == 0.0

    def test_tunneling_just_above_the_overflow_edge_refuses_with_zero(self):
        with pytest.raises(FloatingPointError, match=r"^tunneling probability 0\.0 is not"):
            tunneling_overlap(4e-206)

    def test_rejects_non_positive_t(self):
        with pytest.raises(ValueError):
            normalization_constant(0.0)


class TestVertexStates:
    def test_unit_norm(self):
        for stratum in (Stratum.PLUS, Stratum.MINUS):
            assert abs(np.linalg.norm(stratum_state(stratum, T)) - 1.0) < 1e-12

    def test_leading_coefficient_positive(self):
        state = stratum_state(Stratum.PLUS, T)
        expected = math.exp(-T / 2.0) / normalization_constant(T)
        assert math.isclose(float(state[0]), expected, rel_tol=1e-13)
        assert state[0] > 0.0

    def test_minus_is_parity_flip_of_plus(self):
        plus = stratum_state(Stratum.PLUS, T)
        minus = stratum_state(Stratum.MINUS, T)
        signs = (-1.0) ** np.arange(len(plus))
        assert np.array_equal(minus, signs * plus)

    @pytest.mark.parametrize("stratum", [Stratum.PLUS, Stratum.MINUS])
    @pytest.mark.parametrize("trunc", [None, 40])
    def test_state_is_the_read_only_unit_weight_array(self, stratum, trunc):
        # the weights over N, bit for bit, as one read-only 1-D float64 array
        state = stratum_state(stratum, T, trunc=trunc)
        count = costratified.default_trunc(T) if trunc is None else trunc
        expected = costratified.vertex_weights(stratum, T, count) / math.sqrt(norm_squared(T))
        assert isinstance(state, np.ndarray) and state.dtype == np.float64 and state.ndim == 1
        assert state.tobytes() == expected.tobytes()
        assert not state.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            state[0] = 0.0

    @pytest.mark.parametrize("trunc", [0, -1])
    def test_empty_truncation_rejected(self, trunc):
        with pytest.raises(ValueError, match=f"trunc >= 1, got {trunc}$"):
            stratum_state(Stratum.PLUS, T, trunc=trunc)

    def test_top_stratum_rejected(self):
        with pytest.raises(ValueError):
            stratum_state(Stratum.TOP, T)

    # at trunc=20 the last weight is 8.8e-11 of N, above the 1e-12 that check_tail allows
    @pytest.mark.parametrize("trunc", [5, 20])
    def test_insufficient_truncation_rejected(self, trunc):
        with pytest.raises(TruncationError, match=f"at t={T} with {trunc} rows; need at least 34"):
            stratum_state(Stratum.PLUS, T, trunc=trunc)

    def test_overflowing_normalization_raises_before_allocating(self):
        # the default truncation at t = 1e-300 is about 9e150 weights
        with pytest.raises(FloatingPointError, match="at t=1e-300"):
            stratum_state(Stratum.PLUS, 1e-300)

    def test_default_truncation_up_to_the_row_bound_is_built(self):
        # default_trunc is 524,241 rows here, just inside 2**19
        state = stratum_state(Stratum.PLUS, 2.911e-10)
        assert len(state) == costratified.default_trunc(2.911e-10) <= costratified.MAX_ROWS

    @pytest.mark.parametrize("t", [2.91e-10, 1e-200])
    def test_truncation_past_the_row_bound_refuses_before_allocating(self, t, monkeypatch):
        # 524,331 rows at 2.91e-10; about 9e100 at 1e-200, where N^2 is finite
        def unexpected(*args):
            raise AssertionError("vertex weights built past the row bound")

        monkeypatch.setattr(costratified, "vertex_weights", unexpected)
        with pytest.raises(TruncationError, match=f"at t={t} is past 524288 rows"):
            stratum_state(Stratum.MINUS, t)

    def test_tail_is_within_the_truncation_rule(self):
        # the last unit-state coefficient is the vertex-weight tail relative to N
        state = stratum_state(Stratum.PLUS, T)
        assert abs(state[-1]) == abs(float(state[-1]))
        assert 0.0 < abs(state[-1]) <= costratified._TAIL_TOL

    @settings(deadline=None, max_examples=25)
    @given(st.floats(min_value=0.02, max_value=5.0))
    def test_parity_relation_any_t(self, t):
        plus = stratum_state(Stratum.PLUS, t)
        minus = stratum_state(Stratum.MINUS, t)
        signs = (-1.0) ** np.arange(len(plus))
        assert np.array_equal(minus, signs * plus)


class TestVertexEvaluation:
    def test_basis_state_at_minus_vertex(self, params):
        state = np.eye(20)[0]
        expected = (params.hbar * math.pi) ** -0.75 * math.exp(-params.t / 2.0)
        assert math.isclose(vertex_evaluation(state, Stratum.MINUS, params).real, expected)

    def test_vertex_state_does_not_vanish_at_its_vertex(self, params):
        state = stratum_state(Stratum.PLUS, T)
        assert abs(vertex_evaluation(state, Stratum.PLUS, params)) > 0.1

    @pytest.mark.parametrize("stratum", [Stratum.PLUS, Stratum.MINUS])
    def test_vanishing_basis_evaluates_to_zero(self, params, stratum):
        basis = vanishing_basis(stratum, T, trunc=30)
        for column in basis.T:
            value = vertex_evaluation(column, stratum, params)
            assert abs(value) < 1e-12

    def test_vanishing_basis_needs_two_rows(self):
        # one row holds only the vertex direction, so nothing vanishes there
        with pytest.raises(ValueError, match="trunc >= 2"):
            vanishing_basis(Stratum.PLUS, T, trunc=1)

    @pytest.mark.parametrize("t", [1e-4, 400.0, 700.0])
    @pytest.mark.parametrize("stratum", [Stratum.PLUS, Stratum.MINUS])
    def test_vanishing_basis_is_finite_over_the_domain(self, stratum, t):
        # the evaluation's own size at this t: the largest weight, scaled
        params = ModelParams(hbar=t, beta2=1.0, coupling_g=math.inf)
        weights = costratified.vertex_weights(stratum, t, 30)
        size = (params.hbar * math.pi) ** -0.75 * np.max(np.abs(weights))
        basis = vanishing_basis(stratum, t, trunc=30)
        assert basis.shape == (30, 29)
        assert np.all(np.isfinite(basis))
        assert np.allclose(np.linalg.norm(basis, axis=0), 1.0, rtol=0.0, atol=1e-15)
        for column in basis.T:
            value = vertex_evaluation(column, stratum, params)
            assert abs(value) <= 1e-14 * size


class TestProjection:
    def test_idempotent_on_vertex_state(self):
        psi = stratum_state(Stratum.PLUS, T)
        projected = project(psi, Stratum.PLUS, T)
        m = min(len(psi), len(projected))
        assert np.max(np.abs(projected[:m] - psi[:m])) < 1e-12

    def test_annihilates_vanishing_subspace(self):
        basis = vanishing_basis(Stratum.PLUS, T, trunc=30)
        for column in basis.T:
            projected = project(column, Stratum.PLUS, T)
            assert np.linalg.norm(projected) < 1e-12

    def test_projection_squared_equals_projection(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            raw = rng.standard_normal(25) + 1j * rng.standard_normal(25)
            state = raw / np.linalg.norm(raw)
            once = project(state, Stratum.MINUS, T)
            twice = project(once, Stratum.MINUS, T)
            assert np.max(np.abs(twice - once)) < 1e-12


class TestSubspaceDimension:
    @pytest.mark.parametrize("stratum", [Stratum.PLUS, Stratum.MINUS])
    def test_complement_of_vanishing_subspace_is_one_dimensional(self, stratum):
        trunc = 40
        basis = vanishing_basis(stratum, T, trunc)
        q, _ = np.linalg.qr(basis)
        complement = np.eye(trunc) - q @ q.T
        singular_values = np.linalg.svd(complement, compute_uv=False)
        assert abs(singular_values[0] - 1.0) < 1e-10
        assert singular_values[1] < 1e-10
        # and the single leftover direction is the vertex state
        psi = stratum_state(stratum, T, trunc=trunc)
        assert np.linalg.norm(complement @ psi - psi) < 1e-10

    def test_reproducing_property(self, params):
        # the overlap with the vertex state is a fixed multiple of the vertex
        # evaluation, for every state
        rng = np.random.default_rng(5)
        psi = stratum_state(Stratum.PLUS, T, trunc=30)
        ratios = []
        for _ in range(20):
            raw = rng.standard_normal(30)
            state = raw / np.linalg.norm(raw)
            overlap = np.vdot(psi, state)
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


#: each end of the cross-check band and the route switch, with the double on either side
BELOW_ONE = [math.nextafter(0.25, 0.0), 0.25, math.nextafter(0.25, 1.0), math.nextafter(1.0, 0.0)]
AT_OR_ABOVE_ONE = [1.0, math.nextafter(1.0, 2.0), math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0)]
#: the route names of N^2 and of S, dual first
ROUTES = {
    "dual": ("_norm_squared_dual", "_alternating_dual"),
    "direct": ("_norm_squared_direct", "_alternating_direct"),
}


def _chosen(t: float) -> tuple[str, str]:
    return ROUTES["dual" if t in BELOW_ONE else "direct"]


class TestRouteDispatchEdges:
    @pytest.mark.parametrize("t", BELOW_ONE + AT_OR_ABOVE_ONE)
    def test_value_is_the_chosen_route_bit_for_bit(self, t):
        norm_route, alternating_route = (getattr(costratified, name) for name in _chosen(t))
        assert norm_squared(t) == norm_route(t)
        assert tunneling_overlap(t) == alternating_route(t) / norm_route(t)

    @pytest.mark.parametrize("nudged", [name for pair in ROUTES.values() for name in pair])
    @pytest.mark.parametrize("t", BELOW_ONE + AT_OR_ABOVE_ONE)
    def test_a_nudge_within_the_tolerance_shows_only_through_the_chosen_route(
        self, t, nudged, monkeypatch
    ):
        # the routes agree to the last bit at some edges, where the test above
        # cannot tell them apart; a 1e-13 nudge passes the cross-check and moves
        # exactly the values that read the nudged route
        pristine = (norm_squared(t), tunneling_overlap(t))
        original = getattr(costratified, nudged)
        monkeypatch.setattr(costratified, nudged, lambda t: original(t) * (1 + 1e-13))
        values = (norm_squared(t), tunneling_overlap(t))
        if nudged not in _chosen(t):
            assert values == pristine
        elif nudged.startswith("_norm_squared"):
            assert values[0] != pristine[0] and values[1] != pristine[1]
        else:
            assert values[0] == pristine[0] and values[1] != pristine[1]

    @pytest.mark.parametrize("corrupted", [name for pair in ROUTES.values() for name in pair])
    @pytest.mark.parametrize("t", BELOW_ONE + AT_OR_ABOVE_ONE)
    def test_corruption_raises_exactly_inside_the_closed_band(self, t, corrupted, monkeypatch):
        pristine = (norm_squared(t), tunneling_overlap(t))
        original = getattr(costratified, corrupted)
        monkeypatch.setattr(costratified, corrupted, lambda t: original(t) * (1 + 1e-9))
        reaches_norm = corrupted.startswith("_norm_squared")
        if 0.25 <= t <= 2.0:
            if reaches_norm:
                with pytest.raises(ConsistencyError, match="norm_squared"):
                    norm_squared(t)
            else:
                assert norm_squared(t) == pristine[0]
            with pytest.raises(ConsistencyError):
                tunneling_overlap(t)
        else:
            norm_route, alternating_route = (getattr(costratified, name) for name in _chosen(t))
            values = (norm_squared(t), tunneling_overlap(t))
            assert values == (norm_route(t), alternating_route(t) / norm_route(t))
            if corrupted not in _chosen(t):
                assert values == pristine
