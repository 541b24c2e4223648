import math

import numpy as np
import pytest

from plaquette_qgauge import ModelParams, Stratum, cli, costratified, mathieu, spectrum

from oracles import (
    character_hamiltonian,
    dense_dim,
    dense_projectors,
    sturm_characteristic_value,
)


class TestHamiltonianMatrix:
    def test_formula_instantiation(self):
        # hbar^2 beta2 = 2, nu = 2: diagonal k(k+2) + 3, off-diagonal -1
        params = ModelParams(hbar=1.0, beta2=2.0, coupling_g=1.0 / math.sqrt(2.0))
        h = spectrum.hamiltonian_matrix(params, 2)
        assert np.allclose(h, [[3.0, -1.0], [-1.0, 6.0]], atol=1e-12)

    def test_symmetry_exact(self):
        params = ModelParams.from_reduced(0.25, 3.0)
        h = spectrum.hamiltonian_matrix(params, 12)
        assert np.array_equal(h, h.T)

    def test_free_theory_is_diagonal(self):
        params = ModelParams.from_reduced(0.5, 0.0)
        h = spectrum.hamiltonian_matrix(params, 6)
        k = np.arange(6)
        assert np.array_equal(h, np.diag(0.5 * params.hbar2_beta2 * k * (k + 2)))

    def test_dim_validation(self):
        params = ModelParams.from_reduced(0.5, 0.0)
        with pytest.raises(ValueError):
            spectrum.hamiltonian_matrix(params, 1)


class TestEnergies:
    def test_free_theory_values(self):
        params = ModelParams.from_reduced(0.125, 0.0)
        for n in range(10):
            value = spectrum.energy(n, params) / params.hbar2_beta2
            assert abs(value - 0.5 * n * (n + 2)) < 1e-12

    @pytest.mark.parametrize("nut", [0.0, 3.0, 6.0, 12.0, 24.0])
    def test_nondegenerate_ordering(self, nut):
        params = ModelParams.from_reduced(0.125, nut)
        values = [spectrum.energy(n, params) for n in range(8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("nut", [3.0, 12.0])
    def test_matrix_route_agreement(self, nut):
        params = ModelParams.from_reduced(0.5, nut)
        reference = spectrum.matrix_energies(params, 8)
        for n in range(8):
            value = spectrum.energy(n, params)
            assert abs(value - reference[n]) / max(1.0, abs(reference[n])) < 1e-8


    @pytest.mark.parametrize("nut", [500.0, 2000.0])
    def test_large_q_against_dense_eigvalsh(self, nut):
        params = ModelParams.from_reduced(0.5, nut)
        reference = np.linalg.eigvalsh(character_hamiltonian(nut, dense_dim(nut)))
        for n in range(41):
            value = spectrum.energy(n, params) / params.hbar2_beta2
            assert abs(value - reference[n]) <= 1e-12 * abs(reference[n])

    @pytest.mark.parametrize("nut", [0.0, 0.3, 6.0, 100.0, 2000.0])
    def test_level_array_equals_levels_of_its_eigensystem(self, nut):
        params = ModelParams.from_reduced(1.0, nut)
        q = 4.0 * params.nu_tilde
        energies = spectrum.energy(np.arange(41), params)
        trunc = mathieu.solve(np.arange(41), q).trunc
        mathieu._eigensystem.cache_clear()
        for n in range(41):
            single = spectrum._energy_from_b(mathieu.solve(n, q, trunc=trunc).b, params)
            assert energies[n] == single
        assert isinstance(spectrum.energy(3, params), float)

    def test_spectrum_sweep_makes_one_eigensolve_per_q(self, eigensolves, tmp_path):
        # levels 0..40 at 20 nu_tilde; per-level truncations made 168 solves
        mathieu._eigensystem.cache_clear()
        argv = ["spectrum", "--nu-tilde", "0:200:20", "--n-max", "40"]
        assert cli.main([*argv, "--out", str(tmp_path / "spectrum.csv")]) == 0
        # exactly one solve per q, each at the start: the default truncation
        # already holds level 40's tail, so no q doubles
        qs = np.array([q for _, q in eigensolves])
        assert np.allclose(qs, 4.0 * np.linspace(0.0, 200.0, 20), rtol=1e-14)
        assert [size for size, _ in eigensolves] == [mathieu.default_trunc(40, q) for q in qs]


class TestSturmOracle:
    """Emitted ``spectrum`` cells against a 50-digit Sturm bisection (README "Valid domain")."""

    #: Sturm rows per nu_tilde, about 1.5 times the size level 41 needs
    ROWS = {1e4: 260, 1e6: 780}

    def test_energies_and_gaps_are_within_their_relative_tolerance(self, capsys):
        import mpmath

        assert cli.main(["spectrum", "--nu-tilde", "1e4,1e6", "--n-max", "41"]) == 0
        lines = capsys.readouterr().out.splitlines()[2:]
        cells = {(float(nut), int(n)): (float(e), float(gap)) for nut, n, e, gap in
                 (line.split(",") for line in lines)}
        eps = np.finfo(float).eps
        for nut, rows in self.ROWS.items():
            q = 4.0 * nut
            exact = {}
            with mpmath.workdps(50):
                for n in (0, 1, 2, 40, 41):
                    b = sturm_characteristic_value(n, q, rows, mathieu.solve(n, q).b)
                    exact[n] = (b / 4 + 3 * mpmath.mpf(nut) - 1) / 2
                for n in (0, 1, 40):
                    energy, gap = cells[(nut, n)]
                    exact_gap = exact[n + 1] - exact[n]
                    assert abs((energy - exact[n]) / exact[n]) <= 4e-15
                    assert abs((gap - exact_gap) / exact_gap) <= 2 * eps * math.sqrt(nut)


class TestEigenstates:
    def test_free_theory_states_are_exact_basis_vectors(self):
        params = ModelParams.from_reduced(0.125, 0.0)
        result = spectrum.eigenstate(2, params)
        expected = np.zeros(result.state.trunc)
        expected[2] = 1.0
        assert np.array_equal(np.asarray(result.state.coeffs, dtype=float), expected)

    def test_orthonormality(self):
        params = ModelParams.from_reduced(0.125, 6.0)
        vectors = np.column_stack(
            [spectrum.eigenstate(n, params, trunc=40).state.coeffs for n in range(8)]
        )
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(8))) < 1e-9

    def test_eigenvector_residual_against_matrix(self):
        params = ModelParams.from_reduced(0.25, 6.0)
        h = spectrum.hamiltonian_matrix(params, 40)
        for n in range(6):
            result = spectrum.eigenstate(n, params, trunc=40)
            vec = np.asarray(result.state.coeffs, dtype=float)
            assert np.linalg.norm(h @ vec - result.energy * vec) < 1e-7

    def test_unit_norm(self):
        params = ModelParams.from_reduced(0.5, 24.0)
        assert abs(spectrum.eigenstate(4, params).state.norm() - 1.0) < 1e-10

    def test_energy_and_state_share_one_eigensolve(self, eigensolves):
        mathieu._eigensystem.cache_clear()
        params = ModelParams.from_reduced(0.125, 6.0)
        result = spectrum.eigenstate(2, params, trunc=40)
        assert [size for size, _ in eigensolves] == [40]
        expected = spectrum.energy(2, params)
        assert abs(result.energy - expected) <= 1e-12 * abs(expected)


class TestEigenfunctions:
    def test_free_theory_reduces_to_sine(self):
        params = ModelParams.from_reduced(0.125, 0.0)
        x = np.linspace(0.0, math.pi, 33)
        for n in range(4):
            expected = math.sqrt(2.0) * np.sin((n + 1) * x)
            assert np.max(np.abs(spectrum.eigenfunction_x(n, params, x) - expected)) < 1e-12

    def test_boundary_values_vanish(self):
        params = ModelParams.from_reduced(0.125, 12.0)
        for n in range(5):
            assert abs(spectrum.eigenfunction_x(n, params, 0.0)) < 1e-10
            assert abs(spectrum.eigenfunction_x(n, params, math.pi)) < 1e-10

    def test_expansion_consistency(self):
        # the interval realization equals the coefficient expansion in the
        # sine basis
        params = ModelParams.from_reduced(0.125, 12.0)
        rng = np.random.default_rng(17)
        pairs = [(int(n), float(x)) for n, x in zip(rng.integers(0, 6, 50), rng.uniform(0, math.pi, 50))]
        for n, x in pairs:
            direct = spectrum.eigenfunction_x(n, params, x)
            coeffs = np.asarray(spectrum.eigenstate(n, params).state.coeffs, dtype=float)
            k = np.arange(len(coeffs))
            expansion = float(np.sum(coeffs * math.sqrt(2.0) * np.sin((k + 1) * x)))
            assert abs(direct - expansion) < 1e-9


class TestProjectorExpectations:
    def test_values_in_unit_interval(self):
        for t in (0.5, 0.125):
            for nut in (0.0, 1.0, 10.0, 100.0):
                params = ModelParams.from_reduced(t, nut)
                for n in range(6):
                    for stratum in (Stratum.PLUS, Stratum.MINUS):
                        value = spectrum.projector_expectation(n, params, stratum)
                        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("t", [0.5, 0.125, 0.03125])
    def test_free_theory_closed_form(self, t):
        params = ModelParams.from_reduced(t, 0.0)
        n2 = costratified.norm_squared(t)
        for n in range(10):
            closed = (n + 1.0) ** 2 * math.exp(-t * (n + 1.0) ** 2) / n2
            for stratum in (Stratum.PLUS, Stratum.MINUS):
                value = spectrum.projector_expectation(n, params, stratum)
                assert abs(value - closed) < 1e-10

    def test_completeness(self):
        params = ModelParams.from_reduced(0.125, 24.0)
        _, _, completeness = spectrum.projector_expectations(params, 6)
        assert completeness >= 1.0 - 1e-6

    def test_parity_inequality_at_coupling(self):
        params = ModelParams.from_reduced(0.125, 6.0)
        plus = spectrum.projector_expectation(0, params, Stratum.PLUS)
        minus = spectrum.projector_expectation(0, params, Stratum.MINUS)
        assert abs(plus - minus) > 1e-6

    def test_parameter_collapse_is_exact(self):
        # two parameter triples with bitwise-identical (t, nu_tilde)
        a = ModelParams(hbar=0.5, beta2=0.5, coupling_g=4.0)
        b = ModelParams(hbar=0.125, beta2=2.0, coupling_g=8.0)
        assert a.t == b.t and a.nu_tilde == b.nu_tilde
        for n in range(5):
            for stratum in (Stratum.PLUS, Stratum.MINUS):
                assert spectrum.projector_expectation(n, a, stratum) == spectrum.projector_expectation(
                    n, b, stratum
                )

    def test_overlap_formula_matches_state_vectors(self):
        params = ModelParams.from_reduced(0.125, 6.0)
        vertex = costratified.stratum_state(Stratum.PLUS, params)
        for n in range(5):
            state = spectrum.eigenstate(n, params, trunc=vertex.trunc).state
            direct = abs(vertex.inner(state)) ** 2
            assert abs(direct - spectrum.projector_expectation(n, params, Stratum.PLUS)) < 1e-12

    def test_one_normalization_per_call(self, monkeypatch):
        # start from an empty cache, whatever earlier tests left in it; a
        # second nu_tilde at the same t reuses the normalization
        spectrum._normalization.cache_clear()
        calls = []
        original = costratified.norm_squared

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(costratified, "norm_squared", counting)
        spectrum.projector_expectations(ModelParams.from_reduced(0.125, 24.0), 6)
        assert calls == [0.125]
        spectrum.projector_expectations(ModelParams.from_reduced(0.125, 6.0), 6)
        assert calls == [0.125]

    @pytest.mark.parametrize("nut", [0.1, 24.0, 100.0])
    @pytest.mark.parametrize("t", [0.03125, 0.125, 0.5])
    def test_batched_overlaps_equal_per_level_formula(self, t, nut):
        # reference: one 1-D sum per level and stratum, the formula the
        # batched overlaps must reproduce bit for bit
        params = ModelParams.from_reduced(t, nut)
        plus, minus, _ = spectrum.projector_expectations(params, 60)
        sols = mathieu.solve_many(
            60, 4.0 * params.nu_tilde, trunc=spectrum._state_trunc(59, params)
        )
        n_const = costratified.normalization_constant(params.t)
        for sol in sols:
            k = np.arange(sol.trunc)
            weights = (k + 1.0) * np.exp(-params.t * (k + 1.0) ** 2 / 2.0)
            for signs, values in (((-1.0) ** k, plus), (np.ones(sol.trunc), minus)):
                overlap = (-1.0) ** sol.n / n_const * float(np.sum(signs * weights * sol.coeffs))
                assert values[sol.n] == overlap * overlap

    @pytest.mark.parametrize("t", [0.03125, 0.125, 0.5])
    def test_single_level_reads_the_batch(self, t):
        # one value per quantity: level n of a one-level call is level n of
        # the batch, bit for bit, exponentially small P_minus included
        for nut in np.geomspace(0.1, 100.0, 7):
            params = ModelParams.from_reduced(t, float(nut))
            for n in range(6):
                plus, minus, _ = spectrum.projector_expectations(params, n + 1)
                for stratum, values in ((Stratum.PLUS, plus), (Stratum.MINUS, minus)):
                    assert spectrum.projector_expectation(n, params, stratum) == values[n]

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_raises(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            spectrum.projector_expectations(ModelParams.from_reduced(0.125, 6.0), count)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_level_raises(self, n):
        with pytest.raises(ValueError):
            spectrum.projector_expectation(n, ModelParams.from_reduced(0.125, 6.0), Stratum.PLUS)

    def test_top_stratum_raises(self):
        with pytest.raises(ValueError, match="top stratum"):
            spectrum.projector_expectation(0, ModelParams.from_reduced(0.125, 6.0), Stratum.TOP)

    def test_fat_mathieu_tail_raises(self):
        # the solve entry points grow past a fat tail; the raw eigensystem does not
        levels = mathieu._eigensystem(200.0, 16).levels(np.arange(1))
        with pytest.raises(costratified.TruncationError, match="Mathieu coefficient tail"):
            spectrum._vertex_overlaps(levels, ModelParams.from_reduced(0.125, 50.0))

    def test_short_vertex_truncation_raises(self):
        # the t = 0.03125 vertex state needs about 59 coefficients, not 20
        sols = mathieu.solve_many(3, 1.0, trunc=20)
        assert sols[0].trunc == 20
        with pytest.raises(costratified.TruncationError, match="vertex-state weight tail"):
            spectrum._vertex_overlaps(sols, ModelParams.from_reduced(0.03125, 0.25))

    @pytest.mark.parametrize("t, nut", [(0.5, 3000.0), (2.0, 3000.0), (2.0, 1e4)])
    def test_completeness_grows_at_strong_coupling(self, t, nut):
        # 60 levels sum to 0.99999014, 0.97146 and 0.64870 here
        plus, minus, completeness = spectrum.projector_expectations(
            ModelParams.from_reduced(t, nut), 6
        )
        assert 1.0 - 1e-6 <= completeness <= 1.0 + 1e-12
        ref_plus, ref_minus = dense_projectors(t, nut, 6)
        assert np.max(np.abs(plus - ref_plus)) <= 1e-10
        assert np.max(np.abs(minus - ref_minus)) <= 1e-10

    def test_completeness_past_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_COMPLETENESS_MAX", 120)
        with pytest.raises(costratified.TruncationError, match="completeness"):
            spectrum.projector_expectations(ModelParams.from_reduced(2.0, 1e4), 6)


class TestVertexStateIsNotAnEigenstate:
    def test_candidate_coefficients_violate_recurrence_for_every_q(self):
        # if the plus vertex state coincided with a ground state, its
        # coefficients would be a Mathieu eigenvector for some q; measure the
        # eigen-residual with the optimal (Rayleigh) spectral parameter and
        # check it stays far above the residual of true solutions
        for t in (0.5, 0.125):
            n2 = costratified.norm_squared(t)
            k = np.arange(costratified.default_trunc(t) + 20)
            candidate = (-1.0) ** k * (k + 1.0) * np.exp(-t * (k + 1.0) ** 2 / 2.0) / math.sqrt(n2)
            diag = (2.0 * k + 2.0) ** 2
            worst = math.inf
            for q in np.geomspace(0.1, 100.0, 25):
                tv = diag * candidate
                tv[1:] += q * candidate[:-1]
                tv[:-1] += q * candidate[1:]
                rayleigh = float(candidate @ tv)
                residual = float(np.max(np.abs(tv - rayleigh * candidate)))
                worst = min(worst, residual)
            assert worst > 1e-6

    def test_true_solutions_do_satisfy_the_recurrence(self):
        # contrast: residual of an actual solution is at rounding level
        assert mathieu.solve(0, 24.0).recurrence_residual() < 1e-10
