import math

import numpy as np
import pytest

from plaquette_qgauge import Stratum, cli, costratified, mathieu, spectrum
from plaquette_qgauge.params import ModelParams

from oracles import (
    character_hamiltonian,
    dense_dim,
    dense_projectors,
    sturm_characteristic_value,
)


class TestHamiltonianMatrix:
    def test_formula_instantiation(self):
        # nu_tilde = 1, in units of hbar^2 beta2: diagonal k(k+2)/2 + 3/2,
        # off-diagonal -1/2
        h = spectrum.hamiltonian_matrix(1.0, 2)
        assert np.allclose(h, [[1.5, -0.5], [-0.5, 3.0]], atol=1e-12)

    def test_symmetry_exact(self):
        h = spectrum.hamiltonian_matrix(3.0, 12)
        assert np.array_equal(h, h.T)

    def test_free_theory_is_diagonal(self):
        h = spectrum.hamiltonian_matrix(0.0, 6)
        k = np.arange(6)
        assert np.array_equal(h, np.diag(0.5 * k * (k + 2)))

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            spectrum.hamiltonian_matrix(0.0, 1)


class TestEnergies:
    def test_free_theory_values(self):
        for n in range(10):
            value = spectrum.energy(n, 0.0)
            assert abs(value - 0.5 * n * (n + 2)) < 1e-12

    @pytest.mark.parametrize("nut", [0.0, 3.0, 6.0, 12.0, 24.0])
    def test_nondegenerate_ordering(self, nut):
        values = [spectrum.energy(n, nut) for n in range(8)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("nut", [3.0, 12.0])
    def test_matrix_route_agreement(self, nut):
        reference = spectrum.matrix_energies(nut, 8)
        for n in range(8):
            value = spectrum.energy(n, nut)
            assert abs(value - reference[n]) / max(1.0, abs(reference[n])) < 1e-8


    @pytest.mark.parametrize("nut", [500.0, 2000.0])
    def test_large_q_against_dense_eigvalsh(self, nut):
        reference = np.linalg.eigvalsh(character_hamiltonian(nut, dense_dim(nut)))
        for n in range(41):
            value = spectrum.energy(n, nut)
            assert abs(value - reference[n]) <= 1e-12 * abs(reference[n])

    @pytest.mark.parametrize("nut", [0.0, 0.3, 6.0, 100.0, 2000.0])
    def test_level_array_equals_levels_of_its_eigensystem(self, nut):
        q = 4.0 * nut
        energies = spectrum.energy(np.arange(41), nut)
        trunc = mathieu.solve(np.arange(41), q).coeffs.shape[1]
        for n in range(41):
            single = spectrum._energy_from_b(mathieu.solve(n, q, trunc=trunc).b, nut)
            assert energies[n] == single
        assert isinstance(spectrum.energy(3, nut), float)

    def test_spectrum_sweep_makes_one_eigensolve_per_q(self, eigensolves, tmp_path):
        # levels 0..40 at 20 nu_tilde; per-level truncations made 168 solves
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
        _, state = spectrum.eigenstate(2, 0.0)
        expected = np.zeros(len(state))
        expected[2] = 1.0
        assert np.array_equal(state, expected)

    def test_orthonormality(self):
        vectors = np.column_stack(
            [spectrum.eigenstate(n, 6.0, trunc=40)[1] for n in range(8)]
        )
        gram = vectors.T @ vectors
        assert np.max(np.abs(gram - np.eye(8))) < 1e-9

    def test_eigenvector_residual_against_matrix(self):
        h = spectrum.hamiltonian_matrix(6.0, 40)
        for n in range(6):
            energy, vec = spectrum.eigenstate(n, 6.0, trunc=40)
            assert np.linalg.norm(h @ vec - energy * vec) < 1e-7

    def test_unit_norm(self):
        assert abs(np.linalg.norm(spectrum.eigenstate(4, 24.0)[1]) - 1.0) < 1e-10

    def test_energy_and_state_share_one_eigensolve(self, eigensolves):
        energy, _ = spectrum.eigenstate(2, 6.0, trunc=40)
        assert [size for size, _ in eigensolves] == [40]
        expected = spectrum.energy(2, 6.0)
        assert abs(energy - expected) <= 1e-12 * abs(expected)

    def test_levels_share_one_eigensolve_and_equal_single_levels(self, eigensolves):
        energies, coeffs = spectrum.eigenstates(np.arange(6), 6.0, trunc=40)
        assert [size for size, _ in eigensolves] == [40]
        assert coeffs.shape == (6, 40)
        for n in range(6):
            energy, state = spectrum.eigenstate(n, 6.0, trunc=40)
            assert energy == energies[n]
            assert state.tobytes() == coeffs[n].tobytes()

    @pytest.mark.parametrize("trunc", [None, 40])
    @pytest.mark.parametrize("n", [0, 3])
    def test_row_is_the_single_level_eigenstates_row(self, n, trunc):
        # a read-only 1-D float64 row, bit for bit the row eigenstates([n]) builds
        energy, state = spectrum.eigenstate(n, 6.0, trunc=trunc)
        energies, rows = spectrum.eigenstates([n], 6.0, trunc=trunc)
        assert energy == energies[0]
        assert state.dtype == np.float64 and state.ndim == 1
        assert state.tobytes() == rows[0].tobytes()
        assert not state.flags.writeable and not rows.flags.writeable


class TestEigenfunctions:
    def test_free_theory_reduces_to_sine(self):
        x = np.linspace(0.0, math.pi, 33)
        for n in range(4):
            expected = math.sqrt(2.0) * np.sin((n + 1) * x)
            assert np.max(np.abs(spectrum.eigenfunction_x(n, 0.0, x) - expected)) < 1e-12

    @pytest.mark.parametrize("nu_tilde", [0.0, 3.0, 24.0, 400.0])
    def test_agrees_with_the_sine_elliptic_route(self, nu_tilde):
        # the character-basis row against the Mathieu function in its own
        # coordinate y = (x - pi)/2, at interior points
        x = np.linspace(0.0, math.pi, 65)[1:-1]
        for n in range(6):
            value = spectrum.eigenfunction_x(n, nu_tilde, x)
            se = mathieu.se(n, 4.0 * nu_tilde, (x - math.pi) / 2.0)
            reference = (-1.0) ** (n + 1) * math.sqrt(2.0) * se
            assert np.max(np.abs(value - reference)) <= 1e-13 * np.max(np.abs(value))

    def test_boundary_values_vanish(self):
        for n in range(5):
            assert abs(spectrum.eigenfunction_x(n, 12.0, 0.0)) < 1e-10
            assert abs(spectrum.eigenfunction_x(n, 12.0, math.pi)) < 1e-10

    def test_expansion_consistency(self):
        # the interval realization equals the coefficient expansion in the
        # sine basis
        rng = np.random.default_rng(17)
        pairs = [(int(n), float(x)) for n, x in zip(rng.integers(0, 6, 50), rng.uniform(0, math.pi, 50))]
        for n, x in pairs:
            direct = spectrum.eigenfunction_x(n, 12.0, x)
            coeffs = spectrum.eigenstate(n, 12.0)[1]
            k = np.arange(len(coeffs))
            expansion = float(np.sum(coeffs * math.sqrt(2.0) * np.sin((k + 1) * x)))
            assert abs(direct - expansion) < 1e-9


class TestProjectorExpectations:
    def test_values_in_unit_interval(self):
        for t in (0.5, 0.125):
            for nut in (0.0, 1.0, 10.0, 100.0):
                for n in range(6):
                    for stratum in (Stratum.PLUS, Stratum.MINUS):
                        value = spectrum.projector_expectation(n, t, nut, stratum)
                        assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("t", [0.5, 0.125, 0.03125])
    def test_free_theory_closed_form(self, t):
        n2 = costratified.norm_squared(t)
        for n in range(10):
            closed = (n + 1.0) ** 2 * math.exp(-t * (n + 1.0) ** 2) / n2
            for stratum in (Stratum.PLUS, Stratum.MINUS):
                value = spectrum.projector_expectation(n, t, 0.0, stratum)
                assert abs(value - closed) < 1e-10

    def test_completeness(self):
        _, _, completeness = spectrum.projector_expectations((0.125,), (24.0,), 6)
        assert completeness.shape == (1, 1)
        assert completeness[0, 0] >= 1.0 - 1e-6

    def test_parity_inequality_at_coupling(self):
        plus = spectrum.projector_expectation(0, 0.125, 6.0, Stratum.PLUS)
        minus = spectrum.projector_expectation(0, 0.125, 6.0, Stratum.MINUS)
        assert abs(plus - minus) > 1e-6

    def test_parameter_collapse_is_exact(self):
        # two parameter triples with bitwise-identical (t, nu_tilde)
        a = ModelParams(hbar=0.5, beta2=0.5, coupling_g=4.0)
        b = ModelParams(hbar=0.125, beta2=2.0, coupling_g=8.0)
        assert a.t == b.t and a.nu_tilde == b.nu_tilde
        for n in range(5):
            for stratum in (Stratum.PLUS, Stratum.MINUS):
                assert spectrum.projector_expectation(
                    n, a.t, a.nu_tilde, stratum
                ) == spectrum.projector_expectation(n, b.t, b.nu_tilde, stratum)

    def test_overlap_formula_matches_state_vectors(self):
        vertex = costratified.stratum_state(Stratum.PLUS, 0.125)
        for n in range(5):
            _, state = spectrum.eigenstate(n, 6.0, trunc=len(vertex))
            direct = abs(np.vdot(vertex, state)) ** 2
            assert abs(direct - spectrum.projector_expectation(n, 0.125, 6.0, Stratum.PLUS)) < 1e-12

    def test_one_normalization_per_call(self, monkeypatch):
        # 3 t x 5 nu_tilde: each t recurs at every nu_tilde and is
        # normalized once, in the order the sweep first reaches it; a
        # second call keeps nothing of the first
        calls = []
        original = costratified.norm_squared

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(costratified, "norm_squared", counting)
        t_values = (0.03125, 0.125, 0.5)
        spectrum.projector_expectations(t_values, np.geomspace(0.1, 100.0, 5), 6)
        assert calls == list(t_values)
        spectrum.projector_expectations((0.125,), (24.0, 6.0), 6)
        assert calls == [*t_values, 0.125]

    @pytest.mark.parametrize("nut", [0.1, 24.0, 100.0])
    @pytest.mark.parametrize("t", [0.03125, 0.125, 0.5])
    def test_batched_overlaps_equal_per_level_formula(self, t, nut):
        # reference: one 1-D sum per level and stratum, the formula the
        # batched overlaps must reproduce bit for bit
        plus, minus, _ = spectrum.projector_expectations((t,), (nut,), 60)
        q = 4.0 * nut
        coeffs = mathieu.solve_many(60, q, trunc=spectrum._state_trunc(59, q, t)).coeffs
        n_const = costratified.normalization_constant(t)
        for n, row in enumerate(coeffs):
            k = np.arange(len(row))
            weights = (k + 1.0) * np.exp(-t * (k + 1.0) ** 2 / 2.0)
            for signs, values in (((-1.0) ** k, plus[0, 0]), (np.ones(len(row)), minus[0, 0])):
                overlap = (-1.0) ** n / n_const * float(np.sum(signs * weights * row))
                assert values[n] == overlap * overlap

    @pytest.mark.parametrize("t", [0.03125, 0.125, 0.5])
    def test_single_level_reads_the_batch(self, t):
        # one value per quantity: level n of a one-level call is level n of
        # the batch, bit for bit, exponentially small P_minus included
        for nut in map(float, np.geomspace(0.1, 100.0, 7)):
            for n in range(6):
                plus, minus, _ = spectrum.projector_expectations((t,), (nut,), n + 1)
                for stratum, values in ((Stratum.PLUS, plus[0, 0]), (Stratum.MINUS, minus[0, 0])):
                    assert spectrum.projector_expectation(n, t, nut, stratum) == values[n]

    @pytest.mark.parametrize(
        "t_values, nut",
        [
            # the completeness ladders stop at 60, 120 and 240 levels
            ((0.125, 0.5, 2.0), 1e4),
            # t = 0.001 needs 291 vertex weights, more than the Mathieu levels
            ((0.001, 0.125), 1.0),
        ],
    )
    def test_batch_rows_equal_one_t_calls(self, t_values, nut):
        plus, minus, completeness = spectrum.projector_expectations(t_values, (nut,), 6)
        assert plus.shape == minus.shape == (len(t_values), 1, 6)
        assert completeness.shape == (len(t_values), 1)
        for i, t in enumerate(t_values):
            one_plus, one_minus, one_completeness = spectrum.projector_expectations((t,), (nut,), 6)
            assert np.array_equal(plus[i], one_plus[0])
            assert np.array_equal(minus[i], one_minus[0])
            assert completeness[i] == one_completeness[0]

    def test_grid_equals_one_point_calls(self):
        # at nu_tilde = 1, 3000 and 1e4 the t = 2 ladder stops at 60, 120
        # and 240 levels, and t = 0.001 needs more vertex weights than
        # Mathieu levels; every grid entry is its one-point call, bit for bit
        t_values, nu_tildes = (0.001, 0.125, 2.0), (1.0, 3000.0, 1e4)
        plus, minus, completeness = spectrum.projector_expectations(t_values, nu_tildes, 6)
        for i, t in enumerate(t_values):
            for j, nut in enumerate(nu_tildes):
                one_plus, one_minus, one_completeness = spectrum.projector_expectations(
                    (t,), (nut,), 6
                )
                assert np.array_equal(plus[i, j], one_plus[0, 0])
                assert np.array_equal(minus[i, j], one_minus[0, 0])
                assert completeness[i, j] == one_completeness[0, 0]

    def test_grid_axes_are_t_nu_tilde_level(self):
        # T = 2, V = 3 and count = 4 tell the three axes apart
        t_values, nu_tildes = (0.125, 0.5), (0.0, 6.0, 24.0)
        plus, minus, completeness = spectrum.projector_expectations(t_values, nu_tildes, 4)
        assert plus.shape == minus.shape == (2, 3, 4)
        assert completeness.shape == (2, 3)
        for i, t in enumerate(t_values):
            for j, nut in enumerate(nu_tildes):
                for n in range(4):
                    assert plus[i, j, n] == spectrum.projector_expectation(n, t, nut, Stratum.PLUS)
                    assert minus[i, j, n] == spectrum.projector_expectation(n, t, nut, Stratum.MINUS)

    def test_vertex_weights_can_set_the_truncation(self):
        q = 4.0
        assert spectrum._state_trunc(59, q, 0.001) == costratified.default_trunc(0.001) == 291
        assert spectrum._state_trunc(59, q, 0.125) == mathieu.default_trunc(59, q)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_below_one_raises(self, count):
        with pytest.raises(ValueError, match="count must be >= 1"):
            spectrum.projector_expectations((0.125, 0.5), (6.0,), count)

    @pytest.mark.parametrize("t", [0.0, -0.125, math.nan])
    def test_nonpositive_t_raises(self, t):
        with pytest.raises(ValueError, match="hbar_beta2 must be positive"):
            spectrum.projector_expectations((0.125, t), (6.0,), 6)

    @pytest.mark.parametrize("n", [-1, -2])
    def test_negative_level_raises(self, n):
        with pytest.raises(ValueError):
            spectrum.projector_expectation(n, 0.125, 6.0, Stratum.PLUS)

    def test_top_stratum_raises(self):
        with pytest.raises(ValueError, match="top stratum"):
            spectrum.projector_expectation(0, 0.125, 6.0, Stratum.TOP)

    def test_short_vertex_truncation_raises(self, monkeypatch):
        # the t = 0.001 vertex state needs 291 coefficients; with 20 asked
        # for, the truncation is the Mathieu levels' own, far short of that
        monkeypatch.setattr(costratified, "default_trunc", lambda t: 20)
        with pytest.raises(costratified.TruncationError, match="vertex-state weight tail"):
            spectrum.projector_expectations((0.001,), (1.0,), 6)

    @pytest.mark.parametrize("t, nut", [(0.5, 3000.0), (2.0, 3000.0), (2.0, 1e4)])
    def test_completeness_grows_at_strong_coupling(self, t, nut):
        # 60 levels sum to 0.99999014, 0.97146 and 0.64870 here
        plus, minus, completeness = spectrum.projector_expectations((t,), (nut,), 6)
        assert 1.0 - 1e-6 <= completeness[0, 0] <= 1.0 + 1e-12
        ref_plus, ref_minus = dense_projectors(t, nut, 6)
        assert np.max(np.abs(plus[0, 0] - ref_plus)) <= 1e-10
        assert np.max(np.abs(minus[0, 0] - ref_minus)) <= 1e-10

    def test_completeness_past_the_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectrum, "_COMPLETENESS_COUNTS", (60, 120))
        with pytest.raises(costratified.TruncationError, match="completeness"):
            spectrum.projector_expectations((2.0,), (1e4,), 6)

    @pytest.mark.parametrize(
        "t_values, error, message",
        [
            # t = 2 fails its ladder before the sweep reaches t = 800
            ((2.0, 800.0), costratified.TruncationError, "completeness"),
            # N^2 is not a normal double at t = 800, reached first here
            ((800.0, 2.0), FloatingPointError, "not a normal double"),
        ],
    )
    def test_errors_come_in_sweep_order(self, monkeypatch, t_values, error, message):
        monkeypatch.setattr(spectrum, "_COMPLETENESS_COUNTS", (60, 120))
        with pytest.raises(error, match=message):
            spectrum.projector_expectations(t_values, (1e4,), 6)

    @pytest.mark.parametrize(
        "nu_tilde_values, error, message",
        [
            # t = 2 fails its ladder at 1e4 before the sweep reaches 1e308
            ((1e4, 1e308), costratified.TruncationError, "completeness"),
            # past the domain edge, reached first here, before 4 * 1e308 overflows
            ((1e308, 1e4), mathieu.ConvergenceError, "past the domain edge"),
        ],
    )
    def test_domain_edge_comes_in_sweep_order(self, monkeypatch, nu_tilde_values, error, message):
        monkeypatch.setattr(spectrum, "_COMPLETENESS_COUNTS", (60, 120))
        with pytest.raises(error, match=message):
            spectrum.projector_expectations((2.0,), nu_tilde_values, 6)


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
        b, coeffs = mathieu.solve(0, 24.0)
        assert mathieu.recurrence_residual(b, 24.0, coeffs) < 1e-10
