import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from plaquette_qgauge.characters import (
    char_complex,
    char_l2,
    char_real,
    haar_density,
    l2_inner_product,
    laplace_eigenvalue,
    peter_weyl_constant,
)
from plaquette_qgauge.params import ModelParams


class TestCharReal:
    def test_trivial_character_is_one(self):
        assert char_real(0, 1.234) == 1.0

    def test_n1_at_pi_third(self):
        assert math.isclose(char_real(1, math.pi / 3), 1.0, rel_tol=1e-14)

    def test_limit_at_zero(self):
        # series oracle: sin(4x)/sin(x) -> 4 as x -> 0
        assert math.isclose(char_real(3, 1e-9), 4.0, rel_tol=1e-12)

    def test_removable_singularities(self):
        eps = 1e-6
        for n in range(21):
            assert abs(char_real(n, eps) - (n + 1)) < 1e-8
            assert abs(char_real(n, math.pi - eps) - (-1.0) ** n * (n + 1)) < 1e-8
            assert char_real(n, 0.0) == n + 1
            assert char_real(n, math.pi) == (-1.0) ** n * (n + 1)

    def test_array_input(self):
        x = np.array([0.0, 0.5, math.pi])
        values = char_real(2, x)
        assert values.shape == (3,)
        assert values[0] == 3.0 and values[2] == 3.0

    @given(
        st.integers(min_value=0, max_value=15),
        st.floats(min_value=0.05, max_value=math.pi - 0.05),
    )
    def test_reflection_parity(self, n, x):
        assert math.isclose(
            char_real(n, math.pi - x), (-1.0) ** n * char_real(n, x), rel_tol=1e-10, abs_tol=1e-10
        )


class TestCharL2:
    def test_values(self):
        assert math.isclose(char_l2(0, math.pi / 2), math.sqrt(2.0), rel_tol=1e-15)
        assert abs(char_l2(1, math.pi / 2)) < 1e-15

    def test_orthonormality_256_nodes(self):
        for m in range(4):
            for n in range(4):
                value = l2_inner_product(
                    lambda x, m=m: char_l2(m, x), lambda x, n=n: char_l2(n, x), num_nodes=256
                )
                assert abs(value - (1.0 if m == n else 0.0)) < 1e-12

    def test_gram_identity(self):
        nodes, weights = np.polynomial.legendre.leggauss(512)
        x = 0.5 * math.pi * (nodes + 1.0)
        w = 0.5 * math.pi * weights / math.pi
        basis = np.column_stack([char_l2(n, x) for n in range(12)])
        gram = (basis * w[:, None]).T @ basis
        assert np.max(np.abs(gram - np.eye(12))) < 1e-10

    def test_realization_compatibility(self):
        x = np.linspace(0.05, math.pi - 0.05, 50)
        for n in range(21):
            lhs = char_real(n, x) * math.sqrt(2.0) * np.sin(x)
            assert np.max(np.abs(lhs - char_l2(n, x))) < 1e-12

    def test_product_rule(self):
        # 2 cos(x) chi_n = chi_{n+1} + chi_{n-1}, with chi_{-1} = 0
        x = np.linspace(0.0, math.pi, 40)
        for n in range(1, 12):
            lhs = 2.0 * np.cos(x) * char_l2(n, x)
            rhs = char_l2(n + 1, x) + char_l2(n - 1, x)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
        assert np.max(np.abs(2.0 * np.cos(x) * char_l2(0, x) - char_l2(1, x))) < 1e-12


class TestCharComplex:
    def test_dimension_at_identity(self):
        assert char_complex(2, 1.0) == 3.0

    def test_n1_at_i(self):
        assert abs(char_complex(1, 1j)) < 1e-15

    def test_direct_summation(self):
        # 16 + 4 + 1 + 1/4 + 1/16
        assert math.isclose(char_complex(4, 2.0).real, 21.3125, rel_tol=1e-15)

    def test_zero_argument_raises(self):
        with pytest.raises(ZeroDivisionError):
            char_complex(3, 0.0)

    def test_unit_circle_restriction(self):
        rng = np.random.default_rng(7)
        for n in range(21):
            for x in rng.uniform(0.05, math.pi - 0.05, 5):
                value = char_complex(n, complex(math.cos(x), math.sin(x)))
                assert abs(value.imag) < 1e-12
                assert abs(value.real - char_real(n, x)) < 1e-12


class TestConstants:
    def test_laplace_eigenvalues(self):
        assert laplace_eigenvalue(0) == 0.0
        assert laplace_eigenvalue(2) == 8.0
        assert laplace_eigenvalue(3) == 15.0
        values = laplace_eigenvalue(np.arange(4))
        assert values.dtype == np.float64
        assert np.array_equal(values, [0.0, 3.0, 8.0, 15.0])

    def test_peter_weyl_values(self):
        one = ModelParams(hbar=1.0, beta2=1.0, coupling_g=1.0)
        assert math.isclose(peter_weyl_constant(0, one), math.pi**1.5 * math.e, rel_tol=1e-14)
        # the zero-exponent anchor, reached as the beta2 -> 0 limit
        tiny = ModelParams(hbar=1.0, beta2=1e-15, coupling_g=1.0)
        assert math.isclose(peter_weyl_constant(1, tiny), math.pi**1.5, rel_tol=1e-12)
        half = ModelParams(hbar=0.5, beta2=0.5, coupling_g=1.0)
        expected = (0.5 * math.pi) ** 1.5 * math.exp(9.0 / 4.0)
        assert math.isclose(peter_weyl_constant(2, half), expected, rel_tol=1e-14)

    def test_peter_weyl_overflow(self):
        one = ModelParams(hbar=1.0, beta2=1.0, coupling_g=1.0)
        with pytest.raises(OverflowError):
            peter_weyl_constant(40, one)

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            laplace_eigenvalue(-1)
        with pytest.raises(ValueError):
            laplace_eigenvalue(np.array([0, 2, -1]))

    @pytest.mark.parametrize(
        "realize",
        [
            lambda n: char_real(n, 0.5),
            lambda n: char_l2(n, 0.5),
            lambda n: char_complex(n, 1j),
            lambda n: peter_weyl_constant(n, ModelParams(hbar=1.0, beta2=1.0, coupling_g=1.0)),
        ],
        ids=["char_real", "char_l2", "char_complex", "peter_weyl_constant"],
    )
    def test_negative_basis_index_rejected(self, realize):
        assert realize(0) is not None
        with pytest.raises(ValueError, match="basis index must be >= 0, got -1"):
            realize(-1)


class TestHaarDensity:
    def test_pointwise(self):
        assert haar_density(0.0) == 0.0
        assert math.isclose(haar_density(math.pi / 2), 1.0 / math.pi, rel_tol=1e-15)

    def test_total_mass(self):
        total = l2_inner_product(lambda x: haar_density(x), lambda x: np.full_like(x, math.pi))
        assert math.isclose(total, 0.5, rel_tol=1e-12)


class TestModelParams:
    def test_derived_combinations(self):
        params = ModelParams(hbar=0.5, beta2=0.25, coupling_g=2.0)
        assert params.nu == 0.25
        assert params.t == 0.125
        assert math.isclose(params.nu_tilde, 0.25 / (0.25 * 0.25), rel_tol=1e-15)

    def test_free_theory_uses_infinite_coupling(self):
        params = ModelParams(hbar=0.125, beta2=1.0, coupling_g=math.inf)
        assert params.coupling_g == math.inf
        assert params.nu == 0.0 and params.nu_tilde == 0.0

    @pytest.mark.parametrize("hbar, beta2", [(1e-200, 1e200), (1e200, 1e-200)])
    def test_free_theory_needs_only_t_in_range(self, hbar, beta2):
        # hbar^2 * beta2 under- or overflows, but nu_tilde = 0 does not read it
        params = ModelParams(hbar=hbar, beta2=beta2, coupling_g=math.inf)
        assert params.t == 1.0 and params.nu_tilde == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hbar": 0.0, "beta2": 1.0, "coupling_g": 1.0},
            {"hbar": 1.0, "beta2": -1.0, "coupling_g": 1.0},
            {"hbar": 1.0, "beta2": 1.0, "coupling_g": 0.0},
            # derived combinations that underflow to 0 or overflow
            {"hbar": 1e-200, "beta2": 1e-200, "coupling_g": math.inf},
            {"hbar": 1e200, "beta2": 1e200, "coupling_g": math.inf},
            {"hbar": 1e-200, "beta2": 1.0, "coupling_g": 1.0},
            {"hbar": 1.0, "beta2": 1.0, "coupling_g": 1e-170},
            {"hbar": 1.0, "beta2": 1.0, "coupling_g": 1e200},
            {"hbar": 1e-100, "beta2": 1e-120, "coupling_g": 1.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)
