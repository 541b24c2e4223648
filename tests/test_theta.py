import math

import pytest
from hypothesis import given, strategies as st

from plaquette_qgauge.theta import theta3, theta3_prime


def test_theta3_at_zero_is_one():
    assert theta3(0.0) == 1.0


def test_theta3_small_nome_matches_partial_sum():
    # partial sum oracle: terms beyond k=4 are below 1e-32
    expected = 1.0 + 2 * 0.1 + 2 * 0.1**4 + 2 * 0.1**9 + 2 * 0.1**16
    assert math.isclose(theta3(0.1), expected, rel_tol=1e-15)
    expected_neg = 1.0 - 2 * 0.1 + 2 * 0.1**4 - 2 * 0.1**9 + 2 * 0.1**16
    assert math.isclose(theta3(-0.1), expected_neg, rel_tol=1e-15)


def test_theta3_prime_at_zero():
    # only the k=1 term survives
    assert theta3_prime(0.0) == 2.0


def test_theta3_prime_matches_partial_sum():
    expected = sum(2.0 * k * k * 0.5 ** (k * k - 1) for k in range(1, 30))
    assert math.isclose(theta3_prime(0.5), expected, rel_tol=1e-15)


def left_to_right_prime(Q: float, extra: int = 5) -> float:
    """2 k^2 Q^(k^2 - 1) summed in order of k from 1 to ``extra`` terms past the series' stop."""
    total, k, stop = 0.0, 1, None
    while stop is None or k <= stop + extra:
        term = 2.0 * k * k * Q ** (k * k - 1)
        total += term
        if stop is None and k >= 4 and abs(term) < 1e-18 * abs(total):
            stop = k
        k += 1
    return total


@pytest.mark.parametrize(
    "Q", [0.0] + [sign * math.exp(-t) for t in (0.25, 1.0, 2.0, 5.0) for sign in (1.0, -1.0)]
)
def test_theta3_prime_is_the_left_to_right_sum_bit_for_bit(Q):
    assert theta3_prime(Q) == left_to_right_prime(Q)


@given(st.floats(min_value=-math.exp(-0.25), max_value=math.exp(-0.25)))
def test_theta3_prime_summation_order_over_the_direct_domain(Q):
    assert theta3_prime(Q) == left_to_right_prime(Q)


@pytest.mark.parametrize("series", [theta3, theta3_prime])
def test_series_refuses_past_its_term_cap(series):
    # at Q = 1 - 2**-40 even the last allowed term, k^2 ~ 1e10, is Q^(k^2) ~ 0.99
    with pytest.raises(FloatingPointError, match="did not converge"):
        series(1.0 - 2.0**-40)


@pytest.mark.parametrize("Q", [0.1, -0.1, 0.5, -0.5, 0.9])
def test_derivative_consistency_by_finite_differences(Q):
    h = 1e-6
    fd = (theta3(Q + h) - theta3(Q - h)) / (2.0 * h)
    assert math.isclose(fd, theta3_prime(Q), rel_tol=1e-7)


def test_derivative_finite_difference_at_0p3_tight():
    h = 1e-6
    fd = (theta3(0.3 + h) - theta3(0.3 - h)) / (2.0 * h)
    assert math.isclose(fd, theta3_prime(0.3), rel_tol=1e-8)


def test_prime_positive_on_unit_interval():
    for Q in [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]:
        assert theta3_prime(Q) > 0.0


def test_near_one_nome_converges():
    value = theta3_prime(math.exp(-0.01))
    assert math.isfinite(value) and value > 0.0


@pytest.mark.parametrize("Q", [1.0, -1.0, 1.5, -2.0])
@pytest.mark.parametrize("func", [theta3, theta3_prime])
def test_domain_error_outside_unit_disc(func, Q):
    with pytest.raises(ValueError):
        func(Q)


@given(st.floats(min_value=-0.95, max_value=0.95))
def test_even_odd_split_identity(Q):
    # splitting the sum over even and odd k gives theta3(Q) + theta3(-Q) = 2 theta3(Q^4)
    lhs = theta3(Q) + theta3(-Q)
    rhs = 2.0 * theta3(Q**4)
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)
