"""Budget conversions, composition, noise calibration, and an MC audit."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpckpt.privacy import (
    PrivacyBudget,
    calibrate_practical,
    calibrate_theoretical,
    compose_zcdp,
    epsilon_to_zcdp,
    gaussian_hockey_stick_mc,
    zcdp_to_epsilon,
)

# rho + 2 sqrt(rho ln(1/delta)) evaluated independently with mpmath at
# 50 digits, rounded to float64
EPS_HALF_1E5 = 5.298525912188081


def test_epsilon_closed_form_pinned_value():
    assert zcdp_to_epsilon(0.5, 1e-5) == pytest.approx(EPS_HALF_1E5, abs=1e-12)


def test_epsilon_closed_form_small_cases():
    # rho=1, delta=1/e: eps = 1 + 2 sqrt(1*1) = 3
    assert zcdp_to_epsilon(1.0, math.exp(-1.0)) == pytest.approx(3.0, abs=1e-12)
    assert zcdp_to_epsilon(math.inf, 1e-5) == math.inf
    with pytest.raises(ValueError):
        zcdp_to_epsilon(0.0, 0.5)


def test_epsilon_monotone_in_rho():
    values = [zcdp_to_epsilon(r, 1e-5) for r in (0.01, 0.1, 0.5, 1.0, 4.0)]
    assert values == sorted(values)
    assert values[0] > 0


def test_inverse_round_trip_examples():
    for eps in (0.1, 1.0, 5.0, 8.0):
        for delta in (1e-7, 1e-5, 1e-2):
            rho = epsilon_to_zcdp(eps, delta)
            assert zcdp_to_epsilon(rho, delta) == pytest.approx(eps, rel=1e-12)


@given(
    eps=st.floats(min_value=1e-3, max_value=50.0),
    log_delta=st.floats(min_value=-20.0, max_value=-1.0),
)
def test_inverse_round_trip_property(eps, log_delta):
    delta = math.exp(log_delta)
    rho = epsilon_to_zcdp(eps, delta)
    assert rho > 0
    assert zcdp_to_epsilon(rho, delta) == pytest.approx(eps, rel=1e-9)


def test_validation_errors():
    with pytest.raises(ValueError):
        zcdp_to_epsilon(-0.1, 1e-5)
    with pytest.raises(ValueError):
        zcdp_to_epsilon(0.5, 0.0)
    with pytest.raises(ValueError):
        zcdp_to_epsilon(0.5, 1.0)
    with pytest.raises(ValueError):
        epsilon_to_zcdp(0.0, 1e-5)
    with pytest.raises(ValueError):
        epsilon_to_zcdp(1.0, 2.0)


def test_compose_is_exact_addition():
    assert compose_zcdp([]) == 0.0
    assert compose_zcdp([0.125, 0.25]) == 0.375
    assert compose_zcdp([0.1] * 10) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        compose_zcdp([0.1, -0.1])


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=20))
def test_compose_permutation_invariant(parts):
    assert compose_zcdp(parts) == compose_zcdp(sorted(parts, reverse=True))


def test_budget_from_rho():
    budget = PrivacyBudget.from_rho(0.5, 1e-5)
    assert budget.rho == 0.5
    assert budget.delta == 1e-5
    assert budget.epsilon == pytest.approx(EPS_HALF_1E5, abs=1e-12)


def test_calibrate_theoretical_pinned():
    # L=1, T=100, n=1000, rho=0.5: variance L^2 T / (2 n rho) = 0.1
    scale = calibrate_theoretical(lipschitz=1.0, num_steps=100, n=1000, rho=0.5)
    assert scale.variance_per_step == pytest.approx(0.1, abs=1e-15)
    assert scale.std == pytest.approx(math.sqrt(0.1), abs=1e-15)


def test_calibrate_theoretical_scalings():
    base = calibrate_theoretical(1.0, 100, 1000, 0.5).variance_per_step
    assert calibrate_theoretical(2.0, 100, 1000, 0.5).variance_per_step == pytest.approx(4 * base)
    assert calibrate_theoretical(1.0, 200, 1000, 0.5).variance_per_step == pytest.approx(2 * base)
    assert calibrate_theoretical(1.0, 100, 2000, 0.5).variance_per_step == pytest.approx(base / 2)
    assert calibrate_theoretical(1.0, 100, 1000, 1.0).variance_per_step == pytest.approx(base / 2)
    # infinite budget degrades to zero noise
    assert calibrate_theoretical(1.0, 100, 1000, math.inf).variance_per_step == 0.0
    with pytest.raises(ValueError, match="overflows"):
        calibrate_theoretical(1e200, 100, 1000, 0.5)


def test_calibrate_practical_pinned():
    scale, rho_step = calibrate_practical(clip_norm=1.0, noise_multiplier=1.0)
    assert scale.variance_per_step == 1.0
    assert rho_step == 0.5
    scale2, rho2 = calibrate_practical(clip_norm=0.5, noise_multiplier=2.0)
    assert scale2.std == pytest.approx(1.0)
    assert rho2 == pytest.approx(0.125)
    with pytest.raises(ValueError):
        calibrate_practical(0.0, 1.0)
    with pytest.raises(ValueError):
        calibrate_practical(1.0, -1.0)
    # an infinite multiplier would charge rho_step = 0 for a noiseless step
    with pytest.raises(ValueError, match="finite"):
        calibrate_practical(1.0, math.inf)
    # finite multipliers whose square overflows or underflows a float
    for z in (1e200, 1e-200):
        with pytest.raises(ValueError, match="out of float range"):
            calibrate_practical(1.0, z)


@pytest.mark.parametrize("rho,delta", [(0.5, 1e-5), (0.125, 1e-2), (2.0, 1e-3)])
def test_hockey_stick_audit_respects_delta(rho, delta):
    """The MC hockey-stick divergence at the converted epsilon stays under delta.

    A unit-sensitivity Gaussian sum with noise sigma satisfies
    rho = 1/(2 sigma^2), so the closed-form epsilon must upper bound the
    actual (epsilon, delta) curve of the mechanism.
    """
    sigma = math.sqrt(1.0 / (2.0 * rho))
    eps = zcdp_to_epsilon(rho, delta)
    est, se = gaussian_hockey_stick_mc(sigma, eps, n_samples=2_000_000, seed=17)
    assert est <= delta + 3.0 * se


def test_hockey_stick_detects_underreported_epsilon():
    # sanity check the auditor has power: a much smaller epsilon claim fails
    sigma = 1.0
    eps_true = zcdp_to_epsilon(0.5, 1e-5)
    est, se = gaussian_hockey_stick_mc(sigma, eps_true / 4.0, n_samples=500_000, seed=3)
    assert est > 1e-5 + 3.0 * se
