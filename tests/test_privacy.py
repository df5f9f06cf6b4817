"""Budget conversions, composition, noise calibration, and the exact
hockey-stick divergence against mpmath and a Monte-Carlo audit."""

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
    gaussian_hockey_stick,
    zcdp_to_epsilon,
)

from monte_carlo import gaussian_hockey_stick_mc

# rho + 2 sqrt(rho ln(1/delta)) evaluated independently with mpmath at
# 50 digits, rounded to float64
EPS_HALF_1E5 = 5.298525912188081
# (sigma, epsilon) -> ncdf(1/(2 sigma) - epsilon sigma)
# - exp(epsilon) ncdf(-1/(2 sigma) - epsilon sigma), evaluated with mpmath
# at 50 digits on the float64 inputs and rounded to float64
HOCKEY_STICK_MPMATH = {
    (1.0, EPS_HALF_1E5): 1.3004495688801192e-07,
    (math.sqrt(2.0), 8.0): 1.77362462438025e-29,
    (0.5, 1.0): 0.5098616600546702,
    (2.0, 1.0): 0.0068295949831145755,
    (1.0, 3.0): 0.0015371853694009549,
    # below b = -37, where the Mills-ratio series replaces Phi(b)
    (0.01, 5000.0): 0.49601097601864236,
}


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
    std = calibrate_theoretical(lipschitz=1.0, num_steps=100, n=1000, rho=0.5)
    assert std == pytest.approx(math.sqrt(0.1), abs=1e-15)
    assert std**2 == pytest.approx(0.1, abs=1e-15)


def test_calibrate_theoretical_scalings():
    base = calibrate_theoretical(1.0, 100, 1000, 0.5)
    assert calibrate_theoretical(2.0, 100, 1000, 0.5) == pytest.approx(2 * base)
    assert calibrate_theoretical(1.0, 200, 1000, 0.5) == pytest.approx(math.sqrt(2) * base)
    assert calibrate_theoretical(1.0, 100, 2000, 0.5) == pytest.approx(base / math.sqrt(2))
    assert calibrate_theoretical(1.0, 100, 1000, 1.0) == pytest.approx(base / math.sqrt(2))
    # infinite budget degrades to zero noise
    assert calibrate_theoretical(1.0, 100, 1000, math.inf) == 0.0
    with pytest.raises(ValueError, match="overflows"):
        calibrate_theoretical(1e200, 100, 1000, 0.5)


def test_calibrate_practical_pinned():
    # one step of batch 1 is the summed-gradient noise and rho_step itself
    std, rho_step = calibrate_practical(clip_norm=1.0, noise_multiplier=1.0, num_steps=1,
                                        batch_size=1)
    assert std == 1.0
    assert rho_step == 0.5
    std2, rho2 = calibrate_practical(clip_norm=0.5, noise_multiplier=2.0, num_steps=1,
                                     batch_size=1)
    assert std2 == pytest.approx(1.0)
    assert rho2 == pytest.approx(0.125)
    # the std is on the mean over the batch; rho composes over the steps
    std3, rho3 = calibrate_practical(0.5, 2.0, num_steps=10, batch_size=4)
    assert std3 == std2 / 4
    assert rho3 == 10 * rho2
    with pytest.raises(ValueError, match="clip_norm"):
        calibrate_practical(0.0, 1.0, 1, 1)
    for z in (-1.0, math.nan):
        with pytest.raises(ValueError, match="must be nonnegative"):
            calibrate_practical(1.0, z, 1, 1)
    # an infinite multiplier would charge rho_step = 0 for a noiseless step
    with pytest.raises(ValueError, match="noise_multiplier must be positive and finite"):
        calibrate_practical(1.0, math.inf, 1, 1)
    # finite multipliers whose square overflows or underflows a float
    for z in (1e200, 1e-200):
        with pytest.raises(ValueError, match="out of float range"):
            calibrate_practical(1.0, z, 1, 1)


@pytest.mark.parametrize("point", sorted(HOCKEY_STICK_MPMATH))
def test_hockey_stick_matches_mpmath(point):
    sigma, epsilon = point
    want = HOCKEY_STICK_MPMATH[point]
    assert gaussian_hockey_stick(sigma, epsilon) == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("sigma,epsilon", [(0.5, 1.0), (1.0, 0.5), (2.0, 1.0), (1.0, 3.0)])
def test_hockey_stick_matches_monte_carlo(sigma, epsilon):
    """Where 2e6 draws resolve delta, the sampled divergence sits within 4 SE."""
    est, se = gaussian_hockey_stick_mc(sigma, epsilon, n_samples=2_000_000, seed=17)
    assert abs(est - gaussian_hockey_stick(sigma, epsilon)) <= 4.0 * se


@pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 4.0])
def test_hockey_stick_at_zero_epsilon_is_total_variation(sigma):
    # TV(N(0, s^2), N(1, s^2)) = 2 Phi(1/(2 s)) - 1 = erf(1/(2 sqrt(2) s))
    tv = math.erf(0.5 / (sigma * math.sqrt(2.0)))
    assert gaussian_hockey_stick(sigma, 0.0) == pytest.approx(tv, rel=1e-14)


def test_hockey_stick_is_finite_at_huge_epsilon():
    assert gaussian_hockey_stick(1.0, 1000.0) == 0.0
    for sigma in (1e-3, 0.05, 1.0, 30.0):
        for epsilon in (0.0, 1.0, 700.0, 1000.0, 1e6):
            assert 0.0 <= gaussian_hockey_stick(sigma, epsilon) <= 1.0
    for sigma, epsilon in ((0.0, 1.0), (math.inf, 1.0), (1.0, -0.5), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            gaussian_hockey_stick(sigma, epsilon)


@pytest.mark.parametrize("rho,delta", [(0.5, 1e-5), (0.125, 1e-2), (2.0, 1e-3)])
def test_hockey_stick_audit_respects_delta(rho, delta):
    """The hockey-stick divergence at the converted epsilon stays under delta.

    A unit-sensitivity Gaussian sum with noise sigma satisfies
    rho = 1/(2 sigma^2), so the closed-form epsilon must upper bound the
    actual (epsilon, delta) curve of the mechanism: exactly, and as sampled.
    """
    sigma = math.sqrt(1.0 / (2.0 * rho))
    eps = zcdp_to_epsilon(rho, delta)
    assert gaussian_hockey_stick(sigma, eps) <= delta
    est, se = gaussian_hockey_stick_mc(sigma, eps, n_samples=2_000_000, seed=17)
    assert est <= delta + 3.0 * se


def test_hockey_stick_detects_underreported_epsilon():
    # the exact curve falls with epsilon, and a much smaller epsilon claim fails
    sigma = 1.0
    eps_true = zcdp_to_epsilon(0.5, 1e-5)
    curve = [gaussian_hockey_stick(sigma, eps_true * f) for f in (0.25, 0.5, 0.75, 1.0)]
    assert curve == sorted(curve, reverse=True)
    assert curve[0] > 1e-5
