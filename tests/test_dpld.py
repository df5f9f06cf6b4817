"""Langevin simulation: transition kernels, exact stationary variances, and
analytic bounds.

scipy appears here only as a reference implementation of the chi law; the
package computes its variances from the standard library alone.
"""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from dpckpt import dpld
from dpckpt.dpld import (
    CheckpointTimes,
    LDConfig,
    burn_in_gamma,
    make_clamped_coordinate,
    make_clamped_norm_excess,
    make_sign_coordinate,
    ou_exact_sample,
    stationary_law,
    variance_bias_experiment,
)
from dpckpt.model import LogisticLoss, QuadraticLoss, synth_classification
from dpckpt.rng import STREAM_ORACLE, STREAM_TRIAL, step_generator

from monte_carlo import subgaussian_tail_mc
from references import (
    expectation_gap_bound,
    gaussian_row,
    renyi_gaussians_shared_cov,
    subgaussian_tail,
)

# Var[clip(Z, -1, 1)] for Z ~ N(0,1): (2 Phi(1) - 1 - 2 phi(1)) + 2 (1 - Phi(1)),
# evaluated with scipy.stats.norm and frozen
CLAMPED_COORD_VAR = 0.5160585509617133
# burn_in_gamma(1, 1, 0, e^-1, 1) = 1/2 + ln(2) + 1
BURN_IN_EXAMPLE = 0.5 + math.log(2.0) + 1.0


# ---------------------------------------------------------------------------
# statistics


def test_clamped_coordinate_statistic():
    stat = make_clamped_coordinate(np.array([2.0, 0.0]), coord=0)
    assert stat.evaluate_batch(np.array([2.3, 9.9])[None])[0] == pytest.approx(0.3)
    assert stat.evaluate_batch(np.array([5.0, 0.0])[None])[0] == 1.0  # clipped high
    assert stat.evaluate_batch(np.array([-5.0, 0.0])[None])[0] == -1.0  # clipped low
    batch = np.array([[2.1, 0.0], [1.5, 3.0]])
    assert np.allclose(stat.evaluate_batch(batch), [0.1, -0.5])


def test_sign_coordinate_statistic():
    stat = make_sign_coordinate(np.array([1.0, -1.0]), coord=1)
    assert stat.evaluate_batch(np.array([0.0, 4.0])[None])[0] == 1.0
    assert stat.evaluate_batch(np.array([0.0, -4.0])[None])[0] == -1.0


def test_clamped_norm_excess_statistic():
    center = np.zeros(4)
    stat = make_clamped_norm_excess(center)
    # ||theta|| = sqrt(4) + 0.5 gives excess 0.5
    theta = np.zeros(4)
    theta[0] = 2.5
    assert stat.evaluate_batch(theta[None])[0] == pytest.approx(0.5)
    assert stat.evaluate_batch(np.zeros(4)[None])[0] == -1.0  # excess -2 clips to -1


def test_statistics_are_bounded():
    gen = np.random.default_rng(0)
    batch = gen.normal(0, 10, size=(100, 3))
    for stat in (
        make_clamped_coordinate(np.zeros(3)),
        make_sign_coordinate(np.zeros(3)),
        make_clamped_norm_excess(np.zeros(3)),
    ):
        values = stat.evaluate_batch(batch)
        assert np.all(values >= -1.0) and np.all(values <= 1.0)


# ---------------------------------------------------------------------------
# exact OU transitions


def test_ou_zero_elapsed_is_identity():
    theta = np.array([2.0, -1.0])
    gen = step_generator(0, STREAM_ORACLE, 0)
    out = ou_exact_sample(np.zeros(2), 1.0, theta, 0.0, gen.standard_normal(2))
    assert np.array_equal(out, theta)
    with pytest.raises(ValueError):
        ou_exact_sample(np.zeros(2), 1.0, theta, -0.5, gen.standard_normal(2))


def test_ou_conditional_moments():
    """Mean and variance follow the closed-form transition kernel.

    Coordinates evolve independently, so one high-dimensional draw gives
    many scalar samples at once.
    """
    dim = 200_000
    sigma, s = 0.8, 0.7
    theta_star = np.ones(dim)
    start = np.full(dim, 3.0)
    gen = step_generator(11, STREAM_ORACLE, 2)
    draws = ou_exact_sample(theta_star, sigma, start, s, gen.standard_normal(dim))
    expected_mean = 1.0 + math.exp(-s) * 2.0
    expected_var = sigma**2 * (1.0 - math.exp(-2.0 * s))
    assert draws.mean() == pytest.approx(expected_mean, abs=4 * sigma / math.sqrt(dim))
    assert draws.var() == pytest.approx(expected_var, rel=0.02)


def test_ou_large_elapsed_reaches_stationarity():
    dim = 100_000
    theta_star = np.full(dim, 2.0)
    sigma = 1.3
    gen = step_generator(5, STREAM_ORACLE, 9)
    draws = ou_exact_sample(theta_star, sigma, np.full(dim, 50.0), 40.0, gen.standard_normal(dim))
    # the faraway start is forgotten entirely
    assert draws.mean() == pytest.approx(2.0, abs=0.02)
    assert draws.var() == pytest.approx(sigma**2, rel=0.03)


def test_ou_markov_chaining():
    """Two short transitions compose to one long transition in distribution."""
    dim = 150_000
    theta_star = np.zeros(dim)
    sigma, s1, s2 = 1.0, 0.3, 0.5
    start = np.full(dim, 2.0)
    gen = step_generator(13, STREAM_ORACLE, 1)
    mid = ou_exact_sample(theta_star, sigma, start, s1, gen.standard_normal(dim))
    chained = ou_exact_sample(theta_star, sigma, mid, s2, gen.standard_normal(dim))
    expected_mean = 2.0 * math.exp(-(s1 + s2))
    expected_var = 1.0 - math.exp(-2.0 * (s1 + s2))
    assert chained.mean() == pytest.approx(expected_mean, abs=4 / math.sqrt(dim))
    assert chained.var() == pytest.approx(expected_var, rel=0.02)


# ---------------------------------------------------------------------------
# variance estimation


def test_checkpoint_times():
    times = CheckpointTimes(t1=2.0, gap=0.5, k=4)
    # the checkpoint times are the running sums of the waiting times
    assert np.cumsum(times.elapsed_segments()).tolist() == [2.0, 2.5, 3.0, 3.5]
    assert times.elapsed_segments() == [2.0, 0.5, 0.5, 0.5]
    with pytest.raises(ValueError):
        CheckpointTimes(t1=0.0, gap=1.0, k=3)
    with pytest.raises(ValueError):
        CheckpointTimes(t1=1.0, gap=0.0, k=3)
    with pytest.raises(ValueError):
        CheckpointTimes(t1=1.0, gap=1.0, k=1)


def test_variance_bias_experiment_well_mixed_quadratic():
    """With long burn-in and wide gaps, E[S] matches the stationary variance."""
    config = LDConfig(
        model=QuadraticLoss(center=np.zeros(4)),
        theta_start=np.full(4, 3.0),
        sigma=1.0,
    )
    times = CheckpointTimes(t1=20.0, gap=20.0, k=5)
    report = variance_bias_experiment(
        config, times, "clamped_coord", trials=3000, experiment_seed=1
    )
    assert report.trials == 3000
    assert report.statistic == "clamped_coord0"
    assert report.abs_bias <= 3 * report.se_mean_s
    assert report.oracle_v == pytest.approx(CLAMPED_COORD_VAR, abs=1e-15)
    assert math.isfinite(report.burn_in_bound)


@pytest.mark.parametrize("start", [0.0, 3.0, -7.5])
def test_report_burn_in_bound_uses_the_fixed_constants(start):
    """The reported bound is burn_in_gamma at c = 4, delta = 1e-2 from the start distance."""
    assert (dpld.BURN_IN_C, dpld.BURN_IN_DELTA) == (4.0, 1e-2)
    config = LDConfig(
        model=QuadraticLoss(center=np.zeros(3)), theta_start=np.full(3, start), sigma=1.0
    )
    times = CheckpointTimes(t1=1.0, gap=1.0, k=2)
    report = variance_bias_experiment(config, times, "clamped_coord", trials=100, experiment_seed=2)
    center, _ = stationary_law(config)
    dist0sq = float(np.sum((config.theta_start - center) ** 2))
    assert report.burn_in_bound == burn_in_gamma(1.0, 3, dist0sq, 1e-2, 4.0)


def test_variance_bias_experiment_detects_correlation_bias():
    """Checkpoints taken immediately and close together underestimate V."""
    config = LDConfig(
        model=QuadraticLoss(center=np.zeros(4)),
        theta_start=np.full(4, 3.0),
        sigma=1.0,
    )
    times = CheckpointTimes(t1=0.01, gap=0.01, k=5)
    report = variance_bias_experiment(
        config, times, "clamped_coord", trials=2000, experiment_seed=2
    )
    # nearly coincident checkpoints share their noise, so S collapses
    assert report.mean_s < 0.2 * report.oracle_v


def test_variance_bias_experiment_deterministic():
    config = LDConfig(
        model=QuadraticLoss(center=np.zeros(2)),
        theta_start=np.ones(2),
        sigma=1.0,
    )
    times = CheckpointTimes(t1=1.0, gap=1.0, k=3)
    kwargs = dict(trials=500, experiment_seed=9)
    a = variance_bias_experiment(config, times, "clamped_coord", **kwargs)
    b = variance_bias_experiment(config, times, "clamped_coord", **kwargs)
    assert (a.mean_s, a.se_mean_s, a.oracle_v) == (b.mean_s, b.se_mean_s, b.oracle_v)
    with pytest.raises(ValueError):
        variance_bias_experiment(config, times, "clamped_coord", **{**kwargs, "trials": 50})


def _per_trial_reference(config, times, statistic, trials, seed):
    """(mean_s, se_mean_s) from one trajectory at a time: a per-row
    gaussian_row draw per segment (lane i, row j), then the OU chain, then
    np.var per trial."""
    model = config.model
    m = model.strong_convexity
    center = model.center
    sigma_eff = config.sigma / math.sqrt(m)
    s_values = np.empty(trials)
    for j in range(trials):
        theta = config.theta_start
        vals = np.empty(times.k)
        for i, seg in enumerate(times.elapsed_segments()):
            normals = gaussian_row(seed, STREAM_TRIAL, i, j, center.size)
            theta = ou_exact_sample(center, sigma_eff, theta, m * seg, normals)
            vals[i] = statistic.evaluate_batch(theta[None])[0]
        s_values[j] = np.var(vals, ddof=1)
    return float(s_values.mean()), float(s_values.std(ddof=1) / math.sqrt(trials))


@pytest.mark.parametrize(
    "seed, trials, k, p",
    [(0, 101, 2, 1), (7, 123, 5, 3), (2**64 - 1, 101, 5, 4), (2**64 - 1, 111, 2, 3)],
)
def test_variance_bias_experiment_matches_per_trial_reference_ou(seed, trials, k, p):
    config = LDConfig(
        model=QuadraticLoss(center=np.full(p, 0.5), curvature=1.5),
        theta_start=np.full(p, 2.0),
        sigma=0.8,
    )
    times = CheckpointTimes(t1=0.4, gap=0.3, k=k)
    stat = make_clamped_norm_excess(np.full(p, 0.5))
    report = variance_bias_experiment(
        config, times, "norm_excess", trials=trials, experiment_seed=seed
    )
    ref = _per_trial_reference(config, times, stat, trials, seed)
    assert np.array_equal((report.mean_s, report.se_mean_s), ref)


def test_variance_bias_experiment_address_limits():
    """Trials are counter rows, bounded below 2**31 like a trainer's steps."""
    quad = LDConfig(model=QuadraticLoss(center=np.zeros(2)), theta_start=np.ones(2))
    times = CheckpointTimes(t1=1.0, gap=1.0, k=3)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        variance_bias_experiment(quad, times, "clamped_coord", trials=2**31, experiment_seed=0)


def test_ld_config_rejects_a_model_that_is_not_quadratic():
    data = synth_classification(40, 2, num_classes=2, separation=2.0, seed=5)
    model = LogisticLoss.for_data(data, l2_reg=0.5, radius=1.0)
    with pytest.raises(ValueError, match="LogisticLoss"):
        LDConfig(model=model, theta_start=np.zeros(2))


def test_stationary_law_normalizes_curvature():
    """sigma_eff = sigma / sqrt(m) around the loss minimizer."""
    config = LDConfig(
        model=QuadraticLoss(center=np.full(3, 0.5), curvature=1.5),
        theta_start=np.zeros(3),
        sigma=0.8,
    )
    center, sigma_eff = stationary_law(config)
    assert np.array_equal(center, np.full(3, 0.5))
    assert sigma_eff == 0.8 / math.sqrt(1.5)
    wrong_dim = LDConfig(model=QuadraticLoss(center=np.zeros(3)), theta_start=np.zeros(2))
    with pytest.raises(ValueError, match="dimension"):
        stationary_law(wrong_dim)


# ---------------------------------------------------------------------------
# exact stationary variances


def _chunked_oracle_reference(theta_star, sigma, statistic, samples, seed):
    """Monte-Carlo Var[f(theta)] under N(theta*, sigma^2 I) and its SE
    sqrt((m4 - v^2) / n), from a fresh (chunk, p) draw per chunk."""
    center = np.asarray(theta_star, dtype=np.float64)
    gen = step_generator(seed, STREAM_ORACLE, 0)
    values = np.empty(samples)
    done = 0
    while done < samples:
        count = min(100_000, samples - done)
        draws = center + sigma * gen.standard_normal((count, center.size))
        values[done : done + count] = statistic.evaluate_batch(draws)
        done += count
    v = float(np.var(values, ddof=1))
    centered = values - values.mean()
    m4 = float(np.mean(centered**4))
    return v, math.sqrt(max(0.0, m4 - v * v) / samples)


def _clip_moments_reference(p, sigma, c):
    """(E[g], E[g^2]) for g = clip(sigma R - c, -1, 1), R ~ chi_p: scipy's chi
    tails beyond the clip points, quad between them. quad runs only where the
    law holds all but 2e-25 of its mass; since |g| <= 1, the rest is negligible."""
    chi = scipy.stats.chi(p)
    a, b = max(0.0, (c - 1.0) / sigma), (c + 1.0) / sigma
    lo, hi = max(a, chi.ppf(1e-25)), min(b, chi.isf(1e-25))
    window = [0.0, 0.0]
    for power in (1, 2) if lo < hi else ():
        window[power - 1] = scipy.integrate.quad(
            lambda r: (sigma * r - c) ** power * chi.pdf(r),
            lo, hi, epsabs=1e-15, epsrel=1e-13, limit=500,
        )[0]
    with np.errstate(over="ignore"):  # b^2 overflows for the smallest sigma
        below, above = float(chi.cdf(a)), float(chi.sf(b))
    return above - below + window[0], above + below + window[1]


def _reference_variance(name, p, sigma):
    if name == "clamped_coord":
        return _clip_moments_reference(1, sigma, 0.0)[1]
    mean, second = _clip_moments_reference(p, sigma, math.sqrt(p))
    return second - mean * mean


EXTREME_SIGMAS = (1e-300, 1e-5, 0.3, 1.0, 3.0, 1e3, 1e8, 1e154, 1e300)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("p", [1, 2, 3, 4, 16, 100])
@pytest.mark.parametrize("name", ["clamped_coord", "norm_excess"])
def test_exact_variance_matches_scipy_reference(name, p):
    """Neither sigma^2 nor a near-1 CDF difference cancels: at sigma = 1e8
    the textbook clamped form is 0.24 off, and at 1e200 it is -inf."""
    stat = dpld.STATISTICS[name](np.full(p, 0.25))
    for sigma in EXTREME_SIGMAS:
        v = stat.variance(sigma)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(_reference_variance(name, p, sigma), abs=1e-10), sigma


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("p", [1000, dpld.MAX_NORM_EXCESS_DIM])
def test_norm_excess_variance_in_high_dimension(p):
    """The window moments cancel to O(1) from O(p) terms, so the error grows
    with p; at the largest dimension accepted it stays within 1e-6."""
    stat = make_clamped_norm_excess(np.zeros(p))
    for sigma in (0.3, 1.0, 3.0):
        v = stat.variance(sigma)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(_reference_variance("norm_excess", p, sigma), abs=1e-6)
    with pytest.raises(ValueError, match="at most 10000"):
        make_clamped_norm_excess(np.zeros(dpld.MAX_NORM_EXCESS_DIM + 1))


def test_exact_variance_pinned_values():
    assert make_clamped_coordinate(np.zeros(4)).variance(1.0) == pytest.approx(
        CLAMPED_COORD_VAR, abs=1e-15
    )
    sign = make_sign_coordinate(np.zeros(2))
    assert all(sign.variance(sigma) == 1.0 for sigma in EXTREME_SIGMAS)
    for p in (1, 3, 100):
        for make in (make_clamped_coordinate, make_clamped_norm_excess):
            stat = make(np.zeros(p))
            # any finite positive sigma_eff, the denormals and the largest double included
            for sigma in (5e-324, 1e-200, 0.05, 0.7, 1.3, 20.0, 1e200, 1.7976931348623157e308):
                assert 0.0 <= stat.variance(sigma) <= 1.0


@pytest.mark.parametrize("name", sorted(dpld.STATISTICS))
def test_exact_variance_matches_monte_carlo_reference(name):
    """The experiment's oracle_v is its statistic's variance under the
    curvature-normalized stationary law, off the origin."""
    center = np.array([0.3, -1.0, 2.0])
    config = LDConfig(
        model=QuadraticLoss(center=center, curvature=1.5), theta_start=np.zeros(3), sigma=1.3
    )
    report = variance_bias_experiment(
        config, CheckpointTimes(t1=1.0, gap=1.0, k=2), name, trials=100, experiment_seed=0
    )
    law_center, sigma_eff = stationary_law(config)
    stat = dpld.STATISTICS[name](law_center)
    # 250_000 ends on a partial chunk
    ref_v, ref_se = _chunked_oracle_reference(law_center, sigma_eff, stat, 250_000, 6)
    assert abs(report.oracle_v - ref_v) <= 4 * ref_se


# ---------------------------------------------------------------------------
# analytic bounds


def test_burn_in_gamma_pinned_example():
    got = burn_in_gamma(smoothness=1.0, dim=1, dist0sq=0.0, delta=math.exp(-1.0), c=1.0)
    assert got == pytest.approx(BURN_IN_EXAMPLE, abs=1e-12)
    assert got == pytest.approx(2.1931471805599454, abs=1e-12)


def test_burn_in_gamma_monotonicity_and_validation():
    base = burn_in_gamma(1.0, 4, 1.0, 1e-2, 4.0)
    assert burn_in_gamma(1.0, 8, 1.0, 1e-2, 4.0) > base  # more dims, longer
    assert burn_in_gamma(1.0, 4, 9.0, 1e-2, 4.0) > base  # farther start, longer
    assert burn_in_gamma(1.0, 4, 1.0, 1e-4, 4.0) > base  # tighter delta, longer
    with pytest.raises(ValueError):
        burn_in_gamma(0.0, 4, 1.0, 1e-2, 4.0)
    with pytest.raises(ValueError):
        burn_in_gamma(1.0, 0, 1.0, 1e-2, 4.0)
    with pytest.raises(ValueError):
        burn_in_gamma(1.0, 4, 1.0, 2.0, 4.0)
    with pytest.raises(ValueError):
        burn_in_gamma(1.0, 4, 1.0, 1e-2, 0.0)


def test_renyi_divergence_closed_form():
    assert renyi_gaussians_shared_cov(np.zeros(2), np.array([1.0, 0.0]), 1.0, 2.0) == pytest.approx(1.0)
    assert renyi_gaussians_shared_cov(np.zeros(3), np.zeros(3), 5.0, 2.0) == 0.0
    # alpha ||mu1-mu2||^2 / (2 v)
    assert renyi_gaussians_shared_cov(
        np.array([1.0, 1.0]), np.array([-1.0, 1.0]), 4.0, 3.0
    ) == pytest.approx(3 * 4.0 / 8.0)
    with pytest.raises(ValueError):
        renyi_gaussians_shared_cov(np.zeros(1), np.ones(1), 0.0, 2.0)
    with pytest.raises(ValueError):
        renyi_gaussians_shared_cov(np.zeros(1), np.ones(1), 1.0, 1.0)


def test_expectation_gap_bound_values():
    assert expectation_gap_bound(0.0) == 0.0
    assert expectation_gap_bound(math.log(2.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        expectation_gap_bound(-0.1)


def test_expectation_gap_bound_holds_empirically():
    """|E_P g - E_Q g| for clamped statistics never beats the D2 bound."""
    gen = step_generator(21, STREAM_ORACLE, 6)
    for gap, var in ((0.5, 1.0), (1.0, 2.0), (2.0, 4.0)):
        mu1 = np.zeros(3)
        mu2 = np.array([gap, 0.0, 0.0])
        d2 = renyi_gaussians_shared_cov(mu1, mu2, var, 2.0)
        bound = expectation_gap_bound(d2)
        stat = make_clamped_coordinate(mu1)
        n = 200_000
        p_draws = mu1 + math.sqrt(var) * gen.standard_normal((n, 3))
        q_draws = mu2 + math.sqrt(var) * gen.standard_normal((n, 3))
        gap_hat = abs(
            stat.evaluate_batch(p_draws).mean() - stat.evaluate_batch(q_draws).mean()
        )
        se = 2.0 / math.sqrt(n)
        assert gap_hat <= bound + 3 * se


@pytest.mark.parametrize("dim", [1, 4, 16])
@pytest.mark.parametrize("x", [1.0, 2.0, 3.0])
def test_subgaussian_tail_is_the_chi_tail(dim, x):
    tail, bound = subgaussian_tail(dim, x)
    assert tail == pytest.approx(scipy.stats.chi.sf(math.sqrt(dim) + x, dim), rel=0.0, abs=1e-12)
    assert bound == pytest.approx(math.exp(-0.5 * x * x), abs=1e-15)
    assert tail <= bound


def test_subgaussian_tail_bound_holds():
    tail, bound = subgaussian_tail(dim=4, x=2.0)
    empirical, se = subgaussian_tail_mc(dim=4, x=2.0, samples=400_000, seed=1)
    assert abs(empirical - tail) <= 4 * se
    assert empirical <= bound + 3 * se
    for dim, x in ((0, 1.0), (4, -1.0), (4, math.nan)):
        with pytest.raises(ValueError):
            subgaussian_tail(dim, x)
