"""Langevin simulation: transition kernels, oracles, and analytic bounds."""

import csv
import itertools
import math

import numpy as np
import pytest

from dpckpt.dpld import (
    CheckpointTimes,
    LDConfig,
    _em_segment,
    _quadratic_center,
    burn_in_gamma,
    em_step,
    expectation_gap_bound,
    make_clamped_coordinate,
    make_clamped_norm_excess,
    make_sign_coordinate,
    ou_exact_sample,
    renyi_gaussians_shared_cov,
    sample_variance,
    stationary_law,
    stationary_oracle_V,
    subgaussian_tail_check,
    variance_bias_experiment,
    write_dpld_report,
)
from dpckpt.errors import NumericDivergenceError
from dpckpt.model import LogisticLoss, QuadraticLoss, synth_classification
from dpckpt.rng import STREAM_ORACLE, STREAM_TRIAL, gaussian_vector, step_generator

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
# Euler-Maruyama step


def test_em_step_zero_eta_is_identity():
    model = QuadraticLoss(center=np.zeros(2))
    theta = np.array([1.0, -2.0])
    gen = step_generator(0, STREAM_ORACLE, 0)
    out = em_step(theta, model, 0.0, 1.0, gen.standard_normal(2))
    assert np.array_equal(out, theta)
    assert out is not theta  # a copy, not the same array
    with pytest.raises(ValueError):
        em_step(theta, model, -0.1, 1.0, gen.standard_normal(2))


def test_em_step_zero_sigma_is_gradient_descent():
    model = QuadraticLoss(center=np.array([1.0, 1.0]), curvature=2.0)
    theta = np.array([3.0, 1.0])
    out = em_step(theta, model, 0.1, 0.0, step_generator(0, STREAM_ORACLE, 1).standard_normal(2))
    # theta - eta * 2 (theta - center) = (3,1) - 0.1*(4,0)
    assert np.allclose(out, [2.6, 1.0], atol=1e-15)


def test_em_step_noise_variance():
    """The injected noise has variance 2 eta sigma^2 per coordinate."""
    eta, sigma, dim = 0.01, 1.5, 200_000
    model = QuadraticLoss(center=np.zeros(dim))
    out = em_step(
        np.zeros(dim), model, eta, sigma, step_generator(7, STREAM_ORACLE, 3).standard_normal(dim)
    )
    # drift is zero at the center, so out is pure noise
    assert out.var() == pytest.approx(2 * eta * sigma**2, rel=0.02)
    assert abs(out.mean()) < 3 * math.sqrt(2 * eta * sigma**2 / dim)


def test_em_step_divergence_detection():
    model = QuadraticLoss(center=np.zeros(2), curvature=1.0)
    theta = np.array([1.0, 1.0])
    gen = step_generator(0, STREAM_ORACLE, 5)
    with pytest.raises(NumericDivergenceError), np.errstate(over="ignore"):
        for _ in range(2000):
            theta = em_step(theta, model, 1e8, 0.0, gen.standard_normal(2))


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


def test_em_segment_matches_ou_moments():
    """Fine-step EM integration agrees with the exact kernel's moments.

    Curvature m != 1 rescales the clock: the segment behaves as a
    unit-curvature process run for m*s with stationary std sigma/sqrt(m).
    Independent coordinates again stand in for repeated scalar draws.
    """
    dim = 50_000
    m, sigma, s = 2.0, 1.0, 0.6
    model = QuadraticLoss(center=np.ones(dim), curvature=m)
    start = np.full(dim, 3.0)
    gen = step_generator(3, STREAM_ORACLE, 4)
    sigma_eff = sigma / math.sqrt(m)
    normals = (gen.standard_normal(dim) for _ in itertools.count())
    draws = _em_segment(start, model, None, m, sigma_eff, 1e-3, m * s, normals)
    expected_mean = 1.0 + math.exp(-m * s) * 2.0
    expected_var = sigma_eff**2 * (1.0 - math.exp(-2.0 * m * s))
    assert draws.mean() == pytest.approx(expected_mean, abs=0.02)
    assert draws.var() == pytest.approx(expected_var, rel=0.05)


# ---------------------------------------------------------------------------
# variance estimation


def test_sample_variance_pinned():
    assert sample_variance(np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(5.0 / 3.0)
    assert sample_variance(np.array([2.0, 2.0])) == 0.0
    with pytest.raises(ValueError):
        sample_variance(np.array([1.0]))


def test_sample_variance_unbiased():
    gen = step_generator(2, STREAM_ORACLE, 8)
    draws = gen.normal(0.0, 2.0, size=(100_000, 5))
    estimates = draws.var(axis=1, ddof=1)
    assert np.allclose(estimates[:3], [sample_variance(row) for row in draws[:3]])
    assert estimates.mean() == pytest.approx(4.0, rel=0.01)


def test_stationary_oracle_matches_analytic_value():
    stat = make_clamped_coordinate(np.zeros(2))
    v, se = stationary_oracle_V(np.zeros(2), 1.0, stat, samples=1_000_000)
    assert se < 1e-3
    assert abs(v - CLAMPED_COORD_VAR) <= 4 * se
    with pytest.raises(ValueError):
        stationary_oracle_V(np.zeros(2), 1.0, stat, samples=50_000)


def test_stationary_oracle_deterministic():
    stat = make_sign_coordinate(np.zeros(1))
    a = stationary_oracle_V(np.zeros(1), 2.0, stat, samples=100_000, seed=4)
    b = stationary_oracle_V(np.zeros(1), 2.0, stat, samples=100_000, seed=4)
    assert a == b
    # sign statistic has variance 1 - E[sign]^2 = 1 at a symmetric center
    assert a[0] == pytest.approx(1.0, abs=0.01)


def test_checkpoint_times():
    times = CheckpointTimes(t1=2.0, gap=0.5, k=4)
    assert times.times() == [2.0, 2.5, 3.0, 3.5]
    assert times.elapsed_segments() == [2.0, 0.5, 0.5, 0.5]
    with pytest.raises(ValueError):
        CheckpointTimes(t1=0.0, gap=1.0, k=3)
    with pytest.raises(ValueError):
        CheckpointTimes(t1=1.0, gap=0.0, k=3)
    with pytest.raises(ValueError):
        CheckpointTimes(t1=1.0, gap=1.0, k=1)


def _oracle(config, stat, samples, seed, data=None):
    """The (V, SE) oracle of stat under config's stationary law."""
    return stationary_oracle_V(*stationary_law(config, data), stat, samples, seed=seed)


def test_variance_bias_experiment_well_mixed_quadratic():
    """With long burn-in and wide gaps, E[S] matches the stationary variance."""
    config = LDConfig(
        model=QuadraticLoss(center=np.zeros(4)),
        theta_start=np.full(4, 3.0),
        sigma=1.0,
    )
    times = CheckpointTimes(t1=20.0, gap=20.0, k=5)
    stat = make_clamped_coordinate(np.zeros(4))
    report = variance_bias_experiment(
        config, times, stat, trials=3000, experiment_seed=1,
        oracle=_oracle(config, stat, 200_000, seed=1),
    )
    assert report.trials == 3000
    assert report.abs_bias <= 3 * report.combined_se
    assert report.oracle_v == pytest.approx(CLAMPED_COORD_VAR, abs=0.01)
    assert math.isfinite(report.burn_in_bound)


def test_variance_bias_experiment_detects_correlation_bias():
    """Checkpoints taken immediately and close together underestimate V."""
    config = LDConfig(
        model=QuadraticLoss(center=np.zeros(4)),
        theta_start=np.full(4, 3.0),
        sigma=1.0,
    )
    times = CheckpointTimes(t1=0.01, gap=0.01, k=5)
    stat = make_clamped_coordinate(np.zeros(4))
    report = variance_bias_experiment(
        config, times, stat, trials=2000, experiment_seed=2,
        oracle=_oracle(config, stat, 200_000, seed=2),
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
    stat = make_clamped_coordinate(np.zeros(2))
    kwargs = dict(trials=500, experiment_seed=9, oracle=_oracle(config, stat, 100_000, seed=9))
    a = variance_bias_experiment(config, times, stat, **kwargs)
    b = variance_bias_experiment(config, times, stat, **kwargs)
    assert (a.mean_s, a.se_mean_s, a.oracle_v, a.oracle_se) == (
        b.mean_s,
        b.se_mean_s,
        b.oracle_v,
        b.oracle_se,
    )
    with pytest.raises(ValueError):
        variance_bias_experiment(config, times, stat, **{**kwargs, "trials": 50})


def test_variance_bias_experiment_non_quadratic_path():
    """A strongly convex logistic target runs through the EM integrator."""
    data = synth_classification(60, 2, num_classes=2, separation=2.0, seed=5)
    model = LogisticLoss.for_data(data, l2_reg=0.5, radius=1.0)
    config = LDConfig(model=model, theta_start=np.zeros(2), sigma=0.7, eta=2e-2)
    times = CheckpointTimes(t1=2.0, gap=2.0, k=3)
    stat = make_clamped_coordinate(np.zeros(2))
    report = variance_bias_experiment(
        config,
        times,
        stat,
        trials=120,
        experiment_seed=3,
        oracle=_oracle(config, stat, 100_000, seed=3, data=data),
        data=data,
    )
    assert math.isfinite(report.mean_s)
    assert math.isfinite(report.oracle_v)
    # Gaussian-approximation oracle at curvature m: variance sigma^2/m levels
    assert 0.0 < report.oracle_v < 1.0


def _per_trial_reference(config, times, statistic, trials, seed, data=None):
    """(mean_s, se_mean_s) from one trajectory at a time: gaussian_vector
    per event, then the OU chain or the EM steps, then np.var per trial."""
    model = config.model
    m = model.strong_convexity
    center = _quadratic_center(model, data)
    sigma_eff = config.sigma / math.sqrt(m)
    s_values = np.empty(trials)
    for j in range(trials):
        normals = (
            gaussian_vector(seed, STREAM_TRIAL, (j << 32) + s, center.size)
            for s in itertools.count()
        )
        theta = config.theta_start
        vals = np.empty(times.k)
        for i, seg in enumerate(times.elapsed_segments()):
            if isinstance(model, QuadraticLoss):
                theta = ou_exact_sample(center, sigma_eff, theta, m * seg, next(normals))
            else:
                theta = _em_segment(
                    theta, model, data, m, sigma_eff, config.eta, m * seg, normals
                )
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
        config, times, stat, trials=trials, experiment_seed=seed,
        oracle=_oracle(config, stat, 100_000, seed=seed),
    )
    ref = _per_trial_reference(config, times, stat, trials, seed)
    assert np.array_equal((report.mean_s, report.se_mean_s), ref)


@pytest.mark.parametrize("seed, trials, k, p", [(3, 101, 2, 1), (2**64 - 1, 103, 5, 4)])
def test_variance_bias_experiment_matches_per_trial_reference_em(seed, trials, k, p):
    data = synth_classification(60, p, num_classes=2, separation=2.0, seed=5)
    model = LogisticLoss.for_data(data, l2_reg=0.5, radius=1.0)
    config = LDConfig(model=model, theta_start=np.zeros(p), sigma=0.7, eta=5e-2)
    times = CheckpointTimes(t1=0.5, gap=0.3, k=k)
    stat = make_clamped_coordinate(np.zeros(p))
    report = variance_bias_experiment(
        config, times, stat, trials=trials, experiment_seed=seed,
        oracle=_oracle(config, stat, 100_000, seed=seed, data=data), data=data,
    )
    ref = _per_trial_reference(config, times, stat, trials, seed, data)
    assert np.array_equal((report.mean_s, report.se_mean_s), ref)


def test_variance_bias_experiment_address_limits():
    """Trial j and event s share one counter step, so both are bounded."""
    quad = LDConfig(model=QuadraticLoss(center=np.zeros(2)), theta_start=np.ones(2))
    times = CheckpointTimes(t1=1.0, gap=1.0, k=3)
    stat = make_clamped_coordinate(np.zeros(2))
    with pytest.raises(ValueError, match="2\\*\\*31"):
        variance_bias_experiment(
            quad, times, stat, trials=2**31, experiment_seed=0,
            oracle=_oracle(quad, stat, 100_000, seed=0),
        )
    data = synth_classification(40, 2, num_classes=2, separation=2.0, seed=5)
    model = LogisticLoss.for_data(data, l2_reg=0.5, radius=1.0)
    # ceil(1.0 * m / 1e-10) steps in the first segment alone exceed 2**32
    fine = LDConfig(model=model, theta_start=np.zeros(2), eta=1e-10)
    with pytest.raises(ValueError, match="2\\*\\*32"):
        variance_bias_experiment(
            fine, times, stat, trials=100, experiment_seed=0,
            oracle=_oracle(fine, stat, 100_000, seed=0, data=data), data=data,
        )


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


def _chunked_oracle_reference(theta_star, sigma, statistic, samples, seed):
    """stationary_oracle_V as a fresh (chunk, p) draw per chunk and centered**4."""
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


@pytest.mark.parametrize(
    "make_stat", [make_clamped_coordinate, make_sign_coordinate, make_clamped_norm_excess]
)
def test_stationary_oracle_matches_chunked_reference(make_stat):
    center = np.array([0.3, -1.0, 2.0])
    stat = make_stat(center)
    # 250_000 ends on a partial chunk
    v, se = stationary_oracle_V(center, 1.3, stat, samples=250_000, seed=6)
    ref_v, ref_se = _chunked_oracle_reference(center, 1.3, stat, 250_000, 6)
    assert v == ref_v
    assert se == pytest.approx(ref_se, rel=1e-12, abs=0.0)


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


def test_subgaussian_tail_bound_holds():
    empirical, bound, se = subgaussian_tail_check(dim=4, x=2.0, samples=400_000, seed=1)
    assert bound == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert empirical <= bound + 3 * se
    with pytest.raises(ValueError):
        subgaussian_tail_check(dim=4, x=1.0, samples=1000)


def test_write_dpld_report(tmp_path):
    config = LDConfig(model=QuadraticLoss(center=np.zeros(2)), theta_start=np.ones(2))
    times = CheckpointTimes(t1=1.0, gap=1.0, k=3)
    stat = make_clamped_coordinate(np.zeros(2))
    report = variance_bias_experiment(
        config, times, stat, trials=200, experiment_seed=0,
        oracle=_oracle(config, stat, 100_000, seed=0),
    )
    path = str(tmp_path / "dpld.csv")
    write_dpld_report([report], path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["t1", "gap", "k"]
    assert len(rows) == 2
    assert float(rows[1][0]) == 1.0
    assert int(rows[1][2]) == 3
