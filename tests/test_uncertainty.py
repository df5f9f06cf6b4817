"""Student-t machinery and confidence-interval construction.

scipy appears here only as a reference implementation; the package
itself never imports it.
"""

import json
import math

import numpy as np
import pytest
import scipy.stats

from dpckpt.model import DatasetHandle
from dpckpt.rng import STREAM_TRIAL, step_generator
from dpckpt.trainer import EtaSchedule, RunRecord, TrainerConfig
from dpckpt.uncertainty import (
    CIReport,
    UQConfig,
    ci_mean,
    _statistic_matrix,
    t_cdf,
    t_quantile,
    uq_average_width,
    uq_from_independent_runs,
    uq_widths,
    write_uq_report,
)

# independently computed with scipy.stats.t.ppf(0.975, 4) and frozen
T_QUANTILE_4_975 = 2.7764451051977987
# half-width of the 95% interval for samples (0.2, 0.4, 0.6, 0.8, 1.0):
# t(4, 0.975) * std(ddof=1) / sqrt(5), frozen from the same oracle
CI_HALF_EXAMPLE = 0.39264863228023966


def simpson_t_cdf(x: float, dof: int, panels: int = 4000) -> float:
    """Numerical-integration oracle for the t CDF, stdlib only."""
    const = math.gamma((dof + 1) / 2.0) / (
        math.sqrt(dof * math.pi) * math.gamma(dof / 2.0)
    )

    def pdf(u: float) -> float:
        return const * (1.0 + u * u / dof) ** (-(dof + 1) / 2.0)

    lo, hi = 0.0, abs(x)
    h = (hi - lo) / (2 * panels)
    total = pdf(lo) + pdf(hi)
    for i in range(1, 2 * panels):
        total += pdf(lo + i * h) * (4 if i % 2 else 2)
    integral = total * h / 3.0
    return 0.5 + math.copysign(integral, x)


# ---------------------------------------------------------------------------
# t CDF


def test_t_cdf_against_scipy():
    for dof in (1, 2, 4, 10, 50, 100, 1000, 2000):
        for x in (-6.0, -2.5, -0.3, 0.0, 0.7, 1.3, 3.0, 8.0):
            assert t_cdf(dof, x) == pytest.approx(
                float(scipy.stats.t.cdf(x, dof)), abs=1e-14
            )


@pytest.mark.parametrize(
    "dof, p",
    [(4.5, None), (True, None), (0, None), (4.5, 0.5), (True, 0.5), (0, 0.5), (True, 0.975)],
    ids=[
        "4.5", "True", "0", "t_quantile-4.5-median", "t_quantile-True-median",
        "t_quantile-0-median", "t_quantile-True-cached",
    ],
)
def test_t_cdf_rejects_a_dof_that_is_not_a_positive_int(dof, p):
    """t_cdf (p None) and t_quantile at p reject the dof, past the p = 0.5
    shortcut and past a cached t_quantile(1, p)."""
    if p is None:
        with pytest.raises(ValueError):
            t_cdf(dof, 1.0)
        return
    t_quantile(1, p)  # True == 1, so an untyped cache would hand True this entry
    with pytest.raises(ValueError):
        t_quantile(dof, p)


def test_t_cdf_nan_and_infinite_x():
    with pytest.raises(ValueError):
        t_cdf(4, math.nan)
    for dof in (1, 2, 3, 4, 2000):
        assert t_cdf(dof, math.inf) == 1.0
        assert t_cdf(dof, -math.inf) == 0.0


def test_t_cdf_against_simpson_oracle():
    for dof in (2, 4, 9):
        for x in (-2.0, 0.5, 2.7764451051977987):
            assert t_cdf(dof, x) == pytest.approx(simpson_t_cdf(x, dof), abs=1e-9)


def test_t_cdf_symmetry_and_monotonicity():
    for dof in (3, 7):
        assert t_cdf(dof, 0.0) == pytest.approx(0.5, abs=1e-15)
        for x in (0.4, 1.3, 2.9):
            assert t_cdf(dof, -x) == pytest.approx(1.0 - t_cdf(dof, x), abs=1e-14)
        values = [t_cdf(dof, x) for x in np.linspace(-4, 4, 33)]
        assert values == sorted(values)


# ---------------------------------------------------------------------------
# t quantile


def test_t_quantile_pinned_value():
    assert t_quantile(4, 0.975) == pytest.approx(T_QUANTILE_4_975, abs=1e-3)
    # the bisection actually lands far inside the contract tolerance
    assert t_quantile(4, 0.975) == pytest.approx(T_QUANTILE_4_975, abs=1e-8)


def test_t_quantile_pinned_bits_at_the_uq_compare_cells():
    # exact floats: uq_compare's interval widths stay the ones earlier versions wrote
    assert t_quantile(2, 0.975) == 4.302652729791589
    assert t_quantile(4, 0.975) == 2.776445105089806
    assert t_quantile(9, 0.975) == 2.2621571628260426


def test_t_quantile_against_scipy():
    for dof in (1, 2, 4, 9, 40):
        for p in (0.6, 0.9, 0.95, 0.975, 0.995):
            assert t_quantile(dof, p) == pytest.approx(
                float(scipy.stats.t.ppf(p, dof)), abs=1e-8
            )


def test_t_quantile_symmetry_and_median():
    for dof in (2, 5):
        assert t_quantile(dof, 0.5) == pytest.approx(0.0, abs=1e-10)
        assert t_quantile(dof, 0.2) == pytest.approx(-t_quantile(dof, 0.8), abs=1e-9)


def test_t_quantile_approaches_normal():
    z = float(scipy.stats.norm.ppf(0.975))
    # the classic dof correction is (z^3 + z) / (4 dof), about 1.2e-3 here
    assert t_quantile(2000, 0.975) == pytest.approx(z, abs=2e-3)
    gaps = [t_quantile(dof, 0.975) - z for dof in (10, 100, 1000)]
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_t_quantile_round_trips_through_cdf():
    for dof in (3, 8):
        for p in (0.7, 0.95, 0.99):
            assert t_cdf(dof, t_quantile(dof, p)) == pytest.approx(p, abs=1e-9)


def test_t_quantile_validation():
    with pytest.raises(ValueError):
        t_quantile(0, 0.9)
    with pytest.raises(ValueError):
        t_quantile(4, 0.0)
    with pytest.raises(ValueError):
        t_quantile(4, 1.0)


# ---------------------------------------------------------------------------
# confidence intervals


def test_ci_mean_frozen_example():
    report = ci_mean([0.2, 0.4, 0.6, 0.8, 1.0], level=0.95)
    assert report.mean == pytest.approx(0.6)
    assert report.k == 5
    assert report.dof == 4
    assert report.half_width == pytest.approx(CI_HALF_EXAMPLE, abs=1e-12)
    assert report.width == pytest.approx(2 * CI_HALF_EXAMPLE, abs=1e-12)


def test_ci_mean_zero_variance_and_validation():
    report = ci_mean([0.5, 0.5, 0.5])
    assert report.half_width == 0.0
    with pytest.raises(ValueError):
        ci_mean([1.0])
    with pytest.raises(ValueError):
        ci_mean([1.0, 2.0], level=1.0)


def test_ci_mean_permutation_and_scale():
    base = ci_mean([0.1, 0.9, 0.4, 0.6])
    shuffled = ci_mean([0.9, 0.4, 0.6, 0.1])
    assert shuffled.half_width == pytest.approx(base.half_width, abs=1e-15)
    tripled = ci_mean([0.3, 2.7, 1.2, 1.8])
    assert tripled.half_width == pytest.approx(3 * base.half_width, rel=1e-12)


def test_ci_mean_coverage_simulation():
    """95% t intervals cover the true mean 95% of the time for normal data."""
    trials, k = 10_000, 5
    gen = step_generator(123, STREAM_TRIAL, 0)
    draws = gen.normal(0.0, 1.0, size=(trials, k))
    q = t_quantile(k - 1, 0.975)
    half = q * draws.std(axis=1, ddof=1) / math.sqrt(k)
    covered = np.abs(draws.mean(axis=1)) <= half
    assert abs(covered.mean() - 0.95) < 0.01


def test_ci_mean_nominal_level_scaling():
    samples = [0.2, 0.5, 0.9, 0.3]
    wide = ci_mean(samples, level=0.99)
    narrow = ci_mean(samples, level=0.8)
    assert wide.half_width > ci_mean(samples).half_width > narrow.half_width


# ---------------------------------------------------------------------------
# model statistics and UQ drivers


def test_model_statistic_modes(prob_model):
    theta = np.array([0.2, 0.5, 0.3])
    x = np.zeros((1, 3))
    modal = _statistic_matrix([theta], prob_model, x, "modal_class_probability")
    assert modal.tolist() == [[pytest.approx(0.5)]]
    assert _statistic_matrix([theta], prob_model, x, "label_as_integer").tolist() == [[1.0]]
    with pytest.raises(ValueError):
        _statistic_matrix([theta], prob_model, x, "entropy")


def test_uq_widths_hand_computed(prob_model):
    # statistics for modal_class_probability are just max(theta) per model
    thetas = [np.array([0.2, 0.5, 0.3]), np.array([0.4, 0.4, 0.2]), np.array([0.1, 0.8, 0.1])]
    inputs = np.zeros((2, 3))
    config = UQConfig(k=3)
    widths = uq_widths(thetas, prob_model, inputs, config)
    stats = np.array([0.5, 0.4, 0.8])
    expected = 2 * t_quantile(2, 0.975) * stats.std(ddof=1) / math.sqrt(3)
    assert widths.shape == (2,)
    assert np.allclose(widths, expected, atol=1e-12)
    assert uq_average_width(thetas, prob_model, inputs, config) == pytest.approx(expected)
    with pytest.raises(ValueError):
        uq_widths(thetas[:1], prob_model, inputs, config)


def test_uq_config_validation():
    with pytest.raises(ValueError):
        UQConfig(method="bootstrap")
    with pytest.raises(ValueError):
        UQConfig(k=1)
    with pytest.raises(ValueError):
        UQConfig(level=0.0)
    with pytest.raises(ValueError):
        UQConfig(statistic_mode="entropy")
    with pytest.raises(ValueError):
        UQConfig(num_test_inputs=0)


def _fake_run(seed: int, final: np.ndarray, count: int = 6) -> RunRecord:
    steps = np.arange(1, count + 1)
    return RunRecord(
        TrainerConfig("practical", count, EtaSchedule("constant", 0.1), checkpoint_every=1, seed=seed),
        budget=None,
        params=final * (0.5 + 0.1 * steps[:, None]),
        steps=steps,
        metrics=np.zeros((count, 2)),
    )


def test_uq_from_independent_runs_selection(prob_model):
    gen = np.random.default_rng(9)
    runs = [_fake_run(seed, gen.uniform(0.1, 1.0, 3)) for seed in range(8)]
    config = UQConfig(method="independent_runs", k=3)
    inputs = np.zeros((2, 3))
    a = uq_from_independent_runs(runs, prob_model, inputs, config, selection_seed=5)
    b = uq_from_independent_runs(runs, prob_model, inputs, config, selection_seed=5)
    assert a == b  # same selection seed, same subset
    widths = {
        uq_from_independent_runs(runs, prob_model, inputs, config, selection_seed=s)
        for s in range(6)
    }
    assert len(widths) > 1  # different seeds pick different subsets
    dupes = [_fake_run(3, np.ones(3)), _fake_run(3, np.ones(3)), _fake_run(4, np.ones(3))]
    with pytest.raises(ValueError):
        uq_from_independent_runs(dupes, prob_model, inputs, config)
    with pytest.raises(ValueError):
        uq_from_independent_runs(runs[:2], prob_model, inputs, config)


def test_write_uq_report(tmp_path):
    path = str(tmp_path / "uq_report.json")
    config = UQConfig(method="last_k_checkpoints", k=5, level=0.95)
    write_uq_report(path, config, 0.123, per_input_widths=[0.1, 0.15])
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["method"] == "last_k_checkpoints"
    assert payload["k"] == 5
    assert payload["level"] == 0.95
    assert payload["statisticMode"] == "modal_class_probability"
    assert payload["averageWidth"] == 0.123
    assert payload["perInputWidths"] == [0.1, 0.15]
