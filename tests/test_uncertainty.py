"""Student-t machinery and confidence-interval construction.

scipy appears here only as a reference implementation; the package
itself never imports it.
"""

import math

import numpy as np
import pytest
import scipy.stats

from dpckpt.errors import ConfigError
from dpckpt.harness import ConfigView, parse_config_text, run_experiment
from dpckpt.model import LogisticLoss, synth_classification
from dpckpt.rng import STREAM_TRIAL, step_generator
from dpckpt.uncertainty import (
    STATISTIC_MODES,
    independent_rows,
    statistic_matrix,
    t_cdf,
    t_quantile,
    t_widths,
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
# confidence intervals for the mean (ci_mean) of a k-sample: t_widths


def test_ci_mean_frozen_example():
    width = t_widths([0.2, 0.4, 0.6, 0.8, 1.0], level=0.95)
    assert np.ndim(width) == 0
    assert width == pytest.approx(2 * CI_HALF_EXAMPLE, abs=1e-12)
    # the columns of a (k, n) matrix are k-samples of their own
    column = np.array([0.2, 0.4, 0.6, 0.8, 1.0])
    widths = t_widths(np.stack([column, 3 * column, np.full(5, 0.5)], axis=1), level=0.95)
    assert widths.shape == (3,)
    assert widths == pytest.approx([2 * CI_HALF_EXAMPLE, 6 * CI_HALF_EXAMPLE, 0.0], abs=1e-12)


def test_ci_mean_zero_variance_and_validation():
    assert t_widths([0.5, 0.5, 0.5], level=0.95) == 0.0
    with pytest.raises(ValueError, match="at least two samples"):
        t_widths([1.0], level=0.95)
    with pytest.raises(ValueError, match="at least two samples"):
        t_widths(np.ones((1, 4)), level=0.95)
    for level in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="level"):
            t_widths([1.0, 2.0], level=level)


def test_ci_mean_permutation_and_scale():
    base = t_widths([0.1, 0.9, 0.4, 0.6], level=0.95)
    shuffled = t_widths([0.9, 0.4, 0.6, 0.1], level=0.95)
    assert shuffled == pytest.approx(base, abs=1e-15)
    tripled = t_widths([0.3, 2.7, 1.2, 1.8], level=0.95)
    assert tripled == pytest.approx(3 * base, rel=1e-12)


def test_ci_mean_coverage_simulation():
    """95% t intervals cover the true mean 95% of the time for normal data."""
    trials, k = 10_000, 5
    gen = step_generator(123, STREAM_TRIAL, 0)
    draws = gen.normal(0.0, 1.0, size=(trials, k))
    covered = np.abs(draws.mean(axis=1)) <= t_widths(draws.T, level=0.95) / 2
    assert abs(covered.mean() - 0.95) < 0.01


def test_ci_mean_nominal_level_scaling():
    samples = [0.2, 0.5, 0.9, 0.3]
    wide = t_widths(samples, level=0.99)
    narrow = t_widths(samples, level=0.8)
    assert wide > t_widths(samples, level=0.95) > narrow


# ---------------------------------------------------------------------------
# model statistics and run selection


def test_model_statistic_modes(prob_model):
    theta = np.array([0.2, 0.5, 0.3])
    x = np.zeros((1, 3))
    modal = statistic_matrix([theta], prob_model, x, "modal_class_probability")
    assert modal.tolist() == [[pytest.approx(0.5)]]
    assert statistic_matrix([theta], prob_model, x, "label_as_integer").tolist() == [[1.0]]
    with pytest.raises(ValueError):
        statistic_matrix([theta], prob_model, x, "entropy")


def test_uq_widths_hand_computed(prob_model):
    # statistics for modal_class_probability are just max(theta) per model
    thetas = [np.array([0.2, 0.5, 0.3]), np.array([0.4, 0.4, 0.2]), np.array([0.1, 0.8, 0.1])]
    inputs = np.zeros((2, 3))
    stats = statistic_matrix(thetas, prob_model, inputs, "modal_class_probability")
    widths = t_widths(stats, level=0.95)
    expected = 2 * t_quantile(2, 0.975) * np.array([0.5, 0.4, 0.8]).std(ddof=1) / math.sqrt(3)
    assert widths.shape == (2,)
    assert np.allclose(widths, expected, atol=1e-12)


@pytest.mark.parametrize("classes", [2, 3], ids=["binary", "softmax"])
@pytest.mark.parametrize("mode", STATISTIC_MODES)
def test_statistic_matrix_row_slices_equal_the_matrix_of_those_rows(classes, mode):
    """uq_compare computes one matrix per epsilon and slices its cells
    from it, which relies on each row not depending on its neighbours."""
    data = synth_classification(60, 4, num_classes=classes, separation=2.0, seed=3)
    model = LogisticLoss.for_data(data, l2_reg=0.05, radius=2.0)
    thetas = step_generator(11, STREAM_TRIAL, 0).normal(size=(12, model.param_dim()))
    inputs = data.features[:25]
    full = statistic_matrix(thetas, model, inputs, mode)
    assert full.shape == (12, 25)
    for rows in (slice(-5, None), slice(0, 1), [1, 4, 7, 11], [3]):
        assert np.array_equal(full[rows], statistic_matrix(thetas[rows], model, inputs, mode))
    assert np.array_equal(
        full[[2, 9]], statistic_matrix([thetas[2], thetas[9]], model, inputs, mode)
    )


def test_uq_from_independent_runs_selection():
    seeds = [101, 102, 103, 104, 105, 106, 107, 108]
    rows = independent_rows(seeds, 3, selection_seed=5)
    assert rows.tolist() == sorted(set(rows.tolist()))  # sorted and distinct
    assert len(rows) == 3 and 0 <= rows.min() and rows.max() < len(seeds)
    # same selection seed, same subset
    assert np.array_equal(independent_rows(seeds, 3, selection_seed=5), rows)
    picks = {tuple(independent_rows(seeds, 3, selection_seed=s)) for s in range(6)}
    assert len(picks) > 1  # different seeds pick different subsets
    with pytest.raises(ValueError, match="distinct seeds"):
        independent_rows([3, 3, 4], 3, selection_seed=0)
    with pytest.raises(ValueError, match="need at least 3"):
        independent_rows(seeds[:2], 3, selection_seed=0)


def test_uq_config_validation(tmp_path):
    """uq_compare rejects each bad uq setting, naming its key, before training."""
    for line, key in (
        ("uq.method = bootstrap", "uq.method"),
        ("uq.k_values = 1", "uq.k_values"),
        ("uq.level = 0", "uq.level"),
        ("uq.statistic = entropy", "uq.statistic"),
        ("uq.num_test_inputs = 0", "uq.num_test_inputs"),
    ):
        view = ConfigView(parse_config_text(f"task = uq_compare\n{line}\n"))
        with pytest.raises(ConfigError) as exc:
            run_experiment(view, str(tmp_path / "out"), workers=1)
        assert exc.value.key == key
